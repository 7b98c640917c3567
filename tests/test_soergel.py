import hashlib
import json
import os
import subprocess
import sys

from itertools import combinations_with_replacement

import numpy as np
import pytest

from flagalg import _linalg as la
from flagalg import soergel as sg
from flagalg.coxeter import CARTAN, build_group
from flagalg.galgebra import StructuralError

FIX = json.load(open(os.path.join(os.path.dirname(__file__),
                                  "fixtures", "frozen.json")))


def poincare(C):
    counts = {}
    for w in C.group.elements:
        counts[2 * w.length] = counts.get(2 * w.length, 0) + 1
    return counts


@pytest.mark.parametrize("t,ell", [("A1", 5), ("A1", 7), ("A2", 5),
                                   ("A2", 7), ("B2", 5), ("B2", 7)])
def test_coinvariant_dims_and_hilbert(t, ell):
    C = sg.coinvariant_algebra(t, ell)
    assert sum(C.dims) == len(C.group.elements)
    doubled = {2 * d: v for d, v in enumerate(C.dims) if v}
    assert doubled == poincare(C)


def test_standing_assumption_rejected():
    with pytest.raises(ValueError, match="Coxeter"):
        sg.coinvariant_algebra("A2", 3)
    with pytest.raises(ValueError, match="Coxeter"):
        sg.coinvariant_algebra("G2", 5)


@pytest.mark.parametrize("t,ell", [("A1", 9), ("A2", 9), ("A2", 25),
                                   ("B2", 15), ("G2", 49)])
def test_non_prime_ell_rejected(t, ell):
    with pytest.raises(ValueError, match=f"ell = {ell} is not prime"):
        sg.coinvariant_algebra(t, ell)


def test_demazure_properties(C_A2):
    C = C_A2
    for i in range(C.rank):
        for d in range(1, C.top + 1):
            dd = C.demazure[i]
            if d - 1 >= 1:
                square = (dd[d - 1] @ dd[d]) % C.ell
                assert not np.any(square)  # Demazure squares to zero
        # Demazure kills invariants
        inv = C.invariants(i)
        for d in range(1, C.top + 1):
            for row in inv[d]:
                assert not np.any((C.demazure[i][d] @ row) % C.ell)
        # splitting C = C^s + delta C^s, dimension count
        total_inv = sum(v.shape[0] for v in inv.values())
        assert total_inv == len(C.group.elements) // 2
        delta = C.delta(i)
        assert (C.demazure[i][1] @ delta) % C.ell == np.array([1])


def test_splitting_is_free_of_rank_two(C_A2):
    # C = C^s + delta_s C^s: per degree, invariants plus delta times
    # invariants fill C exactly (the rank-2 freeness behind the induction);
    # delta is a combination of the degree-1 monomials, the variables, and
    # a variable multiplies through gen_mult
    C = C_A2
    for i in range(C.rank):
        inv = C.invariants(i)
        for d in range(C.top + 1):
            rows = [row for row in inv.get(d, [])]
            if d >= 1:
                for row in inv.get(d - 1, []):
                    vec = np.zeros(len(C.basis[d]), dtype=np.int64)
                    for c, mon in zip(C.delta(i), C.basis[1]):
                        j = mon.index(1)
                        vec = (vec + int(c) * (C.gen_mult[j][d - 1] @ row)) \
                            % C.ell
                    rows.append(vec)
            if rows:
                m = np.array(rows, dtype=np.int64)
                assert la.mod_rank(m, C.ell) == len(C.basis[d])
                assert len(rows) == len(C.basis[d])


def test_bott_samelson_dimensions(C_A2):
    C = C_A2
    assert sg.bott_samelson(C, "").dims_by_degree() == {0: 1}
    Ds = sg.bott_samelson(C, "s")
    assert Ds.dims_by_degree() == {0: 1, 2: 1}
    Dst = sg.bott_samelson(C, "st")
    assert Dst.dims_by_degree() == {0: 1, 2: 2, 4: 1}
    for word in ("s", "st", "sts", "ts"):
        D = sg.bott_samelson(C, word)
        assert D.dim == 2 ** len(word)
        # graded dimension (1 + q^2)^{|word|}
        from math import comb
        assert D.dims_by_degree() == {
            2 * k: comb(len(word), k) for k in range(len(word) + 1)}


def test_bott_samelson_a1_degrees(C_A1):
    D = sg.bott_samelson(C_A1, "s")
    assert D.dims_by_degree() == {0: 1, 2: 1}


def test_graded_hom_examples(C_A1):
    C = C_A1
    D0 = sg.bott_samelson(C, "")
    Ds = sg.bott_samelson(C, "s")
    assert sg.graded_hom(C, D0, D0) == {0: 1}
    assert sg.graded_hom(C, D0, Ds) == {2: 1}
    assert sg.graded_hom(C, Ds, Ds) == {0: 1, 2: 1}
    assert sg.graded_hom(C, Ds, D0) == {0: 1}


def test_end_algebra_a1(C_A1):
    data = sg.endomorphism_algebra(C_A1)
    assert data.algebra.dim == 5
    assert data.algebra.dims_by_degree() == {0: 3, 2: 2}
    data.algebra.check()
    # e_() E e_() is one dimensional
    e0 = data.algebra.idempotents[""]
    prod_space = [k for i, j, k, _ in data.algebra.mult.tolist()
                  if i == e0 and j == e0]
    assert len(set(prod_space)) == 1


def test_end_algebra_a2_frozen(C_A2):
    data = sg.endomorphism_algebra(C_A2)
    frozen = FIX["end_algebra"]["A2"]
    assert data.algebra.dim == frozen["dim"]
    assert {str(k): v for k, v in data.algebra.dims_by_degree().items()} \
        == frozen["dims"]
    assert all(d % 2 == 0 for d in data.algebra.degrees)


def test_wall_algebra_dims_frozen(C_A2):
    for s, key in ((0, "A2_wall_s"), (1, "A2_wall_t")):
        data, emb = sg.wall_algebra(C_A2, s)
        frozen = FIX["end_algebra"][key]
        assert data.algebra.dim == frozen["dim"]
        assert {str(k): v for k, v in
                data.algebra.dims_by_degree().items()} == frozen["dims"]


def test_block_bookkeeping(C_A1):
    # e_f E e_g as a graded space equals the graded Hom(D_g, D_f)
    data = sg.endomorphism_algebra(C_A1)
    for ft in data.words:
        for fs in data.words:
            expected = sg.graded_hom(C_A1, data.modules[fs],
                                     data.modules[ft])
            rows = data.block_ranges[(ft, fs)]
            assert list(rows) == [i for i, (t, s, _) in
                                  enumerate(data.basis_blocks)
                                  if (t, s) == (ft, fs)]
            got = {}
            for i in rows:
                d = data.basis_blocks[i][2]
                got[d] = got.get(d, 0) + 1
            assert got == expected


def test_embedding_into_wall(C_A1, C_A2):
    from flagalg import _linalg as la
    for C in (C_A1, C_A2):
        full = sg.endomorphism_algebra(C)
        for s in range(C.rank):
            data, emb = sg.wall_algebra(C, s)
            assert la.mod_rank(emb, C.ell) == full.algebra.dim
            # unital and degree-0: the unit goes to the unit
            u = full.algebra.unit_vector()
            img = (emb @ u) % C.ell
            assert np.array_equal(img, data.algebra.unit_vector())


@pytest.mark.parametrize("s", [0])
def test_bimodule_shift_a1(C_A1, s):
    assert sg.bimodule_shift_check(C_A1, s)


@pytest.mark.parametrize("s", [0, 1])
def test_bimodule_shift_a2(C_A2, s):
    assert sg.bimodule_shift_check(C_A2, s)


def test_bimodule_shift_degenerate_family(C_A1):
    # with F = {()} alone the Hom space is checked vacuously against the
    # one-block wall algebra
    C = C_A1
    data = sg.endomorphism_algebra(C, words=[""])
    assert data.algebra.dim == 1


def test_graded_hom_wall_flavor(C_A1):
    # over the invariants of s the Hom spaces grow: all linear maps when
    # the invariants reduce to the ground field
    C = C_A1
    D0 = sg.bott_samelson(C, "")
    Ds = sg.bott_samelson(C, "s")
    assert sg.graded_hom(C, D0, D0, wall=0) == {0: 1}
    assert sg.graded_hom(C, Ds, Ds, wall=0) == {-2: 1, 0: 2, 2: 1}
    assert sg.graded_hom(C, Ds, D0, wall=0) == {-2: 1, 0: 1}


def test_g2_coinvariants_and_small_homs():
    # the largest supported type stays exact at the level of single
    # module computations
    C = sg.coinvariant_algebra("G2", 7)
    assert sum(C.dims) == 12
    assert C.dims == [1, 2, 2, 2, 2, 2, 1]
    D = sg.bott_samelson(C, "st")
    assert D.dims_by_degree() == {0: 1, 2: 2, 4: 1}
    hom = sg.graded_hom(C, D, D)
    assert hom[0] >= 1 and sum(hom.values()) >= 2


# ---------------------------------------------------------------------------
# the dict-polynomial reference for the coinvariant algebra


def _monomials_ref(rank, degree):
    if degree == 0:
        return [(0,) * rank]
    out = set()
    for combo in combinations_with_replacement(range(rank), degree):
        e = [0] * rank
        for i in combo:
            e[i] += 1
        out.add(tuple(e))
    return sorted(out)


def _poly_mult(f, g, ell):
    out = {}
    for a, c in f.items():
        for b, d in g.items():
            k = tuple(x + y for x, y in zip(a, b))
            out[k] = (out.get(k, 0) + c * d) % ell
    return {k: v for k, v in out.items() if v}


def _divide_by_variable_ref(poly, i, ell):
    out = {}
    for exps, c in poly.items():
        if c % ell == 0:
            continue
        assert exps[i], "polynomial is not divisible by the variable"
        down = tuple(e - int(k == i) for k, e in enumerate(exps))
        out[down] = c % ell
    return out


class _CoinvariantReference:
    """C from polynomials as dicts {exponents: coefficient}: the ideal
    spanned by every invariant times every monomial, each monomial's
    reduction kept in `_reduce[d][mon]`, and every table built one basis
    monomial at a time.  The reference for sg.CoinvariantAlgebra."""

    def __init__(self, cartan_type, ell):
        self.ell = ell
        self.group = build_group(cartan_type)
        self.rank = self.group.rank
        cartan = CARTAN[cartan_type]
        top = self.group.longest_element.length

        def refl_poly(i, poly):
            out = {}
            for exps, c in poly.items():
                term = {(0,) * self.rank: c}
                for j, e in enumerate(exps):
                    if e == 0:
                        continue
                    lin = {}
                    unit = tuple(int(k == j) for k in range(self.rank))
                    lin[unit] = 1
                    shift = tuple(int(k == i) for k in range(self.rank))
                    lin[shift] = lin.get(shift, 0) - cartan[i][j]
                    for _ in range(e):
                        term = _poly_mult(term, lin, ell)
                for k, v in term.items():
                    out[k] = (out.get(k, 0) + v) % ell
            return {k: v for k, v in out.items() if v}

        inv_by_degree = {}
        for d in range(1, top + 2):
            mons = _monomials_ref(self.rank, d)
            pos = {m: k for k, m in enumerate(mons)}
            rows = []
            for i in range(self.rank):
                for m in mons:
                    img = refl_poly(i, {m: 1})
                    row = np.zeros(len(mons), dtype=np.int64)
                    for k, v in img.items():
                        row[pos[k]] = v % ell
                    row[pos[m]] = (row[pos[m]] - 1) % ell
                    rows.append(row)
            mat = np.array(rows, dtype=np.int64).reshape(-1, len(mons))
            stacked = np.concatenate(
                [mat[i * len(mons):(i + 1) * len(mons)].T
                 for i in range(self.rank)], axis=0)
            inv = la.mod_nullspace(stacked, ell)
            inv_by_degree[d] = [dict((m, int(v[k])) for m, k in pos.items()
                                     if v[k]) for v in inv]

        self.basis = {0: [(0,) * self.rank]}
        self._reduce = {0: {(0,) * self.rank: np.array([1], dtype=np.int64)}}
        for d in range(1, top + 2):
            mons = _monomials_ref(self.rank, d)
            pos = {m: k for k, m in enumerate(mons)}
            rows = []
            for e in range(1, d + 1):
                for f in inv_by_degree.get(e, []):
                    for m in _monomials_ref(self.rank, d - e):
                        row = np.zeros(len(mons), dtype=np.int64)
                        for k, v in f.items():
                            prod = tuple(a + b for a, b in zip(k, m))
                            row[pos[prod]] = (row[pos[prod]] + v) % ell
                        if np.any(row):
                            rows.append(row)
            if rows:
                red, piv = la.mod_rref(np.array(rows, dtype=np.int64), ell)
            else:
                red, piv = np.zeros((0, len(mons)), dtype=np.int64), []
            keep = [m for k, m in enumerate(mons) if k not in piv]
            self.basis[d] = keep
            table = {}
            keep_pos = {m: k for k, m in enumerate(keep)}
            for k, m in enumerate(mons):
                vec = np.zeros(len(keep), dtype=np.int64)
                if k in piv:
                    i = piv.index(k)
                    for m2, k2 in keep_pos.items():
                        vec[k2] = (-int(red[i, pos[m2]])) % ell
                else:
                    vec[keep_pos[m]] = 1
                table[m] = vec
            self._reduce[d] = table

        self.top = top
        self.dims = [len(self.basis[d]) for d in range(top + 1)]

        self.gen_mult = []
        for i in range(self.rank):
            mats = {}
            for d in range(top):
                m = np.zeros((len(self.basis[d + 1]), len(self.basis[d])),
                             dtype=np.int64)
                for col, mon in enumerate(self.basis[d]):
                    up = tuple(e + int(k == i) for k, e in enumerate(mon))
                    m[:, col] = self._reduce[d + 1][up]
                mats[d] = m
            mats[top] = np.zeros((0, len(self.basis[top])), dtype=np.int64)
            self.gen_mult.append(mats)

        self.refl = []
        self.demazure = []
        for i in range(self.rank):
            rmats, dmats = {}, {}
            for d in range(top + 2):
                rm = np.zeros((len(self.basis[d]), len(self.basis[d])),
                              dtype=np.int64)
                dm = np.zeros((len(self.basis[d - 1]) if d else 0,
                               len(self.basis[d])), dtype=np.int64)
                for col, mon in enumerate(self.basis[d]):
                    img = refl_poly(i, {mon: 1})
                    acc = np.zeros(len(self.basis[d]), dtype=np.int64)
                    for k, v in img.items():
                        acc = (acc + v * self._reduce[d][k]) % ell
                    rm[:, col] = acc
                    if d:
                        diff = dict(img)
                        diff[mon] = (diff.get(mon, 0) - 1) % ell
                        quot = _divide_by_variable_ref(
                            {k: (-v) % ell for k, v in diff.items() if v % ell},
                            i, ell)
                        accd = np.zeros(len(self.basis[d - 1]),
                                        dtype=np.int64)
                        for k, v in quot.items():
                            accd = (accd + v * self._reduce[d - 1][k]) % ell
                        dm[:, col] = accd
                rmats[d] = rm
                dmats[d] = dm
            self.refl.append(rmats)
            self.demazure.append(dmats)

    def delta(self, i):
        dm = self.demazure[i][1]
        col = next(c for c in range(dm.shape[1]) if dm[0, c] % self.ell)
        v = np.zeros(len(self.basis[1]), dtype=np.int64)
        v[col] = pow(int(dm[0, col]), self.ell - 2, self.ell)
        return v

    def invariants(self, i):
        return {d: la.mod_nullspace(
            (self.refl[i][d] - np.eye(len(self.basis[d]), dtype=np.int64))
            % self.ell, self.ell) for d in range(self.top + 1)}


def _same_tables(got, want):
    """Dicts {degree: matrix}, with the same keys in the same order and
    the same int64 matrices."""
    assert list(got) == list(want)
    for d in want:
        assert got[d].dtype == want[d].dtype == np.int64
        assert got[d].shape == want[d].shape
        assert np.array_equal(got[d], want[d]), d


@pytest.mark.parametrize("cartan,ell", [
    *[("A1", ell) for ell in (3, 5, 7, 11)],
    *[("A2", ell) for ell in (5, 7, 11, 13)],
    *[("A3", ell) for ell in (5, 7, 11)],
    *[("B2", ell) for ell in (5, 7, 11, 13)],
    *[("G2", ell) for ell in (7, 11, 13, 17)]])
def test_coinvariant_tables_match_reference(cartan, ell):
    C = sg.coinvariant_algebra(cartan, ell)
    ref = _CoinvariantReference(cartan, ell)
    assert C.top == ref.top and C.rank == ref.rank
    assert C.basis == ref.basis and C.dims == ref.dims
    for d, table in ref._reduce.items():
        # the reduction of every monomial of S_d into C_d
        assert list(table) == sg._monomials(C.rank, d)
        got = C._reduction[d]
        assert got.shape == (len(C.basis[d]), len(table))
        assert np.array_equal(got.T, np.array(list(table.values()))
                              .reshape(got.shape[::-1]))
    for i in range(C.rank):
        _same_tables(C.gen_mult[i], ref.gen_mult[i])
        _same_tables(C.refl[i], ref.refl[i])
        _same_tables(C.demazure[i], ref.demazure[i])
        _same_tables(C.invariants(i), ref.invariants(i))
        assert np.array_equal(C.delta(i), ref.delta(i))


def test_product_matches_monomial_reduction(C_A2, C_B2):
    # the product of coordinates is the reduction of the product of the
    # lifted polynomials, here for every pair of basis monomials (A3 has
    # C_d of unequal dimensions)
    for C in (C_A2, C_B2, sg.coinvariant_algebra("A3", 5)):
        for d1 in range(C.top + 1):
            for d2 in range(C.top + 1 - d1):
                for k1, m1 in enumerate(C.basis[d1]):
                    for k2, m2 in enumerate(C.basis[d2]):
                        u = np.eye(C.dims[d1], dtype=np.int64)[k1]
                        v = np.eye(C.dims[d2], dtype=np.int64)[k2]
                        mon = tuple(a + b for a, b in zip(m1, m2))
                        want = C._reduction[d1 + d2][
                            :, sg._monomials(C.rank, d1 + d2).index(mon)]
                        assert np.array_equal(C.product(u, d1, v, d2), want)
                        assert np.array_equal(C.product(v, d2, u, d1), want)


# ---------------------------------------------------------------------------
# loop references for the Hom solver and the End assembly


def _graded_hom_basis_loop(C, M, N, wall=None):
    """One constraint row per basis element of C (or C^s) and output
    entry, built entry by entry: the reference for graded_hom_basis, which
    imposes commutation with generators only."""
    if wall is None:
        elems = [(2 * d, [C.monomial_action(m.gen_action, mon)
                          for m in (M, N)])
                 for d in range(1, C.top + 1) for mon in C.basis[d]]
    else:
        inv = C.invariants(wall)
        elems = [(2 * d, [C.element_action(m.gen_action, row, d)
                          for m in (M, N)])
                 for d in range(1, C.top + 1) for row in inv[d]]
    ell = C.ell
    shifts = sorted({dn - dm for dn in set(N.degrees)
                     for dm in set(M.degrees)})
    out = {}
    for d in shifts:
        pos = {}
        for n in range(N.dim):
            for m in range(M.dim):
                if N.degrees[n] == M.degrees[m] + d:
                    pos[(n, m)] = len(pos)
        rows = []
        for da, (am, an) in elems:
            for m in range(M.dim):
                col = am[:, m]
                for n in range(N.dim):
                    if N.degrees[n] != M.degrees[m] + d + da:
                        continue
                    row = np.zeros(len(pos), dtype=np.int64)
                    hit = False
                    for m2 in np.nonzero(col)[0]:
                        key = (n, int(m2))
                        if key in pos:
                            row[pos[key]] = (row[pos[key]]
                                             + int(col[m2])) % ell
                            hit = True
                    for n2 in np.nonzero(an[n, :])[0]:
                        key = (int(n2), m)
                        if key in pos:
                            row[pos[key]] = (row[pos[key]]
                                             - int(an[n, int(n2)])) % ell
                            hit = True
                    if hit:
                        rows.append(row)
        if rows:
            ker = la.mod_nullspace(np.array(rows, dtype=np.int64), ell)
        else:
            ker = np.eye(len(pos), dtype=np.int64)
        mats = []
        for v in ker:
            phi = np.zeros((N.dim, M.dim), dtype=np.int64)
            for (n, m), k in pos.items():
                phi[n, m] = v[k]
            mats.append(phi)
        if mats:
            out[d] = mats
    return out


def _assemble_end_algebra_loop(C, words, modules, wall=None):
    """Structure constants one basis pair at a time, each composite
    reduced against an incremental echelon form of its target block: the
    reference for _assemble_end_algebra.  Returns (basis_blocks,
    basis_mats, mult, unit, idempotents)."""
    ell = C.ell
    basis_blocks = []
    basis_mats = []
    block_basis = {}
    for ft in words:
        for fs in words:
            homs = sg.graded_hom_basis(C, modules[fs], modules[ft], wall)
            for d, mats in sorted(homs.items()):
                if ft == fs and d == 0:
                    size = modules[ft].dim
                    ident = np.eye(size, dtype=np.int64)
                    ech = la._Echelon(size * size, ell)
                    ech.insert(ident.reshape(-1))
                    rebased = [ident]
                    for m in mats:
                        if ech.insert(m.reshape(-1)) is None:
                            rebased.append(m)
                    assert len(rebased) == len(mats)
                    mats = rebased
                for m in mats:
                    block_basis.setdefault((ft, fs, d), []).append(
                        len(basis_blocks))
                    basis_blocks.append((ft, fs, d))
                    basis_mats.append(m)
    ech = {}
    for key, idxs in block_basis.items():
        e = la._Echelon(basis_mats[idxs[0]].size, ell)
        for idx in idxs:
            assert e.insert(basis_mats[idx].reshape(-1)) is None
        ech[key] = (e, idxs)
    mult = []
    for i, (ti, si, di) in enumerate(basis_blocks):
        for j, (tj, sj, dj) in enumerate(basis_blocks):
            if si != tj:
                continue
            comp = la.mod_matmul(basis_mats[i], basis_mats[j], ell)
            if not np.any(comp):
                continue
            e, idxs = ech[(ti, sj, di + dj)]
            red, combo = e.reduce(comp.reshape(-1))
            assert not np.any(red)
            mult += [(i, j, idxs[k], int((-combo[k]) % ell))
                     for k in range(len(combo)) if combo[k] % ell]
    idems = {f: block_basis[(f, f, 0)][0] for f in words}
    unit = {idx: 1 for idx in idems.values()}
    return basis_blocks, basis_mats, mult, unit, idems


@pytest.mark.parametrize("cartan,ell,max_length", [
    ("A1", 5, None), ("A2", 5, None), ("B2", 7, None), ("G2", 7, 4)])
def test_graded_hom_basis_matches_loop(cartan, ell, max_length):
    C = sg.coinvariant_algebra(cartan, ell)
    words = [w for w in sg._family_words(C)
             if max_length is None or len(w) <= max_length]
    mods = {w: sg.bott_samelson(C, w) for w in words}
    for wall in (None, *range(C.rank)):
        for fs in words:
            for ft in words:
                got = sg.graded_hom_basis(C, mods[fs], mods[ft], wall)
                want = _graded_hom_basis_loop(C, mods[fs], mods[ft], wall)
                assert list(got) == list(want)
                for d, mats in want.items():
                    assert np.array_equal(np.array(got[d]), np.array(mats))


def test_g2_hom_blocks_frozen():
    # all 144 Hom blocks between the G2 Bott-Samelson modules of the
    # family: graded dims per block, and one sha256 over the bases in
    # (target, source, degree) order
    frozen = FIX["g2_hom_blocks"]
    C = sg.coinvariant_algebra("G2", frozen["ell"])
    words = sg._family_words(C)
    mods = {w: sg.bott_samelson(C, w) for w in words}
    dims, digest = {}, hashlib.sha256()
    for ft in words:
        for fs in words:
            homs = sg.graded_hom_basis(C, mods[fs], mods[ft])
            dims[f"{ft or 'e'}<-{fs or 'e'}"] = {
                str(d): len(b) for d, b in homs.items()}
            for d, b in homs.items():
                digest.update(f"{ft}<-{fs} {d} {len(b)};".encode())
                digest.update(np.array(b, dtype=np.int64).tobytes())
    assert dims == frozen["dims"]
    assert sum(sum(v.values()) for v in dims.values()) == 4869
    assert digest.hexdigest() == frozen["sha256"]


@pytest.mark.slow
def test_end_algebra_a3_frozen():
    # E(A3) at ell = 7, its structure constants pinned with every
    # composite formed in full; a fresh C, so that nothing of this algebra
    # stays cached after the test
    frozen = FIX["end_algebra_large"]["A3"]
    E = sg.endomorphism_algebra(
        sg.CoinvariantAlgebra("A3", frozen["ell"])).algebra
    assert (E.dim, len(E.mult)) == (frozen["dim"], frozen["rows"])
    assert hashlib.sha256(E.mult.tobytes()).hexdigest() == \
        frozen["mult_sha256"]


def test_presentation_generators_g2():
    # as C-modules D_sts has 2 generators, D_stst 3, D_ststs and D_tstst
    # 6; every presentation spans its module
    C = sg.coinvariant_algebra("G2", 7)
    for word, count in (("", 1), ("sts", 2), ("stst", 3), ("ststs", 6),
                        ("tstst", 6)):
        M = sg.bott_samelson(C, word)
        acts, gens, span, rel, sect = sg._presentation(C, M, None)
        assert len(gens) == count and len(acts) == 12
        assert span.shape == (M.dim, 12 * count)
        assert len(rel) == 12 * count - M.dim
        assert np.array_equal(rel, la.mod_nullspace(span, C.ell))
        assert not la.mod_matmul(span, rel.T, C.ell).any()
        assert np.array_equal(la.mod_matmul(span, sect, C.ell),
                              np.eye(M.dim, dtype=np.int64))


def test_hom_presentation_certificates(monkeypatch):
    C = sg.coinvariant_algebra("A2", 5)
    D = sg.bott_samelson(C, "sts")
    # a presentation that lost a generator does not span the module
    orig = sg._generators
    monkeypatch.setattr(sg, "_generators", lambda acts, p: orig(acts, p)[1:])
    for wall in (None, 0):
        with pytest.raises(StructuralError,
                           match="generators do not generate"):
            sg.graded_hom_basis(C, D, D, wall)
    monkeypatch.undo()
    # one wrong entry in the section of a cached presentation: the maps
    # built with it are no longer module maps
    for wall in (None, 0):
        sect = sg._presentation(C, D, wall)[4]
        r = sect.any(axis=1).argmax()
        sect[r, 0] = (sect[r, 0] + 1) % C.ell
        with pytest.raises(StructuralError, match="not a module map"):
            sg.graded_hom_basis(C, D, D, wall)


@pytest.mark.parametrize("cartan,ell,wall", [
    ("A1", 5, None), ("A1", 5, 0), ("A2", 5, None), ("A2", 5, 0), ("A2", 5, 1),
    pytest.param("B2", 7, None, marks=pytest.mark.slow),
    pytest.param("B2", 7, 0, marks=pytest.mark.slow),
    pytest.param("B2", 7, 1, marks=pytest.mark.slow)])
def test_end_assembly_matches_loop(cartan, ell, wall):
    C = sg.coinvariant_algebra(cartan, ell)
    words = sg._family_words(C)
    mods = {w: sg.bott_samelson(C, w) for w in words}
    data = sg._assemble_end_algebra(C, words, mods, wall)
    blocks, mats, mult, unit, idems = \
        _assemble_end_algebra_loop(C, words, mods, wall)
    alg = data.algebra
    assert data.basis_blocks == blocks
    assert all(np.array_equal(a, b) for a, b in zip(data.basis_mats, mats))
    # the loop emits its rows in the canonical (i, j, k) order
    assert np.array_equal(alg.mult, np.array(mult, dtype=np.int64))
    assert list(alg.unit.items()) == list(unit.items())
    assert list(alg.idempotents.items()) == list(idems.items())


def test_g2_assembly_matches_int64_products(monkeypatch):
    # E(G2) on the family words of length <= 3: every product, the float64
    # ones included, must give what the int64 product gives
    def build():
        C = sg.CoinvariantAlgebra("G2", 7)
        words = [w for w in sg._family_words(C) if len(w) <= 3]
        return sg.endomorphism_algebra(C, words).algebra

    got = build()
    blas_sized = []

    def int64_matmul(a, b, p):
        blas_sized.append(a.ndim == b.ndim == 2 and min(a.shape[0],
                          b.shape[1]) > 1 and a.size * b.shape[1] >=
                          la._BLAS_MIN_WORK)
        out = a.astype(np.int64) @ b.astype(np.int64)
        return out % p

    monkeypatch.setattr(la, "mod_matmul", int64_matmul)
    want = build()
    assert any(blas_sized)
    assert got.dim == want.dim == 173
    assert np.array_equal(got.mult, want.mult)


def _mod_solve(a, b, p):
    """One solution x of a @ x = b mod p, or None."""
    a = np.mod(np.array(a, dtype=np.int64), p)
    b = np.mod(np.array(b, dtype=np.int64), p).reshape(-1, 1)
    r, pivots = la.mod_rref(np.concatenate([a, b], axis=1), p)
    ncols = a.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = r[i, ncols]
    return x


def _wall_embedding_solve(full, data, ell):
    """E -> E^s one basis element of E at a time, each solved for in its
    (target, source, degree) piece of E^s: the reference for the embedding
    of wall_algebra."""
    block_of = {}
    for idx, key in enumerate(data.basis_blocks):
        block_of.setdefault(key, []).append(idx)
    emb = np.zeros((data.algebra.dim, full.algebra.dim), dtype=np.int64)
    for j, key in enumerate(full.basis_blocks):
        idxs = block_of.get(key, [])
        cols = np.array([data.basis_mats[i].reshape(-1) for i in idxs],
                        dtype=np.int64).T
        sol = _mod_solve(cols, full.basis_mats[j].reshape(-1), ell)
        assert sol is not None, "embedding failed: C-map not C^s-map?"
        for i, c in zip(idxs, sol):
            emb[i, j] = c % ell
    return emb


@pytest.mark.parametrize("cartan", ["A1", "A2", "B2"])
def test_wall_embedding_matches_solve(cartan, C_A1, C_A2, C_B2):
    C = {"A1": C_A1, "A2": C_A2, "B2": C_B2}[cartan]
    full = sg.endomorphism_algebra(C)
    for s in range(C.rank):
        data, emb = sg.wall_algebra(C, s)
        want = _wall_embedding_solve(full, data, C.ell)
        assert emb.dtype == want.dtype and np.array_equal(emb, want)


def test_wall_embedding_certificates():
    def duplicate(full):
        # two equal basis maps of E: their images coincide
        i, j = full.block_ranges[("s", "s")][:2]
        full.basis_mats[j] = full.basis_mats[i]

    def swap(full):
        # the idempotents e_() and e_s traded: e_s no longer maps to e_s
        idems = full.algebra.idempotents
        idems[""], idems["s"] = idems["s"], idems[""]

    def zero_block(full):
        # the maps D_e -> D_s of E all zero: the block's coordinates are
        # zero, so that block, and no other, loses rank
        for j in full.block_ranges[("s", "")]:
            full.basis_mats[j] = np.zeros_like(full.basis_mats[j])

    for tamper, message in ((duplicate, "embedding not injective"),
                            (zero_block, "embedding not injective"),
                            (swap, "embedding moves an idempotent")):
        # a fresh C, whose cached E is then altered in place
        C = sg.coinvariant_algebra("A1", 5)
        tamper(sg.endomorphism_algebra(C))
        with pytest.raises(StructuralError, match=message):
            sg.wall_algebra(C, 0)


_TAMPERED_ASSEMBLY = """
from flagalg import soergel as sg
from flagalg.galgebra import StructuralError
if __debug__:
    raise SystemExit("expected python -O")
C = sg.coinvariant_algebra("A2", 5)
{tamper}
try:
    sg.endomorphism_algebra(C)
except StructuralError as exc:
    print("StructuralError:", exc)
"""

# drop the last map of one Hom basis, in the given degree or the top one
_TRUNCATE = """
orig = sg.graded_hom_basis
def truncated(C, M, N, wall=None):
    out = orig(C, M, N, wall)
    if M.word == N.word == {word!r}:
        d = {degree!r} if {degree!r} is not None else max(out)
        out[d] = out[d][:-1]
    return out
sg.graded_hom_basis = truncated
"""

# presentations that lose a generator
_DROP_GENERATOR = """
orig = sg._generators
sg._generators = lambda acts, p: orig(acts, p)[1:]
"""

# one wrong entry in the cached section of D_sts
_CORRUPT_SECTION = """
sect = sg._presentation(C, sg.bott_samelson(C, "sts"), None)[4]
r = sect.any(axis=1).argmax()
sect[r, 0] = (sect[r, 0] + 1) % C.ell
"""


@pytest.mark.parametrize("tamper,message", [
    pytest.param(_TRUNCATE.format(word=(0, 1, 0), degree=None),
                 "composite outside computed hom space",
                 id="word0-None-composite outside computed hom space"),
    pytest.param(_TRUNCATE.format(word=(0,), degree=0),
                 "identity missing from End block",
                 id="word1-0-identity missing from End block"),
    pytest.param(_DROP_GENERATOR, "generators do not generate",
                 id="generator-dropped"),
    pytest.param(_CORRUPT_SECTION, "Hom basis map is not a module map",
                 id="section-corrupted")])
def test_end_assembly_certificates_survive_python_O(tamper, message):
    # a Hom basis short of one map, or Hom spaces solved from a broken
    # presentation: the assembly must refuse even with asserts stripped
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         _TAMPERED_ASSEMBLY.format(tamper=tamper)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"StructuralError: {message}"
