import json
import os
import subprocess
import sys

import numpy as np
import pytest

from flagalg import _linalg as la
from flagalg import soergel as sg
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
    # invariants fill C exactly (the rank-2 freeness behind the induction)
    C = C_A2
    for i in range(C.rank):
        inv = C.invariants(i)
        for d in range(C.top + 1):
            rows = [row for row in inv.get(d, [])]
            if d >= 1:
                for row in inv.get(d - 1, []):
                    vec = np.zeros(len(C.basis[d]), dtype=np.int64)
                    for k, c in enumerate(C.delta(i)):
                        if c % C.ell:
                            for k2, c2 in enumerate(row):
                                if c2 % C.ell:
                                    mon = tuple(
                                        a + b for a, b in zip(
                                            C.basis[1][k],
                                            C.basis[d - 1][k2]))
                                    vec = (vec + int(c) * int(c2)
                                           * C._reduce[d][mon]) % C.ell
                    rows.append(vec)
            if rows:
                m = np.array(rows, dtype=np.int64)
                from flagalg import _linalg as la
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
            got = {}
            for i in data.block_indices(ft, fs):
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
    ("A1", 5, None), ("A2", 5, None), ("B2", 7, None), ("G2", 7, 3)])
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
        i, j = full.block_indices("s", "s")[:2]
        full.basis_mats[j] = full.basis_mats[i]

    def swap(full):
        # the idempotents e_() and e_s traded: e_s no longer maps to e_s
        idems = full.algebra.idempotents
        idems[""], idems["s"] = idems["s"], idems[""]

    for tamper, message in ((duplicate, "embedding not injective"),
                            (swap, "embedding moves an idempotent")):
        # a fresh C, whose cached E is then altered in place
        C = sg.coinvariant_algebra("A1", 5)
        tamper(sg.endomorphism_algebra(C))
        with pytest.raises(StructuralError, match=message):
            sg.wall_algebra(C, 0)


_TRUNCATED_ASSEMBLY = """
from flagalg import soergel as sg
from flagalg.galgebra import StructuralError
if __debug__:
    raise SystemExit("expected python -O")
orig = sg.graded_hom_basis
def truncated(C, M, N, wall=None):
    out = orig(C, M, N, wall)
    if M.word == N.word == {word!r}:
        d = {degree!r} if {degree!r} is not None else max(out)
        out[d] = out[d][:-1]
    return out
sg.graded_hom_basis = truncated
try:
    sg.endomorphism_algebra(sg.coinvariant_algebra("A2", 5))
except StructuralError as exc:
    print("StructuralError:", exc)
"""


@pytest.mark.parametrize("word,degree,message", [
    ((0, 1, 0), None, "composite outside computed hom space"),
    ((0,), 0, "identity missing from End block")])
def test_end_assembly_certificates_survive_python_O(word, degree, message):
    # drop one map from one Hom basis: the assembly must refuse even with
    # asserts stripped
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         _TRUNCATED_ASSEMBLY.format(word=word, degree=degree)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"StructuralError: {message}"
