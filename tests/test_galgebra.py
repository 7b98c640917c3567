import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from flagalg import _linalg as la
from flagalg import formality as fm
from flagalg import galgebra as ga
from flagalg import gradedO as go
from flagalg import soergel as sg
from dense_view import _dense, _from_dense

FIX = json.load(open(os.path.join(os.path.dirname(__file__),
                                  "fixtures", "frozen.json")))


def dual_numbers(p=5, deg=1):
    """F[x]/(x^2) with x in the given degree."""
    return ga.GradedAlgebra(
        p, [0, deg], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], {0: 1})


@pytest.mark.parametrize("build", [
    dual_numbers,
    lambda: ga.regular_module(dual_numbers()),
    lambda: fm.BigradedDgAlgebra(
        5, [(0, 0), (1, 1)], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
        {0: 1}, np.zeros((2, 2), dtype=np.int64)),
    lambda: GradedComplex({0: [0], 1: [0]},
                          {0: np.ones((1, 1), dtype=np.int64)}, 5),
    lambda: sg.bott_samelson(sg.coinvariant_algebra("A1", 5), "s"),
    lambda: sg.endomorphism_algebra(sg.coinvariant_algebra("A1", 5))],
    ids=["GradedAlgebra", "RightModule", "BigradedDgAlgebra",
         "GradedComplex", "BSModule", "EndAlgebraData"])
def test_array_holders_compare_by_identity(build):
    # a field-by-field == would ask numpy for the truth value of an array
    # and raise; these compare by identity and hash
    a, b = build(), build()
    assert a is not b
    assert (a == b) is False and (a != b) is True
    assert a == a
    assert len({a, b, a}) == 2


def test_regular_module_and_check():
    A = dual_numbers()
    reg = ga.regular_module(A)
    reg.check()
    assert reg.dims_by_degree() == {0: 1, 1: 1}


# ---------------------------------------------------------------------------
# the grading functors v and v_bar, kept here as a check of the regrading
# convention v_bar(M<1>) = v_bar(M)[-1]; nothing in flagalg calls them


@dataclass(eq=False)
class GradedComplex:
    """Bounded complex of graded spaces: components[i] = degrees list,
    differentials[i]: matrix from component i to component i+1 (graded,
    degree 0)."""

    components: dict
    differentials: dict
    p: int

    def check(self):
        for i, d in self.differentials.items():
            src = self.components[i]
            tgt = self.components.get(i + 1, [])
            if d.shape != (len(tgt), len(src)):
                raise ValueError("differential has the wrong shape")
            if (i + 1) in self.differentials and \
                    np.any(self.differentials[i + 1] @ d % self.p):
                raise ga.StructuralError("d^2 != 0")

    def shift_internal(self, k):
        """<k>: all internal degrees go up by k."""
        return GradedComplex(
            {i: [d + k for d in degs] for i, degs in self.components.items()},
            {i: m.copy() for i, m in self.differentials.items()}, self.p)


@dataclass(eq=False)
class DgModule:
    """Dg-space graded by total degree; differential of degree +1."""

    components: dict        # n -> dimension
    differentials: dict     # n -> matrix to component n+1
    p: int

    def shift_cohomological(self, k):
        """[k]: component n of the result is component n+k of the input."""
        return DgModule({n - k: v for n, v in self.components.items()},
                        {n - k: m.copy()
                         for n, m in self.differentials.items()}, self.p)


def v_bar_shear(cx):
    """Collapse a complex of graded spaces to the dg-space with total
    degree n = i + j; the differential is inherited blockwise."""
    pos = {}
    comps = {}
    for i, degs in cx.components.items():
        for idx, j in enumerate(degs):
            n = i + j
            pos[(i, idx)] = (n, comps.get(n, 0))
            comps[n] = comps.get(n, 0) + 1
    diffs = {}
    for n in comps:
        if (n + 1) in comps:
            diffs[n] = np.zeros((comps[n + 1], comps[n]), dtype=np.int64)
    for i, dmat in cx.differentials.items():
        src = cx.components[i]
        tgt = cx.components.get(i + 1, [])
        for sidx in range(len(src)):
            n, scol = pos[(i, sidx)]
            for tidx in range(len(tgt)):
                if dmat[tidx, sidx] % cx.p:
                    n2, trow = pos[(i + 1, tidx)]
                    if n2 != n + 1:
                        raise ga.StructuralError("differential is not graded")
                    diffs[n][trow, scol] = dmat[tidx, sidx] % cx.p
    return DgModule(dict(sorted(comps.items())), diffs, cx.p)


def test_v_forget():
    # forgetting the grading sends M and M<3> to the same ungraded module:
    # the same underlying space and the same action
    A = dual_numbers()
    reg = ga.regular_module(A)
    shifted = ga.shift_module(reg, 3)
    assert shifted.dim == reg.dim
    assert _dense(shifted).tolist() == _dense(reg).tolist()


def test_v_bar_shear_laws():
    comps = {0: [0, 1, 1], 1: [1, 2]}
    d0 = np.array([[1, 0, 2], [0, 3, 1]], dtype=np.int64)
    # make it graded: entries allowed only when target degree == source
    d0[0, 0] = 0
    d0[1, 1] = 0
    d0[1, 2] = 0
    cx = GradedComplex(comps, {0: d0}, 5)
    cx.check()
    dg = v_bar_shear(cx)
    # dimensions along antidiagonals of (i, j)
    assert dg.components == {0: 1, 1: 2, 2: 1, 3: 1}
    # shift law: v_bar(M<1>) = v_bar(M)[-1]
    lhs = v_bar_shear(cx.shift_internal(1))
    rhs = v_bar_shear(cx).shift_cohomological(-1)
    assert lhs.components == rhs.components
    for n in lhs.differentials:
        assert np.array_equal(lhs.differentials[n], rhs.differentials[n])


def test_decompose_simple_and_shifted_sum():
    A = dual_numbers()
    reg = ga.regular_module(A)
    # simple module: one dimensional in degree 0
    simple, _ = ga.quotient_module(reg, np.array([[0, 1]], dtype=np.int64))
    assert [s.dim for s in ga.decompose_module(simple)] == [1]
    # M + M<1> decomposes into two summands differing by shift
    both = _direct_sum(reg, ga.shift_module(reg, 1))
    pieces = ga.decompose_module(both)
    assert sorted(p.dim for p in pieces) == [2, 2]
    k = ga.is_iso_up_to_shift(pieces[0], pieces[1])
    assert k is not None and abs(k) == 1


def _direct_sum(M, N):
    degs = list(M.degrees) + list(N.degrees)
    action = np.zeros((M.algebra.dim, len(degs), len(degs)), dtype=np.int64)
    action[:, : M.dim, : M.dim] = _dense(M)
    action[:, M.dim:, M.dim:] = _dense(N)
    return _from_dense(M.algebra, degs, action)


def test_decompose_basis_permutation_invariance(C_A1):
    E = sg.endomorphism_algebra(C_A1).algebra
    reg = ga.regular_module(E)
    pieces = ga.decompose_module(reg)
    dims = sorted(tuple(sorted(p.dims_by_degree().items()))
                  for p in pieces)
    # permute the basis and decompose again
    rng = np.random.default_rng(7)
    perm = rng.permutation(reg.dim)
    pm = np.zeros((reg.dim, reg.dim), dtype=np.int64)
    for i, j in enumerate(perm):
        pm[j, i] = 1
    inv = pm.T
    shuffled = _from_dense(
        E, [reg.degrees[j] for j in perm], (inv @ _dense(reg) @ pm) % E.p)
    shuffled.check()
    pieces2 = ga.decompose_module(shuffled)
    dims2 = sorted(tuple(sorted(p.dims_by_degree().items()))
                   for p in pieces2)
    assert dims == dims2
    assert sum(p.dim for p in pieces) == reg.dim


def test_graded_projectives_counts(C_A1, C_A2):
    p1 = go.projectives_for(C_A1)
    assert len(p1) == 2
    p2 = go.projectives_for(C_A2)
    assert len(p2) == 6
    frozen = FIX["projectives"]
    for t, projs, C in (("A1", p1, C_A1), ("A2", p2, C_A2)):
        for x, P in projs.items():
            assert {str(k): v for k, v in P.dims_by_degree().items()} == \
                frozen[t][x.serialize()]
    # the projective at the identity is e_() E on the nose
    E = sg.endomorphism_algebra(C_A1).algebra
    pe = p1[C_A1.group.identity]
    assert pe.dims_by_degree() == {0: 2}


# M_2(F_5) on E11, E12, E21, E22: the rows (2 i + j, 2 j + m, 2 i + m, 1)
# of E_ij E_jm = E_im
_M2_ROWS = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 2, 0, 1), (1, 3, 1, 1),
            (2, 0, 2, 1), (2, 1, 3, 1), (3, 2, 2, 1), (3, 3, 3, 1)]
# the same with E21 E12 = E11 in place of E22: then e A for e = E11 + E21
# is the span of E11 + E21 and E11 + E12, which E22 sends to E12 outside it
_M2_ROWS_MOVED = [(2, 1, 0, 1) if row == (2, 1, 3, 1) else row
                  for row in _M2_ROWS]


def _m2(degrees=(0, 0, 0, 0), rows=_M2_ROWS):
    return ga.GradedAlgebra(5, list(degrees), rows, {0: 1, 3: 1})


def _slice_reference(A, e):
    """e A from A.mul_vec alone: the RREF rows and pivots of the span of
    the e e_b, the pivot degrees, and the action, whose column i at b is
    the coordinates (pivot entries) of rows[i] e_b, certified against the
    rows."""
    p = A.p
    spans = np.array([A.mul_vec(e, A.basis_vec(b)) for b in range(A.dim)])
    red, piv = la.mod_rref(spans[spans.any(axis=1)], p)
    rows = red[: len(piv)]
    action = np.zeros((A.dim, len(piv), len(piv)), dtype=np.int64)
    for b in range(A.dim):
        for i, r in enumerate(rows):
            img = A.mul_vec(r, A.basis_vec(b))
            assert np.array_equal(la.mod_matmul(img[piv], rows, p), img)
            action[b][:, i] = img[piv]
    return rows, piv, [A.degrees[c] for c in piv], action


def test_idempotent_slice_matches_regular_submodule(C_A1, C_A2, monkeypatch):
    # every basis idempotent of E(A1), E(A2) and E^s(A1), the component
    # idempotents of K(A1), and E11 + E21 in M_2(F_5), whose slice rows
    # E11 + E21, E12 + E22 are not basis vectors; the reference submodule
    # of the regular module is built from A.mul_vec.  Each slice is built
    # with the default chunks of products and with one basis element per
    # chunk, each time past the slices already kept on the algebra
    cases = [(_m2(), np.array([1, 0, 1, 0]))]
    for A in (sg.endomorphism_algebra(C_A1).algebra,
              sg.endomorphism_algebra(C_A2).algebra,
              sg.wall_algebra(C_A1, 0)[0].algebra):
        cases += [(A, A.basis_vec(i)) for i in A.idempotents.values()]
    K = ga.ext_algebra_of_projectives(sg.endomorphism_algebra(C_A1).algebra,
                                      go.projectives_for(C_A1))
    cases += [(K, e) for e in
              ga._simple_idempotents(K, *ga._degree_zero_subalgebra(K))]
    for A, e in cases:
        rows, piv, degrees, action = _slice_reference(A, e)
        for budget in (ga._PRODUCT_BUDGET, 1):
            with monkeypatch.context() as patch:
                patch.setattr(ga, "_PRODUCT_BUDGET", budget)
                patch.setitem(A.__dict__, "_slices", {})
                M, got_rows, got_piv = ga.idempotent_slice(A, e)
            assert np.array_equal(got_rows, rows)
            assert got_piv == piv
            assert M.degrees == degrees
            assert np.array_equal(_dense(M), action)


def test_idempotent_slice_certificates():
    # E11 + E21 in M_2(F_5): with E12, E21 in degrees 1, -1 the slice row
    # E11 + E21 mixes degrees 0 and -1
    e = np.array([1, 0, 1, 0])
    with pytest.raises(ga.StructuralError,
                       match="e A is not spanned by homogeneous rows"):
        ga.idempotent_slice(_m2(degrees=(0, 1, -1, 0)), e)
    with pytest.raises(ga.StructuralError,
                       match="e A is not closed under the action"):
        ga.idempotent_slice(_m2(rows=_M2_ROWS_MOVED), e)


def test_bs_w0_mirror_decomposition(C_A2):
    """e_f E for f the word of w0^{-1} splits into the new projective and
    one lower one, with the frozen multiplicities."""
    E = sg.endomorphism_algebra(C_A2).algebra
    sub, _, _ = ga.idempotent_slice(E, E.basis_vec(E.idempotents["sts"]))
    pieces = ga.decompose_module(sub)
    projs = go.projectives_for(C_A2)
    summary = {}
    for piece in pieces:
        for y, P in projs.items():
            k = ga.is_iso_up_to_shift(piece, P)
            if k is not None:
                key = f"{y.serialize()}<{k}>"
                summary[key] = summary.get(key, 0) + 1
                break
        else:
            raise AssertionError("summand matches no projective class")
    assert summary == FIX["bs_w0_decomposition_a2"]


def test_koszulity_dual_numbers():
    rep = ga.koszulity_check(dual_numbers(deg=1), cap=10)
    assert rep.is_nonneg_graded and rep.is_semisimple_deg0
    assert rep.linear_to_cap
    rep2 = ga.koszulity_check(dual_numbers(deg=2), cap=10)
    assert not rep2.linear_to_cap
    assert rep2.verdict == "not Koszul as graded"


def test_koszulity_ground_field():
    A = ga.GradedAlgebra(5, [0], [(0, 0, 0, 1)], {0: 1})
    rep = ga.koszulity_check(A, cap=5)
    assert rep.linear_to_cap
    assert rep.dual_graded_dims == {(0, 0): 1}


def test_koszulity_gate_verdicts():
    # negative grading: not Koszul-gradable
    A = ga.GradedAlgebra(5, [0, -1],
                         [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], {0: 1})
    rep = ga.koszulity_check(A, cap=4)
    assert rep.verdict == "not Koszul-gradable as given"
    # nonsemisimple degree zero: F[x]/(x^2) concentrated in degree 0
    B = ga.GradedAlgebra(5, [0, 0],
                         [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], {0: 1})
    rep2 = ga.koszulity_check(B, cap=4)
    assert rep2.is_nonneg_graded and not rep2.is_semisimple_deg0
    assert rep2.verdict == "not Koszul-gradable as given"


def test_koszulity_opposite_agreement(C_A1):
    E = sg.endomorphism_algebra(C_A1).algebra
    projs = go.projectives_for(C_A1)
    K = ga.ext_algebra_of_projectives(E, projs)
    rep = ga.koszulity_check(K, cap=8)
    op = K.opposite()
    rep_op = ga.koszulity_check(op, cap=8)
    assert rep.linear_to_cap == rep_op.linear_to_cap
    assert rep.dual_graded_dims == rep_op.dual_graded_dims


def test_koszul_module_basics():
    A = dual_numbers(deg=1)
    reg = ga.regular_module(A)
    assert ga.koszul_module_check(A, reg, cap=8)
    simple, _ = ga.quotient_module(reg, np.array([[0, 1]], dtype=np.int64))
    assert ga.koszul_module_check(A, simple, cap=8)


def test_regraded_algebra_a1_frozen(C_A1):
    E = sg.endomorphism_algebra(C_A1).algebra
    projs = go.projectives_for(C_A1)
    K = ga.ext_algebra_of_projectives(E, projs)
    K.check()
    frozen = FIX["koszul_a1"]
    assert {str(k): v for k, v in K.dims_by_degree().items()} == \
        frozen["regraded_dims"]
    rep = ga.koszulity_check(K, cap=10)
    assert rep.linear_to_cap == frozen["linear_to_cap"]
    got = {f"{i}|{j}|{j2}|{mk}": v
           for (i, j, j2, mk), v in sorted(rep.ext_table.items())}
    assert got == frozen["ext_table"]


def test_regraded_algebra_b2_frozen(C_B2):
    # K(B2) rests on every hom_all basis between the B2 projectives: its
    # structure constants pin those bases, independently of hom_all
    frozen = FIX["koszul_b2"]
    assert C_B2.ell == frozen["ell"]
    E = sg.endomorphism_algebra(C_B2).algebra
    K = ga.ext_algebra_of_projectives(E, go.projectives_for(C_B2))
    assert K.dim == frozen["dim"]
    assert hashlib.sha256(K.mult.tobytes()).hexdigest() == \
        frozen["mult_sha256"]


def test_upsilon_and_standard_koszul_modules(C_A1):
    E = sg.endomorphism_algebra(C_A1).algebra
    projs = go.projectives_for(C_A1)
    std = go.standard_modules(C_A1)
    frozen = FIX["koszul_a1"]["standard_module_koszul"]
    for x, M in std.items():
        K, U = ga.upsilon_module(E, projs, M)
        assert ga.koszul_module_check(K, U, cap=10) == \
            frozen[x.serialize()]


def _full_matrix_products(left, right, target, p):
    """_block_products' rows from every composite l @ r formed in full and
    read in the coordinates of the full target block, one pair at a time."""
    rows = []
    for (a, b), (l0, lstack) in left.items():
        for (b2, c), (r0, rstack) in right.items():
            if b2 != b or not len(lstack) or not len(rstack):
                continue
            t0, tstack = target[(a, c)]
            coords = la.mod_coordinates(tstack, p)[0]
            for i, lmap in enumerate(lstack):
                for j, rmap in enumerate(rstack):
                    cs = coords(la.mod_matmul(lmap, rmap, p)[None])[0]
                    rows += [(l0 + i, r0 + j, t0 + k, cs[k])
                             for k in np.flatnonzero(cs)]
    return la.canonical_mult(np.array(rows, dtype=np.int64).reshape(-1, 4),
                             10 ** 6, p)


def test_block_products_on_generators_match_full_composites(C_A2):
    # K and the Upsilon modules read each composite on the generators of
    # its source only; formed in full, every composite has the same
    # coordinates
    E = sg.endomorphism_algebra(C_A2).algebra
    projs = go.projectives_for(C_A2)
    mods = [projs[k] for k in sorted(projs, key=str)]
    gens = ga._generator_columns(mods)
    assert all(G.shape == (M.dim, len(ga.module_presentation(M)[0]))
               for M, G in zip(mods, gens.values()))
    assert any(G.shape[1] < M.dim for M, G in zip(mods, gens.values()))
    _, blocks = ga._hom_blocks(mods, mods)
    cases = [(blocks, blocks, blocks)]
    for M in go.standard_modules(C_A2).values():
        mblocks = ga._hom_blocks(mods, [M])[1]
        cases.append((mblocks, blocks, mblocks))
    for left, right, target in cases:
        got = ga._block_products(left, right, target, gens, E.p)
        assert np.array_equal(la.canonical_mult(got, 10 ** 6, E.p),
                              _full_matrix_products(left, right, target,
                                                    E.p))


def test_hom_all_consistency_small():
    # presentation-based homs agree with brute force on a small case
    A = dual_numbers(deg=1)
    reg = ga.regular_module(A)
    homs = ga.hom_all(reg, reg)
    # End(A) = A: one map in degree 0 (identity), one in degree 1
    assert {d: len(v) for d, v in homs.items()} == {0: 1, 1: 1}
    for d, mats in homs.items():
        for m in mats:
            for act in _dense(reg):
                lhs = (m @ act) % 5
                rhs = (act @ m) % 5
                assert np.array_equal(lhs, rhs)


def _brute_hom_dims(M, N):
    """Entrywise solver: unknown matrix entries on the degree pattern,
    commutation imposed for every algebra basis element."""
    from flagalg import _linalg as la
    alg = M.algebra
    p = alg.p
    out = {}
    shifts = {dn - dm for dn in set(N.degrees) for dm in set(M.degrees)}
    for d in sorted(shifts):
        pos = {}
        for n in range(N.dim):
            for m in range(M.dim):
                if N.degrees[n] == M.degrees[m] + d:
                    pos[(n, m)] = len(pos)
        if not pos:
            continue
        rows = []
        for a, am, an in zip(range(alg.dim), _dense(M), _dense(N)):
            for m in range(M.dim):
                for n in range(N.dim):
                    if N.degrees[n] != M.degrees[m] + d + alg.degrees[a]:
                        continue
                    row = np.zeros(len(pos), dtype=np.int64)
                    for m2 in np.nonzero(am[:, m])[0]:
                        if (n, int(m2)) in pos:
                            row[pos[(n, int(m2))]] += int(am[m2, m])
                    for n2 in np.nonzero(an[n, :])[0]:
                        if (int(n2), m) in pos:
                            row[pos[(int(n2), m)]] -= int(an[n, n2])
                    if np.any(row % p):
                        rows.append(row % p)
        if rows:
            k = la.mod_nullspace(np.array(rows, dtype=np.int64), p).shape[0]
        else:
            k = len(pos)
        if k:
            out[d] = k
    return out


def test_hom_all_matches_brute_force(C_A1):
    E = sg.endomorphism_algebra(C_A1).algebra
    std = go.standard_modules(C_A1)
    projs = go.projectives_for(C_A1)
    mods = list(std.values()) + list(projs.values()) + \
        [ga.regular_module(E)]
    for M in mods:
        for N in mods:
            assert ga.hom_dims(M, N) == _brute_hom_dims(M, N), \
                (M.dims_by_degree(), N.dims_by_degree())


def test_hom_all_matches_brute_force_a2_standards(C_A2):
    std = go.standard_modules(C_A2)
    mods = list(std.values())
    for M in mods:
        for N in mods:
            assert ga.hom_dims(M, N) == _brute_hom_dims(M, N)


# ---------------------------------------------------------------------------
# closure references for module generators and the submodule certificates


def _closure_algebra_generators(alg):
    """Basis indices found greedily by degree: one is added only if it is
    not in the unital subalgebra that the earlier ones generate, which is
    closed under products by a frontier loop.  Elements are kept as their
    nonzero (index, coefficient) terms, and products go through a per-(i, j)
    index of the rows of alg.mult, built once."""
    by_pair = {}
    for i, j, k, c in alg.mult.tolist():
        by_pair.setdefault((i, j), []).append((k, c))

    def mul(a, b):
        out = [0] * alg.dim
        for i, ai in a:
            for j, bj in b:
                for k, c in by_pair.get((i, j), ()):
                    out[k] += ai * bj * c
        return np.array(out, dtype=np.int64) % alg.p

    ech = la._Echelon(alg.dim, alg.p)
    vecs = []

    def contains(v):
        return not np.any(ech.reduce(v)[0])

    def add(v):
        """Insert v, outside the span so far; return its terms."""
        ech.insert(v)
        vecs.append([(i, int(v[i])) for i in np.flatnonzero(v).tolist()])
        return vecs[-1]

    add(alg.unit_vector())
    gens = []
    for i in sorted(range(alg.dim), key=lambda i: (alg.degrees[i], i)):
        v = alg.basis_vec(i)
        if contains(v):
            continue
        gens.append(i)
        add(v)
        frontier = list(vecs)
        while frontier:
            new = []
            for a in frontier:
                for b in list(vecs):
                    for prod in (mul(a, b), mul(b, a)):
                        if np.any(prod) and not contains(prod):
                            new.append(add(prod))
            frontier = new
    return gens


def _module_generators_closure(M, alg_gens):
    """Greedy module generators, each new one spun by a frontier loop under
    the unit and the algebra generators alg_gens: the reference for
    module_generators."""
    alg = M.algebra
    p = alg.p
    idems = ga._idempotent_vectors(alg)
    span = la._Echelon(M.dim, p)
    acting = [alg.unit_vector()] + [alg.basis_vec(a) for a in alg_gens]
    act = _dense(M)
    mats = [sum((int(av[a]) * act[a] for a in np.nonzero(av)[0]),
                np.zeros((M.dim, M.dim), dtype=np.int64)) % p
            for av in acting]
    gens = []
    for k in sorted(range(M.dim), key=lambda i: (M.degrees[i], i)):
        v = np.zeros(M.dim, dtype=np.int64)
        v[k] = 1
        if not np.any(span.reduce(v)[0]):
            continue
        for h, evec in enumerate(idems):
            g = M.matrix(evec) @ v % p
            if not np.any(g) or not np.any(span.reduce(g)[0]):
                continue
            gens.append((g.copy(), h))
            frontier = [g]
            span.insert(g)
            while frontier:
                w = frontier.pop()
                for m in mats:
                    img = (m @ w) % p
                    if np.any(img) and span.insert(img) is None:
                        frontier.append(img)
    return gens


def test_module_generators_match_closure(C_A1, C_A2):
    # every slice e_f E of E(A1) and E(A2), E(A1) and E(A2) themselves
    # (seven generators, several per slot), and the A2 standard modules
    cases = []
    for C in (C_A1, C_A2):
        E = sg.endomorphism_algebra(C).algebra
        cases += [ga.idempotent_slice(E, E.basis_vec(i))[0]
                  for i in E.idempotents.values()] + [ga.regular_module(E)]
    cases += list(go.standard_modules(C_A2).values())
    alg_gens = {}
    for M in cases:
        A = M.algebra
        if id(A) not in alg_gens:
            alg_gens[id(A)] = _closure_algebra_generators(A)
        got = ga.module_generators(M, ga._idempotent_vectors(A))
        want = _module_generators_closure(M, alg_gens[id(A)])
        assert [(g.tolist(), h) for g, h in got] == \
            [(g.tolist(), h) for g, h in want]


def test_module_builders_return_one_action_array(C_A1):
    # every builder keeps its action as live rows: int64, strictly
    # increasing keys, one nonzero row of length dim per key; densified,
    # they give the stack of the dense construction
    A = dual_numbers()
    p = A.p
    reg = ga.regular_module(A)
    R = _slice_reference(A, A.unit_vector())[3]
    sub, basis = ga.submodule(reg, [[0, 1]])
    quot, proj = ga.quotient_module(reg, [[0, 1]])
    both = np.zeros((A.dim, 4, 4), dtype=np.int64)
    both[:, :2, :2] = both[:, 2:, 2:] = R
    E = sg.endomorphism_algebra(C_A1).algebra
    Es, emb = sg.wall_algebra(C_A1, 0)
    W = _slice_reference(Es.algebra, Es.algebra.basis_vec(0))[3]
    projs = go.projectives_for(C_A1)
    std = go.standard_modules(C_A1)[C_A1.group.identity]
    mods, K, kblocks = ga._cached_ext_algebra(E, projs)
    mbasis, mblocks = ga._hom_blocks(mods, [std])
    U = np.zeros((K.dim, len(mbasis), len(mbasis)), dtype=np.int64)
    i, j, k, c = ga._block_products(mblocks, kblocks, mblocks,
                                    ga._generator_columns(mods), E.p).T
    U[j, k, i] = c
    cases = [
        (reg, R), (ga.idempotent_slice(A, A.unit_vector())[0], R),
        (sub, (R @ basis.T % p)[:, [1], :]),
        (quot, proj @ R[:, :, [0]] % p),
        (ga.direct_sum([reg, reg], [0, 1]), both),
        (ga.shift_module(reg, 2), R),
        (ga.restrict_module(ga.idempotent_slice(
            Es.algebra, Es.algebra.basis_vec(0))[0], E, emb),
         np.einsum("ab,ajk->bjk", emb % E.p, W) % E.p),
        (ga.upsilon_module(E, projs, std)[1], U)]
    for M, want in cases:
        assert M.keys.dtype == M.rows.dtype == np.int64
        assert np.all(np.diff(M.keys) > 0)
        assert M.rows.shape == (len(M.keys), M.dim)
        assert M.rows.any(axis=1).all()
        assert np.array_equal(_dense(M), want)


def test_wall_row_blocks_store_an_eighth_of_the_dense_action(C_A2):
    # the live rows of the A2 modules e_f E^s over E take about 0.5 MB,
    # where (dim E, dim, dim) int64 stacks would take 5.9 MB
    mods = sg.wall_row_block_modules(C_A2, 0)
    stored = sum(M.keys.nbytes + M.rows.nbytes for M in mods)
    dense = sum(M.algebra.dim * M.dim ** 2 * 8 for M in mods)
    assert 8 * stored <= dense


def test_span_under_action_is_the_generated_submodule():
    # in F[x]/(x^2), 1 generates everything and x only itself
    A = dual_numbers()
    reg = ga.regular_module(A)
    rows, piv = ga.span_under_action(reg, [[1, 0]])
    assert rows.tolist() == [[1, 0], [0, 1]] and piv == [0, 1]
    rows, piv = ga.span_under_action(reg, [[0, 3]])
    assert rows.tolist() == [[0, 1]] and piv == [1]
    assert ga.span_under_action(reg, [[0, 1]], (rows, piv))[1] == [1]


_NOT_CLOSED = """
import numpy as np
from flagalg import galgebra as ga
if __debug__:
    raise SystemExit("expected python -O")
A = ga.GradedAlgebra(5, [0, 1], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
                     {{0: 1}})
try:
    ga.submodule(ga.regular_module(A), np.array({rows!r}))
except ga.StructuralError as exc:
    print("StructuralError:", exc)
"""


def test_submodule_not_closed_raises_structural_error():
    # the span of 1 in F[x]/(x^2) misses 1 . x = x
    rows = [[1, 0]]
    with pytest.raises(ga.StructuralError,
                       match="rows are not closed under the action"):
        ga.submodule(ga.regular_module(dual_numbers()), np.array(rows))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _NOT_CLOSED.format(rows=rows)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == \
        "StructuralError: rows are not closed under the action"


def test_presentations_slice_each_idempotent_once(monkeypatch):
    # the regular module and the presentations of two modules over one
    # algebra: the slice e A is built once, by regular_module, and kept
    # on the algebra with its rows
    A = dual_numbers()
    calls = []
    real = ga._slice

    def counted(B, e):
        calls.append(e.tobytes())
        return real(B, e)

    monkeypatch.setattr(ga, "_slice", counted)
    reg = ga.regular_module(A)
    first = ga.module_presentation(reg)
    second = ga.module_presentation(ga.shift_module(reg, 1))
    assert len(calls) == 1
    assert ga.idempotent_slice(A, A.unit_vector())[0] is reg
    assert first[2].keys() == second[2].keys()
    for h in first[2]:
        assert first[2][h] is second[2][h]


def _slices_a2_ell7():
    """The A2 slices e_2 E (dim 18) and e_3 E (dim 33) at ell = 7, fresh
    modules with no presentation cached."""
    E = sg.endomorphism_algebra(sg.coinvariant_algebra("A2", 7)).algebra
    return [ga.idempotent_slice(E, e)[0]
            for e in ga._idempotent_vectors(E)[2:4]]


def test_presentation_without_generators_raises(monkeypatch):
    # a nonzero module left with no generators: its presentation must not
    # come back, and no Hom space may be read off it
    X, Y = _slices_a2_ell7()
    orig = ga.module_generators
    assert len(orig(X, ga._idempotent_vectors(X.algebra))) == 1
    monkeypatch.setattr(ga, "module_generators",
                        lambda M, idems: orig(M, idems)[1:])
    with pytest.raises(ga.StructuralError,
                       match="generators do not generate"):
        ga.hom_dims(X, Y)


def test_hom_all_builds_target_data_once_per_slot(monkeypatch):
    # the basis of N e_h and its lifts are kept on the target N per slot h
    # and serve every source; the homs do not change
    X, Y = _slices_a2_ell7()
    calls = []
    real = ga._hom_target
    monkeypatch.setattr(ga, "_hom_target", lambda N, e, rows: calls.append(
        (id(N), e.tobytes())) or real(N, e, rows))
    first = ga.hom_all(X, Y)
    for src in (Y, ga.shift_module(X, 1), X):
        ga.hom_all(src, Y)
    assert calls and len(calls) == len(set(calls))
    again = ga.hom_all(X, Y)
    assert {d: np.array(v).tolist() for d, v in again.items()} == \
        {d: np.array(v).tolist() for d, v in first.items()}


def test_hom_all_section_certificate(C_A2, monkeypatch):
    # one wrong entry in the cached section of a presentation, over E
    # (Hom(e_2 E, e_3 E) for A2 at ell = 7) and over K (End of the regular
    # K-module for A2): the maps built with it are no longer module maps.
    # The regular K-module is kept on K, so its presentation is replaced
    # for this test only
    X, Y = _slices_a2_ell7()
    assert ga.hom_dims(X, Y) == {2: 2, 4: 3, 6: 1}
    K = ga.ext_algebra_of_projectives(sg.endomorphism_algebra(C_A2).algebra,
                                      go.projectives_for(C_A2))
    R = ga.regular_module(K)
    for src, tgt in ((X, Y), (R, R)):
        pres = ga.module_presentation(src)
        sect = pres[5].copy()
        r = sect.any(axis=1).argmax()
        sect[r, 0] = (sect[r, 0] + 1) % src.algebra.p
        monkeypatch.setattr(src, "_presentation", (*pres[:5], sect))
        with pytest.raises(ga.StructuralError,
                           match="Hom basis map is not a module map"):
            ga.hom_all(src, tgt)


# ---------------------------------------------------------------------------
# per-pair references for the regraded algebra K and the modules Upsilon(M)


def _span_coordinates_ref(items, p):
    """For basis matrices given in order as (key, matrix): a function
    coords(key, mat) returning the coefficients {basis index: c} of mat in
    the span of the basis matrices with that key, from an incremental
    echelon form per key."""
    ech = {}
    for idx, (key, mat) in enumerate(items):
        if key not in ech:
            ech[key] = (la._Echelon(mat.size, p), [])
        ech[key][0].insert(mat.reshape(-1))
        ech[key][1].append(idx)

    def coords(key, mat):
        if key not in ech:
            assert not np.any(mat), "composite leaves the hom space"
            return {}
        e, idxs = ech[key]
        red, combo = e.reduce(mat.reshape(-1))
        assert not np.any(red), "composite leaves the hom space"
        # reduce() leaves mat = red - combo . inserted
        return {idxs[k]: int((-combo[k]) % p)
                for k in range(len(combo)) if combo[k] % p}
    return coords


def _ext_algebra_ref(E, projectives):
    """K one basis pair at a time, each composite reduced against the
    echelon form of its (source, target, degree) piece: the reference for
    ext_algebra_of_projectives.  Returns (K, basis) with basis entries
    (src block, tgt block, n, matrix)."""
    keys = sorted(projectives, key=str)
    mods = [projectives[k] for k in keys]
    p = E.p
    basis = []
    for si, src in enumerate(mods):
        for ti, tgt in enumerate(mods):
            for d, mats in sorted(ga.hom_all(src, tgt).items()):
                basis += [(si, ti, d, phi) for phi in mats]
    coords = _span_coordinates_ref(
        (((si, ti, n), phi) for si, ti, n, phi in basis), p)
    mult = []
    for i, (si, ti, n1, phi) in enumerate(basis):
        for j, (sj, tj, n2, psi) in enumerate(basis):
            if tj != si:
                continue
            comp = (phi @ psi) % p
            if np.any(comp):
                entry = coords((sj, ti, n1 + n2), comp)
                mult += [(i, j, k, c) for k, c in entry.items()]
    # the identities are literal basis vectors in every block here (the
    # solve for 1 that used to back this up never ran)
    unit = {idx: 1 for idx, (si, ti, n, phi) in enumerate(basis)
            if si == ti and n == 0 and np.array_equal(
                phi % p, np.eye(phi.shape[0], dtype=np.int64))}
    assert len(unit) == len(mods)
    lab = [f"{keys[si]}->{keys[ti]}:{n}" for si, ti, n, _ in basis]
    return ga.GradedAlgebra(p, [n for _, _, n, _ in basis], mult, unit,
                            labels=lab), basis


def _upsilon_module_ref(E, projectives, M):
    """Upsilon(M) one (K basis element, module basis element) pair at a
    time: the reference for upsilon_module."""
    mods = [projectives[k] for k in sorted(projectives, key=str)]
    p = E.p
    K, kbasis = _ext_algebra_ref(E, projectives)
    mbasis = [(si, d, psi) for si, src in enumerate(mods)
              for d, mats in sorted(ga.hom_all(src, M).items())
              for psi in mats]
    coords = _span_coordinates_ref((((si, d), psi) for si, d, psi in mbasis),
                                   p)
    action = []
    for (si, ti, n, kappa) in kbasis:
        m = np.zeros((len(mbasis), len(mbasis)), dtype=np.int64)
        for j, (sj, dj, psi) in enumerate(mbasis):
            if sj == ti:
                for k, c in coords((si, dj + n),
                                   la.mod_matmul(psi, kappa, p)).items():
                    m[k, j] = c
        action.append(m)
    return K, _from_dense(K, [d for _, d, _ in mbasis], action)


def _same_algebra(A, B):
    assert np.array_equal(A.mult, B.mult)
    assert list(A.unit.items()) == list(B.unit.items())
    assert A.degrees == B.degrees and A.labels == B.labels
    assert A.p == B.p


@pytest.mark.parametrize("cartan", [
    "A1", "A2", pytest.param("B2", marks=pytest.mark.slow)])
def test_ext_algebra_matches_per_pair_reference(cartan, C_A1, C_A2, C_B2):
    C = {"A1": C_A1, "A2": C_A2, "B2": C_B2}[cartan]
    E = sg.endomorphism_algebra(C).algebra
    projs = go.projectives_for(C)
    want, _ = _ext_algebra_ref(E, projs)
    _same_algebra(ga.ext_algebra_of_projectives(E, projs), want)


@pytest.mark.parametrize("cartan", ["A1", "A2"])
def test_upsilon_matches_per_pair_reference(cartan, C_A1, C_A2):
    C = {"A1": C_A1, "A2": C_A2}[cartan]
    E = sg.endomorphism_algebra(C).algebra
    projs = go.projectives_for(C)
    for M in go.standard_modules(C).values():
        K, U = ga.upsilon_module(E, projs, M)
        K0, U0 = _upsilon_module_ref(E, projs, M)
        _same_algebra(K, K0)
        assert U.degrees == U0.degrees
        assert U.rows.dtype == U0.rows.dtype == np.int64
        assert np.array_equal(_dense(U), _dense(U0))


def _tops_and_cover_echelon(A, M, idempotent_vectors):
    """Cover generators chosen against an incremental echelon form seeded
    with the radical rows, as (vector, slot, degree): the reference for the
    minimal generators of minimal_resolution."""
    p = A.p
    zero_idx = [a for a in range(A.dim) if A.degrees[a] == 0]
    span = la._Echelon(M.dim, p)
    act = _dense(M)
    for v in ga._radical_rows(A, M):
        span.insert(v)
    gens = []
    for j, evec in enumerate(idempotent_vectors):
        mat = M.matrix(evec)
        for x in range(M.dim):
            v = mat[:, x]
            if not np.any(span.reduce(v)[0]):
                continue
            gens.append((v, j, M.degrees[x]))
            for a in zero_idx:
                span.insert((act[a] @ v) % p)
            span.insert(v)
    return gens


def test_tops_and_cover_matches_echelon(C_A2):
    # the slices q_j K, the simples and the Upsilon of the A2 standards
    E = sg.endomorphism_algebra(C_A2).algebra
    projs = go.projectives_for(C_A2)
    K = ga.ext_algebra_of_projectives(E, projs)
    idems = ga._simple_idempotents(K, *ga._degree_zero_subalgebra(K))
    cases = [ga.idempotent_slice(K, e)[0] for e in idems]
    cases += [ga.quotient_module(P, ga._radical_rows(K, P))[0]
              for P in cases]
    cases += [ga.upsilon_module(E, projs, M)[1]
              for M in go.standard_modules(C_A2).values()]
    rows = [ga.idempotent_slice(K, e)[1] for e in idems]
    for M in cases:
        got = ga.module_generators(M, idems)
        want = _tops_and_cover_echelon(K, M, idems)
        assert sorted((h, M.degrees[np.flatnonzero(g)[0]]) for g, h in got) \
            == sorted((j, k) for _, j, k in want)
        assert la.mod_rank(ga._cover(M, got, rows), K.p) == M.dim


# ---------------------------------------------------------------------------
# certificates that python -O must not strip


_NON_ASSOCIATIVE = """
from flagalg import galgebra as ga
if __debug__:
    raise SystemExit("expected python -O")
# e0 = 1, e1 e1 = e2, e1 e2 = e3: (e1 e1) e1 = 0 but e1 (e1 e1) = e3
mult = [(0, j, j, 1) for j in range(4)] + [(j, 0, j, 1) for j in range(1, 4)]
mult += [(1, 1, 2, 1), (1, 2, 3, 1)]
try:
    ga.GradedAlgebra(5, [0, 1, 2, 3], mult, {0: 1}).check(spot=2000)
except ga.StructuralError as exc:
    print("StructuralError:", exc)
"""


def _run_optimized(code):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_algebra_check_rejects_non_associative_under_python_O():
    assert _run_optimized(_NON_ASSOCIATIVE) == \
        "StructuralError: associativity fails"


_OPEN_DEGREE_ZERO = """
from flagalg import galgebra as ga
if __debug__:
    raise SystemExit("expected python -O")
# e0 = 1 and e1 in degree 0, but e1 e1 = e2 in degree 1
mult = [(0, j, j, 1) for j in range(3)] + [(j, 0, j, 1) for j in range(1, 3)]
mult += [(1, 1, 2, 1)]
try:
    ga.koszulity_check(ga.GradedAlgebra(5, [0, 0, 1], mult, {0: 1}))
except ga.StructuralError as exc:
    print("StructuralError:", exc)
"""


def test_koszulity_rejects_open_degree_zero_part_under_python_O():
    assert _run_optimized(_OPEN_DEGREE_ZERO) == \
        "StructuralError: degree-zero part is not closed"


_CERTIFICATE_UNDER_O = """
import numpy as np
from flagalg import formality as fm
from flagalg import galgebra as ga
from flagalg import gradedO as go
from flagalg import soergel as sg
if __debug__:
    raise SystemExit("expected python -O")
try:
    CALL
except ga.StructuralError as exc:
    print("StructuralError:", exc)
"""


# the regular module of F[x]/(x^2), whose live rows are those of 1 under
# keys 0, 1 and that of x under key 3 = (x, row 1), with one more live row
# under key 2 = (x, row 0): it sends x to 1, out of the span of x, and
# lowers the degree
_MUTANT = ("M = ga.RightModule(ga.GradedAlgebra(5, [0, 1], [(0, 0, 0, 1), "
           "(0, 1, 1, 1), (1, 0, 1, 1)], {0: 1}), [0, 1], np.array([0, 1, 2, "
           "3]), np.array([[1, 0], [0, 1], [0, 1], [1, 0]])); ")


@pytest.mark.parametrize("call, message", [
    # d e_0 = e_1 and d e_1 = e_2 in bidegrees (0, 0), (1, 0), (2, 0)
    ("fm.BigradedDgAlgebra(5, [(0, 0), (1, 0), (2, 0)], [(0, k, k, 1) "
     "for k in range(3)] + [(1, 0, 1, 1), (2, 0, 2, 1)], {0: 1}, "
     "np.eye(3, k=-1, dtype=np.int64)).check()", "d^2 != 0"),
    # the Demazure quotient of a_1 by a_0: S_1 has the monomials a_1, a_0,
    # in this order, and a_0 times 1 sits at position 1
    ("sg._divide_by_variable(np.array([[1], [0]]), [1])",
     "polynomial is not divisible by the variable"),
    # the two slice certificates of test_idempotent_slice_certificates
    (f"ga.idempotent_slice(ga.GradedAlgebra(5, [0, 1, -1, 0], {_M2_ROWS!r}, "
     "{0: 1, 3: 1}), np.array([1, 0, 1, 0]))",
     "e A is not spanned by homogeneous rows"),
    (f"ga.idempotent_slice(ga.GradedAlgebra(5, [0, 0, 0, 0], "
     f"{_M2_ROWS_MOVED!r}, {{0: 1, 3: 1}}), np.array([1, 0, 1, 0]))",
     "e A is not closed under the action"),
    # Hom(e_2 E, e_3 E) for A2 at ell = 7, one entry of the cached section
    # of e_2 E changed (test_hom_all_section_certificate)
    pytest.param(
        "E = sg.endomorphism_algebra(sg.coinvariant_algebra('A2', 7))"
        ".algebra; X, Y = (ga.idempotent_slice(E, e)[0] for e in "
        "ga._idempotent_vectors(E)[2:4]); "
        "sect = ga.module_presentation(X)[5]; "
        "r = sect.any(axis=1).argmax(); sect[r, 0] = (sect[r, 0] + 1) % 7; "
        "ga.hom_all(X, Y)",
        "Hom basis map is not a module map", id="hom_all-section-corrupted"),
    # K(A1) with one map short in a target block: the composite of the
    # identity with that map lies outside what is left
    pytest.param(
        "C = sg.coinvariant_algebra('A1', 5); "
        "E = sg.endomorphism_algebra(C).algebra; "
        "projs = go.projectives_for(C); "
        "mods = [projs[k] for k in sorted(projs, key=str)]; "
        "_, blocks = ga._hom_blocks(mods, mods); "
        "key = max(blocks, key=lambda k: len(blocks[k][1])); "
        "target = dict(blocks); "
        "target[key] = (blocks[key][0], blocks[key][1][:-1]); "
        "ga._block_products(blocks, blocks, target, "
        "ga._generator_columns(mods), 5)",
        "composite outside computed hom space", id="k-target-short"),
    # the two certificates of _linalg.mod_coordinates: a dependent basis,
    # and a row outside the span of an independent one
    pytest.param("ga.la.mod_coordinates(np.array([[1, 2], [2, 4]]), 5, "
                 "dependent='rows repeat')", "rows repeat",
                 id="coordinates-dependent"),
    pytest.param("ga.la.mod_coordinates(np.array([[1, 2]]), 5, "
                 "outside='not in the span')[0](np.array([[0, 1]]))",
                 "not in the span", id="coordinates-outside"),
    # a live row that breaks closure, and one of the wrong degree
    pytest.param(_MUTANT + "ga.submodule(M, np.array([[0, 1]]))",
                 "rows are not closed under the action",
                 id="live-row-not-closed"),
    pytest.param(_MUTANT + "M.check()", "action does not respect degrees",
                 id="live-row-wrong-degree")])
def test_certificates_raise_under_python_O(call, message):
    assert _run_optimized(_CERTIFICATE_UNDER_O.replace("CALL", call)) == \
        f"StructuralError: {message}"


def test_complex_certificates():
    one = np.ones((1, 1), dtype=np.int64)
    with pytest.raises(ValueError, match="wrong shape"):
        GradedComplex({0: [0]}, {0: one}, 5).check()
    # a degree-0 differential that moves internal degree 0 to 1
    with pytest.raises(ga.StructuralError, match="not graded"):
        v_bar_shear(GradedComplex({0: [0], 1: [1]}, {0: one}, 5))


def test_structure_constants_canonical_form():
    rows = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 2, 3),
            (0, 2, 2, 1), (2, 0, 2, 1)]
    A = ga.GradedAlgebra(5, [0, 1, 2], rows, {0: 1})
    assert A.mult.dtype == np.int64
    assert A.mult.tolist() == sorted(map(list, rows))
    # the same constants shuffled, with coefficients outside [0, p) and a
    # zero one
    messy = [(1, 1, 2, -2), (2, 0, 2, 6), (1, 1, 0, 10), (0, 1, 1, 1),
             (0, 0, 0, 11), (1, 0, 1, -4), (0, 2, 2, 1)]
    zero = np.zeros((3, 3), dtype=np.int64)
    for build in (lambda m: ga.GradedAlgebra(5, [0, 1, 2], m, {0: 1}),
                  lambda m: fm.BigradedDgAlgebra(
                      5, [(0, 0), (1, 1), (2, 2)], m, {0: 1}, zero)):
        assert np.array_equal(build(messy).mult, A.mult)
        assert build(np.zeros((0, 4), dtype=np.int64)).mult.shape == (0, 4)
        for bad, message in ((rows + [(1, 1, 2, 1)], "repeated"),
                             (rows + [(1, 1, 3, 1)], "out of range"),
                             (rows + [(-1, 1, 2, 1)], "out of range")):
            with pytest.raises(ValueError, match=message):
                build(bad)


def test_opposite_swaps_the_factors(C_A2):
    for A in (dual_numbers(), sg.endomorphism_algebra(C_A2).algebra):
        op = A.opposite()
        assert op.mult.tolist() == sorted(
            [j, i, k, c] for i, j, k, c in A.mult.tolist())
        assert np.array_equal(op.opposite().mult, A.mult)


def test_upsilon_builds_K_once_per_projectives(monkeypatch):
    # a fresh A2 setup at ell = 7, so that no other test has built K
    C = sg.coinvariant_algebra("A2", 7)
    E = sg.endomorphism_algebra(C).algebra
    projs = go.projectives_for(C)
    stds = go.standard_modules(C)
    calls = []
    build = ga._ext_algebra
    monkeypatch.setattr(ga, "_ext_algebra",
                        lambda E, P: calls.append(P) or build(E, P))
    Ks = [ga.upsilon_module(E, projs, M)[0] for M in stds.values()]
    assert len(stds) == 6 and len(calls) == 1
    assert all(K is Ks[0] for K in Ks)
    assert ga.ext_algebra_of_projectives(E, projs) is Ks[0]
    # the same modules as new objects make another projectives dict
    other = {x: ga.shift_module(P, 0) for x, P in projs.items()}
    K2, _ = ga.upsilon_module(E, other, stds[C.group.identity])
    assert len(calls) == 2 and K2 is not Ks[0]
    _same_algebra(K2, Ks[0])


def test_check_certificates_raise_structural_errors():
    A = dual_numbers()
    broken = ga.GradedAlgebra(A.p, A.degrees, A.mult, {0: 2})
    with pytest.raises(ga.StructuralError, match="unit fails"):
        broken.check()
    reg = ga.regular_module(A)
    # the live rows that _MUTANT extends by one
    assert reg.keys.tolist() == [0, 1, 3]
    assert reg.rows.tolist() == [[1, 0], [0, 1], [1, 0]]
    with pytest.raises(ga.StructuralError,
                       match="unit does not act as identity"):
        ga.RightModule(broken, reg.degrees, reg.keys, reg.rows).check()
    with pytest.raises(ga.StructuralError,
                       match="action does not respect degrees"):
        ga.RightModule(A, [0, 0], reg.keys, reg.rows).check()


def test_check_names_the_unit_side_that_fails():
    # dual numbers without e1 e0 = e1 (or e0 e1 = e1): one side of the
    # unit still holds, and the check names the other
    A = dual_numbers()
    for drop, side in (((0, 1, 1, 1), "left"), ((1, 0, 1, 1), "right")):
        mult = [r for r in A.mult.tolist() if tuple(r) != drop]
        with pytest.raises(ga.StructuralError,
                           match=fr"^unit fails \({side}\)$"):
            ga.GradedAlgebra(A.p, A.degrees, mult, dict(A.unit)).check()


def _check_by_mul_vec(A, spot=200):
    """The unit and spot associativity checks over whole-vector mul_vec
    products: the verdict GradedAlgebra.check must reach, as a message."""
    u = A.unit_vector()
    for b in map(A.basis_vec, range(A.dim)):
        if not np.array_equal(A.mul_vec(u, b), b):
            return "unit fails (left)"
        if not np.array_equal(A.mul_vec(b, u), b):
            return "unit fails (right)"
    rng = np.random.default_rng(0)
    for x, y, z in (map(A.basis_vec, t)
                    for t in rng.integers(0, A.dim, size=(spot, 3))):
        if not np.array_equal(A.mul_vec(A.mul_vec(x, y), z),
                              A.mul_vec(x, A.mul_vec(y, z))):
            return "associativity fails"
    return None


def test_check_matches_whole_vector_products(monkeypatch):
    # E(A2) and copies with one structure constant dropped or changed:
    # the check that reads runs reaches the verdict of mul_vec products,
    # and calls no mul_vec itself
    E = sg.endomorphism_algebra(sg.coinvariant_algebra("A2", 5)).algebra
    variants = [E]
    # rows spread over mult, and three whose loss only the spot triples see
    rows = list(np.linspace(0, len(E.mult) - 1, 12).astype(int))
    for r in rows + [11, 34, 530]:
        variants.append(ga.GradedAlgebra(
            E.p, E.degrees, np.delete(E.mult, r, axis=0), dict(E.unit)))
        changed = E.mult.copy()
        changed[r, 3] = changed[r, 3] % (E.p - 1) + 1
        variants.append(ga.GradedAlgebra(E.p, E.degrees, changed,
                                         dict(E.unit)))
    want = [_check_by_mul_vec(A) for A in variants]
    assert want[0] is None and len(set(want)) == 4
    monkeypatch.setattr(ga.GradedAlgebra, "mul_vec", None)
    got = []
    for A in variants:
        try:
            A.check()
            got.append(None)
        except ga.StructuralError as exc:
            got.append(str(exc))
    assert got == want


def test_component_idempotents_certificates(monkeypatch):
    # F_2 x F_2 x F_2: its components of 1 are the coordinate idempotents,
    # unless the regular module is split along lines that are not ideals
    n = 3
    A0 = ga.GradedAlgebra(2, [0] * n, [(i, i, i, 1) for i in range(n)],
                          {i: 1 for i in range(n)})
    assert sorted(e.tolist() for e in ga._component_idempotents(A0)) == \
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def split_along(*lines):
        monkeypatch.setattr(ga, "decompose_module_with_rows", lambda M: [
            (None, np.array([line], dtype=np.int64)) for line in lines])

    # components (1,1,0), (0,1,1), (0,1,0): idempotent, but not orthogonal
    split_along([1, 1, 0], [0, 1, 1], [0, 1, 0])
    with pytest.raises(ga.StructuralError,
                       match="components of 1 are not orthogonal"):
        ga._component_idempotents(A0)
    # over F_5, 1 = (1, 2) - (0, 1) and (1, 2)^2 = (1, 4)
    A5 = ga.GradedAlgebra(5, [0, 0], [(0, 0, 0, 1), (1, 1, 1, 1)],
                          {0: 1, 1: 1})
    split_along([1, 2], [0, 1])
    with pytest.raises(ga.StructuralError,
                       match="component of 1 is not idempotent"):
        ga._component_idempotents(A5)
