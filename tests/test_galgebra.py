import json
import os
import subprocess
import sys

import numpy as np
import pytest

from flagalg import _linalg as la
from flagalg import galgebra as ga
from flagalg import gradedO as go
from flagalg import soergel as sg

FIX = json.load(open(os.path.join(os.path.dirname(__file__),
                                  "fixtures", "frozen.json")))


def dual_numbers(p=5, deg=1):
    """F[x]/(x^2) with x in the given degree."""
    return ga.GradedAlgebra(
        p, [0, deg],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {}},
        {0: 1})


def test_regular_module_and_check():
    A = dual_numbers()
    reg = ga.regular_module(A)
    reg.check()
    assert reg.dims_by_degree() == {0: 1, 1: 1}


def test_v_forget():
    A = dual_numbers()
    reg = ga.regular_module(A)
    forgotten = ga.v_forget(reg)
    assert forgotten.dim == reg.dim
    shifted = ga.shift_module(reg, 3)
    assert ga.v_forget(shifted).dim == forgotten.dim
    assert [m.tolist() for m in ga.v_forget(shifted).action] == \
        [m.tolist() for m in forgotten.action]


def test_v_bar_shear_laws():
    rng = np.random.default_rng(2)
    comps = {0: [0, 1, 1], 1: [1, 2]}
    d0 = np.array([[1, 0, 2], [0, 3, 1]], dtype=np.int64)
    # make it graded: entries allowed only when target degree == source
    d0[0, 0] = 0
    d0[1, 1] = 0
    d0[1, 2] = 0
    cx = ga.GradedComplex(comps, {0: d0}, 5)
    cx.check()
    dg = ga.v_bar_shear(cx)
    # dimensions along antidiagonals of (i, j)
    assert dg.components == {0: 1, 1: 2, 2: 1, 3: 1}
    # shift law: v_bar(M<1>) = v_bar(M)[-1]
    lhs = ga.v_bar_shear(cx.shift_internal(1))
    rhs = ga.v_bar_shear(cx).shift_cohomological(-1)
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
    action = []
    for a in range(M.algebra.dim):
        m = np.zeros((len(degs), len(degs)), dtype=np.int64)
        m[: M.dim, : M.dim] = M.action[a]
        m[M.dim:, M.dim:] = N.action[a]
        action.append(m)
    return ga.RightModule(M.algebra, degs, action)


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
    shuffled = ga.RightModule(
        E, [reg.degrees[j] for j in perm],
        [(inv @ m @ pm) % E.p for m in reg.action])
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


def test_idempotent_slice_matches_regular_submodule(C_A1, C_A2):
    # every basis idempotent of E(A1), E(A2) and E^s(A1), the component
    # idempotents of K(A1), and E11 + E21 in M_2(F_5), whose slice rows
    # E11 + E21, E12 + E22 are not basis vectors
    pairs = [(i, j) for i in range(2) for j in range(2)]
    m2 = ga.GradedAlgebra(5, [0] * 4, {
        (2 * i + j, 2 * k + m): {2 * i + m: 1} if j == k else {}
        for i, j in pairs for k, m in pairs}, {0: 1, 3: 1})
    cases = [(m2, np.array([1, 0, 1, 0]))]
    for A in (sg.endomorphism_algebra(C_A1).algebra,
              sg.endomorphism_algebra(C_A2).algebra,
              sg.wall_algebra(C_A1, 0)[0].algebra):
        cases += [(A, A.basis_vec(i)) for i in A.idempotents.values()]
    K = ga.ext_algebra_of_projectives(sg.endomorphism_algebra(C_A1).algebra,
                                      go.projectives_for(C_A1))
    cases += [(K, e) for e in
              ga._simple_idempotents(K, *ga._degree_zero_subalgebra(K))]
    for A, e in cases:
        M, rows, piv = ga.idempotent_slice(A, e)
        spans = [A.mul_vec(e, A.basis_vec(b)) for b in range(A.dim)]
        want, want_rows = ga.submodule(
            ga.regular_module(A), np.array([v for v in spans if np.any(v)]))
        assert np.array_equal(rows, want_rows)
        assert piv == [int(np.flatnonzero(r)[0]) for r in want_rows]
        assert M.degrees == want.degrees
        assert len(M.action) == len(want.action) == A.dim
        assert all(np.array_equal(x, y)
                   for x, y in zip(M.action, want.action))


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
    A = ga.GradedAlgebra(5, [0], {(0, 0): {0: 1}}, {0: 1})
    rep = ga.koszulity_check(A, cap=5)
    assert rep.linear_to_cap
    assert rep.dual_graded_dims == {(0, 0): 1}


def test_koszulity_gate_verdicts():
    # negative grading: not Koszul-gradable
    A = ga.GradedAlgebra(5, [0, -1],
                         {(0, 0): {0: 1}, (0, 1): {1: 1},
                          (1, 0): {1: 1}, (1, 1): {}}, {0: 1})
    rep = ga.koszulity_check(A, cap=4)
    assert rep.verdict == "not Koszul-gradable as given"
    # nonsemisimple degree zero: F[x]/(x^2) concentrated in degree 0
    B = ga.GradedAlgebra(5, [0, 0],
                         {(0, 0): {0: 1}, (0, 1): {1: 1},
                          (1, 0): {1: 1}, (1, 1): {}}, {0: 1})
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


def test_upsilon_and_standard_koszul_modules(C_A1):
    E = sg.endomorphism_algebra(C_A1).algebra
    projs = go.projectives_for(C_A1)
    std = go.standard_modules(C_A1)
    frozen = FIX["koszul_a1"]["standard_module_koszul"]
    for x, M in std.items():
        K, U = ga.upsilon_module(E, projs, M)
        assert ga.koszul_module_check(K, U, cap=10) == \
            frozen[x.serialize()]


def test_hom_all_consistency_small():
    # presentation-based homs agree with brute force on a small case
    A = dual_numbers(deg=1)
    reg = ga.regular_module(A)
    homs = ga.hom_all(reg, reg)
    # End(A) = A: one map in degree 0 (identity), one in degree 1
    assert {d: len(v) for d, v in homs.items()} == {0: 1, 1: 1}
    for d, mats in homs.items():
        for m in mats:
            for a in range(A.dim):
                lhs = (m @ reg.action[a]) % 5
                rhs = (reg.action[a] @ m) % 5
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
        for a in range(alg.dim):
            am, an = M.action[a], N.action[a]
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
    closed under products by a frontier loop."""
    ech = la._Echelon(alg.dim, alg.p)
    vecs = []

    def contains(v):
        return not np.any(ech.reduce(v)[0])

    def add(v):
        if ech.insert(v) is None:
            vecs.append(v)

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
                    for prod in (alg.mul_vec(a, b), alg.mul_vec(b, a)):
                        if np.any(prod) and not contains(prod):
                            add(prod)
                            new.append(prod)
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
    mats = [sum((int(av[a]) * M.action[a] for a in np.nonzero(av)[0]),
                np.zeros((M.dim, M.dim), dtype=np.int64)) % p
            for av in acting]
    gens = []
    for k in sorted(range(M.dim), key=lambda i: (M.degrees[i], i)):
        v = np.zeros(M.dim, dtype=np.int64)
        v[k] = 1
        if not np.any(span.reduce(v)[0]):
            continue
        for h, evec in enumerate(idems):
            g = M.act_vec(v, evec)
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
        got, _ = ga.module_generators(M)
        want = _module_generators_closure(M, alg_gens[id(A)])
        assert [(g.tolist(), h) for g, h in got] == \
            [(g.tolist(), h) for g, h in want]


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
A = ga.GradedAlgebra(5, [0, 1], {{(0, 0): {{0: 1}}, (0, 1): {{1: 1}},
                                 (1, 0): {{1: 1}}, (1, 1): {{}}}}, {{0: 1}})
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
