"""
Acceptance criteria, one test per criterion; run with

    pytest tests/test_acceptance.py -v -s

for one PASS/FAIL line per criterion plus the measured values.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from flagalg import _linalg as la
from flagalg import coxeter as cx
from flagalg import deodhar as dd
from flagalg import formality as fm
from flagalg import galgebra as ga
from flagalg import gradedO as go
from flagalg import phimod as pm
from flagalg import soergel as sg

from test_deodhar import r_polynomial_with_descent
from test_phimod import _random_criterion_module


def _report(name, detail=""):
    print(f"\nACCEPTANCE {name}: PASS {detail}")


def test_criterion_01_rpolynomial_vs_flag_oracle():
    t0 = time.time()
    checked = 0
    for rank in (1, 2, 3):
        W = cx.build_group(f"A{rank}")
        for q in (2, 3):
            table = dd.flag_position_table(rank, q)
            for u in W.elements:
                for v in W.elements:
                    assert dd.r_polynomial(W, u, v)(q) == \
                        table.get((u.word, v.word), 0)
                    checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30, f"oracle comparison took {elapsed:.1f}s"
    _report("1 (point counts match the flag oracle)",
            f"[{checked} pairs, {elapsed:.1f}s]")


def test_criterion_02_recursion_descent_independence():
    checked = 0
    for t in ("A2", "B2", "G2"):
        W = cx.build_group(t)
        for v in W.elements:
            descents = W.right_descents(v)
            if len(descents) < 2:
                continue
            for u in W.elements:
                ref = dd.r_polynomial(W, u, v)
                for s in descents:
                    assert r_polynomial_with_descent(W, u, v, s) == ref
                    checked += 1
    W3 = cx.build_group("A3")
    sample = [v for v in W3.elements if len(W3.right_descents(v)) >= 2]
    for v in sample:
        for u in W3.elements[:: 3]:
            ref = dd.r_polynomial(W3, u, v)
            for s in W3.right_descents(v):
                assert r_polynomial_with_descent(W3, u, v, s) == ref
                checked += 1
    _report("2 (recursion independent of descent choice)",
            f"[{checked} comparisons]")


def test_criterion_03_envelope_formulas():
    for t in ("A1", "A2", "B2", "G2"):
        W = cx.build_group(t)
        for u in W.elements:
            for v in W.elements:
                env = dd.weight_envelope(W, u, v)
                ext = dd.ext_profile_standard(W, u, v)
                if not cx.bruhat_leq(W, u, v):
                    assert env.is_empty and ext.is_empty
                    continue
                d = v.length - u.length
                assert env.degrees == list(range(d, 2 * d + 1))
                for n in env.degrees:
                    assert env.interval(n) == (-(n // 2), -n + d)
                assert ext.degrees == list(range(0, d + 1))
                for n in ext.degrees:
                    assert ext.interval(n) == (-((n + d) // 2), -n)
                    assert ext.interval(n) == env.interval(n + d)
    W = cx.build_group("A1")
    anchor = dd.weight_envelope(W, W.element("e"), W.element("s"))
    assert anchor.to_dict() == {1: (0, 0), 2: (-1, -1)}
    _report("3 (weight envelopes and Ext profiles)",
            "[all pairs, rank <= 2; degree-2 anchor at weight -1]")


def test_criterion_04_lefschetz_exponent_containment():
    count = 0
    groups = [cx.build_group(t) for t in ("A1", "A2", "B2", "G2")]
    for W in groups:
        pairs = [(u, v) for u in W.elements for v in W.elements]
        for u, v in pairs:
            count += _check_containment(W, u, v)
    W3 = cx.build_group("A3")
    for u in W3.elements[:: 2]:
        for v in W3.elements[:: 2]:
            count += _check_containment(W3, u, v)
    _report("4 (point-count exponents inside negated envelopes)",
            f"[{count} nonzero polynomials]")


def _check_containment(W, u, v):
    r = dd.r_polynomial(W, u, v)
    if r.is_zero:
        return 0
    env = dd.weight_envelope(W, u, v)
    allowed = set()
    for n in env.degrees:
        lo, hi = env.interval(n)
        allowed.update(range(-hi, -lo + 1))
    for exp, _ in r.coeffs:
        assert exp in allowed, (u.word, v.word, exp)
    return 1


def test_criterion_05_phimodule_examples_and_randoms():
    for ell in (3, 5):
        q = 1 + ell
        d1 = pm.decompose(pm.PhiModule.build(
            [[1, 0], [0, 1 + ell]], ell, q, 32))
        assert d1.status == "decomposable"
        d2 = pm.decompose(pm.PhiModule.build(
            [[1, 0], [1, 1 + ell]], ell, q, 32))
        assert d2.status == "indecomposable"
        d3 = pm.decompose(pm.PhiModule.build(
            [[1, 0], [1, 1 + ell]], ell, 2 if ell != 2 else 3, 32))
        assert d3.status == "indecomposable"
    random.seed(20260808)
    for _ in range(200):
        M, ell = _random_criterion_module(rank_max=5)
        dec = pm.decompose(M)
        assert dec.status == "decomposable", dec.message
        rows = [list(r) for s in dec.summands for r in s.basis]
        det = la.frac_det(rows)
        assert det != 0 and la.lval(det, ell) == 0
    _report("5 (lattice splitting verdicts and 200 certified randoms)")


def test_criterion_06_soergel_algebra_facts():
    for t in ("A1", "A2", "B2"):
        for ell in (5, 7):
            C = sg.coinvariant_algebra(t, ell)
            assert sum(C.dims) == len(C.group.elements)
            counts = {}
            for w in C.group.elements:
                counts[2 * w.length] = counts.get(2 * w.length, 0) + 1
            assert {2 * d: v for d, v in enumerate(C.dims) if v} == counts
    C1 = sg.coinvariant_algebra("A1", 5)
    E1 = sg.endomorphism_algebra(C1)
    assert E1.algebra.dim == 5
    assert E1.algebra.dims_by_degree() == {0: 3, 2: 2}
    C2 = sg.coinvariant_algebra("A2", 5)
    E2 = sg.endomorphism_algebra(C2)
    assert all(d % 2 == 0 for d in E1.algebra.degrees)
    assert all(d % 2 == 0 for d in E2.algebra.degrees)
    assert E2.algebra.dims_by_degree() == \
        {-2: 2, 0: 24, 2: 40, 4: 27, 6: 6}    # frozen on first verified run
    assert sg.bimodule_shift_check(C1, 0)
    for s in (0, 1):
        assert sg.bimodule_shift_check(C2, s)
    CB = sg.coinvariant_algebra("B2", 7)
    for s in (0, 1):
        assert sg.bimodule_shift_check(CB, s)
    _report("6 (coinvariant/End algebra facts; bimodule shift for "
            "A1, A2, B2)", "[G2 End algebra is beyond desk scale]")


def test_criterion_07_projectives_and_standards():
    for t, count in (("A1", 2), ("A2", 6)):
        C = sg.coinvariant_algebra(t, 5)
        W = C.group
        projs = go.projectives_for(C)
        assert len(projs) == count
        std = go.standard_modules(C)
        pe = projs[W.identity]
        me = std[W.identity]
        assert ga.is_iso_up_to_shift(me, pe) == 0   # both are e_() E
        for x in W.elements:
            for s in W.simple_reflections:
                if W.mult(x, s).length > x.length:
                    phi = go.standard_embedding(C, x, s)
                    assert la.mod_rank(phi, C.ell) == \
                        std[W.mult(x, s)].dim
            assert ga.hom_dims(std[x], std[x]) == {0: 1}
            mult = go.graded_multiplicities(C, std[x])
            assert mult.get((x, 0)) == 1
        table = go.hom_standard_table(C)
        for (x, y), (dim, shifts) in table.items():
            expected = 1 if cx.bruhat_leq(W, y, x) else 0
            assert dim == expected
            if dim:
                assert shifts == [x.length - y.length]
    _report("7 (graded projectives and standard modules)",
            "[A1: 2 classes, A2: 6 classes; all embeddings injective]")


def test_criterion_08_formality_harness():
    t0 = time.time()
    for seed in range(100):
        R = fm.random_diagonal_instance(seed)
        assert R.dim <= 40
        sub, inc, proj, hd = fm.shear_subalgebra(R)
        sub.check()
        assert fm.diagonal_check(R)
        assert fm.verify_quasi_iso(sub, R, inc)
        assert fm.verify_quasi_iso(sub, hd.algebra, proj)
    bad = fm.random_nondiagonal_instance(1)
    assert not fm.diagonal_check(bad)
    elapsed = time.time() - t0
    assert elapsed < 10, f"formality harness took {elapsed:.1f}s"
    _report("8 (100 shear instances certified; non-diagonal reported)",
            f"[{elapsed:.1f}s]")


def test_criterion_09_hypothesis_checker():
    W2 = cx.build_group("A2")
    rep = dd.projective_weight_certificate(W2, W2.identity, 13, 2)
    assert rep.hypothesis_holds and rep.q_order == 12
    for q in range(1, 7):
        rep = dd.projective_weight_certificate(W2, W2.identity, 7, q)
        assert not rep.hypothesis_holds     # ord divides 6 = 2 l(w0)
    W1 = cx.build_group("A1")
    rep = dd.projective_weight_certificate(W1, W1.identity, 5, 2)
    assert rep.hypothesis_holds and rep.q_order == 4
    _report("9 (order-of-q hypothesis verdicts)")


def test_criterion_10_koszulity_harness():
    one_gen = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)]
    fast = ga.GradedAlgebra(5, [0, 1], one_gen, {0: 1})
    rep = ga.koszulity_check(fast, cap=10)
    assert rep.linear_to_cap and rep.verdict == "Koszul to cap"
    slow = ga.GradedAlgebra(5, [0, 2], one_gen, {0: 1})
    rep2 = ga.koszulity_check(slow, cap=10)
    assert not rep2.linear_to_cap
    C1 = sg.coinvariant_algebra("A1", 5)
    E1 = sg.endomorphism_algebra(C1).algebra
    projs = go.projectives_for(C1)
    K = ga.ext_algebra_of_projectives(E1, projs)
    assert K.dims_by_degree() == {0: 2, 1: 2, 2: 1}   # frozen
    rep3 = ga.koszulity_check(K, cap=10)
    assert rep3.is_nonneg_graded and rep3.is_semisimple_deg0
    assert rep3.linear_to_cap                          # recorded verdict
    frozen_table = {(0, 0, 0, 0): 1, (0, 1, 1, 0): 1, (1, 0, 1, -1): 1,
                    (1, 1, 0, -1): 1, (2, 1, 1, -2): 1}
    assert rep3.ext_table == frozen_table              # frozen Ext table
    _report("10 (Koszulity harness; regraded algebra verdict recorded)",
            f"[regraded dims {K.dims_by_degree()}]")
