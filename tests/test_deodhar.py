from itertools import product as iproduct

import numpy as np
import pytest

from flagalg import coxeter as cx
from flagalg import deodhar as dd
from flagalg._linalg import StructuralError


def W(t):
    return cx.build_group(t)


def test_rpoly_base_cases():
    w = W("A1")
    e, s = w.element("e"), w.element("s")
    assert str(dd.r_polynomial(w, e, s)) == "q - 1"
    assert dd.r_polynomial(w, s, e).is_zero
    assert dd.r_polynomial(w, e, e).to_dict() == {0: 1}


@pytest.mark.parametrize("t", ["A2", "B2", "G2"])
def test_rpoly_monic_degree(t):
    w = W(t)
    for u in w.elements:
        for v in w.elements:
            r = dd.r_polynomial(w, u, v)
            if cx.bruhat_leq(w, u, v):
                assert r.degree == v.length - u.length
                assert r.leading_coefficient == 1
            else:
                assert r.is_zero


def r_polynomial_with_descent(W, u, v, s):
    """The recursion of deodhar.r_polynomial with the first descent choice
    forced to s; used to test that the result does not depend on it."""
    if u == v:
        return dd.IntPolynomial.one()
    if not cx.bruhat_leq(W, u, v):
        return dd.IntPolynomial.zero()
    if W.mult(v, s).length >= v.length:
        raise ValueError("s is not a right descent of v")
    vs = W.mult(v, s)
    us = W.mult(u, s)
    if us.length < u.length:
        return dd.r_polynomial(W, us, vs)
    q_minus_1 = dd.IntPolynomial.from_dict({1: 1, 0: -1})
    q = dd.IntPolynomial.from_dict({1: 1})
    return q_minus_1 * dd.r_polynomial(W, u, vs) + \
        q * dd.r_polynomial(W, us, vs)


@pytest.mark.parametrize("t", ["A2", "B2", "G2", "A3"])
def test_rpoly_descent_independence(t):
    w = W(t)
    for v in w.elements:
        descents = w.right_descents(v)
        if len(descents) < 2:
            continue
        for u in w.elements:
            ref = dd.r_polynomial(w, u, v)
            for s in descents:
                assert r_polynomial_with_descent(w, u, v, s) == ref


def test_flag_oracle_basics():
    w = W("A1")
    e, s = w.element("e"), w.element("s")
    assert dd.flag_count(1, 2, e, s) == 1
    assert dd.flag_count(1, 3, e, s) == 2
    assert dd.flag_count(1, 4, e, s) == 3
    with pytest.raises(ValueError):
        dd.flag_count(4, 2, e, s)
    with pytest.raises(ValueError):
        dd.flag_count(1, 5, e, s)


@pytest.mark.parametrize("rank,q", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3),
                                    (2, 4), (3, 2), (3, 3), (3, 4)])
def test_oracle_agreement_small(rank, q):
    w = W(f"A{rank}")
    table = dd.flag_position_table(rank, q)
    for u in w.elements:
        for v in w.elements:
            assert dd.r_polynomial(w, u, v)(q) == \
                table.get((u.word, v.word), 0)


# ---------------------------------------------------------------------------
# reference flag enumeration: subspaces deduplicated level by level, and
# relative positions from dim(V_i + F_j), one row reduction at a time


def _gf4_mul(a, b):
    """Product in GF(4) = F_2[x]/(x^2+x+1), elements 0, 1, 2=x, 3=x+1."""
    prod = (a if b & 1 else 0) ^ ((a << 1) if b & 2 else 0)
    return prod ^ 0b111 if prod & 0b100 else prod


class _SmallField:
    def __init__(self, q):
        if q not in (2, 3, 4):
            raise ValueError("flag oracle supports field sizes 2, 3, 4 only")
        self.q = q

    def add(self, a, b):
        return a ^ b if self.q == 4 else (a + b) % self.q

    def mul(self, a, b):
        return _gf4_mul(a, b) if self.q == 4 else (a * b) % self.q

    def neg(self, a):
        if self.q == 4:
            return a
        return (-a) % self.q

    def inv(self, a):
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise ZeroDivisionError


def _row_reduce(field, rows):
    """Row echelon over the small field; returns reduced rows (basis)."""
    rows = [list(r) for r in rows]
    out = []
    pivots = []
    for r in rows:
        for prow, pc in zip(out, pivots):
            if r[pc] != 0:
                f = r[pc]
                r = [field.add(x, field.neg(field.mul(f, y)))
                     for x, y in zip(r, prow)]
        nz = next((i for i, x in enumerate(r) if x != 0), None)
        if nz is None:
            continue
        inv = field.inv(r[nz])
        r = [field.mul(inv, x) for x in r]
        out.append(r)
        pivots.append(nz)
    return out, pivots


def _subspace_dim_sum(field, rows_a, rows_b):
    return len(_row_reduce(field, list(rows_a) + list(rows_b))[0])


def _all_flags(field, n):
    """All complete flags in field^n.  Each flag is a tuple whose i-th entry
    is the canonical (row reduced) basis of V_{i+1}; subspaces are deduped
    at every level so each flag appears exactly once."""
    vectors = [v for v in iproduct(range(field.q), repeat=n)
               if any(v)]

    def normalize(v):
        lead = next(x for x in v if x != 0)
        inv = field.inv(lead)
        return tuple(field.mul(inv, x) for x in v)

    lines = sorted({normalize(v) for v in vectors})

    def canonical(rows):
        red, _ = _row_reduce(field, rows)
        return tuple(sorted(tuple(r) for r in red))

    def extend(chain):
        if len(chain) == n - 1:
            yield tuple(chain)
            return
        current = list(chain[-1]) if chain else []
        bigger = {}
        for line in lines:
            if len(_row_reduce(field, current + [line])[0]) == len(current) + 1:
                bigger.setdefault(canonical(current + [line]), None)
        for sub in bigger:
            yield from extend(chain + [sub])

    if n == 1:
        return [()]
    return list(extend([]))


def _relative_position(field, flag, ref, n):
    """Permutation w (one-line, 1-based values) with
    dim(V_i /\\ F_j) = #{k <= i : w(k) <= j}.

    `flag` is a chain of canonical bases (V_1, ..., V_{n-1}); `ref` is a
    chain of reference subspace bases of the same shape."""
    full = [tuple(int(a == b) for b in range(n)) for a in range(n)]

    def rows_of(chain, i):
        if i == 0:
            return []
        return list(chain[i - 1]) if i <= n - 1 else list(full)

    dims = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        rows_v = rows_of(flag, i)
        for j in range(1, n + 1):
            rows_f = rows_of(ref, j)
            # dim(V_i) + dim(F_j) - dim(V_i + F_j)
            dims[i][j] = i + j - _subspace_dim_sum(field, rows_v, rows_f)
    w = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if dims[i][j] - dims[i - 1][j] > dims[i][j - 1] - dims[i - 1][j - 1]:
                w.append(j)
                break
    return tuple(w)


def _reference_table(rank, q):
    W = cx.build_group(f"A{rank}")
    field = _SmallField(q)
    n = rank + 1
    std_rows = [tuple(int(a == b) for b in range(n)) for a in range(n - 1)]
    opp_rows = [tuple(int(a == n - 1 - b) for b in range(n))
                for a in range(n - 1)]
    std = [tuple(std_rows[: j + 1]) for j in range(n - 1)]
    opp = [tuple(opp_rows[: j + 1]) for j in range(n - 1)]
    w0 = W.longest_element
    counts = {}
    for flag in _all_flags(field, n):
        pos_v = dd._perm_to_element(W, _relative_position(field, flag, std, n))
        pos_u_tw = dd._perm_to_element(
            W, _relative_position(field, flag, opp, n))
        # position w to the opposite flag means the w0-twisted cell index
        pos_u = W.mult(w0, pos_u_tw)
        k = (pos_u.word, pos_v.word)
        counts[k] = counts.get(k, 0) + 1
    return counts


@pytest.mark.parametrize("rank,q", [
    (r, q) if (r, q) != (3, 4) else pytest.param(r, q, marks=pytest.mark.slow)
    for r in (1, 2, 3) for q in (2, 3, 4)])
def test_flag_table_matches_reference_enumeration(rank, q):
    assert dd.flag_position_table(rank, q) == _reference_table(rank, q)


def _mutated(change):
    enumerate_flags = dd._echelon_flags
    return lambda n, q: change(enumerate_flags(n, q))


@pytest.mark.parametrize("change, message", [
    (lambda f: f[1:], "flags enumerated"),                       # dropped
    (lambda f: np.concatenate([f, f[-1:]]), "flags enumerated"),  # duplicated
    (lambda f: np.concatenate([f[-1:], f[1:]]), "Bruhat cell"),   # replaced
    (lambda f: np.concatenate([0 * f[:1], f[1:]]), "dependent"),  # singular
])
def test_flag_table_rejects_mutated_enumeration(monkeypatch, change,
                                                message):
    monkeypatch.setattr(dd, "_TABLE_MEMO", {})
    monkeypatch.setattr(dd, "_echelon_flags", _mutated(change))
    with pytest.raises(StructuralError, match=message):
        dd.flag_position_table(2, 3)


@pytest.mark.parametrize("rank,q", [(0, 2), (4, 2), (1, 5), (2, 1), (3, 9)])
def test_flag_position_table_rejects_bad_input(rank, q):
    with pytest.raises(ValueError):
        dd.flag_position_table(rank, q)


def test_envelope_formulas():
    w = W("A1")
    e, s = w.element("e"), w.element("s")
    assert dd.weight_envelope(w, e, s).to_dict() == \
        {1: (0, 0), 2: (-1, -1)}
    assert dd.weight_envelope(w, s, s).to_dict() == {0: (0, 0)}
    assert dd.weight_envelope(w, s, e).is_empty
    w2 = W("A2")
    prof = dd.weight_envelope(w2, w2.element("e"), w2.longest_element)
    assert prof.to_dict() == {3: (-1, 0), 4: (-2, -1),
                              5: (-2, -2), 6: (-3, -3)}


@pytest.mark.parametrize("t", ["A2", "B2"])
def test_envelope_general_shape(t):
    w = W(t)
    for u in w.elements:
        for v in w.elements:
            prof = dd.weight_envelope(w, u, v)
            if not cx.bruhat_leq(w, u, v):
                assert prof.is_empty
                continue
            d = v.length - u.length
            assert prof.degrees == list(range(d, 2 * d + 1))
            for n in prof.degrees:
                assert prof.interval(n) == (-(n // 2), -n + d)


def test_ext_profiles():
    w = W("A1")
    e, s = w.element("e"), w.element("s")
    assert dd.ext_profile_standard(w, e, s).to_dict() == \
        {0: (0, 0), 1: (-1, -1)}
    assert dd.ext_profile_standard(w, s, s).to_dict() == {0: (0, 0)}
    w2 = W("A2")
    prof = dd.ext_profile_standard(w2, w2.element("e"), w2.longest_element)
    assert prof.interval(3) == (-3, -3)
    assert sorted(prof.degrees) == [0, 1, 2, 3]


@pytest.mark.parametrize("t", ["A2", "B2"])
def test_envelope_ext_shift_coincidence(t):
    w = W(t)
    for u in w.elements:
        for v in w.elements:
            if not cx.bruhat_leq(w, u, v):
                continue
            d = v.length - u.length
            env = dd.weight_envelope(w, u, v)
            ext = dd.ext_profile_standard(w, u, v)
            for n in ext.degrees:
                assert ext.interval(n) == env.interval(n + d)


def test_ext_parabolic():
    w = W("A2")
    e, t_el, s = w.element("e"), w.element("t"), w.element("s")
    prof = dd.ext_profile_parabolic(w, e, t_el, s)
    assert prof.to_dict() == dd.ext_profile_standard(w, e, t_el).to_dict()
    assert dd.ext_profile_parabolic(w, e, e, s).to_dict() == {0: (0, 0)}
    with pytest.raises(ValueError):
        dd.ext_profile_parabolic(w, s, t_el, s)


@pytest.mark.parametrize("t", ["A1", "A2", "B2"])
def test_lefschetz_exponent_containment(t):
    w = W(t)
    for u in w.elements:
        for v in w.elements:
            r = dd.r_polynomial(w, u, v)
            if r.is_zero:
                continue
            env = dd.weight_envelope(w, u, v)
            allowed = set()
            for n in env.degrees:
                lo, hi = env.interval(n)
                allowed.update(range(-hi, -lo + 1))
            for exp, _ in r.coeffs:
                assert exp in allowed


def test_projective_weight_certificate():
    w = W("A2")
    rep = dd.projective_weight_certificate(w, w.longest_element, 13, 2)
    assert rep.flag_intervals == ()
    assert rep.end_window == (-3, 3)
    rep = dd.projective_weight_certificate(w, w.element("e"), 13, 2)
    table = dict(rep.flag_intervals)
    assert table["sts"] == (1, 3)
    assert rep.q_order == 12 and rep.threshold == 6
    assert rep.hypothesis_holds
    with pytest.raises(ValueError):
        dd.projective_weight_certificate(w, w.element("e"), 9, 2)
    with pytest.raises(ValueError):
        dd.projective_weight_certificate(w, w.element("e"), 13, 26)


def test_polynomial_printing():
    p = dd.IntPolynomial.from_dict({3: 1, 2: -2, 1: 1})
    assert str(p) == "q^3 - 2*q^2 + q"
    assert str(dd.IntPolynomial.zero()) == "0"
