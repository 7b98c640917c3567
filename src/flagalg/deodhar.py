"""
Point counts and Frobenius weight envelopes for intersections of Bruhat
cells with opposite Bruhat cells, and the induced Ext-degree/weight
profiles between standard objects.

The point-count polynomial R(u, v) of X_v intersected with the opposite
cell of u satisfies the cell-decomposition recursion: pick a simple s with
vs < v; then

    R(u, v) = R(us, vs)                       if us < u,
    R(u, v) = (q - 1) R(u, vs) + q R(us, vs)  if us > u,

with R(u, u) = 1 and R(u, v) = 0 unless u <= v.  The recursion is
independent of the choice of descent (tested exhaustively).

Weight conventions: the Frobenius acts on the top compactly-supported
cohomology of the affine line by q^{-1}, so "weight m" means eigenvalue
q^m and all envelope entries are <= 0.  Point-count exponents are the
negatives of weights.

An independent oracle `flag_count` enumerates complete flags over small
finite fields (type A only) and counts those in prescribed relative
positions to the standard and opposite coordinate flags.  Each flag is
listed once by its row-echelon representative, all of them in one
(N, n, n) array per field, and both relative positions come from one
batched elimination each, with the field arithmetic done by lookup tables
so that F_2, F_3 and F_4 share one code path.
"""

from dataclasses import dataclass, field
from itertools import permutations
from itertools import product as iproduct
from math import prod

import numpy as np

from ._linalg import StructuralError, is_prime
from .coxeter import LETTERS as _LETTERS
from .coxeter import bruhat_leq, build_group, coset_reps

__all__ = [
    "IntPolynomial", "WeightProfile", "r_polynomial", "weight_envelope",
    "ext_profile_standard", "ext_profile_parabolic",
    "projective_weight_certificate", "flag_count",
]


@dataclass(frozen=True)
class IntPolynomial:
    """Sparse integer polynomial in the fixed variable q."""

    coeffs: tuple  # sorted tuple of (exponent, nonzero coefficient)

    @staticmethod
    def from_dict(d):
        return IntPolynomial(tuple(sorted((e, c) for e, c in d.items() if c)))

    @staticmethod
    def zero():
        return IntPolynomial(())

    @staticmethod
    def one():
        return IntPolynomial(((0, 1),))

    def to_dict(self):
        return dict(self.coeffs)

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        if not self.coeffs:
            return None
        return self.coeffs[-1][0]

    @property
    def leading_coefficient(self):
        if not self.coeffs:
            return 0
        return self.coeffs[-1][1]

    def __add__(self, other):
        d = self.to_dict()
        for e, c in other.coeffs:
            d[e] = d.get(e, 0) + c
        return IntPolynomial.from_dict(d)

    def __mul__(self, other):
        d = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
        return IntPolynomial.from_dict(d)

    def __call__(self, q):
        return sum(c * q ** e for e, c in self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs, reverse=True):
            if e == 0:
                mono = str(abs(c))
            else:
                head = "q" if e == 1 else f"q^{e}"
                mono = head if abs(c) == 1 else f"{abs(c)}*{head}"
            if not parts:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(parts)


@dataclass(frozen=True)
class WeightProfile:
    """Closed integer intervals of allowed Frobenius q-weights, one per
    cohomological degree."""

    entries: tuple  # sorted tuple of (degree, (lo, hi))
    label: str = field(default="", compare=False)

    @staticmethod
    def from_dict(d, label=""):
        for lo, hi in d.values():
            if lo > hi:
                raise ValueError("empty interval in weight profile")
        return WeightProfile(tuple(sorted(d.items())), label)

    def to_dict(self):
        return dict(self.entries)

    @property
    def degrees(self):
        return [n for n, _ in self.entries]

    def interval(self, n):
        return dict(self.entries).get(n)

    @property
    def is_empty(self):
        return not self.entries


_R_MEMO = {}


def r_polynomial(W, u, v):
    """Point-count polynomial of the intersection of the v-cell with the
    opposite u-cell, by the descent recursion.  Memoized per (type, u, v);
    recomputation is idempotent so the cache is safe under concurrency."""
    key = (W.cartan_type, u.word, v.word)
    if key in _R_MEMO:
        return _R_MEMO[key]
    if u == v:
        out = IntPolynomial.one()
    elif not bruhat_leq(W, u, v):
        out = IntPolynomial.zero()
    else:
        s = W.right_descents(v)[0]
        vs = W.mult(v, s)
        us = W.mult(u, s)
        if us.length < u.length:
            out = r_polynomial(W, us, vs)
        else:
            q_minus_1 = IntPolynomial.from_dict({1: 1, 0: -1})
            q = IntPolynomial.from_dict({1: 1})
            out = q_minus_1 * r_polynomial(W, u, vs) \
                + q * r_polynomial(W, us, vs)
    _R_MEMO[key] = out
    return out


def weight_envelope(W, u, v):
    """Per-degree weight intervals for the compactly supported cohomology
    of the intersection of the v-cell with the opposite u-cell.

    Degrees run from d to 2d where d = l(v) - l(u); the interval in degree
    n is [-floor(n/2), -n + d].  Empty when u is not below v.
    """
    label = f"H_c(X_{v.serialize()} ∩ X_{u.serialize()}^-)"
    if not bruhat_leq(W, u, v):
        return WeightProfile.from_dict({}, label)
    d = v.length - u.length
    return WeightProfile.from_dict(
        {n: (-(n // 2), -n + d) for n in range(d, 2 * d + 1)}, label)


def ext_profile_standard(W, u, v):
    """Degree/weight profile of Ext between the standard objects attached
    to u and v: the envelope shifted by d = l(v) - l(u), so Ext^n carries
    weights in [-floor((n + d)/2), -n] for n in [0, d]."""
    label = f"Ext(Δ_{u.serialize()}, Δ_{v.serialize()})"
    if not bruhat_leq(W, u, v):
        return WeightProfile.from_dict({}, label)
    d = v.length - u.length
    return WeightProfile.from_dict(
        {n: (-((n + d) // 2), -n) for n in range(0, d + 1)}, label)


def ext_profile_parabolic(W, u, v, s):
    """Ext bounds between standard objects on the s-wall quotient; defined
    for u, v in the minimal coset representatives W^s, with the same
    interval shape as the full-flag profile (bounds only)."""
    reps = coset_reps(W, s)
    if u not in reps or v not in reps:
        raise ValueError(
            f"{u.serialize()} or {v.serialize()} is not a minimal coset "
            f"representative for {s.serialize()}")
    prof = ext_profile_standard(W, u, v)
    return WeightProfile(
        prof.entries,
        f"Ext^s(Δ_{u.serialize()}, Δ_{v.serialize()})")


@dataclass(frozen=True)
class ProjectiveWeightReport:
    """Per-standard-subquotient weight intervals in the filtration of a
    projective cover, the global endomorphism weight window, and the
    decomposability hypothesis for a supplied (ell, q)."""

    u: str
    flag_intervals: tuple      # ((v, (1, l(v)-l(u))), ...) for v > u
    end_window: tuple          # (-l(w0), l(w0))
    ell: int
    q: int
    q_order: int
    threshold: int             # 2 l(w0)
    hypothesis_holds: bool


def projective_weight_certificate(W, u, ell, q):
    """Weight bookkeeping for the projective cover of the standard object
    at u: each v > u contributes multiplicity-space weights in
    [1, l(v) - l(u)]; endomorphism weights live in [-l(w0), l(w0)]; and
    the splitting hypothesis asks ord(q mod ell) > 2 l(w0)."""
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    if q % ell == 0:
        raise ValueError("q must be invertible mod ell")
    flags = tuple(
        (v.serialize(), (1, v.length - u.length))
        for v in W.elements
        if v != u and bruhat_leq(W, u, v))
    lw0 = W.longest_element.length
    order = multiplicative_order(q, ell)
    return ProjectiveWeightReport(
        u=u.serialize(),
        flag_intervals=flags,
        end_window=(-lw0, lw0),
        ell=ell,
        q=q,
        q_order=order,
        threshold=2 * lw0,
        hypothesis_holds=order > 2 * lw0,
    )


def multiplicative_order(q, ell):
    q = q % ell
    if q == 0:
        raise ValueError("q is not a unit mod ell")
    order = 1
    acc = q
    while acc != 1:
        acc = (acc * q) % ell
        order += 1
    return order


# ---------------------------------------------------------------------------
# the flag-enumeration oracle (type A, small fields)

# GF(4) = F_2[x]/(x^2+x+1), elements 0,1,2=x,3=x+1; addition is XOR
_GF4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def _field_tables(q):
    """(sub, mul, inv) lookup tables of the field with q elements, whose
    elements are 0..q-1: sub[a, b] = a - b, mul[a, b] = a b, inv[a] = 1/a
    (inv[0] = 0 is never used)."""
    a = np.arange(q)
    if q == 4:
        add, mul = a[:, None] ^ a, np.array(_GF4_MUL)
    else:
        add, mul = (a[:, None] + a) % q, (a[:, None] * a) % q
    neg = np.argmax(add == 0, axis=1)
    return add[:, neg], mul, np.argmax(mul == 1, axis=1)


def _echelon_flags(n, q):
    """Every complete flag in F_q^n exactly once, as the (N, n, n) array of
    its echelon representatives: the first i rows span V_i, and row i has
    a 1 at its pivot column c_i, zeros before c_i and at the pivots of the
    rows above, and free entries elsewhere.  Each permutation c gives
    q^(#free) flags."""
    blocks = []
    for c in permutations(range(n)):
        free = [(i, j) for i in range(n) for j in range(c[i] + 1, n)
                if j not in c[:i]]
        fill = np.array(list(iproduct(range(q), repeat=len(free))))
        block = np.zeros((len(fill), n, n), dtype=np.intp)
        block[:, range(n), c] = 1
        if free:
            rows, cols = zip(*free)
            block[:, rows, cols] = fill
        blocks.append(block)
    return np.concatenate(blocks)


def _positions(flags, tables):
    """Relative position of each flag to the standard flag F_j = <e_1..e_j>,
    as the (N, n) array of one-line permutations w (0-based values) with
    dim(V_i ∩ F_j) = #{k <= i : w(k) < j}.

    dim(V_i ∩ F_j) = i - rank(V_i on the columns >= j).  Eliminating the rows
    in order, each against the rows above, on their rightmost nonzero
    entries leaves reduced rows whose rightmost entries p_k are distinct;
    those with p_k >= j stay independent on the columns >= j and the others
    vanish there, so that rank is #{k <= i : p_k >= j} for every j at once,
    and w = p."""
    sub, mul, inv = tables
    N, n, _ = flags.shape
    every = np.arange(N)
    pivots = np.zeros((N, n, n), dtype=np.intp)  # row c ends at column c
    w = np.empty((N, n), dtype=np.intp)
    for i in range(n):
        r = flags[:, i, :]
        for c in range(n - 1, -1, -1):
            r = sub[r, mul[r[:, c, None], pivots[:, c, :]]]
        nonzero = r != 0
        if not nonzero.any(axis=1).all():
            raise StructuralError("flag rows are linearly dependent")
        p = n - 1 - np.argmax(nonzero[:, ::-1], axis=1)
        pivots[every, p] = mul[inv[r[every, p]][:, None], r]
        w[:, i] = p
    return w


def _perm_to_element(W, w_oneline):
    """Convert a one-line permutation of {1..n} to an element of the type A
    group via bubble-sort factorization into adjacent swaps (letter i is
    the transposition of i and i+1)."""
    w = list(w_oneline)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                word.append(i)
                changed = True
    return W.element("".join(_LETTERS[i] for i in reversed(word)))


def flag_count(rank, q_prime, u, v):
    """Number of complete flags over the field with q_prime elements that
    are in position v to the standard flag and position u to the opposite
    flag.  Pure enumeration; this is the oracle for `r_polynomial`.

    `u` and `v` are elements of the type-A group of the given rank
    (rank <= 3, q_prime in {2, 3, 4})."""
    return flag_position_table(rank, q_prime).get((u.word, v.word), 0)


_TABLE_MEMO = {}


def flag_position_table(rank, q_prime):
    """Counts of flags bucketed by (position to opposite flag, position to
    standard flag), keyed by canonical words.

    Certified: the number of flags is prod_{k=1..n} (q^k - 1)/(q - 1), and
    the flags in position v to the standard flag number q^l(v), the size of
    the Bruhat cell of v; either failing raises StructuralError."""
    if rank not in (1, 2, 3):
        raise ValueError("flag oracle is limited to ranks 1, 2, 3")
    if q_prime not in (2, 3, 4):
        raise ValueError("flag oracle supports field sizes 2, 3, 4 only")
    key = (rank, q_prime)
    if key in _TABLE_MEMO:
        return _TABLE_MEMO[key]
    W = build_group(f"A{rank}")
    n = rank + 1
    flags = _echelon_flags(n, q_prime)
    expected = prod((q_prime ** k - 1) // (q_prime - 1)
                    for k in range(1, n + 1))
    if len(flags) != expected:
        raise StructuralError(
            f"{len(flags)} flags enumerated, expected {expected}")
    tables = _field_tables(q_prime)
    # a permutation is coded by its one-line digits in base n
    digits = n ** np.arange(n)
    std = _positions(flags, tables) @ digits
    # the opposite flag <e_n..e_{n-j+1}> is the standard one after
    # reversing the columns; position w to it is the cell of w0 w
    opp = _positions(flags[:, :, ::-1], tables) @ digits
    w0 = W.longest_element
    element = {int(np.dot(perm, digits)): _perm_to_element(
        W, [x + 1 for x in perm]) for perm in permutations(range(n))}
    cells = np.bincount(std, minlength=n ** n)
    for code, v in element.items():
        if cells[code] != q_prime ** v.length:
            raise StructuralError(
                f"{cells[code]} flags in the Bruhat cell of "
                f"{v.serialize()}, expected q^{v.length}")
    codes, counts = np.unique(opp * n ** n + std, return_counts=True)
    table = {}
    for code, count in zip(codes.tolist(), counts.tolist()):
        u = W.mult(w0, element[code // n ** n])
        table[(u.word, element[code % n ** n].word)] = count
    _TABLE_MEMO[key] = table
    return table
