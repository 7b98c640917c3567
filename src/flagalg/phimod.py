"""
Free lattices over the l-local integers with an automorphism: q-weight
support, the eigenvalue-separation splitting criterion, and explicit
generalized-eigenspace decompositions.

The base ring is Z_(l) = {a/b : l does not divide b}, handled exactly.
"M has q-weights obtained from I" means that the product of (phi - q^i)
over i in I is nilpotent.  A lattice is decomposable under phi when it is
the direct sum of its generalized eigenspaces.  With D the lcm of the
denominators of phi (prime to l), every rational eigenvalue is mu / D for
an integer mu dividing the constant term of the monic integer charpoly
of D phi, |mu| at most its largest absolute row sum: one scan finds them
exactly, each with its exact q-exponent.  The core of `decompose` runs on
the integer matrix D phi in int: the charpoly (Faddeev-LeVerrier over Z,
each trace division certified exact), the root scan, the powers of
D phi - mu whose kernels are the eigenlattices, and the determinant
(Bareiss).  Fractions remain in the eigenlattice kernel and saturation,
in the coordinates over Q that decide phi-stability and the induced phi
on a sub and quotient (`_linalg.frac_coordinates`, one elimination per
basis), in the relation lattice of a presentation (`_linalg.lloc_basis`),
in the Hensel step and in the returned values.  Each
eigenlattice is certified to have rank equal to its multiplicity and to
be phi-stable over Z_(l), and a decomposable verdict to have bases of
unit determinant mod l.  The rest of the spectrum falls back to
Hensel-refined rank-one blocks for simple residues, and reports
`undecidable` at the working precision for the genuinely ambiguous
remainder rather than guessing.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg as la

__all__ = [
    "PhiModule", "WeightSupport", "Summand", "Decomposition", "Presentation",
    "FreeCover", "has_weights_from", "decompose", "tensor",
    "weight_sum_rule", "stable_sub_quotient_split", "free_cover",
]


def _transpose(m):
    return [list(col) for col in zip(*m)]


@dataclass(frozen=True)
class PhiModule:
    """Free lattice of finite rank over Z_(l) with an automorphism phi.

    phi is stored column-wise (phi[i][j] = coefficient of basis vector i in
    the image of basis vector j); entries are l-integral rationals, and in
    the typical case plain integers."""

    rank: int
    phi: tuple
    ell: int
    q: int
    precision: int = 32

    def __post_init__(self):
        self.validate()

    @staticmethod
    def build(phi_rows, ell, q, precision=32):
        rows = tuple(tuple(Fraction(x) for x in row) for row in phi_rows)
        return PhiModule(len(rows), rows, ell, q, precision)

    def validate(self):
        if len(self.phi) != self.rank or \
                any(len(r) != self.rank for r in self.phi):
            raise ValueError("phi must be square")
        if not la.is_prime(self.ell):
            raise ValueError(f"ell = {self.ell} is not prime")
        if self.q % self.ell == 0:
            raise ValueError("q must be a unit mod ell")
        if self.precision < 1:
            raise ValueError("precision must be positive")
        for row in self.phi:
            for x in row:
                if not la.is_l_integral(x, self.ell):
                    raise ValueError("phi has an entry with l in the "
                                     "denominator")
        det = la.frac_det(self.phi_frac())
        if det == 0 or la.lval(det, self.ell) != 0:
            raise ValueError(
                f"phi is not an automorphism over Z_(l): det = {det}")

    def phi_frac(self):
        return [list(row) for row in self.phi]


@dataclass(frozen=True)
class WeightSupport:
    """A finite set of integer exponents."""

    exponents: frozenset

    @staticmethod
    def of(*exps):
        return WeightSupport(frozenset(int(e) for e in exps))

    def __iter__(self):
        return iter(sorted(self.exponents))


def has_weights_from(M, I):
    """Does the product of (phi - q^i), i in I, act nilpotently?  Exact:
    the rank-th power of the product must vanish over Q."""
    exps = sorted(I.exponents if isinstance(I, WeightSupport) else I)
    prod = la.frac_identity(M.rank)
    for i in exps:
        prod = la.frac_matmul(prod, la.frac_scalar_shift(
            M.phi_frac(), Fraction(M.q) ** i))
    return la.frac_is_zero(la.frac_matpow(prod, max(M.rank, 1)))


def weight_sum_rule(I, J):
    """Setwise sum {i + j}: the weight support of a tensor product."""
    return WeightSupport(frozenset(i + j for i in I.exponents
                                   for j in J.exponents))


def tensor(M, N):
    """Tensor product lattice, phi acting by the Kronecker product."""
    if (M.ell, M.q) != (N.ell, N.q):
        raise ValueError("tensor factors live over different (ell, q)")
    a, b = M.phi, N.phi
    n, m = M.rank, N.rank
    rows = [[a[i][j] * b[k][l] for j in range(n) for l in range(m)]
            for i in range(n) for k in range(m)]
    return PhiModule.build(rows, M.ell, M.q, min(M.precision, N.precision))


@dataclass(frozen=True)
class Summand:
    """One phi-stable direct summand: basis rows plus the eigenvalue label.
    `exponent` is set when the eigenvalue is exactly a power of q; `exact`
    is False for blocks certified only mod l^precision."""

    basis: tuple
    eigenvalue: object
    exponent: object
    exact: bool


@dataclass(frozen=True)
class Decomposition:
    status: str        # "decomposable" | "indecomposable" | "undecidable"
    summands: tuple = ()
    message: str = ""


def decompose(M):
    """Split M into generalized eigenspaces, certify that this is
    impossible, or report undecidable at the working precision.

    One scan over the candidates mu / D (module docstring) finds the
    rational eigenvalues in increasing order; synthetic division gives
    each one's multiplicity m, and its summand is the saturated kernel of
    (phi - mu / D)^m, certified to have rank m.  The cofactor left over
    is split by residues mod l.

    Returned summand bases are phi-stable over Z_(l); for a decomposable
    verdict their concatenation has determinant a unit mod l, and
    (phi - eigenvalue) is nilpotent on each exact summand.  `exponent` is
    the exact q-exponent of a rational eigenvalue, with no cap.
    """
    phi = M.phi_frac()
    D = math.lcm(*(x.denominator for row in phi for x in row))
    A = _scaled(phi, D)
    rest = la.int_charpoly(A)
    const = rest[0]
    bound = max((sum(map(abs, row)) for row in A), default=0)

    summands = []
    for mu in range(-bound, bound + 1):
        if len(rest) == 1:
            break
        if mu == 0 or const % mu:
            continue
        m = 0
        quot, value = _divide_linear(rest, mu)
        while value == 0:
            rest, m = quot, m + 1
            quot, value = _divide_linear(rest, mu)
        if m:
            lam = Fraction(mu, D)
            basis = _eigenlattice(phi, lam, m, M.ell)
            summands.append(Summand(
                basis=tuple(tuple(r) for r in basis),
                eigenvalue=lam, exponent=_q_exponent(lam, M.q), exact=True))

    # leftover characteristic factor, rescaled from D phi to phi
    # (c_k / D^(deg - k)) and analyzed by residues (none if the spectrum
    # is rational)
    rest = [Fraction(c, D ** (len(rest) - 1 - k)) for k, c in enumerate(rest)]
    rest_mod = [la.frac_mod_ell(c, M.ell) for c in rest]
    parts = la.coprime_power_split(rest_mod, M.ell)
    if any(not la.poly_roots(f, M.ell) for f in parts):
        return Decomposition(
            status="indecomposable", summands=tuple(summands),
            message="part of the spectrum lies in a proper extension of "
                    "the base ring, so the eigenspaces cannot span")

    approx = []
    for f in parts:
        roots = la.poly_roots(f, M.ell)
        if len(f) - 1 == 1:
            lam_n = _hensel_root(rest, roots[0], M.ell, M.precision)
            basis = _approx_eigenbasis(M, lam_n)
            if basis is not None:
                approx.append(Summand(
                    basis=tuple(tuple(x) for x in basis),
                    eigenvalue=("residue", roots[0]),
                    exponent=None, exact=False))
                continue
        return Decomposition(
            status="undecidable", summands=tuple(summands),
            message=f"residue class {roots} mod {M.ell} carries a block "
                    f"whose fine splitting is not determined at precision "
                    f"{M.precision}")

    return _assemble_verdict(M, summands + approx)


def _assemble_verdict(M, summands):
    rows = [list(r) for s in summands for r in s.basis]
    if len(rows) != M.rank:
        return Decomposition(
            status="indecomposable", summands=tuple(summands),
            message="generalized eigenspaces do not span")
    det = la.frac_det(rows)
    if det == 0 or la.lval(det, M.ell) != 0:
        return Decomposition(
            status="indecomposable", summands=tuple(summands),
            message="eigenlattices span a proper sublattice "
                    f"(index valuation {la.lval(det, M.ell)})")
    msg = ""
    if any(not s.exact for s in summands):
        msg = (f"splitting certified mod l^{M.precision}; eigenvalues of "
               "inexact blocks are given by residue class")
    return Decomposition(status="decomposable", summands=tuple(summands),
                         message=msg)


def _eigenlattice(phi, lam, m, ell):
    """Saturated basis of ker (phi - lam)^m, lam an eigenvalue of
    multiplicity m: the generalized eigenlattice, certified to have rank m
    and to be phi-stable.  Both run on A = D phi and mu = D lam in int, D
    the lcm of their denominators (prime to l for an eigenvalue): the
    kernel of (A - mu)^m is that of (phi - lam)^m, and the images of the
    basis under A have l-integral coordinates in it iff those under phi
    do, all read off one frac_coordinates elimination."""
    D = math.lcm(lam.denominator, *(x.denominator for row in phi for x in row))
    A = _scaled(phi, D)
    mu = lam.numerator * (D // lam.denominator)
    kernel = la.frac_kernel(la.frac_matpow(la.frac_scalar_shift(A, mu), m))
    if len(kernel) != m:
        raise la.StructuralError(
            f"generalized eigenspace of {lam} has rank {len(kernel)}, "
            f"not its multiplicity {m}")
    basis = la.lloc_saturate(kernel, ell)
    if not _in_lattice(basis, la.frac_matmul(basis, _transpose(A)), ell):
        raise la.StructuralError("eigenlattice is not phi-stable")
    return basis


def _in_lattice(basis, rows, ell):
    """Do the rows have l-integral coordinates in the independent basis,
    that is, lie in the Z_(l)-lattice it spans?"""
    coords = la.frac_coordinates(basis, rows)
    return coords is not None and all(
        la.is_l_integral(x, ell) for row in coords for x in row)


def _scaled(phi, D):
    """D phi as an int matrix, D a multiple of every denominator."""
    return [[x.numerator * (D // x.denominator) for x in row] for row in phi]


def _divide_linear(f, x):
    """Synthetic division f(X) = (X - x) g(X) + f(x), coefficients low
    degree first: returns (g, f(x)).  So f'(x) = g(x)."""
    acc = 0
    high_first = []
    for c in reversed(f):
        acc = acc * x + c
        high_first.append(acc)
    value = high_first.pop()
    return high_first[::-1], value


def _poly_mul_frac(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _q_exponent(lam, q):
    """The i with q^i == lam, exact and with no cap, or None; for |q| = 1
    the i of least |i|, and 1 before -1."""
    size = max(abs(lam), 1 / abs(lam))
    for i in itertools.count():
        for e in (i, -i):
            if Fraction(q) ** e == lam:
                return e
        if abs(q) ** i > size or (i and abs(q) == 1):
            return None


def _hensel_root(poly, r, ell, precision):
    """Lift a simple root r of poly mod ell to a root mod ell^precision."""
    mod = ell
    x = r % ell
    while mod < ell ** precision:
        mod = min(mod * mod, ell ** precision)
        quot, value = _divide_linear(poly, Fraction(x))
        fx = _frac_mod(value, mod)
        dfx = _frac_mod(_divide_linear(quot, Fraction(x))[1], mod)
        x = (x - fx * pow(dfx, -1, mod)) % mod
    return x


def _frac_mod(x, mod):
    x = Fraction(x)
    return (x.numerator * pow(x.denominator, -1, mod)) % mod


def _approx_eigenbasis(M, lam_n):
    """Basis (single row) of the rank-one kernel of (phi - lam) computed
    mod ell^precision, lifted to centered integers; None if the kernel is
    not visibly rank one at this precision."""
    mod = M.ell ** M.precision
    n = M.rank
    work = [[(_frac_mod(M.phi[i][j], mod) - (lam_n if i == j else 0)) % mod
             for j in range(n)] for i in range(n)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if work[i][c] % M.ell != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], -1, mod)
        work[r] = [(x * inv) % mod for x in work[r]]
        for i in range(n):
            if i != r and work[i][c] % mod:
                f = work[i][c]
                work[i] = [(x - f * y) % mod
                           for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    c = free[0]
    v = [0] * n
    v[c] = 1
    for i, pc in enumerate(pivots):
        v[pc] = (-work[i][c]) % mod
    v = [x - mod if x > mod // 2 else x for x in v]
    return [[Fraction(x) for x in v]]


# ---------------------------------------------------------------------------


def stable_sub_quotient_split(M, sublattice_rows):
    """Decompose a phi-stable sublattice N (given by basis rows) and the
    quotient M/N.  The quotient must be free over Z_(l), that is, the rows
    stay independent mod l; this hypothesis cannot be dropped.  Returns
    (sub_decomposition, quotient_decomposition).

    N is completed to a basis of the ambient lattice by the e_j for which
    no vector of N mod l has its last nonzero entry at j: the free columns
    of the RREF of N mod l with its columns reversed.  The coordinates of
    phi of the completed basis in itself give phi on N (top left block)
    and on M/N (bottom right); N is stable when the top right block is
    zero and the top left block l-integral."""
    rows = [[Fraction(x) for x in row] for row in sublattice_rows]
    ell, n, k = M.ell, M.rank, len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"sublattice rows must have length {n}")
    if not all(la.is_l_integral(x, ell) for row in rows for x in row):
        raise ValueError("sublattice basis must be l-integral")
    _, piv = la.mod_rref(la.lloc_mod_ell(rows, ell).reshape(k, n)[:, ::-1],
                         ell)
    if len(piv) < k:
        if len(la.lloc_basis(rows, ell)) < k:
            raise ValueError("sublattice rows are dependent over Q")
        raise ValueError(
            "quotient has l-torsion (the rows are dependent mod l); the "
            "splitting statement requires a free quotient")
    full = rows + [[Fraction(int(i == j)) for i in range(n)]
                   for j in range(n) if n - 1 - j not in piv]
    coords = la.frac_coordinates(full, la.frac_matmul(full,
                                                      _transpose(M.phi)))
    if any(x != 0 for row in coords[:k] for x in row[k:]) or not all(
            la.is_l_integral(x, ell) for row in coords[:k] for x in row[:k]):
        raise ValueError("sublattice is not phi-stable")
    sub = PhiModule.build(_transpose([row[:k] for row in coords[:k]]), ell,
                          M.q, M.precision)
    quot = PhiModule.build(_transpose([row[k:] for row in coords[k:]]), ell,
                           M.q, M.precision)
    return decompose(sub), decompose(quot)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """Finitely generated module over Z_(l) with automorphism: generators
    g_1..g_k, relation rows (coefficient vectors spanning the relation
    submodule), and phi with phi(g_j) = sum_i phi[i][j] g_i.  phi and the
    relations are l-integral, and phi maps the relation submodule into
    itself (so it acts on the presented module), else ValueError."""

    gens: int
    relations: tuple
    phi: tuple
    ell: int
    q: int

    def __post_init__(self):
        k, ell, rows = self.gens, self.ell, (*self.phi, *self.relations)
        if len(self.phi) != k or any(len(r) != k for r in rows):
            raise ValueError(f"phi must be {k} x {k} and every relation "
                             f"of length {k}")
        if not all(la.is_l_integral(x, ell) for r in rows for x in r):
            raise ValueError("phi and the relations must be l-integral")
        if not _in_lattice(la.lloc_basis(self.relations, ell), la.frac_matmul(
                self.relations, _transpose(self.phi)), ell):
            raise ValueError("phi does not preserve the relation submodule")

    @staticmethod
    def build(gens, relations, phi_rows, ell, q):
        return Presentation(
            gens,
            tuple(tuple(Fraction(x) for x in r) for r in relations),
            tuple(tuple(Fraction(x) for x in r) for r in phi_rows),
            ell, q)


@dataclass(frozen=True)
class FreeCover:
    cover: PhiModule
    surjection: tuple   # matrix: cover basis -> presentation generators
    weights: WeightSupport
    identity_shortcut: bool


def free_cover(pres, I):
    """Free (O, phi)-module with q-weights from I surjecting onto the
    presented module.

    The cover is the free module over O[X] / (prod (X - q^i)^n) on the
    generators of the presentation, with X acting as phi; n is the exact
    nilpotency index, and surjectivity is certified mod l (which is enough,
    by Nakayama).  If the module is already free with the right weights,
    the identity surjection is returned instead."""
    I = I if isinstance(I, WeightSupport) else WeightSupport.of(*I)
    k = pres.gens
    nil = _nilpotency_index(pres, sorted(I.exponents))  # checks the weights
    if not pres.relations:
        M = PhiModule.build(pres.phi, pres.ell, pres.q)
        ident = tuple(tuple(Fraction(int(i == j)) for j in range(k))
                      for i in range(k))
        return FreeCover(M, ident, I, True)
    exps = sorted(I.exponents)
    deg = nil * len(exps)
    modulus = [Fraction(1)]
    for i in exps:
        for _ in range(nil):
            modulus = _poly_mul_frac(
                modulus, [-(Fraction(pres.q) ** i), Fraction(1)])
    comp = [[Fraction(0)] * deg for _ in range(deg)]
    for j in range(deg - 1):
        comp[j + 1][j] = Fraction(1)
    for i in range(deg):
        comp[i][deg - 1] = -modulus[i]
    rows = [[Fraction(0)] * (k * deg) for _ in range(k * deg)]
    for g in range(k):
        for i in range(deg):
            for j in range(deg):
                rows[g * deg + i][g * deg + j] = comp[i][j]
    cover = PhiModule.build(rows, pres.ell, pres.q)
    phi_f = [list(r) for r in pres.phi]
    cols = []
    for g in range(k):
        vec = [Fraction(int(i == g)) for i in range(k)]
        for _ in range(deg):
            cols.append(list(vec))
            vec = [row[0] for row in
                   la.frac_matmul(phi_f, [[v] for v in vec])]
    surj = _transpose(cols)
    if not _surjective_mod_ell(pres, surj):
        raise la.StructuralError("cover fails to surject mod l")
    return FreeCover(cover, tuple(tuple(row) for row in surj), I, False)


def _nilpotency_index(pres, exps):
    """Smallest n with (prod (phi - q^i))^n = 0 on the presented module;
    raises if the weight hypothesis fails."""
    k = pres.gens
    prod = la.frac_identity(k)
    for i in exps:
        prod = la.frac_matmul(prod, la.frac_scalar_shift(
            [list(r) for r in pres.phi], Fraction(pres.q) ** i))
    basis = la.lloc_basis(pres.relations, pres.ell)
    power = la.frac_identity(k)
    for n in range(1, k * max(len(exps), 1) + 2):
        power = la.frac_matmul(prod, power)
        if _in_lattice(basis, _transpose(power), pres.ell):
            return n
    raise ValueError("module does not have q-weights from I")


def _surjective_mod_ell(pres, surj):
    """Do the relations and the images of the cover basis span F_l^gens?"""
    stacked = la.lloc_mod_ell([*pres.relations, *_transpose(surj)], pres.ell)
    return la.mod_rank(stacked, pres.ell) == pres.gens
