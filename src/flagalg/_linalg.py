"""
Exact linear algebra kernels used across the package.

Two arithmetic worlds live here:

* dense linear algebra over a prime field F_p, done on numpy int64 arrays
  with entries reduced to [0, p);
* exact arithmetic over the l-local integers Z_(l) (rationals whose
  denominator is prime to l), done with Fraction entries, and over Z in
  int where denominators can be cleared (the charpoly, the determinant).

Nothing in this module knows about Weyl groups or graded algebras; it is
only pivoting, kernels, coordinates in a span (mod_coordinates over F_p,
certified, and frac_coordinates over Q: every solve in a span goes
through one of them), minimal polynomials, the Z_(l)-basis of the
lattice a spanning set spans (lloc_basis: membership is l-integral
coordinates in it), residues mod l (lloc_mod_ell: a basis spans a direct
summand iff they stay independent) and saturation, the one stored form
of structure constants, and the Jacobson radical of a small F_p-algebra
given by its structure tensor.
StructuralError, the failure of a certificate, is defined here so that
every layer can raise it.
"""

import math
import operator
from fractions import Fraction

import numpy as np


class StructuralError(RuntimeError):
    """A certificate the model relies on failed; this falsifies the setup
    rather than being a user error."""


# ---------------------------------------------------------------------------
# prime field F_p


def is_prime(n):
    """Trial division; n is a prime number."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# below this many multiply-adds, casting both operands to float64 costs
# more than BLAS saves over numpy's int64 loop (measured on x86-64 with
# OpenBLAS: the crossover lies between 2**11 and 2**12)
_BLAS_MIN_WORK = 2**12


def mod_matmul(a, b, p):
    """a @ b mod p in [0, p), int64, for integer operands with entries in
    (-p, p); numpy's matmul broadcasting applies.

    With k the inner dimension every dot product is an integer of absolute
    value at most k (p - 1)^2, as is every partial sum.  Below 2**53 that
    is exact in a double, so a product of two matrices big enough to pay
    for the casts goes to BLAS in float64 (the FFLAS-FFPACK technique).
    A matrix-vector product does not: it reads each matrix entry once, so
    the cast would be a second full pass.  Nor does a product with a stack
    of matrices: the cast would copy the whole stack, here a module's
    action, at once.  Every other product is numpy's int64 loop, exact
    below 2**62."""
    k = a.shape[-1]
    bound = k * (int(p) - 1) ** 2
    if bound < 2**53 and a.ndim == b.ndim == 2 and \
            min(a.shape[0], b.shape[1]) > 1 and \
            a.size * b.shape[1] >= _BLAS_MIN_WORK:
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    elif bound < 2**62:
        out = a @ b
    else:
        raise OverflowError(
            f"modulus too large for exact products: k (p - 1)^2 >= 2**62 "
            f"for k = {k}, p = {p} (float64 is exact below 2**53, int64 "
            f"below 2**62)")
    out %= p
    return out


def mod_rref(a, p):
    """Row-reduce a copy of `a` mod p; return (rref, pivot column list).

    Each pivot step touches only the rows with a nonzero entry in the
    pivot column, and only the columns from the pivot on: the pivot row
    is zero to its left."""
    if (p - 1) * (p - 1) >= 2**63:
        raise OverflowError("modulus too large for int64 elimination")
    m = np.array(a, dtype=np.int64)
    m %= p
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        row = m[r, c:]
        row *= pow(int(row[0]), p - 2, p)
        row %= p
        col = m[:, c]
        rows = col.nonzero()[0]
        if rows.size > 1:
            rows = rows[rows != r]
            m[rows, c:] = (m[rows, c:] - np.outer(col[rows], row)) % p
        pivots.append(c)
        r += 1
    return m, pivots


def mod_rank(a, p):
    a = np.array(a, dtype=np.int64)
    if a.size == 0:
        return 0
    return len(mod_rref(a, p)[1])


def mod_nullspace(a, p):
    """Rows of the result span {x : a @ x = 0} over F_p."""
    a = np.mod(np.array(a, dtype=np.int64), p)
    return mod_rref_nullspace(*mod_rref(a, p), p)


def mod_rref_nullspace(red, pivots, p):
    """mod_nullspace of a matrix from its RREF: `red` holds the pivot rows
    first, `pivots` their pivot columns.  One row per free column c, with
    a 1 at c and minus column c of the pivot rows at the pivots."""
    ncols = red.shape[1]
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-red[: len(pivots), free].T) % p
    return basis


def mod_coordinates(basis, p, dependent="basis is not independent",
                    outside="vector outside the span"):
    """(coords, sect, rref) for the rows of `basis`, a stack of vectors or
    of matrices read as vectors, from one RREF of [B | I] = [T B | T]: a
    pivot in the identity block raises StructuralError(dependent).

    coords takes a stack like `basis`, its entries reduced mod p, and
    returns the coordinates P[:, piv] @ T of its rows P, certified by
    coords @ B == P, else StructuralError(outside).  sect is T on the
    pivot rows and zero elsewhere, so that B @ sect = 1.  rref is (T B,
    piv), the RREF of B itself, from which mod_rref_nullspace reads the
    kernel of B."""
    basis = basis.reshape(len(basis), math.prod(basis.shape[1:]))
    n, width = basis.shape
    red, piv = mod_rref(np.concatenate(
        [basis, np.eye(n, dtype=np.int64)], axis=1), p)
    if n and piv[-1] >= width:
        raise StructuralError(dependent)
    to_coords = red[:, width:]

    def coords(items):
        rows = items.reshape(len(items), width)
        out = mod_matmul(rows[:, piv], to_coords, p)
        if not np.array_equal(mod_matmul(out, basis, p), rows):
            raise StructuralError(outside)
        return out

    sect = np.zeros((width, n), dtype=np.int64)
    sect[piv] = to_coords
    return coords, sect, (red[:, :width], piv)


class _Echelon:
    """Incremental row echelon over F_p, remembering how each echelon row
    was combined from the inserted rows."""

    def __init__(self, ncols, p):
        self.p = p
        self.ncols = ncols
        self.rows = []      # echelon rows
        self.combos = []    # same combination applied to inserted rows
        self.pivots = []
        self.count = 0

    def reduce(self, v):
        p = self.p
        v = np.mod(np.array(v, dtype=np.int64), p)
        combo = np.zeros(self.count, dtype=np.int64)
        for i, c in enumerate(self.pivots):
            f = int(v[c])
            if f:
                v = (v - f * self.rows[i]) % p
                combo = (combo - f * _pad(self.combos[i], self.count)) % p
        return v, combo

    def insert(self, v):
        """Insert a row; return None if independent, else the coefficient
        vector expressing v as a combination of previously inserted rows."""
        p = self.p
        v, combo = self.reduce(v)
        self.count += 1
        if not np.any(v):
            return np.mod(-combo, p)
        c = int(np.nonzero(v)[0][0])
        inv = pow(int(v[c]), p - 2, p)
        v = (v * inv) % p
        combo = _pad(combo, self.count).copy()
        combo[self.count - 1] = 1
        combo = (combo * inv) % p
        self.rows.append(v)
        self.combos.append(combo)
        self.pivots.append(c)
        return None

    @property
    def rank(self):
        return len(self.rows)


def _pad(v, n):
    if len(v) == n:
        return v
    out = np.zeros(n, dtype=np.int64)
    out[: len(v)] = v
    return out


def mod_minpoly(a, p):
    """Minimal polynomial of a square matrix over F_p, as a monic
    coefficient list (low degree first)."""
    a = np.mod(np.array(a, dtype=np.int64), p)
    n = a.shape[0]
    if n == 0:
        return [1]
    g = [1]
    squares = [a]           # a^(2^j)
    for start in range(n):
        # the Krylov columns v, av, a^2 v, ...: the first non-pivot column k
        # of their RREF is a^k v = sum_i r[i, k] a^i v over i < k.  They
        # are doubled until one is dependent, so a short minimal
        # polynomial costs few columns
        krylov = np.eye(n, 1, -start, dtype=np.int64)
        while True:
            r, piv = mod_rref(krylov, p)
            if len(piv) < krylov.shape[1]:
                break
            # 2^j columns so far: the next 2^j are a^(2^j) times them
            j = krylov.shape[1].bit_length() - 1
            if j == len(squares):
                squares.append(mod_matmul(squares[-1], squares[-1], p))
            krylov = np.concatenate(
                [krylov, mod_matmul(squares[j], krylov, p)], axis=1)
        k = len(piv)
        mp = [(-int(c)) % p for c in r[:k, k]] + [1]
        g = poly_lcm(g, mp, p)
        if len(g) == n + 1:
            break
    if np.any(poly_eval_matrix(g, a, p)):
        raise StructuralError("minimal polynomial failed")
    return g


def poly_eval_matrix(f, a, p):
    n = a.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    for c in reversed(f):
        out = mod_matmul(out, a, p)
        out = (out + (int(c) % p) * eye) % p
    return out


# --- polynomial arithmetic over F_p (dense coefficient lists, low first) ---


def poly_trim(f):
    f = list(f)
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def poly_monic(f, p):
    f = poly_trim(f)
    if f == [0]:
        return f
    inv = pow(f[-1], p - 2, p)
    return [(c * inv) % p for c in f]


def poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return poly_trim(out)


def poly_divmod(f, g, p):
    f = [c % p for c in f]
    g = poly_trim([c % p for c in g])
    if g == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(g[-1], p - 2, p)
    q = [0] * max(1, len(f) - len(g) + 1)
    while len(poly_trim(f)) >= len(g) and poly_trim(f) != [0]:
        f = poly_trim(f)
        d = len(f) - len(g)
        c = (f[-1] * inv) % p
        q[d] = c
        for i, b in enumerate(g):
            f[d + i] = (f[d + i] - c * b) % p
        f.pop()
    return poly_trim(q), poly_trim(f if f else [0])


def poly_gcd(f, g, p):
    f, g = poly_trim(list(f)), poly_trim(list(g))
    while g != [0]:
        f, g = g, poly_divmod(f, g, p)[1]
    return poly_monic(f, p)


def poly_lcm(f, g, p):
    if poly_trim(f) == [0] or poly_trim(g) == [0]:
        return [0]
    d = poly_gcd(f, g, p)
    q, r = poly_divmod(poly_mul(f, g, p), d, p)
    if r != [0]:
        raise StructuralError("gcd does not divide the product")
    return poly_monic(q, p)


def poly_pow(f, e, p):
    out = [1]
    base = list(f)
    while e:
        if e & 1:
            out = poly_mul(out, base, p)
        base = poly_mul(base, base, p)
        e >>= 1
    return out


def poly_powmod(f, e, mod, p):
    out = [1]
    base = poly_divmod(f, mod, p)[1]
    while e:
        if e & 1:
            out = poly_divmod(poly_mul(out, base, p), mod, p)[1]
        base = poly_divmod(poly_mul(base, base, p), mod, p)[1]
        e >>= 1
    return out


def poly_derivative(f, p):
    d = [(i * c) % p for i, c in enumerate(f)][1:]
    return poly_trim(d if d else [0])


def squarefree_split(f, p):
    """Pairwise coprime (g, e) with f = prod g^e up to a scalar, each g
    monic squarefree.  Classical char-p algorithm with p-th root descent."""
    f = poly_monic(f, p)
    if len(f) <= 1:
        return []
    fp = poly_derivative(f, p)
    if fp == [0]:
        # f = h(X^p) = h1(X)^p over the prime field
        h = poly_trim([f[i] for i in range(0, len(f), p)])
        return [(g, e * p) for g, e in squarefree_split(h, p)]
    out = []
    c = poly_gcd(f, fp, p)
    w = poly_divmod(f, c, p)[0]
    i = 1
    while poly_trim(w) != [1]:
        y = poly_gcd(w, c, p)
        fac = poly_divmod(w, y, p)[0]
        if len(poly_trim(fac)) > 1:
            out.append((poly_monic(fac, p), i))
        w = y
        c = poly_divmod(c, y, p)[0]
        i += 1
    if len(poly_trim(c)) > 1:
        # leftover factors whose multiplicity is divisible by p
        h = poly_trim([c[i] for i in range(0, len(c), p)])
        out.extend((g, e * p) for g, e in squarefree_split(h, p))
    return out


def distinct_degree_split(f, p):
    """Split a monic squarefree f into (f_d, d), f_d the product of all
    irreducible factors of degree d."""
    f = poly_monic(f, p)
    out = []
    d = 0
    xq = [0, 1]
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            out.append((f, len(f) - 1))
            break
        xq = poly_powmod(xq, p, f, p)
        diff = list(xq) + [0, 0]
        diff[1] = (diff[1] - 1) % p
        g = poly_gcd(poly_trim(diff), f, p)
        if poly_trim(g) != [1]:
            out.append((g, d))
            f = poly_divmod(f, g, p)[0]
    return out


def poly_roots(f, p):
    """All roots of f in F_p, found by enumeration."""
    roots = []
    for a in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        if acc == 0:
            roots.append(a)
    return roots


def coprime_power_split(f, p):
    """Pairwise coprime monic factors with product f (up to scalar):
    squarefree split, then distinct-degree split, then root extraction
    for the linear parts.  Factors of degree >= 2 of the same distinct
    degree are not separated further (that would need randomness)."""
    parts = []
    for g, e in squarefree_split(f, p):
        for h, d in distinct_degree_split(g, p):
            if d == 1:
                for r in poly_roots(h, p):
                    parts.append(poly_pow([(-r) % p, 1], e, p))
            else:
                parts.append(poly_pow(h, e, p))
    return parts


# ---------------------------------------------------------------------------
# Jacobson radical of a finite dimensional F_p-algebra


def canonical_mult(mult, dim, p):
    """Structure constants in their one stored form: an int64 (m, 4) array
    of rows (i, j, k, c), e_i e_j having coefficient c at e_k, 0 < c < p,
    lexsorted by (i, j, k).  The rows may come in any order, with any c;
    a repeated (i, j, k) or an index outside [0, dim) raises ValueError."""
    m = np.asarray(mult, dtype=np.int64).reshape(-1, 4)
    if np.any((m[:, :3] < 0) | (m[:, :3] >= dim)):
        raise ValueError("structure constant index out of range")
    m = m[np.lexsort(m[:, 2::-1].T)]
    if np.any(np.all(m[1:, :3] == m[:-1, :3], axis=1)):
        raise ValueError("repeated structure constant (i, j, k)")
    m[:, 3] %= p
    return m[m[:, 3] != 0]


def structure_tensor(mult, n):
    """T[i, j, k] = c for the rows (i, j, k, c) of canonical structure
    constants on n basis vectors."""
    T = np.zeros((n, n, n), dtype=np.int64)
    i, j, k, c = mult.T
    T[i, j, k] = c
    return T


def tensor_products(T, X, Y, p):
    """Every product x y of a row x of X with a row y of Y, in the algebra
    with structure tensor T, as a (len X, len Y, n) array, in two
    contractions."""
    n = len(T)
    left = mod_matmul(X, T.reshape(n, n * n), p)
    return mod_matmul(Y, left.reshape(-1, n, n), p)


def algebra_radical(T, p):
    """Radical of the unital algebra with basis e_0..e_{n-1} and structure
    tensor T, T[i][j] the coefficient vector of e_i e_j.  Returns rows
    spanning rad as a subspace of F_p^n.

    The core is the trace-of-p-power-lifts chain, which is valid in small
    characteristic; the result is checked to be a nilpotent two-sided
    ideal, and the computation is iterated on the quotient until the
    quotient is semisimple.
    """
    T = np.mod(np.asarray(T, dtype=np.int64), p)
    n = len(T)
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    total = np.zeros((0, n), dtype=np.int64)
    for _ in range(n + 1):
        qT, comp = _algebra_quotient(T, total, p)
        j = _radical_chain(qT, p)
        if j.shape[0] == 0:
            _check_nilpotent_ideal(T, total, p)
            return total
        back = np.zeros((len(j), n), dtype=np.int64)
        back[:, comp] = j
        total = _row_space(np.concatenate([total, back]), p)
    raise StructuralError("radical computation did not stabilize")


def _row_space(rows, p):
    if rows.size == 0:
        return rows.reshape(0, rows.shape[1] if rows.ndim == 2 else 0)
    r, piv = mod_rref(rows, p)
    return r[: len(piv)]


def _algebra_quotient(T, ideal_rows, p):
    """Structure tensor of A / span(ideal_rows) on the complement basis of
    the non-pivot columns `comp`; returns (tensor, comp)."""
    r, piv = mod_rref(ideal_rows, p) if ideal_rows.size else (ideal_rows, [])
    comp = np.ones(len(T), dtype=bool)
    comp[piv] = False
    comp = np.flatnonzero(comp)
    # products of complement basis vectors, minus their part in the ideal
    prods = T[np.ix_(comp, comp)]
    prods = (prods - mod_matmul(prods[..., piv], r[: len(piv)], p)) % p
    return prods[..., comp], comp


def _radical_chain(T, p):
    n = len(T)
    # left[i] @ x = e_i x, exact: traces are taken modulo powers of p
    left = T.transpose(0, 2, 1).astype(object)
    space = np.eye(n, dtype=np.int64)
    pj = 1
    while len(space):
        mod = pj * p
        reps = np.tensordot(tensor_products(T, space, space, p).astype(
            object), left, axes=1) % mod
        t = np.trace(_int_matpow(reps, pj, mod), axis1=-2, axis2=-1) % mod
        if np.any(t % pj):
            raise StructuralError("radical chain: unexpected trace")
        # t[x, y] belongs to the product of rows x and y of space: keep the
        # combinations c with sum_x c[x] t[x, y] = 0 for every y
        ker = mod_nullspace((t // pj % p).astype(np.int64).T, p)
        space = mod_matmul(ker, space, p)
        if pj >= n:
            break
        pj *= p
    return space


def _int_matpow(m, e, mod):
    """m ** e modulo mod for a stack of square object matrices."""
    out = np.broadcast_to(np.eye(m.shape[-1], dtype=object), m.shape)
    base = m % mod
    while e:
        if e & 1:
            out = (out @ base) % mod
        base = (base @ base) % mod
        e >>= 1
    return out


def _check_nilpotent_ideal(T, rad, p):
    n = len(T)
    if rad.shape[0] == 0:
        return
    eye = np.eye(n, dtype=np.int64)
    sides = np.concatenate([tensor_products(T, eye, rad, p).reshape(-1, n),
                            tensor_products(T, rad, eye, p).reshape(-1, n)])
    if mod_rank(np.concatenate([rad, sides]), p) != rad.shape[0]:
        raise StructuralError("computed radical is not an ideal")
    cur = rad
    for _ in range(n + 1):
        if cur.shape[0] == 0:
            return
        cur = _row_space(tensor_products(T, cur, rad, p).reshape(-1, n), p)
    raise StructuralError("computed radical is not nilpotent")


# ---------------------------------------------------------------------------
# exact arithmetic over Q and over the l-local integers


def frac_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def frac_matmul(a, b):
    """a b for exact entries, Fraction or int: int operands stay int."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def frac_scalar_shift(a, c):
    """a - c * identity, exact: int a and c stay int."""
    n = len(a)
    return [[a[i][j] - (c if i == j else 0) for j in range(n)]
            for i in range(n)]


def frac_matpow(a, e):
    """a^e, a new matrix, by binary powering: a^1 takes no product."""
    out = None
    while e:
        if e & 1:
            out = [r[:] for r in a] if out is None else frac_matmul(out, a)
        e >>= 1
        if e:
            a = frac_matmul(a, a)
    return frac_identity(len(a)) if out is None else out


def frac_is_zero(a):
    return all(x == 0 for row in a for x in row)


def frac_det(a):
    """Determinant of a rational square matrix, by Bareiss's fraction-free
    elimination (1968) on the rows cleared of denominators, divided by the
    product of those denominators.  After step k every entry below and
    right of the pivot is a (k+1)-minor, so each division by the previous
    pivot is exact."""
    m, scale = [], 1
    for row in a:
        d = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top, p = m[k], m[k][k]
        for i in range(k + 1, n):
            f = m[i][k]
            m[i] = [(x * p - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
    return Fraction(sign * prev, scale)


def frac_rref(a):
    m = [[Fraction(x) for x in row] for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def frac_kernel(a):
    """Rows spanning {x : a x = 0} over Q."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        return [[Fraction(int(i == j)) for j in range(ncols)]
                for i in range(ncols)]
    r, pivots = frac_rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for c in free:
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][c]
        out.append(v)
    return out


def frac_coordinates(basis, vectors):
    """Q-coordinates of the rows of `vectors` in the rows of `basis`: the
    rows c with vectors[j] = sum_i c[j][i] basis[i], read off one
    frac_rref of [basis^T | vectors^T], or None when some vector lies
    outside the span.  A dependent basis, a basis column left without a
    pivot, raises StructuralError."""
    k = len(basis)
    red, piv = frac_rref(list(zip(*basis, *vectors)))
    if piv[:k] != list(range(k)):
        raise StructuralError("basis is not independent")
    if len(piv) > k:
        return None
    return [[red[i][k + j] for i in range(k)] for j in range(len(vectors))]


def lval(x, ell):
    """l-adic valuation of a Fraction; None stands for +infinity (x = 0)."""
    x = Fraction(x)
    if x == 0:
        return None
    v = 0
    num, den = x.numerator, x.denominator
    while num % ell == 0:
        num //= ell
        v += 1
    while den % ell == 0:
        den //= ell
        v -= 1
    return v


def is_l_integral(x, ell):
    return Fraction(x).denominator % ell != 0


def frac_mod_ell(x, ell):
    """Residue in F_ell of an l-integral Fraction."""
    x = Fraction(x)
    if x.denominator % ell == 0:
        raise ValueError("fraction is not l-integral")
    return (x.numerator * pow(x.denominator, -1, ell)) % ell


def lloc_mod_ell(rows, ell):
    """The residues mod l of l-integral rows, an int64 array; an entry
    with l in its denominator raises ValueError.  Independent l-integral
    rows span a sublattice with free quotient, a direct summand, exactly
    when their residues stay independent."""
    return np.array([[frac_mod_ell(x, ell) for x in row] for row in rows],
                    dtype=np.int64)


def lloc_basis(rows, ell):
    """A Z_(l)-basis of the Z_(l)-span of the rows, in echelon form over
    the discrete valuation ring Z_(l) (Cohen 1993, section 2.4): in each
    column the remaining row whose entry has the least l-valuation is the
    pivot, and every other remaining row subtracts the multiple of it that
    clears the column, a multiple that is l-integral by that choice."""
    left = [[Fraction(x) for x in row] for row in rows]
    basis = []
    for c in range(len(left[0]) if left else 0):
        live = [row for row in left if row[c]]
        if live:
            top = min(live, key=lambda row: lval(row[c], ell))
            basis.append(top)
            left = [[x - row[c] / top[c] * y for x, y in zip(row, top)]
                    if row[c] else row for row in left if row is not top]
    return basis


def lloc_saturate(rows, ell):
    """Basis over Z_(l) of (Q-span of rows) intersected with Z_(l)^n.

    Start from a Q-basis scaled to unit content, then repeatedly divide an
    l-divisible combination by l; each step shrinks the index, so this
    terminates with the saturated lattice.
    """
    basis, _ = _rref_rows(rows)
    basis = [_unit_content(row, ell) for row in basis]
    if not basis:
        return []
    while True:
        dep = mod_nullspace(lloc_mod_ell(basis, ell).T, ell)
        if dep.shape[0] == 0:
            return basis
        c = dep[0]
        j = int(np.nonzero(c)[0][0])
        comb = [sum(Fraction(int(c[i])) * basis[i][k] for i in range(len(basis)))
                for k in range(len(basis[0]))]
        comb = [x / ell for x in comb]
        basis[j] = _unit_content(comb, ell)


def _rref_rows(rows):
    if not rows:
        return [], []
    r, piv = frac_rref(rows)
    return [r[i] for i in range(len(piv))], piv


def _unit_content(row, ell):
    vals = [lval(x, ell) for x in row]
    vmin = min(v for v in vals if v is not None)
    if vmin == 0:
        return list(row)
    f = Fraction(ell) ** vmin
    return [x / f for x in row]


def int_charpoly(a):
    """Characteristic polynomial of an integer square matrix, monic, as a
    low-degree-first list of ints (Faddeev-LeVerrier over Z).  With
    M_1 = I and M_{k+1} = a M_k + c_k I, the coefficient c_k is
    -tr(a M_k) / k, an integer: a trace that k does not divide raises
    StructuralError."""
    n = len(a)
    cs = [1] + [0] * n
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        amk = frac_matmul(a, mk)
        tr = sum(amk[i][i] for i in range(n))
        if tr % k:
            raise StructuralError(
                f"charpoly: trace {tr} at step {k} is not divisible by {k}")
        cs[k] = -tr // k
        mk = [[x + cs[k] if i == j else x for j, x in enumerate(row)]
              for i, row in enumerate(amk)]
    return cs[::-1]
