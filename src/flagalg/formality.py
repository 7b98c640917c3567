"""
Finite bigraded dg-algebras over a prime field, their cohomology, the
diagonal-purity formality criterion, and the explicit shear subalgebra
that witnesses formality.

A BigradedDgAlgebra has a basis in bidegrees (i, j), a bidegree-additive
product, and a differential of bidegree (1, 0) satisfying the graded
Leibniz rule with sign (-1)^i on the first (cohomological) grading.  When
the cohomology of R is concentrated on the diagonal j = i, the subalgebra
R_tri with components (sum of the R^{i,j} for j > i) plus ker(d^i_i) is a
dg-subalgebra, and both the inclusion into R and the projection onto the
cohomology are quasi-isomorphisms; this module computes all three objects
and certifies the two maps.

Every product-side certificate reads the rows (a, b, k, c) of `mult`
(e_a e_b has coefficient c at e_k) and the nonzero entries of D; no
dense (dim, dim, dim) array is formed.  `check` raises StructuralError
unless: D D = 0; D and the rows are nonzero only where the bidegrees
fit; the unit u acts as the identity on both sides; D u = 0; the graded
Leibniz rule d(e_a e_b) = (d e_a) e_b + (-1)^i e_a (d e_b) holds for
all a, b; and (e_a e_b) e_c = e_a (e_b e_c) for all a, b, c.  Each
side of the last two is a join of rows of `mult` with entries of D, or
with rows of `mult` on the middle index, summed by its key (a, b, l) or
(a, b, c, l): its cost follows the nonzeros, not dim^3.

Seeded random instances are built so the hypothesis holds by
construction: a square-zero diagonal algebra extended by acyclic
off-diagonal pairs with zero products.  The quasi-isomorphism checks are
then genuine tests of the shear, not of instance luck.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _linalg as la
from .galgebra import StructuralError

__all__ = [
    "BigradedDgAlgebra", "cohomology", "diagonal_check", "shear_subalgebra",
    "verify_quasi_iso", "random_diagonal_instance",
    "random_nondiagonal_instance",
]


@dataclass(eq=False)
class BigradedDgAlgebra:
    """Finite bigraded dg-algebra: basis bidegrees, structure constants,
    unit vector, differential matrix of bidegree (1, 0).  `mult` is stored
    as one int64 (m, 4) array: the row (i, j, k, c) says that e_i e_j has
    coefficient c at e_k, 0 < c < p, rows lexsorted by (i, j, k); rows
    given in any order are put in that form (_linalg.canonical_mult)."""

    p: int
    bidegrees: list
    mult: np.ndarray
    unit: dict
    diff: np.ndarray

    def __post_init__(self):
        if (self.p - 1) ** 2 >= 2**63:
            raise OverflowError("modulus too large for int64 elimination")
        if not la.is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        self.mult = la.canonical_mult(self.mult, self.dim, self.p)

    @property
    def dim(self):
        return len(self.bidegrees)

    def dims_by_bidegree(self):
        return dict(sorted(Counter(self.bidegrees).items()))

    def unit_vector(self):
        v = np.zeros(self.dim, dtype=np.int64)
        for k, c in self.unit.items():
            v[k] = c % self.p
        return v

    def mul_vec(self, a, b):
        """a b, summed over the rows (i, j, k, c) of mult at once."""
        p = self.p
        i, j, k, c = self.mult.T
        out = np.zeros(self.dim, dtype=np.int64)
        np.add.at(out, k, np.mod(a, p)[i] * np.mod(b, p)[j] % p * c % p)
        return out % p

    def check(self):
        """d^2 = 0, bidegree bookkeeping, unit, the graded Leibniz rule on
        all basis pairs and associativity on all basis triples, over the
        rows of `mult` and the nonzeros of D; raises StructuralError.
        Runs once per instance."""
        if getattr(self, "_checked", False):
            return
        n, p = self.dim, self.p
        D = np.mod(self.diff, p)
        bd = _bidegree_array(self)
        if np.any(la.mod_matmul(D, D, p)):
            raise StructuralError("d^2 != 0")
        rows, cols = np.nonzero(self.diff)
        if np.any(bd[rows] != bd[cols] + (1, 0)):
            raise StructuralError("differential is not of bidegree (1, 0)")
        i, j, k, c = self.mult.T
        if np.any(bd[k] != bd[i] + bd[j]):
            raise StructuralError("product is not bidegree-additive")
        u = self.unit_vector()
        for fixed, free in ((i, j), (j, i)):
            # u e_b (or e_b u) for every b, keyed b * n + k: the identity
            at = np.flatnonzero(u[fixed])
            keys, sums = _sum_by_key(free[at] * n + k[at],
                                     u[fixed[at]] * c[at], p)
            live = sums != 0
            if not (np.array_equal(keys[live], np.arange(n) * (n + 1))
                    and np.all(sums[live] == 1)):
                raise StructuralError("unit fails")
        if np.any(la.mod_matmul(D, u[:, None], p)):
            raise StructuralError("d(1) != 0")
        # keyed (a * n + b) * n + l: d(e_a e_b) - (d e_a) e_b
        # - (-1)^i e_a (d e_b), with d e_s = sum_r D[r, s] e_r
        rows, cols = np.nonzero(D)
        dval = D[rows, cols]
        sign = np.where(bd[:, 0] % 2 == 0, 1, p - 1)
        s, t = _join(k, cols)           # row (a, b, s, c), D[r, s]
        keys = [(i[s] * n + j[s]) * n + rows[t]]
        vals = [c[s] * dval[t]]
        s, t = _join(i, rows)           # D[r, a], row (r, b, l, c)
        keys.append((cols[t] * n + j[s]) * n + k[s])
        vals.append(c[s] * (p - dval[t]))
        s, t = _join(j, rows)           # D[r, b], row (a, r, l, c)
        keys.append((i[s] * n + cols[t]) * n + k[s])
        vals.append(c[s] * (p - dval[t]) % p * sign[i[s]])
        if np.any(_sum_by_key(np.concatenate(keys), np.concatenate(vals),
                              p)[1]):
            raise StructuralError("Leibniz rule fails")
        # keyed ((a * n + b) * n + c) * n + l: (e_a e_b) e_c - e_a (e_b e_c);
        # n^4 < 2^63 for every n whose dense (n, n) D fits in memory
        s, t = _join(k, i)              # row (a, b, m, .), row (m, c, l, .)
        left = ((i[s] * n + j[s]) * n + j[t]) * n + k[t]
        r, q = _join(k, j)              # row (b, c, m, .), row (a, m, l, .)
        right = ((i[q] * n + i[r]) * n + j[r]) * n + k[q]
        if np.any(_sum_by_key(np.concatenate([left, right]), np.concatenate(
                [c[s] * c[t], c[r] * c[q] % p * (p - 1)]), p)[1]):
            raise StructuralError("associativity fails")
        self._checked = True


def _join(left, right):
    """Index pairs (s, t) with left[s] == right[t], every such pair once."""
    order = np.argsort(right, kind="stable")
    lo = np.searchsorted(right[order], left, "left")
    cnt = np.searchsorted(right[order], left, "right") - lo
    s = np.repeat(np.arange(len(left)), cnt)
    # the pairs of s read order[lo[s]], order[lo[s] + 1], ...
    return s, order[lo[s] + np.arange(len(s)) - (np.cumsum(cnt) - cnt)[s]]


def _sum_by_key(keys, vals, p):
    """The distinct keys, ascending, and the sum of vals mod p at each;
    each val is below p^2, so (p - 1)^2 < 2^63 keeps every term exact."""
    uniq, at = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, at, vals % p)
    return uniq, sums % p


def _bidegree_array(R):
    return np.array(R.bidegrees, dtype=np.int64).reshape(R.dim, 2)


def _by_bidegree(R):
    """{bidegree: its basis indices}, bidegrees ascending; memoized per
    instance."""
    cached = getattr(R, "_by_bd", None)
    if cached is None:
        by_bd = {}
        for k, bd in enumerate(R.bidegrees):
            by_bd.setdefault(bd, []).append(k)
        cached = R._by_bd = dict(sorted(by_bd.items()))
    return cached


def _nullspace(R):
    """(ker, at): the nullspace of the differential, one basis vector per
    row, and the index in _by_bidegree(R) of each vector's bidegree, that
    of its first nonzero entry (see `cohomology`).  Checks R first;
    memoized per instance, so that `cohomology` and `shear_subalgebra`
    share one check and one elimination."""
    cached = getattr(R, "_kernel", None)
    if cached is None:
        R.check()
        ker = la.mod_nullspace(np.mod(R.diff, R.p), R.p)
        cached = R._kernel = (ker, _bidegree_index(R)[
            (ker != 0).argmax(axis=1)])
    return cached


def _bidegree_index(R):
    """The index in _by_bidegree(R) of each basis element's bidegree;
    memoized per instance."""
    cached = getattr(R, "_bd_index", None)
    if cached is None:
        cached = R._bd_index = np.empty(R.dim, dtype=np.int64)
        for t, idxs in enumerate(_by_bidegree(R).values()):
            cached[idxs] = t
    return cached


def _products(R, X):
    """(pairs, vecs): every product x_a x_b of rows of X (m rows, entries
    in [0, p)) that is not zero, as pairs[t] = a * m + b, ascending, and
    vecs[t], its coordinates in R.  The nonzero entries X[a, i] and
    X[b, j] are joined with the rows (i, j, k, c) of mult and summed by
    (a, b, k)."""
    n, p, m = R.dim, R.p, len(X)
    i, j, k, c = R.mult.T
    xa, xi = np.nonzero(X)
    xv = X[xa, xi]
    s, t = _join(i, xi)             # row (i, j, k, c), X[a, i]
    r, q = _join(j[s], xi)          # and X[b, j]
    s, t = s[r], t[r]
    keys, sums = _sum_by_key((xa[t] * m + xa[q]) * n + k[s],
                             c[s] * xv[t] % p * xv[q], p)
    keys = keys[sums != 0]
    pairs, at = np.unique(keys // n, return_inverse=True)
    vecs = np.zeros((len(pairs), n), dtype=np.int64)
    vecs[at, keys % n] = sums[sums != 0]
    return pairs, vecs


def _lift(R, idxs, local):
    """Rows of `local`, given on the basis indices idxs, in R-coords."""
    out = np.zeros((len(local), R.dim), dtype=np.int64)
    out[:, idxs] = local
    return out


def _entry(vec):
    return {int(k): int(vec[k]) for k in np.flatnonzero(vec)}


def _product_rows(coords, pairs, m):
    """Structure constants (a, b, k, c) from the coordinate rows of the
    products x_a x_b, the row of x_a x_b at pairs[t] = a * m + b."""
    t, k = np.nonzero(coords)
    return np.column_stack([pairs[t] // m, pairs[t] % m, k, coords[t, k]])


@dataclass(eq=False)
class CohomologyData:
    """Cohomology of a bigraded dg-algebra: the quotient algebra (d = 0),
    the cycle representatives, and the class map, which sends a batch of
    cycles (rows) to their coordinates in the cohomology basis."""

    algebra: BigradedDgAlgebra
    reps: np.ndarray          # rows: representative cycles in R-coords
    classify: object = field(repr=False, default=None)


def cohomology(R):
    """Bigraded cohomology with the induced product, as a dg-algebra with
    zero differential.  Rejects inputs violating the dg axioms; memoized
    per instance (recomputation would be identical).

    One nullspace of the whole differential D and one RREF of the columns
    [D | kernel] give every bidegree at once: `check` certifies that D
    has bidegree (1, 0), so, permuted by bidegree, both matrices are block
    diagonal, and their pivots and kernel vectors are those of each block
    in turn, each vector supported in one bidegree.  The representatives
    are the kernel vectors that are pivot columns: each is independent of
    the boundaries and of the kernel vectors before it.  The columns of D
    that are pivots are a basis of the image.  The class map reads
    coordinates in the representatives stacked over them, one
    _linalg.mod_coordinates for all bidegrees; since every basis vector
    lies in one bidegree, a vector is outside their span exactly where
    one of its bidegree parts is, and only then is the first such
    bidegree looked up, to tell "not a cycle" (no cycles there) from
    "not a cycle/boundary combo"."""
    cached = getattr(R, "_cohomology", None)
    if cached is not None:
        return cached
    ker, ker_at = _nullspace(R)
    p, n = R.p, R.dim
    bds = list(_by_bidegree(R))
    D = np.mod(R.diff, p)
    _, piv = la.mod_rref(np.concatenate([D, ker.T], axis=1), p)
    piv = np.array(piv, dtype=np.int64)
    hs, hs_at = ker[piv[piv >= n] - n], ker_at[piv[piv >= n] - n]
    order = np.argsort(hs_at, kind="stable")    # grouped by bidegree
    reps, rep_bd = hs[order], [bds[t] for t in hs_at[order]]
    # a boundary's bidegree is that of its first nonzero entry
    bnd = D[:, piv[piv < n]].T
    cycles = np.zeros(len(bds), dtype=bool)
    cycles[hs_at] = True
    cycles[_bidegree_index(R)[(bnd != 0).argmax(axis=1)]] = True
    basis = np.concatenate([reps, bnd])
    coords, sect, _ = la.mod_coordinates(basis, p)
    h = len(reps)

    def classify(vecs):
        """Coordinates in the cohomology basis of each row of `vecs`, a
        batch of cycles; the representatives' coefficients are unique."""
        vecs = np.mod(vecs, p)
        try:
            return coords(vecs)[:, :h]
        except StructuralError:
            miss = np.any(vecs != la.mod_matmul(la.mod_matmul(
                vecs, sect, p), basis, p), axis=0)
            t = _bidegree_index(R)[miss].min()
            raise StructuralError(
                "vector is not a cycle/boundary combo" if cycles[t]
                else "vector is not a cycle") from None

    pairs, prods = _products(R, reps)
    cls = classify(np.concatenate([prods, R.unit_vector()[None]]))
    H = BigradedDgAlgebra(p, rep_bd, _product_rows(cls[:-1], pairs, h),
                          _entry(cls[-1]), np.zeros((h, h), dtype=np.int64))
    out = CohomologyData(H, reps, classify)
    R._cohomology = out
    return out


def diagonal_check(R):
    """True iff the cohomology vanishes off the diagonal j = i."""
    H = cohomology(R).algebra
    return all(i == j for (i, j) in H.bidegrees)


def shear_subalgebra(R):
    """The shear subalgebra: in cohomological degree i, the sum of the
    bidegree (i, j) parts for j > i together with the kernel of the
    diagonal differential at (i, i).

    Returns (sub dg-algebra, inclusion matrix into R, projection matrix
    onto the cohomology, cohomology data).  The sub is always a
    dg-subalgebra; when the cohomology of R is diagonal, both maps are
    quasi-isomorphisms.  The nonzero products of pairs of basis vectors
    (_products), the unit and the differential are coordinatised by
    _linalg.mod_coordinates on the basis of the sub, which certifies that
    basis independent and raises StructuralError if the sub is not
    closed.  The kernel at
    (i, i) is read off the one nullspace of D that `cohomology` shares."""
    ker, ker_at = _nullspace(R)
    p = R.p
    blocks, row_bd = [], []
    for t, (bd, idxs) in enumerate(_by_bidegree(R).items()):
        i, j = bd
        if j > i:
            block = _lift(R, idxs, np.eye(len(idxs), dtype=np.int64))
        elif j == i:
            block = ker[ker_at == t]
        else:
            continue
        blocks.append(block)
        row_bd.extend([bd] * len(block))
    inc = np.concatenate(blocks).T if blocks else \
        np.zeros((R.dim, 0), dtype=np.int64)
    n = inc.shape[1]
    coords = la.mod_coordinates(
        inc.T, p, outside="shear subalgebra is not closed")[0]
    # rows: every nonzero product x_a x_b, the unit, every d x_b
    pairs, prods = _products(R, inc.T)
    m = len(pairs)
    cs = coords(np.concatenate([prods, R.unit_vector()[None],
                                la.mod_matmul(np.mod(R.diff, p), inc, p).T]))
    sub = BigradedDgAlgebra(p, row_bd, _product_rows(cs[:m], pairs, n),
                            _entry(cs[m]), cs[m + 1:].T.copy())
    sub.check()

    hdata = cohomology(R)
    diag = [b for b, (i, j) in enumerate(row_bd) if i == j]
    proj = np.zeros((hdata.algebra.dim, n), dtype=np.int64)
    proj[:, diag] = hdata.classify(inc[:, diag].T).T
    return sub, inc, proj, hdata


def verify_quasi_iso(src, tgt, mat):
    """Is the chain map `mat` (columns indexed by src basis) a
    quasi-isomorphism?  Rejects maps that fail to commute with the
    differentials or to respect bidegrees."""
    p = src.p
    lhs = la.mod_matmul(tgt.diff, mat % p, p)
    rhs = la.mod_matmul(mat % p, src.diff, p)
    if not np.array_equal(lhs, rhs):
        raise ValueError("not a chain map")
    rows, cols = np.nonzero(mat)
    if np.any(_bidegree_array(tgt)[rows] != _bidegree_array(src)[cols]):
        raise ValueError("map does not respect bidegrees")
    hs = cohomology(src)
    ht = cohomology(tgt)
    if sorted(hs.algebra.bidegrees) != sorted(ht.algebra.bidegrees):
        return False
    induced = ht.classify(la.mod_matmul(hs.reps, (mat % p).T, p)).T
    return la.mod_rank(induced, p) == hs.algebra.dim


# ---------------------------------------------------------------------------
# seeded instances


def random_diagonal_instance(seed, max_dim=40, p=5):
    """A bigraded dg-algebra whose cohomology is diagonal by construction:
    a square-zero diagonal algebra extended by acyclic off-diagonal pairs
    with zero products."""
    rng = np.random.default_rng(seed)
    bidegrees = [(0, 0)]            # the unit
    n_diag = int(rng.integers(1, 4))
    for _ in range(n_diag):
        d = int(rng.integers(1, 4))
        bidegrees.append((d, d))
    pairs = []
    max_pairs = max(1, (max_dim - len(bidegrees)) // 2)
    n_pairs = int(rng.integers(1, max_pairs + 1))
    for _ in range(n_pairs):
        i = int(rng.integers(-2, 4))
        j = int(rng.integers(-2, 4))
        if j == i:
            j += 1
        pairs.append((i, j))
        bidegrees.append((i, j))
        bidegrees.append((i + 1, j))
    dim = len(bidegrees)
    diff = np.zeros((dim, dim), dtype=np.int64)
    base = 1 + n_diag
    for k in range(n_pairs):
        a = base + 2 * k
        scal = int(rng.integers(1, p))
        diff[a + 1, a] = scal
    # e_0 is the unit, and every other product is zero
    mult = [(0, k, k, 1) for k in range(dim)] + \
        [(k, 0, k, 1) for k in range(1, dim)]
    alg = BigradedDgAlgebra(p, bidegrees, mult, {0: 1}, diff)
    alg.check()
    return alg


def random_nondiagonal_instance(seed, p=5):
    """Like the diagonal generator, but with one closed off-diagonal
    element that survives to cohomology, so the diagonal check fails."""
    alg = random_diagonal_instance(seed, max_dim=20, p=p)
    bidegrees = list(alg.bidegrees) + [(1, 0)]
    dim = len(bidegrees)
    diff = np.zeros((dim, dim), dtype=np.int64)
    diff[: dim - 1, : dim - 1] = alg.diff
    mult = np.concatenate(
        [alg.mult, [(0, dim - 1, dim - 1, 1), (dim - 1, 0, dim - 1, 1)]])
    out = BigradedDgAlgebra(alg.p, bidegrees, mult, {0: 1}, diff)
    out.check()
    return out
