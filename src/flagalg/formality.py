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

Products go through the dense structure tensor T[a, b, k] (the
coefficient of e_k in e_a e_b), built from the rows of `mult` and cached
per instance.  `check` raises StructuralError unless: D D = 0; D and T
are nonzero only where the bidegrees fit; u T and T u (u the unit vector)
are the identity; D u = 0; and D T[a, b, :] = sum_c D[c, a] T[c, b, :] +
(-1)^i sum_c D[c, b] T[a, c, :] for all a, b, as three matrix products
over a chunk of consecutive a at a time.  Associativity is not checked.

Seeded random instances are built so the hypothesis holds by
construction: a square-zero diagonal algebra extended by acyclic
off-diagonal pairs with zero products.  The quasi-isomorphism checks are
then genuine tests of the shear, not of instance luck.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _linalg as la
from .galgebra import StructuralError

__all__ = [
    "BigradedDgAlgebra", "cohomology", "diagonal_check", "shear_subalgebra",
    "verify_quasi_iso", "random_diagonal_instance",
    "random_nondiagonal_instance",
]

# entries of each (chunk of a, b, k) array of the Leibniz check.  At 2^14
# an int64 array is 128 KiB, glibc's default threshold for serving an
# allocation by mmap, and the peak RSS of a run of shears rises by about
# 0.3 MB (by 2-3 MB with all of a at once, 2^16 entries at dim 40); at
# 2^13 it stays where the loop over single a kept it, as fast
_LEIBNIZ_CHUNK = 2**13


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

    @cached_property
    def tensor(self):
        """T[a, b, k], the coefficient of e_k in e_a e_b, from `mult`."""
        return la.structure_tensor(self.mult, self.dim)

    def mul_vec(self, a, b):
        n, p = self.dim, self.p
        left = la.mod_matmul(np.mod(a, p)[None],
                             self.tensor.reshape(n, n * n), p)
        return la.mod_matmul(np.mod(b, p)[None], left.reshape(n, n), p)[0]

    def check(self):
        """d^2 = 0, bidegree bookkeeping, unit, and the graded Leibniz rule
        on all basis pairs, over the structure tensor; raises
        StructuralError.  Runs once per instance."""
        if getattr(self, "_checked", False):
            return
        n, p = self.dim, self.p
        D = np.mod(self.diff, p)
        T = self.tensor
        bd = _bidegree_array(self)
        if np.any(la.mod_matmul(D, D, p)):
            raise StructuralError("d^2 != 0")
        rows, cols = np.nonzero(self.diff)
        if np.any(bd[rows] != bd[cols] + (1, 0)):
            raise StructuralError("differential is not of bidegree (1, 0)")
        a, b, k = np.nonzero(T)
        if np.any(bd[k] != bd[a] + bd[b]):
            raise StructuralError("product is not bidegree-additive")
        u = self.unit_vector()
        eye = np.eye(n, dtype=np.int64)
        flat = T.reshape(n, n * n)
        if not np.array_equal(
                la.mod_matmul(u[None], flat, p).reshape(n, n), eye):
            raise StructuralError("unit fails")
        if not np.array_equal(la.mod_matmul(u[None], T, p)[:, 0], eye):
            raise StructuralError("unit fails")
        if np.any(la.mod_matmul(D, u[:, None], p)):
            raise StructuralError("d(1) != 0")
        sign = np.where(bd[:, 0] % 2 == 0, 1, p - 1)
        step = max(1, _LEIBNIZ_CHUNK // (n * n))
        for a0 in range(0, n, step):
            Ta = T[a0:a0 + step]
            m = len(Ta)
            # [a - a0, b]: d(e_a e_b) - (d e_a) e_b - (-1)^i e_a (d e_b)
            acc = la.mod_matmul(Ta.reshape(m * n, n), D.T, p).reshape(m, n, n)
            acc -= la.mod_matmul(D.T[a0:a0 + m], flat, p).reshape(m, n, n)
            acc -= sign[a0:a0 + m, None, None] * la.mod_matmul(
                D.T, Ta.transpose(1, 0, 2).reshape(n, m * n),
                p).reshape(n, m, n).transpose(1, 0, 2)
            acc %= p
            if np.any(acc):
                raise StructuralError("Leibniz rule fails")
        self._checked = True


def _bidegree_array(R):
    return np.array(R.bidegrees, dtype=np.int64).reshape(R.dim, 2)


def _by_bidegree(R):
    by_bd = {}
    for k, bd in enumerate(R.bidegrees):
        by_bd.setdefault(bd, []).append(k)
    return dict(sorted(by_bd.items()))


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
    """The index in _by_bidegree(R) of each basis element's bidegree."""
    label = np.empty(R.dim, dtype=np.int64)
    for t, idxs in enumerate(_by_bidegree(R).values()):
        label[idxs] = t
    return label


def _products(R, X):
    """Every product x_a x_b of rows of X in R, as an (m, m, dim) array."""
    return la.tensor_products(R.tensor, X, X, R.p)


def _lift(R, idxs, local):
    """Rows of `local`, given on the basis indices idxs, in R-coords."""
    out = np.zeros((len(local), R.dim), dtype=np.int64)
    out[:, idxs] = local
    return out


def _entry(vec):
    return {int(k): int(vec[k]) for k in np.flatnonzero(vec)}


def _product_rows(coords, m):
    """Structure constants (a, b, k, c) from the coordinate rows of the
    products x_a x_b, in (a, b) order."""
    t, k = np.nonzero(coords)
    return np.column_stack([t // m, t % m, k, coords[t, k]])


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
    that are pivots are a basis of the image, and at each bidegree the
    class map reads coordinates in the representatives stacked over them
    (_linalg.mod_coordinates, built once per bidegree, on its first
    use)."""
    cached = getattr(R, "_cohomology", None)
    if cached is not None:
        return cached
    ker, ker_at = _nullspace(R)
    p, n = R.p, R.dim
    by_bd = _by_bidegree(R)
    D = np.mod(R.diff, p)
    _, piv = la.mod_rref(np.concatenate([D, ker.T], axis=1), p)
    piv = np.array(piv, dtype=np.int64)
    hs, hs_at = ker[piv[piv >= n] - n], ker_at[piv[piv >= n] - n]
    # a boundary's bidegree is that of its first nonzero entry
    bnd = D[:, piv[piv < n]].T
    bnd_at = _bidegree_index(R)[(bnd != 0).argmax(axis=1)]
    reps, rep_bd, offset, bases = [], [], {}, {}
    for t, (bd, idxs) in enumerate(by_bd.items()):
        here = hs[hs_at == t]
        # rows: the representatives first, then a basis of the boundaries
        bases[bd] = (idxs, np.concatenate([here, bnd[bnd_at == t]])[:, idxs],
                     len(here))
        offset[bd] = len(rep_bd)
        reps.append(here)
        rep_bd.extend([bd] * len(here))
    reps_arr = np.concatenate(reps)
    coords = {}         # bidegree -> coordinates map, built on first use

    def classify(vecs):
        """Coordinates in the cohomology basis of each row of `vecs`, a
        batch of cycles; the representatives' coefficients are unique."""
        vecs = np.mod(vecs, p)
        out = np.zeros((len(vecs), len(rep_bd)), dtype=np.int64)
        for bd, (idxs, basis, nh) in bases.items():
            local = vecs[:, idxs]
            if not np.any(local):
                continue
            if bd not in coords:
                coords[bd] = la.mod_coordinates(basis, p, outside=(
                    "vector is not a cycle/boundary combo" if len(basis)
                    else "vector is not a cycle"))[0]
            out[:, offset[bd]: offset[bd] + nh] = coords[bd](local)[:, :nh]
        return out

    h = len(rep_bd)
    cls = classify(np.concatenate([_products(R, reps_arr).reshape(-1, R.dim),
                                   R.unit_vector()[None]]))
    H = BigradedDgAlgebra(p, rep_bd, _product_rows(cls[:-1], h),
                          _entry(cls[-1]), np.zeros((h, h), dtype=np.int64))
    out = CohomologyData(H, reps_arr, classify)
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
    quasi-isomorphisms.  The products of all pairs of basis vectors, the
    unit and the differential are coordinatised by _linalg.mod_coordinates
    on the basis of the sub, which certifies that basis independent and
    raises StructuralError if the sub is not closed.  The kernel at
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
    # rows: every product x_a x_b, the unit, every d x_b
    cs = coords(np.concatenate(
        [_products(R, inc.T).reshape(n * n, R.dim), R.unit_vector()[None],
         la.mod_matmul(np.mod(R.diff, p), inc, p).T]))
    sub = BigradedDgAlgebra(p, row_bd, _product_rows(cs[:n * n], n),
                            _entry(cs[n * n]), cs[n * n + 1:].T.copy())
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
