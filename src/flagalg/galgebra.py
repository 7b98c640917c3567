"""
Finite dimensional graded algebras over a prime field and their graded
right modules: Hom solving, Krull-Schmidt decomposition with graded
shifts, graded projective lifts, and Koszulity checking via minimal
graded resolutions.

A GradedAlgebra stores a basis with integer degrees and its structure
constants as one int64 array of shape (m, 4): the row (i, j, k, c) says
that e_i e_j has coefficient c at e_k, 0 < c < p, the rows lexsorted by
(i, j, k), none repeated; the constructor puts rows given in any order
in that form.

A RightModule stores its action as one int64 array of shape (dim A,
dim M, dim M) (columns are coordinates, so coords(x * e_a) = action[a] @
coords(x)), and RightModule.matrix sums it over the nonzero coefficients
of an algebra element.  Module maps of degree d send degree e to degree
e + d; hom_all solves for them through a projective presentation of the
source: a hom is fixed by its values on module generators, subject to
the relations.

The submodule R A that rows R generate is spanned by the products r e_a
over the basis of A, and that span is already A-stable, since
(r e_a) e_b = r (e_a e_b) and 1 = sum u_a e_a.  So span_under_action
finds it in one round of products; module generators and translation to
the wall both use it, and no generating set of the algebra is needed.
Presentations and minimal resolutions take their generators from
module_generators (greedy by degree against that span) and their covers
from one helper; with the simple idempotents of a nonnegatively graded
algebra with semisimple degree-zero part, the generators are minimal.

Every slice e A of an algebra by an idempotent e (the projectives, and
the blocks of E and E^s that graded category O is built from) comes from
idempotent_slice, which works from the sparse structure constants: the
products x e_b for a chunk of basis elements b come from one scatter of
the constants, and each chunk is certified in one comparison to lie in
e A.  The certified rows of e A stay on the algebra, where presentations
find them.  The regular module is the slice by the unit.  direct_sum and
restrict_module assemble and restrict such slices.

Indecomposability is certified through degree-zero endomorphism rings:
the splitting search combines Fitting decompositions with the coprime
factor splitting of minimal polynomials, so a module survives only if
every tested endomorphism is nilpotent or invertible.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _linalg as la
from ._linalg import StructuralError

__all__ = [
    "GradedAlgebra", "RightModule", "StructuralError", "dims_to_laurent",
    "regular_module", "module_hom_basis", "hom_all", "hom_dims",
    "module_generators", "module_presentation", "shift_module", "submodule",
    "quotient_module", "span_under_action", "idempotent_slice", "direct_sum",
    "restrict_module", "decompose_module", "decompose_module_with_rows",
    "is_iso_up_to_shift", "graded_projectives", "minimal_resolution",
    "koszulity_check", "koszul_module_check", "ext_algebra_of_projectives",
    "upsilon_module", "simple_dims",
]


def dims_to_laurent(dims):
    """Graded dimension dict as a Laurent polynomial string in q."""
    parts = []
    for d, v in sorted(dims.items()):
        if v == 0:
            continue
        if d == 0:
            parts.append(str(v))
        else:
            head = "q" if d == 1 else f"q^{d}"
            parts.append(head if v == 1 else f"{v}*{head}")
    return " + ".join(parts) if parts else "0"


@dataclass(eq=False)
class GradedAlgebra:
    """Finite dimensional graded algebra: basis degrees, structure
    constants and the unit vector.  `mult` is taken as rows (i, j, k, c)
    in any order and stored canonically (_linalg.canonical_mult)."""

    p: int
    degrees: list
    mult: np.ndarray
    unit: dict
    labels: list = None          # optional printable label per basis index
    idempotents: dict = None     # optional label -> basis index

    def __post_init__(self):
        self.mult = la.canonical_mult(self.mult, self.dim, self.p)

    @property
    def dim(self):
        return len(self.degrees)

    def dims_by_degree(self):
        return dict(sorted(Counter(self.degrees).items()))

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

    def basis_vec(self, i):
        v = np.zeros(self.dim, dtype=np.int64)
        v[i] = 1
        return v

    def opposite(self):
        return GradedAlgebra(
            p=self.p, degrees=list(self.degrees),
            mult=self.mult[:, [1, 0, 2, 3]], unit=dict(self.unit),
            labels=self.labels, idempotents=self.idempotents)

    def check(self, spot=200):
        """Unit and associativity spot checks on basis triples.  The rows
        of e_i e_j are one contiguous run of the lexsorted mult, so each
        side of the unit is one pass over the rows with i (or j) in the
        unit's support, and a spot product reads only its runs."""
        p, n = self.p, self.dim
        i, j, k, c = self.mult.T
        u = self.unit_vector()
        for side, fixed, free in (("left", i, j), ("right", j, i)):
            # u e_b (or e_b u) for all b as one sparse matrix: the identity
            rows = np.flatnonzero(u[fixed])
            keys, at = np.unique(free[rows] * n + k[rows], return_inverse=True)
            sums = np.zeros(len(keys), dtype=np.int64)
            np.add.at(sums, at, u[fixed[rows]] * c[rows] % p)
            live = sums % p != 0
            if not (np.array_equal(keys[live], np.arange(n) * (n + 1))
                    and np.all(sums[live] % p == 1)):
                raise StructuralError(f"unit fails ({side})")
        pair = i * n + j

        def mul(x, y):
            out = np.zeros(n, dtype=np.int64)
            for a in np.flatnonzero(x):
                for b in np.flatnonzero(y):
                    lo, hi = np.searchsorted(pair, (a * n + b, a * n + b + 1))
                    np.add.at(out, k[lo:hi], x[a] * y[b] % p * c[lo:hi] % p)
            return out % p

        rng = np.random.default_rng(0)
        for triple in rng.integers(0, n, size=(spot, 3)):
            x, y, z = map(self.basis_vec, triple)
            if not np.array_equal(mul(mul(x, y), z), mul(x, mul(y, z))):
                raise StructuralError("associativity fails")

    def generators(self):
        """Every basis index: the basis generates the algebra.  Nothing in
        flagalg calls this; it stays only because perfbench/tracer.py wraps
        it by name."""
        return list(range(self.dim))


@dataclass(eq=False)
class RightModule:
    """Graded right module: degrees per basis index, and the action as one
    int64 array of shape (algebra.dim, dim, dim)."""

    algebra: GradedAlgebra
    degrees: list
    action: np.ndarray  # action[a] @ coords(x) = coords(x * e_a)

    @property
    def dim(self):
        return len(self.degrees)

    def dims_by_degree(self):
        return dict(sorted(Counter(self.degrees).items()))

    def matrix(self, avec):
        """The matrix of x -> x (sum avec[a] e_a), summed in place over the
        nonzero avec[a] only."""
        p = self.algebra.p
        avec = np.mod(avec, p)
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for a in np.flatnonzero(avec):
            out += avec[a] * self.action[a]
        out %= p
        return out

    def check(self):
        if not np.array_equal(self.matrix(self.algebra.unit_vector()),
                              np.eye(self.dim, dtype=np.int64)):
            raise StructuralError("unit does not act as identity")
        a, i, j = np.nonzero(self.action)
        deg = np.array(self.degrees, dtype=np.int64)
        if np.any(deg[i] != deg[j] + np.array(self.algebra.degrees)[a]):
            raise StructuralError("action does not respect degrees")


def regular_module(alg):
    """The algebra as a graded right module over itself."""
    return idempotent_slice(alg, alg.unit_vector())[0]


def shift_module(M, k):
    """M<k>: the component in degree i is the old component in degree
    i - k, so every basis degree goes up by k."""
    return RightModule(M.algebra, [d + k for d in M.degrees],
                       M.action.copy())


def submodule(M, rows):
    """Module structure on the span of the given rows (must be closed
    under the action; rows are reduced to an echelon basis first)."""
    p = M.algebra.p
    r, piv = la.mod_rref(np.array(rows, dtype=np.int64) % p, p)
    basis = r[: len(piv)]
    k = basis.shape[0]
    degrees = []
    for i in range(k):
        supp = np.nonzero(basis[i])[0]
        ds = {M.degrees[int(j)] for j in supp}
        if len(ds) != 1:
            raise StructuralError("submodule basis is not homogeneous")
        degrees.append(ds.pop())
    # for echelon rows the coordinates of an ambient vector are just its
    # pivot entries, provided it lies in the span; verify membership
    # wholesale afterwards
    img = la.mod_matmul(M.action, basis.T, p)       # A.dim x dim x k
    action = img[:, piv, :]
    if not np.array_equal(la.mod_matmul(basis.T, action, p), img):
        raise StructuralError("rows are not closed under the action")
    return RightModule(M.algebra, degrees, action), basis


def quotient_module(M, rows):
    """Quotient of M by the span of the given homogeneous rows (must be a
    submodule).  Returns (quotient, projection matrix)."""
    p = M.algebra.p
    dim = M.dim
    if len(rows):
        r, piv = la.mod_rref(np.array(rows, dtype=np.int64) % p, p)
        red = r[: len(piv)]
    else:
        red, piv = np.zeros((0, dim), dtype=np.int64), []
    keep = np.ones(dim, dtype=bool)
    keep[piv] = False
    keep = np.flatnonzero(keep)
    # e_c for a pivot column c of row i is -sum over kept columns c' of
    # red[i, c'] e_c'
    proj = np.eye(dim, dtype=np.int64)[keep]
    proj[:, piv] = (-red[:, keep].T) % p
    deg = np.array(M.degrees, dtype=np.int64)
    if np.any((proj[:, piv] != 0) & (deg[keep][:, None] != deg[piv])):
        raise StructuralError("quotient reduction is not graded")
    action = la.mod_matmul(proj, M.action[:, :, keep], p)
    return RightModule(M.algebra, deg[keep].tolist(), action), proj


def _idempotent_vectors(alg):
    """Complete orthogonal idempotent vectors used to slice projectives.
    Falls back to the unit when the algebra carries no idempotent data."""
    if alg.idempotents:
        out = []
        for label in sorted(alg.idempotents, key=str):
            v = np.zeros(alg.dim, dtype=np.int64)
            v[alg.idempotents[label]] = 1
            out.append(v)
        return out
    return [alg.unit_vector()]


# product entries formed at once: per chunk of products in _right_products,
# per fold into the running RREF in span_under_action, per chunk of
# composites in _block_products
_PRODUCT_BUDGET = 2 ** 16


def _right_products(A, X):
    """X e_b for every basis index b of A, a chunk of consecutive b at a
    time: yields (b0, img) with img[t] = X e_{b0 + t}, img one (chunk,
    rows of X, dim A) stack of at most _PRODUCT_BUDGET entries (or one b).

    The rows (m, b, k, c) of the structure constants with m in the support
    of X are sorted by (b, k); each run of equal (b, k) sums to one entry
    column X[:, m] c, and the sums of a chunk go into its stack in one
    scatter."""
    p, n = A.p, A.dim
    live = A.mult[X.any(axis=0)[A.mult[:, 0]]]
    live = live[np.argsort(live[:, 1] * n + live[:, 2], kind="stable")]
    step = max(1, _PRODUCT_BUDGET // max(1, X.size))
    starts = np.arange(0, n, step)
    ends = np.searchsorted(live[:, 1], np.append(starts, n))
    for b0, lo, hi in zip(starts, ends[:-1], ends[1:]):
        m, b, k, c = live[lo:hi].T
        at = (b - b0) * n + k
        run = np.flatnonzero(np.diff(at, prepend=-1))
        out = np.zeros((len(X), min(step, n - b0) * n), dtype=np.int64)
        if len(run):
            out[:, at[run]] = np.add.reduceat(X[:, m] * c % p, run,
                                              axis=1) % p
        yield b0, out.reshape(len(X), -1, n).transpose(1, 0, 2)


def idempotent_slice(A, e):
    """e A, for an idempotent vector e of A, as a right A-module built from
    the structure constants (no regular module is formed), a chunk of
    basis elements b at a time (_right_products).  The rows are kept in
    A._slice_rows under e's bytes, where module_presentation finds them.

    Returns (module, rows, pivots): the module's basis is the RREF basis
    `rows` of e A in A's coordinates, so the coordinates of a vector of
    e A are its entries in the pivot columns."""
    p = A.p
    e = np.mod(np.asarray(e, dtype=np.int64), p)
    spans = np.concatenate([img.reshape(-1, A.dim)
                            for _, img in _right_products(A, e[None])])
    red, piv = la.mod_rref(spans[spans.any(axis=1)], p)
    rows = red[: len(piv)]
    deg = np.array(A.degrees)
    if np.any((rows != 0) & (deg != deg[piv][:, None])):
        raise StructuralError("e A is not spanned by homogeneous rows")
    # a vector lies in the span of RREF rows iff it vanishes off their
    # support and agrees there with (pivot entries) @ rows; one check per
    # chunk of products
    outside = ~rows.any(axis=0)
    free = ~outside
    free[piv] = False
    action = np.empty((A.dim, len(piv), len(piv)), dtype=np.int64)
    for b0, img in _right_products(A, rows):
        coords = img[:, :, piv]
        if np.any(img[:, :, outside]) or not np.array_equal(
                img[:, :, free], la.mod_matmul(coords, rows[:, free], p)):
            raise StructuralError("e A is not closed under the action")
        action[b0: b0 + len(img)] = coords.transpose(0, 2, 1)
    A.__dict__.setdefault("_slice_rows", {})[e.tobytes()] = rows
    return RightModule(A, deg[piv].tolist(), action), rows, piv


def direct_sum(modules, shifts):
    """The block-diagonal direct sum of modules over one algebra, the i-th
    summand shifted up by shifts[i]."""
    degrees = [d + k for M, k in zip(modules, shifts) for d in M.degrees]
    action = np.zeros((modules[0].algebra.dim, len(degrees), len(degrees)),
                      dtype=np.int64)
    start = 0
    for M in modules:
        action[:, start: start + M.dim, start: start + M.dim] = M.action
        start += M.dim
    return RightModule(modules[0].algebra, degrees, action)


def restrict_module(N, B, emb):
    """N restricted along an algebra map B -> N.algebra given by the matrix
    emb (column b is the image of e_b): e_b acts as its image."""
    action = np.empty((B.dim, N.dim, N.dim), dtype=np.int64)
    for b in range(B.dim):
        action[b] = N.matrix(emb[:, b])
    return RightModule(B, list(N.degrees), action)


def span_under_action(M, rows, base=None):
    """The submodule R A of M that the rows generate, as (RREF rows,
    pivots); `base`, the (RREF rows, pivots) of a submodule, is added to it.

    R A is spanned by the products r e_a over the basis of A, and that span
    is already A-stable: (r e_a) e_b = r (e_a e_b) and 1 = sum u_a e_a.  So
    one round of products suffices; they are folded into the running RREF
    a few basis elements at a time."""
    p = M.algebra.p
    red, piv = base if base is not None else \
        (np.zeros((0, M.dim), dtype=np.int64), [])
    rows = np.mod(np.asarray(rows, dtype=np.int64), p).reshape(-1, M.dim)
    rows = rows[rows.any(axis=1)]
    if not rows.size:
        return red, piv
    step = max(1, _PRODUCT_BUDGET // rows.size)
    for a0 in range(0, M.algebra.dim, step):
        prods = la.mod_matmul(
            rows, M.action[a0: a0 + step].transpose(0, 2, 1), p)
        stack = np.concatenate([red, prods.reshape(-1, M.dim)])
        r, piv = la.mod_rref(stack[stack.any(axis=1)], p)
        red = r[: len(piv)]
    return red, piv


def _outside(v, red, piv, p):
    """Is v outside the span of the RREF rows red with pivots piv?  It lies
    inside iff v - v[piv] @ red vanishes."""
    return np.any((v - la.mod_matmul(v[None, piv], red, p)[0]) % p)


def module_generators(M, idems):
    """Generating set of M over its algebra, for orthogonal idempotent
    vectors `idems` summing to 1: pairs (vector g, slot h) with g = g e_h
    for e_h = idems[h], found greedily by increasing degree against the
    submodule the earlier ones generate.

    When the algebra is nonnegatively graded with semisimple degree-zero
    part and idems are its simple idempotents, every generator adds one
    simple to the top M / M A_+, so the set is minimal."""
    p = M.algebra.p
    corners = [M.matrix(e) for e in idems]      # column k is e_k e_h
    order = sorted(range(M.dim), key=lambda i: (M.degrees[i], i))
    span = (np.zeros((0, M.dim), dtype=np.int64), [])
    gens = []
    for k in order:
        if not _outside(np.eye(1, M.dim, k, dtype=np.int64)[0], *span, p):
            continue
        for h, corner in enumerate(corners):
            g = corner[:, k].copy()
            if np.any(g) and _outside(g, *span, p):
                gens.append((g, h))
                span = span_under_action(M, g, span)
    return gens


def _cover(M, gens, rows):
    """The matrix of the cover of M by one slice e_h A per generator (g, h)
    of gens, e_h A with the basis rows[h]: its columns run over (generator
    g, row beta of rows[h]), with value g beta."""
    p = M.algebra.p
    cols = [la.mod_matmul(rows[h], M.action @ g % p, p) for g, h in gens]
    return np.concatenate(cols).T if cols else \
        np.zeros((M.dim, 0), dtype=np.int64)


def module_presentation(M):
    """Projective presentation data of M (cached on the module): the
    generators with their idempotent slots, the projective row bases, and
    the relation kernel and a section of the cover.  The cover's columns
    run over (generator g, row beta of its slot's basis), with value
    g beta."""
    cached = getattr(M, "_presentation", None)
    if cached is not None:
        return cached
    alg = M.algebra
    p = alg.p
    idems = _idempotent_vectors(alg)
    gens = module_generators(M, idems)
    # rows of e_h A, kept on the algebra by the first idempotent_slice of e_h
    slice_rows = alg.__dict__.setdefault("_slice_rows", {})
    proj_rows = {}
    for h in {h for _, h in gens}:
        key = idems[h].tobytes()
        if key not in slice_rows:
            idempotent_slice(alg, idems[h])
        proj_rows[h] = slice_rows[key]
    pi = _cover(M, gens, proj_rows)
    if gens and la.mod_rank(pi, p) != M.dim:
        raise StructuralError("generators do not generate")
    rel = la.mod_nullspace(pi, p)
    sect = _right_inverse(pi, p) if gens else None
    out = (gens, idems, proj_rows, rel, sect)
    M._presentation = out
    return out


def hom_all(M, N):
    """All module homs M -> N, as {degree d: list of dimN x dimM
    matrices}, where a degree-d hom sends M_e into N_{e+d}.

    A hom is determined by its values on module generators of M; the
    constraints are the relations of the presentation by the projectives
    attached to the generators' idempotent slots.  The values of the
    generator attached to slot h range over N e_h."""
    alg = M.algebra
    p = alg.p
    if M.dim == 0 or N.dim == 0:
        return {}
    gens, idems, proj_rows, rel, sect = module_presentation(M)
    if not gens:
        return {}

    # unknowns: coordinates of n_i in a basis of N e_{h_i}; N e_h is
    # spanned by the columns of e_h's action matrix
    nbases = {}
    for h in proj_rows:
        img = N.matrix(idems[h]).T
        r, piv = la.mod_rref(img[img.any(axis=1)], p)
        nbases[h] = r[: len(piv)]

    # wbeta[h][t, u, :] = w_u . beta_t = sum_a B[t, a] * (w_u . e_a), for
    # the basis w of N e_h and the cover rows beta (rows of B) of e_h A
    wbeta = {}
    for h, W in nbases.items():
        aw = la.mod_matmul(W, N.action.transpose(0, 2, 1), p)
        wbeta[h] = la.mod_matmul(proj_rows[h], aw.reshape(alg.dim, -1),
                                 p).reshape(len(proj_rows[h]), *W.shape)
    # the unknowns and the presentation columns of each generator
    ublocks, cblocks = [], []
    for _, h in gens:
        u0 = ublocks[-1].stop if ublocks else 0
        c0 = cblocks[-1].stop if cblocks else 0
        ublocks.append(slice(u0, u0 + nbases[h].shape[0]))
        cblocks.append(slice(c0, c0 + proj_rows[h].shape[0]))
    total_u = ublocks[-1].stop
    if not total_u:
        return {}

    # one equation per relation and coordinate of N: the relation applied
    # to the generator values
    acc = np.zeros((len(rel), total_u, N.dim), dtype=np.int64)
    for (_, h), ub, cb in zip(gens, ublocks, cblocks):
        t, u, _ = wbeta[h].shape
        acc[:, ub] = la.mod_matmul(rel[:, cb], wbeta[h].reshape(t, -1),
                                   p).reshape(len(rel), u, N.dim)
    eqs = acc.transpose(0, 2, 1).reshape(-1, total_u)
    eqs = eqs[eqs.any(axis=1)]
    sols = la.mod_nullspace(eqs, p)

    # vals[s, c, :]: solution s's value on presentation column c; the hom
    # is vals[s].T @ sect
    vals = []
    for (_, h), ub in zip(gens, ublocks):
        t, u, _ = wbeta[h].shape
        by_u = wbeta[h].transpose(1, 0, 2).reshape(u, t * N.dim)
        vals.append(la.mod_matmul(sols[:, ub], by_u, p).reshape(
            len(sols), t, N.dim))
    vals = np.concatenate(vals, axis=1).transpose(0, 2, 1)
    psi = la.mod_matmul(vals.reshape(-1, len(sect)), sect, p).reshape(
        len(sols), N.dim, M.dim)
    # split each hom by degree; per degree, the pieces independent of the
    # earlier ones are the pivot columns of the stacked pieces
    gap = np.subtract.outer(N.degrees, M.degrees)
    final = {}
    for d in sorted(set(gap.ravel().tolist())):
        mask = gap == d
        _, piv = la.mod_rref(psi[:, mask].T, p)
        if piv:
            final[d] = [np.where(mask, psi[i], 0) for i in piv]
    return final


def _right_inverse(mat, p):
    """X with mat @ X = identity (mat must have full row rank)."""
    nrows, ncols = mat.shape
    aug = np.concatenate([mat, np.eye(nrows, dtype=np.int64)], axis=1)
    r, piv = la.mod_rref(aug, p)
    x = np.zeros((ncols, nrows), dtype=np.int64)
    for i, c in enumerate(piv):
        if c >= ncols:
            raise StructuralError("matrix does not have full row rank")
        x[c] = r[i, ncols:]
    return x


def module_hom_basis(M, N, d):
    """Basis (as dimN x dimM matrices) of module maps of degree d, i.e.
    phi(M_e) inside N_{e+d} with phi(x a) = phi(x) a."""
    return hom_all(M, N).get(d, [])


def hom_dims(M, N):
    """dict d -> dim of degree-d module homs, over all d with support."""
    return {d: len(v) for d, v in sorted(hom_all(M, N).items())}


# ---------------------------------------------------------------------------
# Krull-Schmidt


def _fitting_split(M, phi):
    """Split M along a coprime factorization of the minimal polynomial of
    the endomorphism phi; None if the minimal polynomial is primary."""
    p = M.algebra.p
    mp = la.mod_minpoly(phi, p)
    parts = la.coprime_power_split(mp, p)
    if len(parts) < 2:
        return None
    pieces = []
    for f in parts:
        mat = la.poly_eval_matrix(f, phi, p)
        rows = la.mod_nullspace(mat, p)
        if rows.shape[0]:
            pieces.append(rows)
    if len(pieces) < 2:
        return None
    return pieces


def decompose_module_with_rows(M):
    """Indecomposable graded summands of M, each with the rows spanning it
    inside M.  Summand row spans are independent and fill the module.

    For each candidate degree-zero endomorphism (a Hom basis and the
    pairwise products) the minimal polynomial is split into coprime
    factors; any nontrivial splitting decomposes the module, and a module
    on which every candidate is nilpotent or invertible is returned as
    indecomposable."""
    if M.dim == 0:
        return []
    endos = module_hom_basis(M, M, 0)
    candidates = list(endos)
    p = M.algebra.p
    for a in endos:
        for b in endos:
            candidates.append((a @ b) % p)
    for phi in candidates:
        pieces = _fitting_split(M, phi)
        if pieces:
            out = []
            total = 0
            for rows in pieces:
                sub, basis = submodule(M, rows)
                total += sub.dim
                for inner, inner_rows in decompose_module_with_rows(sub):
                    out.append((inner, (inner_rows @ basis) % p))
            if total != M.dim:
                raise StructuralError("Fitting pieces do not fill the module")
            return out
    return [(M, np.eye(M.dim, dtype=np.int64))]


def decompose_module(M):
    """Indecomposable graded summands of M (graded dimensions sum to M's)."""
    return [sub for sub, _ in decompose_module_with_rows(M)]


def _nilpotent(mat, p):
    n = mat.shape[0]
    acc = mat % p
    k = 1
    while k < n:
        acc = la.mod_matmul(acc, acc, p)
        k *= 2
    return not np.any(acc)


def is_iso_up_to_shift(M, N):
    """Graded isomorphism test for indecomposable modules with split
    endomorphism rings: returns the k with M<k> isomorphic to N (as a
    degree-k hom M -> N with nilpotent-free pairing), else None."""
    if M.dim != N.dim:
        return None
    dm, dn = M.dims_by_degree(), N.dims_by_degree()
    k = min(dn) - min(dm)
    if {d + k: v for d, v in dm.items()} != dn:
        return None
    fwd = module_hom_basis(M, N, k)
    bwd = module_hom_basis(N, M, -k)
    p = M.algebra.p
    for phi in fwd:
        for psi in bwd:
            if not _nilpotent((psi @ phi) % p, p):
                return k
    return None


def graded_projectives(E, family_words, lengths):
    """Normalized indecomposable graded projectives, one per group element.

    `family_words` maps element key -> its distinguished word (the word f
    with e_f the corresponding idempotent); `lengths` maps key -> length.
    The projective for x is the summand of e_f E not seen for shorter
    elements, shifted up by the length of x.  Raises StructuralError if
    the count of distinct classes is wrong.
    """
    order = sorted(family_words, key=lambda x: (lengths[x], str(x)))
    found = {}
    for x in order:
        sub, _, _ = idempotent_slice(
            E, E.basis_vec(E.idempotents[family_words[x]]))
        summands = decompose_module(sub)
        fresh = []
        for s in summands:
            if all(is_iso_up_to_shift(s, q) is None
                   for q in [*found.values(), *fresh]):
                fresh.append(s)
        if len(fresh) != 1:
            raise StructuralError(
                f"expected exactly one new projective class in e_f E for "
                f"{x}; found {len(fresh)}")
        # normalized so that the regraded Ext algebra of the sum of the
        # projectives is non-negatively graded (the length-shift direction
        # is pinned by that requirement)
        found[x] = shift_module(fresh[0], -lengths[x])
    if len(found) != len(family_words):
        raise StructuralError("wrong number of projective classes")
    return found


def simple_dims(projectives):
    """Dimension of each simple top, solved from
    dim P_x = sum_y [P_x : L_y] dim L_y with [P_x : L_y] = dim Hom(P_y, P_x)
    (split endomorphism rings).  Verified to be positive integers."""
    keys = sorted(projectives, key=str)
    n = len(keys)
    h = [[sum(hom_dims(projectives[y], projectives[x]).values())
          for y in keys] for x in keys]
    dims = [projectives[x].dim for x in keys]
    sol = la.frac_solve([[h[i][j] for j in range(n)] for i in range(n)],
                        dims)
    if sol is None:
        raise StructuralError("no simple dimensions fit the projectives")
    out = {}
    for k, v in zip(keys, sol):
        if v.denominator != 1 or v <= 0:
            raise StructuralError(
                "simple dimensions are not positive integers; "
                "split-endomorphism assumption violated")
        out[k] = int(v)
    return out


# ---------------------------------------------------------------------------
# Koszulity


@dataclass
class KoszulReport:
    is_nonneg_graded: bool
    is_semisimple_deg0: bool
    cap: int
    linear_to_cap: bool
    verdict: str
    generator_degrees: list = field(default_factory=list)
    ext_table: dict = field(default_factory=dict)
    dual_graded_dims: dict = field(default_factory=dict)


def _degree_zero_subalgebra(A):
    """The degree-zero part of A as an algebra, and its indices in A."""
    idx = np.flatnonzero(np.array(A.degrees) == 0)
    back = np.full(A.dim, -1)
    back[idx] = np.arange(len(idx))
    rows = np.column_stack([back[A.mult[:, :3]], A.mult[:, 3]])
    rows = rows[(rows[:, 0] >= 0) & (rows[:, 1] >= 0)]
    if np.any(rows[:, 2] < 0) or np.any(back[list(A.unit)] < 0):
        raise StructuralError("degree-zero part is not closed")
    unit = {int(back[k]): c for k, c in A.unit.items()}
    return GradedAlgebra(A.p, [0] * len(idx), rows, unit), idx


def _component_idempotents(A0):
    """Orthogonal idempotents from a right-module decomposition of the
    regular module of a semisimple algebra: the components of 1 across the
    summand row spans."""
    p = A0.p
    pieces = [rows for _, rows in
              decompose_module_with_rows(regular_module(A0))]
    one = _coordinates(np.concatenate(pieces), p,
                       "unit not reached by summand spans")(
        A0.unit_vector()[None])[0]
    ends = np.cumsum([len(rows) for rows in pieces])[:-1]
    idems = [la.mod_matmul(c[None], rows, p)[0]
             for c, rows in zip(np.split(one, ends), pieces)]
    for i, e in enumerate(idems):
        if not np.array_equal(A0.mul_vec(e, e), e):
            raise StructuralError("component of 1 is not idempotent")
        for j, f in enumerate(idems):
            if i != j and np.any(A0.mul_vec(e, f)):
                raise StructuralError("components of 1 are not orthogonal")
    return [e for e in idems if np.any(e)]


def _simple_idempotents(A, A0, zero_idx):
    """The component idempotents of the semisimple degree-zero part A0
    (basis indices zero_idx in A), in A's coordinates."""
    out = []
    for e in _component_idempotents(A0):
        v = np.zeros(A.dim, dtype=np.int64)
        v[zero_idx] = e
        out.append(v)
    return out


def _radical_rows(A, M):
    """The nonzero vectors x e_a spanning M A_+, over the basis vectors x of
    M and the positive-degree basis elements a, in (a, x) order."""
    act = M.action[np.array(A.degrees) > 0]
    rows = act.transpose(0, 2, 1).reshape(len(act) * M.dim, M.dim) % A.p
    return rows[rows.any(axis=1)]


def minimal_resolution(A, M, idempotent_vectors, slices, steps):
    """Minimal graded projective resolution data for M, up to `steps`
    homological degrees, for A nonnegatively graded with semisimple A_0 and
    its simple idempotent vectors; `slices` holds idempotent_slice(A, e)
    for each of them.  Returns a list, per homological degree i, of the
    multiset of (idempotent index, generator degree) of P^i."""
    slice_rows = [rows for _, rows, _ in slices]
    out = []
    cur = M
    for _ in range(steps + 1):
        if cur.dim == 0:
            out.append([])
            break
        gens = module_generators(cur, idempotent_vectors)
        degs = [cur.degrees[np.flatnonzero(g)[0]] for g, _ in gens]
        out.append(sorted((j, k) for (_, j), k in zip(gens, degs)))
        ker = la.mod_nullspace(_cover(cur, gens, slice_rows), A.p)
        if ker.shape[0] == 0:
            break
        # the kernel, as a submodule of the cover's source, the sum of the
        # q_j A<k>
        cover = direct_sum([slices[j][0] for _, j in gens], degs)
        cur, _ = submodule(cover, ker)
    return out


def koszulity_check(A, cap=None):
    """Is A Koszul to the given homological cap?

    Requires nonnegative grading and semisimple degree-zero part (else the
    verdict is "not Koszul-gradable as given" rather than an exception).
    The check computes minimal graded resolutions of all graded simples
    and asks that the i-th syzygies be generated in degree i, i.e. that
    Ext^i between simples is concentrated in internal degree -i.  The dual
    graded dimensions (the Ext algebra of the degree-zero part) are
    tabulated as a byproduct."""
    if cap is None:
        cap = 2 * max(max(A.degrees), 1)
    if min(A.degrees) < 0:
        return KoszulReport(False, False, cap, False,
                            "not Koszul-gradable as given")
    A0, zero_idx = _degree_zero_subalgebra(A)
    rad0 = la.algebra_radical(la.structure_tensor(A0.mult, A0.dim), A0.p)
    if rad0.shape[0]:
        return KoszulReport(True, False, cap, False,
                            "not Koszul-gradable as given")
    idems = _simple_idempotents(A, A0, zero_idx)
    slices = [idempotent_slice(A, e) for e in idems]
    # simple modules: top of each q_j A
    linear = True
    gen_degrees = []
    ext_table = {}
    for j, (pj, _, _) in enumerate(slices):
        simple, _ = quotient_module(pj, _radical_rows(A, pj))
        res = minimal_resolution(A, simple, idems, slices, cap)
        gen_degrees.append(res)
        for i, layer in enumerate(res):
            for (j2, k) in layer:
                ext_table[(i, j, j2, -k)] = \
                    ext_table.get((i, j, j2, -k), 0) + 1
            if any(k != i for _, k in layer):
                linear = False
    dual = {}
    for (i, j, j2, mk), mult in ext_table.items():
        dual[(i, mk)] = dual.get((i, mk), 0) + mult
    verdict = "Koszul to cap" if linear else "not Koszul as graded"
    return KoszulReport(True, True, cap, linear, verdict,
                        generator_degrees=gen_degrees,
                        ext_table=ext_table, dual_graded_dims=dual)


def koszul_module_check(A, M, cap=None):
    """Is M a Koszul module over A (Ext^i(M, simples) concentrated in
    internal degree -i up to the cap)?  Requires koszulity_check to have
    passed for A; M is first shifted so that its lowest degree, which is
    that of its lowest generators, is 0."""
    if cap is None:
        cap = 2 * max(max(A.degrees), 1)
    big_idems = _simple_idempotents(A, *_degree_zero_subalgebra(A))
    if M.dim:
        M = shift_module(M, -min(M.degrees))
    slices = [idempotent_slice(A, e) for e in big_idems]
    res = minimal_resolution(A, M, big_idems, slices, cap)
    return all(all(k == i for _, k in layer)
               for i, layer in enumerate(res))


def _coordinates(basis, p, outside="composite outside computed hom space"):
    """The coordinates map of the independent rows `basis` (a stack of
    vectors, or of matrices read as vectors): the RREF of [B | I] is
    [T B | T], so rows P in the span of B have coordinates P[:, piv] @ T.
    The map takes a stack like `basis` and certifies coords @ B == P; a
    dependent basis or a row outside the span raises StructuralError."""
    basis = basis.reshape(len(basis), math.prod(basis.shape[1:]))
    red, piv = la.mod_rref(np.concatenate(
        [basis, np.eye(len(basis), dtype=np.int64)], axis=1), p)
    if any(c >= basis.shape[1] for c in piv):
        raise StructuralError("basis is not independent")
    to_coords = red[:, basis.shape[1]:]

    def coords(items):
        rows = items.reshape(len(items), basis.shape[1])
        out = la.mod_matmul(rows[:, piv], to_coords, p)
        if not np.array_equal(la.mod_matmul(out, basis, p), rows):
            raise StructuralError(outside)
        return out
    return coords


def _block_products(left, right, target, p):
    """Every composite l @ r of a map l in block (a, b) of `left` with a
    map r in block (b, c) of `right`, in the coordinates of block (a, c)
    of `target`.

    Each argument maps a block key (a, b) to (start, stack): the block's
    maps as one (n, rows, cols) array, the first of them basis index
    `start`.  Returns the products as unsorted rows (i, j, k, c), one
    (m, 4) array: the composite of left map i with right map j has the
    nonzero coefficient c at target basis index k."""
    pairs = {}
    for (a, b), lblock in left.items():
        for (b2, c), rblock in right.items():
            if b2 == b and len(lblock[1]) and len(rblock[1]):
                pairs.setdefault((a, c), []).append((lblock, rblock))
    chunks = [np.zeros((0, 4), dtype=np.int64)]
    for key, todo in pairs.items():
        t0, tstack = target[key]
        coords = _coordinates(tstack, p)
        for (l0, lstack), (r0, rstack) in todo:
            nb = len(rstack)
            rmat = rstack.transpose(1, 0, 2).reshape(rstack.shape[1], -1)
            size = lstack.shape[1] * rstack.shape[2]
            step = max(1, _PRODUCT_BUDGET // (nb * size))
            for lo in range(0, len(lstack), step):
                chunk = lstack[lo: lo + step]
                prod = la.mod_matmul(chunk.reshape(-1, chunk.shape[2]),
                                     rmat, p)
                prod = prod.reshape(len(chunk), chunk.shape[1], nb, -1) \
                    .transpose(0, 2, 1, 3).reshape(len(chunk) * nb, -1)
                live = np.flatnonzero(prod.any(axis=1))
                cs = coords(prod[live])
                rows, ks = np.nonzero(cs)
                pair = live[rows]
                chunks.append(np.column_stack(
                    [l0 + lo + pair // nb, r0 + pair % nb, t0 + ks,
                     cs[rows, ks]]))
    return np.concatenate(chunks)


def ext_algebra_of_projectives(E, projectives):
    """The regraded algebra with n-th component Hom(P, P<-n>), P the sum
    of the normalized graded projectives: the degree-n part consists of
    the maps raising the internal grading by n, and multiplication is
    composition.  Non-negativity of this grading is what the projective
    normalization is for."""
    return _cached_ext_algebra(E, projectives)[1]


def _cached_ext_algebra(E, projectives):
    """(modules, *_ext_algebra(E, projectives)), built once per E and
    projectives: kept on E under the keys and ids of the modules, which
    the entry holds, so that no other module can take their ids."""
    keys = sorted(projectives, key=str)
    cache = E.__dict__.setdefault("_ext_cache", {})
    ident = tuple((str(k), id(projectives[k])) for k in keys)
    if ident not in cache:
        cache[ident] = ([projectives[k] for k in keys],
                        *_ext_algebra(E, projectives))
    return cache[ident]


def _hom_blocks(sources, targets):
    """The homs from each of `sources` to each of `targets`, source by
    source and degree by degree: a list of (source index, target index,
    degree), one per hom, and the same homs as the blocks
    {(target index, source index): (start, stack)} of _block_products."""
    basis, blocks = [], {}
    for si, src in enumerate(sources):
        for ti, tgt in enumerate(targets):
            mats = [(d, phi) for d, ms in sorted(hom_all(src, tgt).items())
                    for phi in ms]
            blocks[(ti, si)] = (len(basis), np.array(
                [phi for _, phi in mats], dtype=np.int64).reshape(
                    len(mats), tgt.dim, src.dim))
            basis += [(si, ti, d) for d, _ in mats]
    return basis, blocks


def _ext_algebra(E, projectives):
    """ext_algebra_of_projectives, with its basis maps as the blocks
    {(tgt, src): (start, stack)} of _hom_blocks, the projectives in sorted
    key order."""
    keys = sorted(projectives, key=str)
    mods = [projectives[k] for k in keys]
    p = E.p
    basis, blocks = _hom_blocks(mods, mods)
    degrees = [n for _, _, n in basis]
    if min(degrees) < 0:
        raise StructuralError("projective regrading has negative part")
    mult = _block_products(blocks, blocks, blocks, p)
    # 1 is the identity of each block (i, i), in that block's coordinates
    unit = {}
    for i, P in enumerate(mods):
        start, stack = blocks[(i, i)]
        one = _coordinates(stack, p, "identity not in Hom(P, P)")(
            np.eye(P.dim, dtype=np.int64)[None])[0]
        unit.update((start + int(k), int(one[k]))
                    for k in np.flatnonzero(one))
    lab = [f"{keys[si]}->{keys[ti]}:{n}" for si, ti, n in basis]
    return GradedAlgebra(p, degrees, mult, unit, labels=lab), blocks


def upsilon_module(E, projectives, M):
    """The module over the regraded Ext algebra attached to a graded
    E-module M: its degree-n part is Hom(P, M<-n>) (maps raising internal
    degree by n), with the regraded algebra acting by precomposition.

    Returns (K, module) with K = ext_algebra_of_projectives(E,
    projectives) and the module a RightModule over K."""
    mods, K, kblocks = _cached_ext_algebra(E, projectives)
    # basis of the module: per source block si, homs P_si -> M by degree
    mbasis, mblocks = _hom_blocks(mods, [M])
    # kappa: P_si -> P_ti acts on psi: P_ti -> M to give psi o kappa
    action = np.zeros((K.dim, len(mbasis), len(mbasis)), dtype=np.int64)
    i, j, k, c = _block_products(mblocks, kblocks, mblocks, E.p).T
    action[j, k, i] = c
    return K, RightModule(K, [d for _, _, d in mbasis], action)
