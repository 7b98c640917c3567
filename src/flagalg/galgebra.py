"""
Finite dimensional graded algebras over a prime field and their graded
right modules: Hom solving, Krull-Schmidt decomposition with graded
shifts, graded projective lifts, and Koszulity checking via minimal
graded resolutions.

A GradedAlgebra stores a basis with integer degrees and sparse structure
constants; a RightModule stores one action matrix per algebra basis
element (columns are coordinates, so coords(x * a) = action[a] @ coords(x)).
Module maps of degree d send degree e to degree e + d; hom_all solves
for them through a projective presentation of the source: a hom is fixed
by its values on module generators, subject to the relations.

The submodule R A that rows R generate is spanned by the products r e_a
over the basis of A, and that span is already A-stable, since
(r e_a) e_b = r (e_a e_b) and 1 = sum u_a e_a.  So span_under_action
finds it in one round of products; module generators and translation to
the wall both use it, and no generating set of the algebra is needed.

Every slice e A of an algebra by an idempotent e (the projectives, and
the blocks of E and E^s that graded category O is built from) comes from
idempotent_slice, which works from the sparse structure constants and
never forms the regular module; direct_sum and restrict_module assemble
and restrict such slices.

Indecomposability is certified through degree-zero endomorphism rings:
the splitting search combines Fitting decompositions with the coprime
factor splitting of minimal polynomials, so a module survives only if
every tested endomorphism is nilpotent or invertible.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _linalg as la

__all__ = [
    "GradedAlgebra", "RightModule", "UngradedModule", "GradedComplex",
    "DgModule", "StructuralError", "dims_to_laurent", "regular_module",
    "module_hom_basis", "hom_all", "hom_dims", "module_generators",
    "module_presentation", "shift_module", "submodule", "quotient_module",
    "span_under_action", "idempotent_slice", "direct_sum", "restrict_module",
    "decompose_module", "decompose_module_with_rows", "is_iso_up_to_shift",
    "graded_projectives", "v_forget", "v_bar_shear", "minimal_resolution",
    "koszulity_check", "koszul_module_check", "ext_algebra_of_projectives",
    "upsilon_module", "simple_dims",
]


class StructuralError(RuntimeError):
    """A certificate the model relies on failed; this falsifies the setup
    rather than being a user error."""


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


@dataclass
class GradedAlgebra:
    """Finite dimensional graded algebra: basis degrees, sparse structure
    constants mult[(i, j)] = {k: coeff} for e_i e_j, and the unit vector."""

    p: int
    degrees: list
    mult: dict
    unit: dict
    labels: list = None          # optional printable label per basis index
    idempotents: dict = None     # optional label -> basis index

    @property
    def dim(self):
        return len(self.degrees)

    def dims_by_degree(self):
        out = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

    def unit_vector(self):
        v = np.zeros(self.dim, dtype=np.int64)
        for k, c in self.unit.items():
            v[k] = c % self.p
        return v

    def mul_vec(self, a, b):
        out = np.zeros(self.dim, dtype=np.int64)
        for i in np.nonzero(a)[0]:
            ai = int(a[i])
            for j in np.nonzero(b)[0]:
                prod = self.mult.get((int(i), int(j)))
                if not prod:
                    continue
                bj = int(b[j])
                for k, c in prod.items():
                    out[k] = (out[k] + ai * bj * c) % self.p
        return out

    def basis_vec(self, i):
        v = np.zeros(self.dim, dtype=np.int64)
        v[i] = 1
        return v

    def opposite(self):
        return GradedAlgebra(
            p=self.p, degrees=list(self.degrees),
            mult={(j, i): dict(v) for (i, j), v in self.mult.items()},
            unit=dict(self.unit), labels=self.labels,
            idempotents=self.idempotents)

    def check(self, spot=200):
        """Unit and associativity spot checks on basis triples."""
        u = self.unit_vector()
        for i in range(self.dim):
            b = self.basis_vec(i)
            assert np.array_equal(self.mul_vec(u, b), b), "unit fails (left)"
            assert np.array_equal(self.mul_vec(b, u), b), "unit fails (right)"
        n = self.dim
        rng = np.random.default_rng(0)
        triples = [(int(a), int(b), int(c))
                   for a, b, c in rng.integers(0, n, size=(spot, 3))]
        for a, b, c in triples:
            ab_c = self.mul_vec(self.mul_vec(self.basis_vec(a),
                                             self.basis_vec(b)),
                                self.basis_vec(c))
            a_bc = self.mul_vec(self.basis_vec(a),
                                self.mul_vec(self.basis_vec(b),
                                             self.basis_vec(c)))
            assert np.array_equal(ab_c, a_bc), "associativity fails"

    def generators(self):
        """Every basis index: the basis generates the algebra.  Nothing in
        flagalg calls this; it stays only because perfbench/tracer.py wraps
        it by name."""
        return list(range(self.dim))


@dataclass
class RightModule:
    """Graded right module: degrees per basis index, one action matrix per
    algebra basis element."""

    algebra: GradedAlgebra
    degrees: list
    action: list  # action[a] @ coords(x) = coords(x * e_a)

    @property
    def dim(self):
        return len(self.degrees)

    def dims_by_degree(self):
        out = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

    def act_vec(self, x, avec):
        """x * (sum avec[a] e_a)"""
        p = self.algebra.p
        out = np.zeros(self.dim, dtype=np.int64)
        for a in np.nonzero(avec)[0]:
            out = (out + int(avec[a]) * (self.action[a] @ x)) % p
        return out

    def check(self):
        p = self.algebra.p
        u = self.algebra.unit_vector()
        ident = np.zeros((self.dim, self.dim), dtype=np.int64)
        for a in np.nonzero(u)[0]:
            ident = (ident + int(u[a]) * self.action[a]) % p
        assert np.array_equal(ident % p, np.eye(self.dim, dtype=np.int64)), \
            "unit does not act as identity"
        for a in range(self.algebra.dim):
            da = self.algebra.degrees[a]
            m = self.action[a]
            for j in range(self.dim):
                for i in np.nonzero(m[:, j])[0]:
                    assert self.degrees[int(i)] == self.degrees[j] + da, \
                        "action does not respect degrees"


def regular_module(alg):
    """The algebra as a graded right module over itself."""
    action = []
    for a in range(alg.dim):
        m = np.zeros((alg.dim, alg.dim), dtype=np.int64)
        for j in range(alg.dim):
            prod = alg.mult.get((j, a))
            if prod:
                for k, c in prod.items():
                    m[k, j] = c % alg.p
        action.append(m)
    return RightModule(alg, list(alg.degrees), action)


def shift_module(M, k):
    """M<k>: the component in degree i is the old component in degree
    i - k, so every basis degree goes up by k."""
    return RightModule(M.algebra, [d + k for d in M.degrees],
                       [m.copy() for m in M.action])


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
    # batch coordinate extraction: for echelon rows the coordinates of an
    # ambient vector are just its pivot entries, provided it lies in the
    # span; verify membership wholesale afterwards
    pivarr = np.array(piv, dtype=np.int64)
    action = []
    bt = basis.T
    for a in range(M.algebra.dim):
        img = (M.action[a] @ bt) % p          # dim x k
        sub = img[pivarr, :] % p if k else \
            np.zeros((0, 0), dtype=np.int64)
        if not np.array_equal((bt @ sub) % p, img):
            raise StructuralError("rows are not closed under the action")
        action.append(sub)
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
    keep = np.setdiff1d(np.arange(dim), piv)
    # e_c for a pivot column c of row i is -sum over kept columns c' of
    # red[i, c'] e_c'
    proj = np.eye(dim, dtype=np.int64)[keep]
    proj[:, piv] = (-red[:, keep].T) % p
    deg = np.array(M.degrees, dtype=np.int64)
    if np.any((proj[:, piv] != 0) & (deg[keep][:, None] != deg[piv])):
        raise StructuralError("quotient reduction is not graded")
    action = [la.mod_matmul(proj, M.action[a][:, keep], p)
              for a in range(M.algebra.dim)]
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


def _right_products(A, X):
    """X e_b for every basis index b of A in turn, one (rows of X) x dim
    matrix at a time, accumulated from the sparse structure constants."""
    p = A.p
    cols = {int(m) for m in np.flatnonzero(X.any(axis=0))}
    terms = [[] for _ in range(A.dim)]     # b -> [(m, k, c)] with m in cols
    for (m, b), prod in A.mult.items():
        if m in cols:
            terms[b].extend((m, k, c) for k, c in prod.items())
    for b in range(A.dim):
        out = np.zeros((A.dim, X.shape[0]), dtype=np.int64)
        if terms[b]:
            m, k, c = np.array(terms[b], dtype=np.int64).T
            np.add.at(out, k, (X[:, m] * (c % p)).T % p)
        yield out.T % p


def idempotent_slice(A, e):
    """e A, for an idempotent vector e of A, as a right A-module built from
    the structure constants (no regular module is formed).

    Returns (module, rows, pivots): the module's basis is the RREF basis
    `rows` of e A in A's coordinates, so the coordinates of a vector of
    e A are its entries in the pivot columns."""
    p = A.p
    e = np.mod(np.asarray(e, dtype=np.int64), p)
    spans = np.concatenate(list(_right_products(A, e[None])))
    red, piv = la.mod_rref(spans[spans.any(axis=1)], p)
    rows = red[: len(piv)]
    deg = np.array(A.degrees)
    if np.any((rows != 0) & (deg != deg[piv][:, None])):
        raise StructuralError("e A is not spanned by homogeneous rows")
    # a vector lies in the span of RREF rows iff it vanishes off their
    # support and agrees there with (pivot entries) @ rows
    outside = ~rows.any(axis=0)
    free = ~outside
    free[piv] = False
    action = []
    for img in _right_products(A, rows):
        coords = img[:, piv]
        if np.any(img[:, outside]) or not np.array_equal(
                img[:, free], la.mod_matmul(coords, rows[:, free], p)):
            raise StructuralError("e A is not closed under the action")
        action.append(coords.T)
    return RightModule(A, deg[piv].tolist(), action), rows, piv


def direct_sum(modules, shifts):
    """The block-diagonal direct sum of modules over one algebra, the i-th
    summand shifted up by shifts[i]."""
    degrees = [d + k for M, k in zip(modules, shifts) for d in M.degrees]
    ends = np.cumsum([M.dim for M in modules]).tolist()
    action = []
    for a in range(modules[0].algebra.dim):
        m = np.zeros((len(degrees), len(degrees)), dtype=np.int64)
        for M, end in zip(modules, ends):
            m[end - M.dim: end, end - M.dim: end] = M.action[a]
        action.append(m)
    return RightModule(modules[0].algebra, degrees, action)


def restrict_module(N, B, emb):
    """N restricted along an algebra map B -> N.algebra given by the matrix
    emb (column b is the image of e_b): e_b acts as its image."""
    p = B.p
    action = []
    for a in range(B.dim):
        avec = emb[:, a] % p
        m = np.zeros((N.dim, N.dim), dtype=np.int64)
        for k in np.nonzero(avec)[0]:
            m = (m + int(avec[k]) * N.action[int(k)]) % p
        action.append(m)
    return RightModule(B, list(N.degrees), action)


# product entries folded into the running RREF at once by span_under_action
_SPAN_BUDGET = 2 ** 16


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
    step = max(1, _SPAN_BUDGET // rows.size)
    for a0 in range(0, M.algebra.dim, step):
        stack = np.concatenate(
            [red] + [la.mod_matmul(rows, M.action[a].T, p)
                     for a in range(a0, min(a0 + step, M.algebra.dim))])
        r, piv = la.mod_rref(stack[stack.any(axis=1)], p)
        red = r[: len(piv)]
    return red, piv


def module_generators(M):
    """Minimal-ish generating set of M over its algebra: pairs (vector,
    idempotent slot), found greedily by increasing degree.  Each generator
    g satisfies g = g e_h for its slot h."""
    p = M.algebra.p
    idems = _idempotent_vectors(M.algebra)
    order = sorted(range(M.dim), key=lambda i: (M.degrees[i], i))
    span = (np.zeros((0, M.dim), dtype=np.int64), [])
    gens = []

    def outside(v):
        # v lies in the span of RREF rows iff v - v[piv] @ rows vanishes
        red, piv = span
        return np.any((v - la.mod_matmul(v[None, piv], red, p)[0]) % p)

    for k in order:
        v = np.eye(1, M.dim, k, dtype=np.int64)[0]
        if not outside(v):
            continue
        for h, evec in enumerate(idems):
            g = M.act_vec(v, evec)
            if np.any(g) and outside(g):
                gens.append((g, h))
                span = span_under_action(M, g, span)
    return gens, idems


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
    gens, idems = module_generators(M)
    proj_rows = {h: idempotent_slice(alg, idems[h])[1]
                 for h in {h for _, h in gens}}
    pi_cols = [M.act_vec(g, beta) for g, h in gens for beta in proj_rows[h]]
    pi = np.array(pi_cols, dtype=np.int64).T % p if pi_cols else \
        np.zeros((M.dim, 0), dtype=np.int64)
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
        img = N.act_vec(np.eye(N.dim, dtype=np.int64), idems[h]).T
        r, piv = la.mod_rref(img[img.any(axis=1)], p)
        nbases[h] = r[: len(piv)]

    # wbeta[h][t, u, :] = w_u . beta_t = sum_a B[t, a] * (w_u . e_a), for
    # the basis w of N e_h and the cover rows beta (rows of B) of e_h A
    wbeta = {}
    for h, W in nbases.items():
        aw = np.stack([la.mod_matmul(W, N.action[a].T, p)
                       for a in range(alg.dim)])
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
    sols = la.mod_nullspace_chunked(eqs, p) if len(eqs) else \
        np.eye(total_u, dtype=np.int64)

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
    for d in np.unique(gap).tolist():
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
            assert total == M.dim, "Fitting pieces do not fill the module"
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
    shifts = {min(dn) - min(dm)}
    for k in shifts:
        if {d + k: v for d, v in dm.items()} != dn:
            continue
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
            if any(is_iso_up_to_shift(s, q) is not None
                   for q in found.values()):
                continue
            if any(is_iso_up_to_shift(s, q) is not None for q in fresh):
                continue
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
    assert sol is not None
    out = {}
    for k, v in zip(keys, sol):
        assert v.denominator == 1 and v > 0, \
            "simple dimensions are not positive integers; " \
            "split-endomorphism assumption violated"
        out[k] = int(v)
    return out


# ---------------------------------------------------------------------------
# scaffolding functors


@dataclass
class UngradedModule:
    dim: int
    action: list


def v_forget(M):
    """Forget the grading; the underlying space and action are unchanged."""
    return UngradedModule(M.dim, [m.copy() for m in M.action])


@dataclass
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
            assert d.shape == (len(tgt), len(src))
            if (i + 1) in self.differentials:
                dd = (self.differentials[i + 1] @ d) % self.p
                assert not np.any(dd), "d^2 != 0"

    def shift_internal(self, k):
        """<k>: all internal degrees go up by k."""
        return GradedComplex(
            {i: [d + k for d in degs] for i, degs in self.components.items()},
            {i: m.copy() for i, m in self.differentials.items()}, self.p)


@dataclass
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
    degree n = i + j; the differential is inherited blockwise.  Satisfies
    v_bar(M<1>) = v_bar(M)[-1]."""
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
                    assert n2 == n + 1, "differential is not graded"
                    diffs[n][trow, scol] = dmat[tidx, sidx] % cx.p
    return DgModule(dict(sorted(comps.items())), diffs, cx.p)


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
    idx = [i for i in range(A.dim) if A.degrees[i] == 0]
    back = {b: k for k, b in enumerate(idx)}
    mult = {}
    for (i, j), prod in A.mult.items():
        if i in back and j in back:
            entry = {back[k]: c for k, c in prod.items() if c % A.p}
            bad = [k for k in prod if k not in back and prod[k] % A.p]
            assert not bad, "degree-zero part is not closed"
            mult[(back[i], back[j])] = entry
    unit = {back[k]: c for k, c in A.unit.items()}
    sub = GradedAlgebra(A.p, [0] * len(idx), mult, unit)
    return sub, idx


def _component_idempotents(A0):
    """Orthogonal idempotents from a right-module decomposition of the
    regular module of a semisimple algebra: the components of 1 across the
    summand row spans."""
    reg = regular_module(A0)
    pieces = decompose_module_with_rows(reg)
    one = A0.unit_vector()
    cols = np.concatenate([rows.T for _, rows in pieces], axis=1)
    sol = la.mod_solve(cols, one, A0.p)
    assert sol is not None, "unit not reached by summand spans"
    idems = []
    off = 0
    for s, rows in pieces:
        comp = (rows.T @ sol[off: off + s.dim]) % A0.p
        off += s.dim
        idems.append(comp)
    for i, e in enumerate(idems):
        assert np.array_equal(A0.mul_vec(e, e), e % A0.p), \
            "component of 1 is not idempotent"
        for j, f in enumerate(idems):
            if i != j:
                assert not np.any(A0.mul_vec(e, f)), \
                    "components of 1 are not orthogonal"
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
    rows = [np.zeros((0, M.dim), dtype=np.int64)]
    for a in range(A.dim):
        if A.degrees[a] > 0:
            r = M.action[a].T % A.p
            rows.append(r[r.any(axis=1)])
    return np.concatenate(rows)


def _tops_and_cover(A, M, idempotent_vectors):
    """Minimal cover generators of M: witnesses grouped per (idempotent j,
    degree k), chosen greedily against the radical span.  Idempotent
    vectors live in A-coordinates; requires A_0 semisimple so that the
    radical is the positive part."""
    p = A.p
    # choose generators: per degree, per idempotent, greedily against the
    # span under right multiplication by degree-zero elements
    gens = []
    zero_idx = [a for a in range(A.dim) if A.degrees[a] == 0]
    chosen_span = la._Echelon(M.dim, p)
    # saturate the radical into the span so tops drive the choice
    for v in _radical_rows(A, M):
        chosen_span.insert(v)
    for j, evec in enumerate(idempotent_vectors):
        for x in range(M.dim):
            base = np.zeros(M.dim, dtype=np.int64)
            base[x] = 1
            v = M.act_vec(base, evec)
            red, _ = chosen_span.reduce(v)
            if not np.any(red):
                continue
            gens.append((v.copy(), j, M.degrees[x]))
            for a in zero_idx:
                chosen_span.insert((M.action[a] @ v) % p)
            chosen_span.insert(v)
    return gens


def minimal_resolution(A, M, idempotent_vectors, slices, steps):
    """Minimal graded projective resolution data for M, up to `steps`
    homological degrees; `slices` holds idempotent_slice(A, e) for each of
    the idempotent vectors.  Returns a list, per homological degree i, of
    the multiset of (idempotent index, generator degree) of P^i."""
    p = A.p
    out = []
    cur = M
    for _ in range(steps + 1):
        if cur.dim == 0:
            out.append([])
            break
        gens = _tops_and_cover(A, cur, idempotent_vectors)
        out.append(sorted((j, k) for _, j, k in gens))
        # the cover: the sum of the q_j A<k>, row b of q_j A going to v b
        cols = [cur.act_vec(v, b) for v, j, _ in gens for b in slices[j][1]]
        cover_mat = np.array(cols, dtype=np.int64).T % p \
            if cols else np.zeros((cur.dim, 0), dtype=np.int64)
        ker = la.mod_nullspace(cover_mat, p)
        if ker.shape[0] == 0:
            break
        # the kernel, as a submodule of the cover's source
        cover = direct_sum([slices[j][0] for _, j, _ in gens],
                           [k for _, _, k in gens])
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
    rad0 = la.algebra_radical(
        [[_mult_row(A0, i, j) for j in range(A0.dim)]
         for i in range(A0.dim)], A0.p)
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


def _mult_row(A, i, j):
    prod = A.mult.get((i, j), {})
    row = [0] * A.dim
    for k, c in prod.items():
        row[k] = c % A.p
    return row


def koszul_module_check(A, M, cap=None):
    """Is M a Koszul module over A (Ext^i(M, simples) concentrated in
    internal degree -i up to the cap)?  Requires koszulity_check to have
    passed for A; the module's generators are first normalized to sit in
    degree 0."""
    if cap is None:
        cap = 2 * max(max(A.degrees), 1)
    big_idems = _simple_idempotents(A, *_degree_zero_subalgebra(A))
    gens = _tops_and_cover(A, M, big_idems)
    if gens:
        base = min(k for _, _, k in gens)
        M = shift_module(M, -base)
    slices = [idempotent_slice(A, e) for e in big_idems]
    res = minimal_resolution(A, M, big_idems, slices, cap)
    return all(all(k == i for _, k in layer)
               for i, layer in enumerate(res))


def _span_coordinates(items, p):
    """For basis matrices given in order as (key, matrix): a function
    coords(key, mat) returning the coefficients {basis index: c} of mat in
    the span of the basis matrices with that key.  Raises StructuralError
    if mat is not in that span."""
    ech = {}
    for idx, (key, mat) in enumerate(items):
        if key not in ech:
            ech[key] = (la._Echelon(mat.size, p), [])
        ech[key][0].insert(mat.reshape(-1))
        ech[key][1].append(idx)

    def coords(key, mat):
        if key not in ech:
            if np.any(mat):
                raise StructuralError("composite leaves the hom space")
            return {}
        e, idxs = ech[key]
        red, combo = e.reduce(mat.reshape(-1))
        if np.any(red):
            raise StructuralError("composite leaves the hom space")
        # reduce() leaves mat = red - combo . inserted, so coefficients
        # of the inserted basis are -combo
        return {idxs[k]: int((-combo[k]) % p)
                for k in range(len(combo)) if combo[k] % p}
    return coords


def ext_algebra_of_projectives(E, projectives):
    """The regraded algebra with n-th component Hom(P, P<-n>), P the sum
    of the normalized graded projectives: the degree-n part consists of
    the maps raising the internal grading by n, and multiplication is
    composition.  Non-negativity of this grading is what the projective
    normalization is for."""
    return _ext_algebra(E, projectives)[0]


def _ext_algebra(E, projectives):
    """ext_algebra_of_projectives, with its basis: per basis index, (src
    block, tgt block, n, matrix), the blocks in sorted key order."""
    keys = sorted(projectives, key=str)
    mods = [projectives[k] for k in keys]
    p = E.p
    basis = []       # (src block, tgt block, n, matrix)
    for si, src in enumerate(mods):
        for ti, tgt in enumerate(mods):
            for d, mats in sorted(hom_all(src, tgt).items()):
                for phi in mats:
                    basis.append((si, ti, d, phi))
    degrees = [n for _, _, n, _ in basis]
    if min(degrees) < 0:
        raise StructuralError("projective regrading has negative part")
    coords = _span_coordinates(
        (((si, ti, n), phi) for si, ti, n, phi in basis), p)
    mult = {}
    for i, (si, ti, n1, phi) in enumerate(basis):
        for j, (sj, tj, n2, psi) in enumerate(basis):
            # product e_i e_j = phi after psi (phi o psi): needs tj == si
            if tj != si:
                continue
            comp = (phi @ psi) % p
            if not np.any(comp):
                continue
            entry = coords((sj, ti, n1 + n2), comp)
            if entry:
                mult[(i, j)] = entry
    unit = {}
    for idx, (si, ti, n, phi) in enumerate(basis):
        if si == ti and n == 0 and \
                np.array_equal(phi % p, np.eye(phi.shape[0],
                                               dtype=np.int64)):
            unit[idx] = 1
    lab = [f"{keys[si]}->{keys[ti]}:{n}" for si, ti, n, _ in basis]
    alg = GradedAlgebra(p, degrees, mult, unit, labels=lab)
    if sum(unit.values()) == 0:
        # identities may not be literal basis vectors; solve for 1 instead
        alg = _solve_unit(alg, basis, keys, p)
    return alg, basis


def upsilon_module(E, projectives, M):
    """The module over the regraded Ext algebra attached to a graded
    E-module M: its degree-n part is Hom(P, M<-n>) (maps raising internal
    degree by n), with the regraded algebra acting by precomposition.

    Returns (K, module) with K = ext_algebra_of_projectives(E,
    projectives) and the module a RightModule over K."""
    mods = [projectives[k] for k in sorted(projectives, key=str)]
    p = E.p
    K, kbasis = _ext_algebra(E, projectives)
    # basis of the module: per source block si, homs P_si -> M by degree
    mbasis = [(si, d, psi) for si, src in enumerate(mods)
              for d, mats in sorted(hom_all(src, M).items()) for psi in mats]
    coords = _span_coordinates((((si, d), psi) for si, d, psi in mbasis), p)
    # K basis entries are (src block, tgt block, n, matrix kappa);
    # psi: P_ti -> M acts by kappa: P_si -> P_ti to give psi o kappa
    action = []
    for (si, ti, n, kappa) in kbasis:
        m = np.zeros((len(mbasis), len(mbasis)), dtype=np.int64)
        for j, (sj, dj, psi) in enumerate(mbasis):
            if sj != ti:
                continue
            comp = la.mod_matmul(psi, kappa, p)
            for k, c in coords((si, dj + n), comp).items():
                m[k, j] = c
        action.append(m)
    return K, RightModule(K, [d for _, d, _ in mbasis], action)


def _solve_unit(alg, basis, keys, p):
    # the identity of each End block expressed in the chosen basis
    unit = {}
    by_block = {}
    for idx, (si, ti, n, phi) in enumerate(basis):
        if si == ti and n == 0:
            by_block.setdefault(si, []).append((idx, phi))
    for si, items in by_block.items():
        dim = items[0][1].shape[0]
        cols = np.array([phi.reshape(-1) for _, phi in items],
                        dtype=np.int64).T
        sol = la.mod_solve(cols, np.eye(dim, dtype=np.int64).reshape(-1), p)
        assert sol is not None, "identity not in Hom(P, P) degree 0"
        for (idx, _), c in zip(items, sol):
            if c % p:
                unit[idx] = int(c % p)
    alg.unit = unit
    return alg
