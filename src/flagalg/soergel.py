"""
The coinvariant algebra of a Weyl group over a prime field, with the
doubled grading, its parabolic invariant subalgebras, Bott-Samelson
modules, and the graded endomorphism algebras built from them.

The coinvariant algebra C is the polynomial algebra S on the root
lattice modulo the ideal I generated by positive-degree invariants.  It
is computed degree by degree with exact linear algebra over F_l, on the
monomial basis of each S_d: multiplication by a variable is a 0/1 matrix
S_d -> S_{d+1}, the simple reflections on S_d follow from those on
S_{d-1} through s_i(a_j m) = s_i(a_j) s_i(m), and the invariants S^W_d
are the common kernel of the s_i - 1.  As S_d = sum_i a_i S_{d-1},
I_d = S^W_d + sum_i a_i I_{d-1}; its row echelon form gives the basis of
C_d (the monomials off its pivots), the reduction S_d -> C_d and the
lift C_d -> S_d, and every table of C (generator multiplication, the
reflections, the Demazure operators) is reduction . operator . lift.
The standing assumption l > (Coxeter number) keeps this the right size,
and it is certified: the Hilbert series is the Poincare polynomial of W
(so dim C = |W|), dim C^s = |W| / 2 for each simple s, and each
(1 - s_i) f is divisible by a_i.  Generators sit in degree 2.

For a word f = (s, t, ..., r) the module D_f is C tensored over the
s-invariants with C tensored over the t-invariants with ... with the
trivial module; the splitting C = C^s + delta_s C^s (with the Demazure
operator of s sending delta_s to 1) makes each induction step an explicit
doubling of bases, certified by the generator actions commuting.

E = End_C(D), for D the sum of the D_f over the distinguished family of
words, is assembled from the Hom spaces between the D_f.  Each is solved
from a presentation of its source, cached on C: the generators complete,
degree by degree, the image of the positive-degree part of the algebra,
and the relations are the kernel of the span of the c g over its
homogeneous basis c and the generators g.  A map is fixed by its values
on the generators, so each degree is one small system in those values,
solved by galgebra's _solve_homs, the Hom solver of every module
category; every map found is certified to be a homogeneous module map,
and the basis returned is the canonical one of the Hom space.  The wall
algebra End_{C^s}(D) is the same computation over the invariant
subalgebra, and the inclusion of the first into the second is the
identity on matrices.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import _linalg as la
from .coxeter import CARTAN, COXETER_NUMBER, LETTERS, build_group, \
    distinguished_family
from .galgebra import GradedAlgebra, StructuralError, _block_products, \
    _relations_and_section, _solve_homs, idempotent_slice, restrict_module

__all__ = [
    "check_ell", "CoinvariantAlgebra", "BSModule", "EndAlgebraData",
    "coinvariant_algebra", "bott_samelson", "graded_hom",
    "endomorphism_algebra", "wall_algebra", "wall_row_block_modules",
    "regular_slices", "hom_dims_to_regular", "bimodule_shift_check",
]


def _monomials(rank, degree):
    """Exponent tuples of total degree `degree`, in lex order."""
    return [e for e in product(range(degree + 1), repeat=rank)
            if sum(e) == degree]


def _divide_by_variable(p, up):
    """The columns of p, polynomials on the monomials of S_d, divided by
    the variable a, where up[k] is the position of a m in S_d for the
    k-th monomial m of S_{d-1}: an index gather, certified exact."""
    rest = np.ones(len(p), dtype=bool)
    rest[up] = False
    if p[rest].any():
        raise StructuralError("polynomial is not divisible by the variable")
    return p[up]


def check_ell(cartan_type, ell):
    """The precondition on (type, ell) of every Soergel computation: a
    supported type, ell > Coxeter number, (ell - 1)^2 < 2^63 for exact
    int64 elimination, and ell prime; ell = None is refused as too small."""
    if cartan_type not in CARTAN:
        raise ValueError(f"unsupported Cartan type {cartan_type!r}")
    h = COXETER_NUMBER[cartan_type]
    if ell is None or ell <= h:
        raise ValueError(f"need a prime ell > Coxeter number ({h}) for "
                         f"type {cartan_type}")
    if (ell - 1) ** 2 >= 2**63:
        raise OverflowError("modulus too large for int64 elimination")
    if not la.is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")


class CoinvariantAlgebra:
    """Coinvariant algebra of the given Cartan type over F_ell.

    Grading is doubled: a polynomial of degree d is graded in degree 2d.
    Per polynomial degree d, `basis[d]` lists the monomials that form a
    basis of C_d, and elements are coordinate vectors on it;
    `gen_mult[i][d]`, `refl[i][d]` and `demazure[i][d]` are the matrices
    of a_i: C_d -> C_{d+1}, s_i: C_d -> C_d and the Demazure operator
    C_d -> C_{d-1}.
    """

    def __init__(self, cartan_type, ell):
        check_ell(cartan_type, ell)
        self.cartan_type = cartan_type
        self.ell = ell
        self.group = build_group(cartan_type)
        self.rank = rank = self.group.rank
        cartan = CARTAN[cartan_type]
        self.top = top = self.group.longest_element.length

        # S_d on its monomials, d <= top + 1: up[d][i][k] is the position
        # in S_{d+1} of a_i times the k-th monomial of S_d, and x[d][i] is
        # multiplication by a_i, S_d -> S_{d+1}
        mons = [_monomials(rank, d) for d in range(top + 2)]
        self._position = {m: k for ms in mons for k, m in enumerate(ms)}
        up = [[[self._position[tuple(e + (k == i) for k, e in enumerate(m))]
                for m in mons[d]] for i in range(rank)]
              for d in range(top + 1)]
        x = [[np.eye(len(mons[d + 1]), dtype=np.int64)[:, u] for u in up[d]]
             for d in range(top + 1)]

        # s_i on S_d, from s_i(a_j m) = (a_j - cartan[i][j] a_i) s_i(m)
        sigma = [[np.ones((1, 1), dtype=np.int64)] * rank]
        for d in range(1, top + 2):
            sigma.append([])
            for i in range(rank):
                s = np.zeros((len(mons[d]),) * 2, dtype=np.int64)
                for j in range(rank):
                    s[:, up[d - 1][j]] = (x[d - 1][j] - cartan[i][j]
                                          * x[d - 1][i]) @ sigma[d - 1][i]
                sigma[d].append(s % ell)

        # I_d = S^W_d + sum_i a_i I_{d-1}, with S^W_d the common kernel of
        # the s_i - 1; the pivots of its echelon form are the monomials
        # that reduce, the others the basis of C_d
        self.basis, self._reduction, lift = {}, {}, {}
        ideal = np.zeros((0, 1), dtype=np.int64)
        for d in range(top + 2):
            n = len(mons[d])
            if d:
                inv = la.mod_nullspace(np.concatenate(
                    [s - np.eye(n, dtype=np.int64) for s in sigma[d]]), ell)
                ideal = np.concatenate([inv] + [ideal @ a.T for a in x[d - 1]])
            red, piv = la.mod_rref(ideal, ell)
            ideal = red[:len(piv)]
            keep = np.ones(n, dtype=bool)
            keep[piv] = False
            self.basis[d] = [m for m, k in zip(mons[d], keep) if k]
            self._reduction[d] = la.mod_rref_nullspace(ideal, piv, ell)
            lift[d] = np.eye(n, dtype=np.int64)[:, keep]

        dims = [len(self.basis[d]) for d in range(top + 2)]
        if dims[top + 1]:
            raise StructuralError("coinvariant algebra too large")
        counts = Counter(w.length for w in self.group.elements)
        if any(dims[d] != counts.get(d, 0) for d in range(top + 1)):
            raise StructuralError(
                "Hilbert series does not match the Poincare polynomial")
        self.dims = dims[: top + 1]

        # the tables on C are reduction . operator . lift (one degree past
        # the top, where everything is zero-sized, to keep edge cases out
        # of the induction)
        red = self._reduction
        self.gen_mult, self.refl, self.demazure = [], [], []
        for i in range(rank):
            self.gen_mult.append({d: red[d + 1] @ x[d][i] @ lift[d]
                                  for d in range(top + 1)})
            moved = [sigma[d][i] @ lift[d] for d in range(top + 2)]
            self.refl.append({d: la.mod_matmul(red[d], moved[d], ell)
                              for d in range(top + 2)})
            # (1 - s_i) f is divisible by a_i, and the quotient reduces
            self.demazure.append({0: np.zeros((0, 1), dtype=np.int64)})
            for d in range(1, top + 2):
                quot = _divide_by_variable((lift[d] - moved[d]) % ell,
                                           up[d - 1][i])
                self.demazure[i][d] = la.mod_matmul(red[d - 1], quot, ell)

        self._delta = {}
        self._inv_basis = {}
        self._family = None
        self._bs_cache = {}
        self._presentations = {}
        self._end_cache = {}

    # -- elements ------------------------------------------------------

    def product(self, u, d1, v, d2):
        """Coordinates in C_{d1+d2} of the product of u in C_{d1} and v
        in C_{d2}: products of basis monomials add exponents, and each is
        reduced into C_{d1+d2}."""
        cols = [self._position[tuple(p + q for p, q in zip(a, b))]
                for a in self.basis[d1] for b in self.basis[d2]]
        red = self._reduction[d1 + d2]
        table = red[:, cols].reshape(len(red), len(u), len(v))
        return la.mod_matmul(la.mod_matmul(table, v, self.ell), u, self.ell)

    def monomial_action(self, module_gens, mon):
        """Action matrix of a monomial on a module given its generator
        action matrices (which must commute)."""
        size = module_gens[0].shape[0]
        out = np.eye(size, dtype=np.int64)
        for i, e in enumerate(mon):
            for _ in range(e):
                out = la.mod_matmul(module_gens[i], out, self.ell)
        return out

    def element_action(self, module_gens, coords, d):
        """Action of the degree-d element with the given coordinates."""
        size = module_gens[0].shape[0]
        out = np.zeros((size, size), dtype=np.int64)
        for k, c in enumerate(coords):
            if c % self.ell:
                out = (out + int(c)
                       * self.monomial_action(module_gens,
                                              self.basis[d][k])) % self.ell
        return out

    def delta(self, i):
        """Degree-1 element with Demazure_i(delta) = 1, chosen as the first
        basis monomial with invertible image, rescaled."""
        if i not in self._delta:
            dm = self.demazure[i][1]
            col = next((c for c in range(dm.shape[1])
                        if dm[0, c] % self.ell), None)
            if col is None:
                # cannot happen for ell > Coxeter number
                raise ValueError(
                    "no degree-2 element with invertible Demazure image; "
                    "the splitting C = C^s + delta C^s fails")
            inv = pow(int(dm[0, col]), self.ell - 2, self.ell)
            v = np.zeros(len(self.basis[1]), dtype=np.int64)
            v[col] = inv
            self._delta[i] = v
        return self._delta[i]

    def invariants(self, i):
        """Per polynomial degree, rows spanning the s_i-invariants of C."""
        if i not in self._inv_basis:
            out = {}
            for d in range(self.top + 1):
                m = (self.refl[i][d] - np.eye(len(self.basis[d]),
                                              dtype=np.int64)) % self.ell
                out[d] = la.mod_nullspace(m, self.ell)
            total = sum(v.shape[0] for v in out.values())
            if total != len(self.group.elements) // 2:
                raise StructuralError("dim C^s != |W| / 2")
            self._inv_basis[i] = out
        return self._inv_basis[i]

    def family(self):
        if self._family is None:
            fam = distinguished_family(self.group)
            self._family = {x: fam[x] for x in self.group.elements}
        return self._family


def coinvariant_algebra(cartan_type, ell):
    return CoinvariantAlgebra(cartan_type, ell)


@dataclass(eq=False)
class BSModule:
    """Bott-Samelson module: basis degrees (doubled grading) and one
    action matrix per algebra generator."""

    C: CoinvariantAlgebra
    word: tuple
    degrees: list
    gen_action: list

    @property
    def dim(self):
        return len(self.degrees)

    def dims_by_degree(self):
        return dict(sorted(Counter(self.degrees).items()))


def bott_samelson(C, word):
    """D_f for the word f (a string over the simple-reflection letters or a
    tuple of generator indices), built by induction from the right."""
    if isinstance(word, str):
        word = () if word in ("", "e") else \
            tuple(LETTERS.index(c) for c in word)
    key = tuple(word)
    if key in C._bs_cache:
        return C._bs_cache[key]
    elif not key:
        mod = BSModule(C, key, [0],
                       [np.zeros((1, 1), dtype=np.int64)
                        for _ in range(C.rank)])
    else:
        s, rest = key[0], key[1:]
        inner = bott_samelson(C, rest)
        n = inner.dim
        ell = C.ell
        delta = C.delta(s)
        degrees = list(inner.degrees) + [d + 2 for d in inner.degrees]
        gen_action = []
        for i in range(C.rank):
            # alpha_i = a + delta_s c with c a scalar and a invariant
            alpha = C.gen_mult[i][0][:, 0]
            c = int((C.demazure[s][1] @ alpha)[0]) % ell
            a = (alpha - c * delta) % ell
            # alpha_i delta_s = a2 + delta_s c2 with a2, c2 invariant
            ad = C.product(alpha, 1, delta, 1)
            c2 = la.mod_matmul(C.demazure[s][2], ad, ell)
            a2 = (ad - C.product(delta, 1, c2, 1)) % ell
            m = np.zeros((2 * n, 2 * n), dtype=np.int64)
            m[:n, :n] = C.element_action(inner.gen_action, a, 1)
            m[n:, :n] = c * np.eye(n, dtype=np.int64)
            m[:n, n:] = C.element_action(inner.gen_action, a2, 2)
            m[n:, n:] = C.element_action(inner.gen_action, c2, 1)
            gen_action.append(m)
        mod = BSModule(C, key, degrees, gen_action)
    # commuting actions certify that this is a module over C
    for i in range(C.rank):
        for j in range(i + 1, C.rank):
            ab = la.mod_matmul(mod.gen_action[i], mod.gen_action[j], C.ell)
            ba = la.mod_matmul(mod.gen_action[j], mod.gen_action[i], C.ell)
            if not np.array_equal(ab, ba):
                raise StructuralError("generator actions do not commute")
    C._bs_cache[key] = mod
    return mod


def _generators(acts, p):
    """The coordinates that complete, degree by degree, the image of the
    positive-degree part of acts (all but the unit, its first matrix)."""
    image = la.mod_rref(acts[1:].transpose(0, 2, 1).reshape(
        -1, acts.shape[1]), p)[1]
    return [k for k in range(acts.shape[1]) if k not in image]


def _presentation(C, M, wall):
    """The presentation of M over C, or over C^s for a generator index
    `wall`, cached on C: (acts, gens, span, rel, sect).  acts stacks the
    action on M of the homogeneous basis c of the algebra, the unit first;
    the columns of span are the c g, generator-major, zero ones kept (c g =
    0 is a relation); rel spans its kernel and span @ sect = 1."""
    key = (M.word, wall)
    if key not in C._presentations:
        ell = C.ell
        rows = C.invariants(wall) if wall is not None else \
            {d: np.eye(n, dtype=np.int64) for d, n in enumerate(C.dims)}
        acts = np.array([C.element_action(M.gen_action, row, d)
                         for d in range(C.top + 1) for row in rows[d]])
        gens = _generators(acts, ell)
        span = acts[:, :, gens].transpose(1, 2, 0).reshape(M.dim, -1)
        C._presentations[key] = (acts, gens, span,
                                 *_relations_and_section(span, ell))
    return C._presentations[key]


def graded_hom(C, M, N, wall=None):
    """Graded dimensions {degree: dim} of module maps M -> N, over C, or
    over C^s when `wall` is a generator index."""
    basis = graded_hom_basis(C, M, N, wall)
    return {d: len(v) for d, v in sorted(basis.items()) if v}


def graded_hom_basis(C, M, N, wall=None):
    """Per degree-shift d, a basis of maps M -> N raising degree by d,
    as dim(N) x dim(M) matrices, over C or over C^s for a generator index
    `wall`.  The maps come from galgebra's _solve_homs, the one Hom solver
    of flagalg, which certifies each of them: the value x_j on a
    generator g_j of M ranges over the coordinates of N of degree
    deg g_j + d, and c x_j is acts[c] applied to it.  The basis is the
    canonical one: on the entries of degree d in row-major order, the
    reduced echelon form of the maps with the columns reversed, which puts
    a 1 at each map's last nonzero entry and zeros at the others' (what a
    nullspace over all entries returns)."""
    ell = C.ell
    _, gens, span, rel, sect = _presentation(C, M, wall)
    acts = _presentation(C, N, wall)[0]
    ndeg, mdeg = np.array(N.degrees), np.array(M.degrees)
    homs = _solve_homs(span, rel, sect, [acts] * len(gens),
                       [ndeg - mdeg[g] for g in gens],
                       np.subtract.outer(ndeg, mdeg), ell)
    out = {}
    for d, maps in homs.items():
        # the maps are independent (x_j is the value at g_j); their
        # entries in use, last first, give the canonical basis
        un, um = (i[::-1] for i in np.nonzero(maps.any(axis=0)))
        mats = np.zeros(maps.shape, dtype=np.int64)
        mats[:, un, um] = la.mod_rref(maps[:, un, um], ell)[0][::-1]
        out[d] = list(mats)
    return out


@dataclass(eq=False)
class EndAlgebraData:
    """An endomorphism algebra End(D) together with its bookkeeping: the
    underlying GradedAlgebra, the modules D_f, the block/degree layout of
    the basis, and the idempotent indices."""

    algebra: GradedAlgebra
    flavor: str                  # "full" or "wall"
    wall: object                 # generator index for the wall flavor
    C: CoinvariantAlgebra
    words: list                  # family words, fixed order
    modules: dict                # word -> BSModule
    basis_blocks: list           # per basis index: (f_to, f_from, degree)
    basis_mats: list             # per basis index: matrix D_from -> D_to
    block_ranges: dict           # (f_to, f_from) -> range of basis indices


def _assemble_end_algebra(C, words, modules, wall=None):
    ell = C.ell
    flavor = "wall" if wall is not None else "full"
    basis_blocks = []
    basis_mats = []
    span = {}           # (f_to, f_from) -> range of basis indices
    idems = {}
    for ft in words:
        for fs in words:
            start = len(basis_blocks)
            homs = graded_hom_basis(C, modules[fs], modules[ft], wall)
            for d, mats in sorted(homs.items()):
                if ft == fs and d == 0:
                    # rebase so the identity is the first basis vector: the
                    # pivot columns of [I, mats...] are the maps that stay
                    # independent when inserted after it, in order
                    ident = np.eye(modules[ft].dim, dtype=np.int64)
                    cols = np.array([ident] + mats).reshape(len(mats) + 1, -1)
                    piv = la.mod_rref(cols.T, ell)[1]
                    if len(piv) != len(mats):
                        raise StructuralError(
                            "identity missing from End block")
                    idems[ft] = len(basis_blocks)
                    mats = [ident] + [mats[k - 1] for k in piv[1:]]
                basis_blocks += [(ft, fs, d)] * len(mats)
                basis_mats += mats
            span[(ft, fs)] = range(start, len(basis_blocks))
    degrees = [d for (_, _, d) in basis_blocks]
    blocks = {(ft, fs): (r.start, np.array(
        basis_mats[r.start:r.stop], dtype=np.int64).reshape(
            len(r), modules[ft].dim, modules[fs].dim))
        for (ft, fs), r in span.items()}
    # a map out of D_fs is read on the generators of its presentation
    gens = {fs: np.eye(modules[fs].dim, dtype=np.int64)[
        :, _presentation(C, modules[fs], wall)[1]] for fs in words}
    mult = _block_products(blocks, blocks, blocks, gens, ell)

    unit = {}
    for f in words:
        if f not in idems:
            raise StructuralError("identity missing from End block")
        if not np.array_equal(basis_mats[idems[f]],
                              np.eye(modules[f].dim, dtype=np.int64)):
            raise StructuralError("block rebasing failed")
        unit[idems[f]] = 1
    labels = [f"({t!r}<-{s!r}, deg {d})" for (t, s, d) in basis_blocks]
    alg = GradedAlgebra(ell, degrees, mult, unit, labels=labels)
    alg.idempotents = dict(idems)
    return EndAlgebraData(alg, flavor, wall, C, list(words), dict(modules),
                          basis_blocks, basis_mats, span)


def _family_words(C):
    fam = C.family()
    order = sorted(C.group.elements, key=lambda x: (x.length, x.word))
    return [fam[x] for x in order]


def endomorphism_algebra(C, words=None):
    """E = End_C(D) for D the direct sum of the D_f over the distinguished
    family (or an explicit list of words)."""
    if words is None:
        words = _family_words(C)
    key = ("full", tuple(words))
    if key in C._end_cache:
        return C._end_cache[key]
    modules = {w: bott_samelson(C, w) for w in words}
    data = _assemble_end_algebra(C, words, modules, wall=None)
    # evenness: the geometric shadow
    if any(d % 2 for d in data.algebra.degrees):
        raise StructuralError("endomorphism algebra has odd-degree part")
    C._end_cache[key] = data
    return data


def wall_algebra(C, s, words=None):
    """E^s = End_{C^s}(D) together with the degree-0 unital embedding of
    End_C(D) (a C-linear map is C^s-linear; the matrix is unchanged).

    Returns (wall EndAlgebraData, embedding matrix E -> E^s)."""
    if isinstance(s, str):
        s = LETTERS.index(s)
    if words is None:
        words = _family_words(C)
    key = ("wall", s, tuple(words))
    if key in C._end_cache:
        return C._end_cache[key]
    modules = {w: bott_samelson(C, w) for w in words}
    full = endomorphism_algebra(C, words)
    data = _assemble_end_algebra(C, words, modules, wall=s)
    ell = C.ell
    # each block of E, in the coordinates of the same block of E^s, read on
    # the C^s-generators of the source (a C-linear map is C^s-linear); the
    # blocks have disjoint rows and columns, so emb has the sum of ranks
    emb = np.zeros((data.algebra.dim, full.algebra.dim), dtype=np.int64)
    rank = 0
    for (ft, fs), rows in data.block_ranges.items():
        cols = full.block_ranges[(ft, fs)]
        if not cols:
            continue
        gens = _presentation(C, modules[fs], s)[1]
        coords = la.mod_coordinates(np.array(
            data.basis_mats[rows.start:rows.stop], dtype=np.int64).reshape(
                len(rows), modules[ft].dim, modules[fs].dim)[:, :, gens],
            ell, outside="embedding failed: C-map not C^s-map?")[0]
        emb[rows.start:rows.stop, cols.start:cols.stop] = block = coords(
            np.array(full.basis_mats[cols.start:cols.stop])[:, :, gens]).T
        rank += la.mod_rank(block, ell)
    if rank != full.algebra.dim:
        raise StructuralError("embedding not injective")
    # e_f maps to e_f
    for f in words:
        image = emb[:, full.algebra.idempotents[f]]
        if not np.array_equal(image, data.algebra.basis_vec(
                data.algebra.idempotents[f])):
            raise StructuralError("embedding moves an idempotent")
    C._end_cache[key] = (data, emb)
    return data, emb


# ---------------------------------------------------------------------------


def wall_row_block_modules(C, s):
    """The right E-modules e_f E^s: the slices e_f E^s restricted along
    the embedding E -> E^s."""
    e_data = endomorphism_algebra(C)
    wall_data, emb = wall_algebra(C, s)
    return _restricted_slices(e_data.algebra, wall_data.algebra, emb)


def _restricted_slices(E, Es, emb):
    """The slices e_f Es, one per idempotent of Es in order, restricted
    along the algebra map E -> Es with matrix emb."""
    return [restrict_module(idempotent_slice(Es, Es.basis_vec(i))[0], E, emb)
            for i in Es.idempotents.values()]


def regular_slices(e_data):
    """The right-module direct summands e_f E of the regular module (each
    built once, by idempotent_slice)."""
    E = e_data.algebra
    return [idempotent_slice(E, E.basis_vec(E.idempotents[f]))[0]
            for f in e_data.words]


def hom_dims_to_regular(X, e_data):
    """Graded dimensions of Hom over E from X into the regular module,
    computed blockwise over the row blocks e_f E of the target (each a
    right-module direct summand)."""
    from .galgebra import hom_dims
    out = {}
    for sub in regular_slices(e_data):
        for d, v in hom_dims(X, sub).items():
            out[d] = out.get(d, 0) + v
    return out


def bimodule_shift_check(C, s):
    """Check, at the level of graded dimensions, that Hom over E from E^s
    to E is E^s shifted up by 2.

    True iff {d: dim Hom_{-E}(E^s, E) in degree d} equals the graded
    dimensions of E^s<2>.  Both sides are computed blockwise: the source
    splits into the rows e_f E^s and the target into the rows e_g E (both
    right-module direct sums), which keeps every linear system small.
    The internal-hom grading is used: the degree-i component consists of
    the maps raising internal degree by i."""
    e_data = endomorphism_algebra(C)
    wall_data, emb = wall_algebra(C, s)
    homs = {}
    for X in wall_row_block_modules(C, s):
        for d, v in hom_dims_to_regular(X, e_data).items():
            homs[d] = homs.get(d, 0) + v
    es_dims = wall_data.algebra.dims_by_degree()
    shifted = {d + 2: v for d, v in es_dims.items()}
    return dict(sorted(homs.items())) == dict(sorted(shifted.items()))
