"""
The coinvariant algebra of a Weyl group over a prime field, with the
doubled grading, its parabolic invariant subalgebras, Bott-Samelson
modules, and the graded endomorphism algebras built from them.

The coinvariant algebra C is the polynomial algebra on the root lattice
modulo the ideal generated by positive-degree invariants, computed degree
by degree with exact linear algebra over F_l.  The standing assumption
l > (Coxeter number) keeps this the right size: dim C = |W| and the
Hilbert series is the doubled Poincare polynomial of W.  Generators sit
in degree 2.

For a word f = (s, t, ..., r) the module D_f is C tensored over the
s-invariants with C tensored over the t-invariants with ... with the
trivial module; the splitting C = C^s + delta_s C^s (with the Demazure
operator of s sending delta_s to 1) makes each induction step an explicit
doubling of bases.

E = End_C(D), for D the sum of the D_f over the distinguished family of
words, is assembled by solving for module maps degree by degree; the wall
algebra End_{C^s}(D) is the same computation over the invariant
subalgebra, and the inclusion of the first into the second is the
identity on matrices.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import _linalg as la
from .coxeter import CARTAN, COXETER_NUMBER, LETTERS, build_group, \
    distinguished_family
from .galgebra import GradedAlgebra, StructuralError, _block_products, \
    _coordinates, idempotent_slice, restrict_module

__all__ = [
    "CoinvariantAlgebra", "BSModule", "EndAlgebraData",
    "coinvariant_algebra", "demazure_matrix", "demazure_apply",
    "invariant_basis", "bott_samelson", "graded_hom",
    "endomorphism_algebra", "wall_algebra", "wall_row_block_modules",
    "regular_slices", "hom_dims_to_regular", "bimodule_shift_check",
]


def _monomials(rank, degree):
    """Exponent tuples of total degree `degree`, in a fixed (lex) order."""
    if degree == 0:
        return [(0,) * rank]
    out = set()
    for combo in combinations_with_replacement(range(rank), degree):
        e = [0] * rank
        for i in combo:
            e[i] += 1
        out.add(tuple(e))
    return sorted(out)


class CoinvariantAlgebra:
    """Coinvariant algebra of the given Cartan type over F_ell.

    Grading is doubled: a polynomial of degree d is graded in degree 2d.
    Internally, per polynomial degree d we keep a monomial basis of C_d,
    the reduction of arbitrary monomials to it, multiplication matrices
    for the generators, the reflection action, and Demazure operators.
    """

    def __init__(self, cartan_type, ell):
        if cartan_type not in CARTAN:
            raise ValueError(f"unsupported Cartan type {cartan_type!r}")
        h = COXETER_NUMBER[cartan_type]
        if ell <= h:
            raise ValueError(
                f"need ell > Coxeter number ({h}) for type {cartan_type}; "
                f"got ell = {ell}")
        if (ell - 1) ** 2 >= 2**63:
            raise OverflowError("modulus too large for int64 elimination")
        if not la.is_prime(ell):
            raise ValueError(f"ell = {ell} is not prime")
        self.cartan_type = cartan_type
        self.ell = ell
        self.group = build_group(cartan_type)
        self.rank = self.group.rank
        cartan = CARTAN[cartan_type]
        top = self.group.longest_element.length

        # reflection action on polynomials: s_i(a_j) = a_j - cartan[i][j] a_i
        def refl_poly(i, poly):
            out = {}
            for exps, c in poly.items():
                term = {(0,) * self.rank: c}
                for j, e in enumerate(exps):
                    if e == 0:
                        continue
                    lin = {}
                    unit = tuple(int(k == j) for k in range(self.rank))
                    lin[unit] = 1
                    shift = tuple(int(k == i) for k in range(self.rank))
                    lin[shift] = lin.get(shift, 0) - cartan[i][j]
                    for _ in range(e):
                        term = _poly_mult(term, lin, ell)
                for k, v in term.items():
                    out[k] = (out.get(k, 0) + v) % ell
            return {k: v for k, v in out.items() if v}

        self._refl_poly = refl_poly

        # invariants of the polynomial ring, degree by degree
        inv_by_degree = {}
        for d in range(1, top + 2):
            mons = _monomials(self.rank, d)
            pos = {m: k for k, m in enumerate(mons)}
            rows = []
            for i in range(self.rank):
                for m in mons:
                    img = refl_poly(i, {m: 1})
                    row = np.zeros(len(mons), dtype=np.int64)
                    for k, v in img.items():
                        row[pos[k]] = v % ell
                    row[pos[m]] = (row[pos[m]] - 1) % ell
                    rows.append(row)
            mat = np.array(rows, dtype=np.int64).reshape(-1, len(mons))
            # invariants = common kernel of (s_i - 1); stack per generator
            stacked = np.concatenate(
                [mat[i * len(mons):(i + 1) * len(mons)].T
                 for i in range(self.rank)], axis=0)
            inv = la.mod_nullspace(stacked, ell)
            inv_by_degree[d] = [dict((m, int(v[k])) for m, k in pos.items()
                                     if v[k]) for v in inv]

        # ideal spans and quotient bases, degree by degree
        self.basis = {0: [(0,) * self.rank]}
        self._reduce = {0: {(0,) * self.rank: np.array([1], dtype=np.int64)}}
        for d in range(1, top + 2):
            mons = _monomials(self.rank, d)
            pos = {m: k for k, m in enumerate(mons)}
            rows = []
            for e in range(1, d + 1):
                for f in inv_by_degree.get(e, []):
                    for m in _monomials(self.rank, d - e):
                        row = np.zeros(len(mons), dtype=np.int64)
                        for k, v in f.items():
                            prod = tuple(a + b for a, b in zip(k, m))
                            row[pos[prod]] = (row[pos[prod]] + v) % ell
                        if np.any(row):
                            rows.append(row)
            if rows:
                red, piv = la.mod_rref(np.array(rows, dtype=np.int64), ell)
            else:
                red, piv = np.zeros((0, len(mons)), dtype=np.int64), []
            keep = [m for k, m in enumerate(mons) if k not in piv]
            self.basis[d] = keep
            table = {}
            keep_pos = {m: k for k, m in enumerate(keep)}
            for k, m in enumerate(mons):
                vec = np.zeros(len(keep), dtype=np.int64)
                if k in piv:
                    i = piv.index(k)
                    for m2, k2 in keep_pos.items():
                        vec[k2] = (-int(red[i, pos[m2]])) % ell
                else:
                    vec[keep_pos[m]] = 1
                table[m] = vec
            self._reduce[d] = table

        self.top = top
        dims = [len(self.basis[d]) for d in range(top + 2)]
        if dims[top + 1]:
            raise StructuralError("coinvariant algebra too large")
        counts = Counter(w.length for w in self.group.elements)
        if any(dims[d] != counts.get(d, 0) for d in range(top + 1)):
            raise StructuralError(
                "Hilbert series does not match the Poincare polynomial")
        self.dims = dims[: top + 1]

        # generator multiplication C_d -> C_{d+1}
        self.gen_mult = []
        for i in range(self.rank):
            mats = {}
            for d in range(top):
                m = np.zeros((len(self.basis[d + 1]), len(self.basis[d])),
                             dtype=np.int64)
                for col, mon in enumerate(self.basis[d]):
                    up = tuple(e + int(k == i) for k, e in enumerate(mon))
                    m[:, col] = self._reduce[d + 1][up]
                mats[d] = m
            mats[top] = np.zeros((0, len(self.basis[top])), dtype=np.int64)
            self.gen_mult.append(mats)

        # reflection action and Demazure operators on C (one degree past
        # the top, where everything is zero-sized, to keep edge cases out
        # of the induction)
        self.refl = []
        self.demazure = []
        for i in range(self.rank):
            rmats, dmats = {}, {}
            for d in range(top + 2):
                rm = np.zeros((len(self.basis[d]), len(self.basis[d])),
                              dtype=np.int64)
                dm = np.zeros((len(self.basis[d - 1]) if d else 0,
                               len(self.basis[d])), dtype=np.int64)
                for col, mon in enumerate(self.basis[d]):
                    img = refl_poly(i, {mon: 1})
                    acc = np.zeros(len(self.basis[d]), dtype=np.int64)
                    for k, v in img.items():
                        acc = (acc + v * self._reduce[d][k]) % ell
                    rm[:, col] = acc
                    if d:
                        diff = dict(img)
                        diff[mon] = (diff.get(mon, 0) - 1) % ell
                        quot = _divide_by_variable(
                            {k: (-v) % ell for k, v in diff.items() if v % ell},
                            i, ell)
                        accd = np.zeros(len(self.basis[d - 1]),
                                        dtype=np.int64)
                        for k, v in quot.items():
                            accd = (accd + v * self._reduce[d - 1][k]) % ell
                        dm[:, col] = accd
                rmats[d] = rm
                dmats[d] = dm
            self.refl.append(rmats)
            self.demazure.append(dmats)

        self._delta = {}
        self._inv_basis = {}
        self._family = None
        self._bs_cache = {}
        self._end_cache = {}

    # -- elements ------------------------------------------------------

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


def _poly_mult(f, g, ell):
    out = {}
    for a, c in f.items():
        for b, d in g.items():
            k = tuple(x + y for x, y in zip(a, b))
            out[k] = (out.get(k, 0) + c * d) % ell
    return {k: v for k, v in out.items() if v}


def _divide_by_variable(poly, i, ell):
    out = {}
    for exps, c in poly.items():
        if c % ell == 0:
            continue
        if exps[i] == 0:
            raise StructuralError(
                "polynomial is not divisible by the variable")
        down = tuple(e - int(k == i) for k, e in enumerate(exps))
        out[down] = c % ell
    return out


def coinvariant_algebra(cartan_type, ell):
    return CoinvariantAlgebra(cartan_type, ell)


def demazure_matrix(C, i, d):
    """Matrix of the i-th Demazure operator C_d -> C_{d-1} (polynomial
    degrees)."""
    return C.demazure[i][d]


def demazure_apply(C, i, coords, d):
    """Apply the i-th Demazure operator to a degree-d element given by its
    coordinates; returns coordinates in degree d - 1."""
    if isinstance(i, str):
        i = LETTERS.index(i)
    return (C.demazure[i][d] @ np.array(coords, dtype=np.int64)) % C.ell


def invariant_basis(C, i):
    """Rows spanning the s_i-invariant subalgebra of C, per polynomial
    degree; the total dimension is |W| / 2."""
    if isinstance(i, str):
        i = LETTERS.index(i)
    return C.invariants(i)


@dataclass
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
            # alpha_i = a + delta_s * c with c scalar, a invariant deg 1
            var = np.zeros(len(C.basis[1]), dtype=np.int64)
            var_mon = tuple(int(k == i) for k in range(C.rank))
            var += C._reduce[1][var_mon]
            c_scal = int((C.demazure[s][1] @ var)[0]) % ell
            a_vec = (var - c_scal * delta) % ell
            act_a = C.element_action(inner.gen_action, a_vec, 1)
            # alpha_i * delta_s = a2 + delta_s * c2
            ad = np.zeros(len(C.basis[2]), dtype=np.int64)
            for k, c in enumerate(delta):
                if c % ell:
                    ad = (ad + int(c) * (C.gen_mult[i][1]
                                         @ C._reduce[1][C.basis[1][k]])) % ell
            c2 = (C.demazure[s][2] @ ad) % ell
            delta_c2 = np.zeros(len(C.basis[2]), dtype=np.int64)
            for k, c in enumerate(c2):
                if c % ell:
                    # delta_s * (c2 basis monomial)
                    for k2, c3 in enumerate(delta):
                        if c3 % ell:
                            mon = tuple(a + b for a, b in zip(
                                C.basis[1][k], C.basis[1][k2]))
                            delta_c2 = (delta_c2 + int(c) * int(c3)
                                        * C._reduce[2][mon]) % ell
            a2 = (ad - delta_c2) % ell
            act_a2 = C.element_action(inner.gen_action, a2, 2)
            act_c2 = C.element_action(inner.gen_action, c2, 1)
            m = np.zeros((2 * n, 2 * n), dtype=np.int64)
            m[:n, :n] = act_a
            m[n:, :n] = (c_scal * np.eye(n, dtype=np.int64)) % ell
            m[:n, n:] = act_a2
            m[n:, n:] = act_c2
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


def _algebra_elements_full(C, modules):
    """(degree, action on each module) for the generators of C, which sit
    in degree 2; commuting with them is commuting with C."""
    return [(2, [m.gen_action[i] for m in modules]) for i in range(C.rank)]


def _algebra_elements_wall(C, s, modules):
    """Same for C^s, from its invariants of polynomial degree 1 and 2:
    ell > h >= 2 makes averaging over <s> exact, so C^s is the image of
    the invariant ring S^s = F[(V*)^s, alpha_s^2], generated in those
    degrees."""
    inv = C.invariants(s)
    return [(2 * d, [C.element_action(m.gen_action, row, d) for m in modules])
            for d in (1, 2) if d <= C.top for row in inv[d]]


def graded_hom(C, M, N, wall=None):
    """Graded dimensions {degree: dim} of module maps M -> N, over C, or
    over C^s when `wall` is a generator index."""
    basis = graded_hom_basis(C, M, N, wall)
    return {d: len(v) for d, v in sorted(basis.items()) if v}


def graded_hom_basis(C, M, N, wall=None):
    """Per degree-shift d, a basis of maps M -> N raising degree by d,
    as dim(N) x dim(M) matrices."""
    if wall is None:
        elems = _algebra_elements_full(C, [M, N])
    else:
        elems = _algebra_elements_wall(C, wall, [M, N])
    ell = C.ell
    gap = np.subtract.outer(np.array(N.degrees), np.array(M.degrees))
    out = {}
    for d in sorted(set(gap.ravel().tolist())):
        # unknowns: the entries phi[un[k], um[k]] of degree d; constraints:
        # for each algebra element a, the entries (on, om) of
        # phi a_M - a_N phi that have degree d + deg(a)
        un, um = np.nonzero(gap == d)
        blocks = [np.zeros((0, len(un)), dtype=np.int64)]
        for da, (am, an) in elems:
            on, om = np.nonzero(gap == d + da)
            rows = ((on[:, None] == un) * am[um, om[:, None]]
                    - (om[:, None] == um) * an[on[:, None], un]) % ell
            blocks.append(rows[rows.any(axis=1)])
        ker = la.mod_nullspace(np.concatenate(blocks), ell)
        if len(ker):
            mats = np.zeros((len(ker), N.dim, M.dim), dtype=np.int64)
            mats[:, un, um] = ker
            out[d] = list(mats)
    return out


@dataclass
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

    def block_indices(self, f_to, f_from):
        return [i for i, (t, s, _) in enumerate(self.basis_blocks)
                if t == f_to and s == f_from]


def _assemble_end_algebra(C, words, modules, wall=None):
    ell = C.ell
    flavor = "wall" if wall is not None else "full"
    basis_blocks = []
    basis_mats = []
    span = {}           # (f_to, f_from) -> basis indices, all degrees
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
    mult = _block_products(blocks, blocks, blocks, ell)

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
                          basis_blocks, basis_mats)


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
    # each block of E, in the coordinates of the same block of E^s
    emb = np.zeros((data.algebra.dim, full.algebra.dim), dtype=np.int64)
    for ft in words:
        for fs in words:
            rows, cols = (d.block_indices(ft, fs) for d in (data, full))
            if not cols:
                continue
            coords = _coordinates(np.array(
                [data.basis_mats[i] for i in rows], dtype=np.int64).reshape(
                    len(rows), modules[ft].dim, modules[fs].dim), ell,
                "embedding failed: C-map not C^s-map?")
            emb[np.ix_(rows, cols)] = coords(
                np.array([full.basis_mats[j] for j in cols])).T
    if la.mod_rank(emb, ell) != full.algebra.dim:
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
    """The right-module direct summands e_f E of the regular module,
    memoized on the algebra data."""
    cached = getattr(e_data, "_reg_slices", None)
    if cached is not None:
        return cached
    E = e_data.algebra
    out = [idempotent_slice(E, E.basis_vec(E.idempotents[f]))[0]
           for f in e_data.words]
    e_data._reg_slices = out
    return out


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
