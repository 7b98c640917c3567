"""
The graded module category over the endomorphism algebra E: graded
translation to and from the wall, graded standard modules with their
embeddings, Hom tables between standards, and graded composition
multiplicities.

Translation to the wall is the induction M -> M (x)_E E^s, computed from a
projective presentation of M (so the quotient stays small); translation
from the wall is restriction along the embedding E -> E^s.  The graded
standard module of the identity is e_() E; for xs > x the next standard
is the cokernel of the unit M_x -> (M_x (x) E^s) restricted, shifted up
by one.  The unit must be injective: that is exactly the short exact
sequence the construction rides on, and its failure would falsify the
model, so it raises StructuralError rather than ValueError.
"""

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .coxeter import LETTERS
from .galgebra import (StructuralError, direct_sum, hom_all, hom_dims,
                       idempotent_slice, module_presentation, quotient_module,
                       regular_module, restrict_module, shift_module,
                       span_under_action, graded_projectives, simple_dims)
from .soergel import endomorphism_algebra, wall_algebra

__all__ = [
    "TranslationData", "translation_data", "translate_to_wall",
    "translate_from_wall", "graded_standard", "standard_embedding",
    "hom_standard_table", "graded_multiplicities", "standard_modules",
    "projectives_for", "wall_module_projective_certificate",
]


@dataclass
class TranslationData:
    """Everything needed to translate between E and E^s modules: the two
    algebras and the unital degree-0 embedding E -> E^s."""

    C: object
    s: int
    e_data: object
    wall_data: object
    emb: np.ndarray


def translation_data(C, s):
    if isinstance(s, str):
        s = LETTERS.index(s)
    e_data = endomorphism_algebra(C)
    wall_data, emb = wall_algebra(C, s)
    return TranslationData(C, s, e_data, wall_data, emb)


def translate_from_wall(td, N):
    """Restriction along E -> E^s: the same space, with a in E acting as
    emb(a)."""
    return restrict_module(N, td.e_data.algebra, td.emb)


def translate_to_wall(td, M):
    """Induction M (x)_E E^s, via a projective presentation of M.

    Writing P = sum of e_h E over the module generators of M, with
    relation kernel R, the induced module is (sum of e_h E^s) divided by
    the E^s-submodule generated by the embedded relations.  Returns
    (module over E^s, unit matrix M -> restriction of the result)."""
    Es = td.wall_data.algebra
    p = Es.p
    gens, idems, proj_rows, rel, sect = module_presentation(M)
    # e_h embeds as the idempotent of E^s with the same label; the cover
    # row t of e_h E embeds into e_h E^s, where its coordinates are its
    # pivot entries (the slice rows are in RREF)
    slices, cover = {}, {}
    for h in {h for _, h in gens}:
        slices[h], rows, piv = idempotent_slice(Es, (td.emb @ idems[h]) % p)
        embedded = la.mod_matmul(proj_rows[h], td.emb.T, p)
        cover[h] = embedded[:, piv]
        if not np.array_equal(la.mod_matmul(cover[h], rows, p), embedded):
            raise StructuralError("embedded cover row leaves e_h E^s")
    # one slice per generator g, shifted up by deg g; the columns of the
    # presentation run over (generator, cover row) in that order
    big = direct_sum([slices[h] for _, h in gens],
                     [M.degrees[int(np.flatnonzero(g)[0])] for g, _ in gens])
    emb_cols = np.zeros((big.dim, sect.shape[0]), dtype=np.int64)
    row = col = 0
    for _, h in gens:
        k, t = slices[h].dim, len(cover[h])
        emb_cols[row: row + k, col: col + t] = cover[h].T
        row, col = row + k, col + t
    # the embedded relations, their E^s-span, and the quotient by it
    rel_rows = la.mod_matmul(rel, emb_cols.T, p)
    span, _ = span_under_action(big, rel_rows)
    quot, proj = quotient_module(big, span)
    # the unit M -> res(M (x) E^s): m = pi(xi) maps to class of embedded xi
    unit = (proj @ emb_cols @ sect) % p
    return quot, unit


# ---------------------------------------------------------------------------
# graded standard modules


def standard_modules(C):
    """All graded standard modules, built along the canonical reduced word
    of each element; memoized on C.  Returns {element: RightModule}."""
    if not hasattr(C, "_standards"):
        C._standards = {}
        C._standard_units = {}
    key = "all"
    if key in C._standards:
        return C._standards[key]
    W = C.group
    e_data = endomorphism_algebra(C)
    E = e_data.algebra
    m_e, _, _ = idempotent_slice(E, E.basis_vec(E.idempotents[""]))
    out = {W.identity: m_e}
    tds = {}
    for x in sorted(W.elements, key=lambda w: (w.length, w.word)):
        if x.length == 0:
            continue
        word = x.word
        prev = W.element(word[:-1])
        s = LETTERS.index(word[-1])
        if s not in tds:
            tds[s] = translation_data(C, s)
        out[x] = _standard_step(tds[s], out[prev])
    C._standards[key] = out
    return out


def _standard_step(td, m_prev):
    induced, unit = translate_to_wall(td, m_prev)
    back = translate_from_wall(td, induced)
    if la.mod_rank(unit, td.e_data.algebra.p) != m_prev.dim:
        raise StructuralError(
            "adjunction unit of a standard module is not injective; "
            "the standard recursion is falsified")
    img_rows = unit.T % td.e_data.algebra.p
    coker, _ = quotient_module(back, img_rows)
    return shift_module(coker, 1)


def graded_standard(C, x):
    """The graded standard module attached to x."""
    return standard_modules(C)[x]


def standard_embedding(C, x, s):
    """The injective degree-0 map from the standard at xs into the
    standard at x shifted down by one; unique up to scalar.

    `s` is a simple reflection (letter, index or element) with xs > x.  A
    degree-0 map into M_x<-1> raises the underlying internal degree by 1,
    so this is the space of degree +1 homs into the unshifted standard."""
    W = C.group
    if isinstance(s, int):
        s = W.element(LETTERS[s])
    elif isinstance(s, str):
        s = W.element(s)
    xs = W.mult(x, s)
    if xs.length <= x.length:
        raise ValueError("need xs > x")
    std = standard_modules(C)
    homs = hom_all(std[xs], std[x])
    mats = homs.get(1, [])
    if len(mats) != 1:
        raise StructuralError(
            f"expected a one-dimensional space of maps from the standard "
            f"at {xs.serialize()} into the shifted standard at "
            f"{x.serialize()}; got {len(mats)}")
    phi = mats[0]
    if la.mod_rank(phi, C.ell) != std[xs].dim:
        raise StructuralError("standard embedding is not injective")
    return phi


def hom_standard_table(C):
    """For each ordered pair (x, y): (total Hom dimension between the
    standards, the degree shifts carrying it).  The expected pattern is
    dimension 1 concentrated in degree l(y) - l(x) exactly when y <= x."""
    W = C.group
    std = standard_modules(C)
    table = {}
    for x in W.elements:
        for y in W.elements:
            homs = hom_dims(std[x], std[y])
            table[(x, y)] = (sum(homs.values()), sorted(homs))
    return table


def projectives_for(C):
    """Normalized graded projectives for the endomorphism algebra of C,
    keyed by group element; memoized on C."""
    if not hasattr(C, "_projectives"):
        e_data = endomorphism_algebra(C)
        W = C.group
        fam = C.family()
        family_words = {x: fam[x] for x in W.elements}
        lengths = {x: x.length for x in W.elements}
        C._projectives = graded_projectives(e_data.algebra, family_words,
                                            lengths)
    return C._projectives


def graded_multiplicities(C, M):
    """Graded composition multiplicities {(y, k): [M : L_y<k>]}, computed
    as dim Hom(P_y<k>, M); checked against dim M via the simple
    dimensions."""
    projs = projectives_for(C)
    mult = {}
    for y, P in projs.items():
        for k, v in hom_dims(P, M).items():
            mult[(y, k)] = v
    dims = simple_dims(projs)
    total = sum(v * dims[y] for (y, k), v in mult.items())
    assert total == M.dim, \
        f"multiplicity count {total} does not match dim M = {M.dim}"
    return mult


def wall_module_projective_certificate(C, s):
    """Certify that E^s, as a module over E on either side, is projective:
    every indecomposable summand of every idempotent slice is isomorphic,
    up to shift, to a summand of the regular module on the same side."""
    from .galgebra import decompose_module, is_iso_up_to_shift
    from .soergel import _restricted_slices
    td = translation_data(C, s)
    E = td.e_data.algebra
    Es = td.wall_data.algebra
    sides = {}
    # a left module is a right module over the opposite algebra, and the
    # column blocks E^s e_f are the slices e_f (E^s)^op
    for side, alg, wall in (("right", E, Es),
                            ("left", E.opposite(), Es.opposite())):
        blocks = _restricted_slices(alg, wall, td.emb)
        reg = regular_module(alg)
        reg_classes = []
        for piece in decompose_module(reg):
            if not any(is_iso_up_to_shift(piece, q) is not None
                       for q in reg_classes):
                reg_classes.append(piece)
        ok = True
        for sub in blocks:
            for piece in decompose_module(sub):
                if not any(is_iso_up_to_shift(piece, q) is not None
                           for q in reg_classes):
                    ok = False
        sides[side] = ok
    return sides
