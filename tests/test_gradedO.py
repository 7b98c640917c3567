import json
import os

import numpy as np
import pytest

from flagalg import _linalg as la
from flagalg import coxeter as cx
from flagalg import galgebra as ga
from flagalg import gradedO as go
from flagalg import soergel as sg
from dense_view import _dense, _from_dense

FIX = json.load(open(os.path.join(os.path.dirname(__file__),
                                  "fixtures", "frozen.json")))


def test_standards_frozen_dims_and_mults(C_A1, C_A2):
    for t, C in (("A1", C_A1), ("A2", C_A2)):
        std = go.standard_modules(C)
        frozen = FIX["standards"][t]
        for x, M in std.items():
            entry = frozen[x.serialize()]
            assert {str(k): v for k, v in M.dims_by_degree().items()} == \
                entry["dims"]
            mult = go.graded_multiplicities(C, M)
            got = {f"{y.serialize()}<{k}>": v for (y, k), v in mult.items()}
            assert got == entry["mult"]


def test_standard_at_identity_is_slice(C_A2):
    # the standard at the identity is e_() E on the nose
    E = sg.endomorphism_algebra(C_A2).algebra
    M = go.graded_standard(C_A2, C_A2.group.identity)
    pe = go.projectives_for(C_A2)[C_A2.group.identity]
    assert M.dims_by_degree() == pe.dims_by_degree()
    assert ga.is_iso_up_to_shift(M, pe) == 0


def test_top_multiplicity_one(C_A2):
    std = go.standard_modules(C_A2)
    for x, M in std.items():
        mult = go.graded_multiplicities(C_A2, M)
        assert mult.get((x, 0)) == 1


def test_self_homs_concentrated_in_degree_zero(C_A1, C_A2):
    for C in (C_A1, C_A2):
        std = go.standard_modules(C)
        for x, M in std.items():
            dims = ga.hom_dims(M, M)
            assert dims == {0: 1}


def test_hom_table_pattern(C_A2):
    W = C_A2.group
    table = go.hom_standard_table(C_A2)
    for (x, y), (dim, shifts) in table.items():
        if cx.bruhat_leq(W, y, x):
            assert dim == 1
            assert shifts == [x.length - y.length]
        else:
            assert dim == 0


def test_embeddings_all_ascents(C_A1, C_A2):
    for C in (C_A1, C_A2):
        W = C.group
        std = go.standard_modules(C)
        for x in W.elements:
            for s in W.simple_reflections:
                if W.mult(x, s).length > x.length:
                    phi = go.standard_embedding(C, x, s)
                    xs = W.mult(x, s)
                    assert la.mod_rank(phi, C.ell) == std[xs].dim
        with pytest.raises(ValueError):
            go.standard_embedding(C, W.longest_element,
                                  W.simple_reflections[0])


def test_embedding_chain_a2(C_A2):
    # the chain w0 -> ts -> t -> e by successive length-one drops
    W = C_A2.group
    for word, letter in (("ts", "t"), ("t", "s"), ("e", "t")):
        go.standard_embedding(C_A2, W.element(word), letter)


def test_unit_injective_and_translations(C_A1):
    td = go.translation_data(C_A1, 0)
    std = go.standard_modules(C_A1)
    for x, M in std.items():
        induced, unit = go.translate_to_wall(td, M)
        assert la.mod_rank(unit, 5) == M.dim
        back = go.translate_from_wall(td, induced)
        assert back.dim == induced.dim  # restriction preserves dimension
        back.check()


def test_free_module_translates_to_wall_regular(C_A1):
    # E itself induces to E^s: compare graded dimensions
    td = go.translation_data(C_A1, 0)
    E = td.e_data.algebra
    reg = ga.regular_module(E)
    induced, unit = go.translate_to_wall(td, reg)
    assert induced.dims_by_degree() == td.wall_data.algebra.dims_by_degree()


def test_adjunction_dimensions(C_A1):
    td = go.translation_data(C_A1, 0)
    std = go.standard_modules(C_A1)
    # wall-side test modules: the row blocks of E^s over E^s itself
    Es = td.wall_data.algebra
    wall_mods = [ga.idempotent_slice(Es, Es.basis_vec(Es.idempotents[f]))[0]
                 for f in td.wall_data.words]
    for x, M in std.items():
        TM, _ = go.translate_to_wall(td, M)
        for N in wall_mods:
            left = ga.hom_dims(TM, N)
            right = ga.hom_dims(M, go.translate_from_wall(td, N))
            assert left == right


def test_star_equals_shriek_shift(C_A1):
    # Hom(E^s, M) has the graded dimensions of (M (x) E^s)<2>
    td = go.translation_data(C_A1, 0)
    std = go.standard_modules(C_A1)
    blocks = sg.wall_row_block_modules(C_A1, 0)
    for x, M in std.items():
        TM, _ = go.translate_to_wall(td, M)
        star = {}
        for X in blocks:
            for d, v in ga.hom_dims(X, M).items():
                star[d] = star.get(d, 0) + v
        shifted = {d + 2: v for d, v in TM.dims_by_degree().items()}
        assert star == shifted


def test_zero_composite(C_A1):
    # any composite M -> res(M (x) E^s) -> M<-2> vanishes
    td = go.translation_data(C_A1, 0)
    std = go.standard_modules(C_A1)
    for x, M in std.items():
        TM, unit = go.translate_to_wall(td, M)
        back = go.translate_from_wall(td, TM)
        for phi in ga.hom_all(back, M).get(-2, []):
            assert not np.any((phi @ unit) % 5)


def test_reduced_word_independence_a2(C_A2):
    W = C_A2.group
    std = go.standard_modules(C_A2)
    tds = {i: go.translation_data(C_A2, i) for i in range(2)}

    def build_along(word):
        m = std[W.identity]
        for ch in word:
            m = go._standard_step(tds[cx.LETTERS.index(ch)], m)
        return m

    for x in W.elements:
        for word in cx.reduced_expressions(W, x):
            m = build_along(word)
            assert ga.is_iso_up_to_shift(m, std[x]) == 0


def _wall_block_modules_loop(C, s, side):
    """The E-modules e_f E^s ("right") or, over the opposite algebra, the
    E^s e_f ("left"), built basis element by basis element from the
    structure constants of E^s: the reference for the slices restricted
    along E -> E^s."""
    wall_data, emb = sg.wall_algebra(C, s)
    E = sg.endomorphism_algebra(C).algebra
    if side == "left":
        E = E.opposite()
    Es = wall_data.algebra
    p = E.p
    products = {}           # (a, b) -> [(k, c)] from the rows of Es.mult
    for a, b, k, c in Es.mult.tolist():
        products.setdefault((a, b), []).append((k, c))
    out = []
    for f in wall_data.words:
        idx = [k for k, (t, src, _) in enumerate(wall_data.basis_blocks)
               if (t if side == "right" else src) == f]
        back = {b: i for i, b in enumerate(idx)}
        action = []
        for a in range(E.dim):
            avec = emb[:, a] % p
            m = np.zeros((len(idx), len(idx)), dtype=np.int64)
            for i, b in enumerate(idx):
                prod = np.zeros(Es.dim, dtype=np.int64)
                for k in np.nonzero(avec)[0]:
                    key = (b, int(k)) if side == "right" else (int(k), b)
                    for kk, c in products.get(key, []):
                        prod[kk] = (prod[kk] + int(avec[k]) * c) % p
                for kk in np.nonzero(prod)[0]:
                    assert int(kk) in back, "block not stable"
                    m[back[int(kk)], i] = prod[kk]
            action.append(m)
        out.append(_from_dense(E, [Es.degrees[b] for b in idx], action))
    return out


@pytest.mark.parametrize("cartan,s", [("A1", 0), ("A2", 0), ("A2", 1)])
def test_wall_blocks_match_loop(cartan, s, C_A1, C_A2):
    C = {"A1": C_A1, "A2": C_A2}[cartan]
    E = sg.endomorphism_algebra(C).algebra
    wall_data, emb = sg.wall_algebra(C, s)
    for side, got in (
            ("right", sg.wall_row_block_modules(C, s)),
            ("left", sg._restricted_slices(
                E.opposite(), wall_data.algebra.opposite(), emb))):
        want = _wall_block_modules_loop(C, s, side)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.degrees == w.degrees
            assert np.array_equal(_dense(g), _dense(w))


def test_wall_projectivity_certificate(C_A1):
    sides = go.wall_module_projective_certificate(C_A1, 0)
    assert sides == {"right": True, "left": True}


@pytest.mark.slow
def test_wall_projectivity_certificate_a2(C_A2):
    sides = go.wall_module_projective_certificate(C_A2, 0)
    assert sides == {"right": True, "left": True}


def _spin_rows_frontier(module, rows):
    """Smallest action-stable row space containing the rows, by a frontier
    loop over the basis of the algebra: the reference for
    span_under_action in translate_to_wall."""
    p = module.algebra.p
    act = _dense(module)
    ech = la._Echelon(module.dim, p)
    frontier = [r for r in rows if ech.insert(r) is None]
    while frontier:
        new = []
        for v in frontier:
            for m in act:
                img = (m @ v) % p
                if np.any(img) and ech.insert(img) is None:
                    new.append(img)
        frontier = new
    return np.array(ech.rows, dtype=np.int64).reshape(-1, module.dim)


@pytest.mark.parametrize("cartan,s", [("A1", 0), ("A2", 0), ("A2", 1)])
def test_translate_to_wall_span_matches_frontier_spin(cartan, s, C_A1, C_A2,
                                                      monkeypatch):
    # the relation spans of every standard module, against the old spin
    C = {"A1": C_A1, "A2": C_A2}[cartan]
    td = go.translation_data(C, s)
    std = go.standard_modules(C)
    seen = []

    def recording(M, rows):
        out = ga.span_under_action(M, rows)
        seen.append((M, rows, out))
        return out

    monkeypatch.setattr(go, "span_under_action", recording)
    for M in std.values():
        go.translate_to_wall(td, M)
    assert len(seen) == len(std)
    for M, rows, (got, piv) in seen:
        r, want_piv = la.mod_rref(_spin_rows_frontier(M, rows), C.ell)
        assert piv == want_piv
        assert np.array_equal(got, r[: len(want_piv)])


def test_simple_dims_once_per_algebra(monkeypatch):
    C = sg.coinvariant_algebra("A1", 5)
    calls = []
    real = go.simple_dims
    monkeypatch.setattr(go, "simple_dims",
                        lambda projs: calls.append(1) or real(projs))
    std = go.standard_modules(C)
    for M in std.values():
        go.graded_multiplicities(C, M)
    assert len(calls) == 1
    # simple dimensions that do not fit fail the count loudly
    C._simple_dims = {y: 2 * d for y, d in C._simple_dims.items()}
    with pytest.raises(ga.StructuralError, match="multiplicity count"):
        go.graded_multiplicities(C, std[C.group.identity])
