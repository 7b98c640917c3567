import doctest

import pytest

from flagalg import coxeter as cx


def test_module_doctests():
    failures, _ = doctest.testmod(cx)
    assert failures == 0

ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "G2": 12}


@pytest.mark.parametrize("t", sorted(ORDERS))
def test_group_sizes_and_longest(t):
    W = cx.build_group(t)
    assert len(W.elements) == ORDERS[t]
    assert W.num_roots % 2 == 0
    assert W.longest_element.length == W.num_roots // 2
    assert W.identity.length == 0


def test_unsupported_type():
    with pytest.raises(ValueError, match="unsupported"):
        cx.build_group("F4")


@pytest.mark.parametrize("t", sorted(ORDERS))
def test_length_complement_identity(t):
    W = cx.build_group(t)
    w0 = W.longest_element
    for w in W.elements:
        assert W.mult(w0, w).length == w0.length - w.length
        assert W.mult(w, w0).length == w0.length - w.length


def bruhat_leq_by_covers(W, u, v):
    """Independent computation of the Bruhat order: transitive closure of
    length-one cover steps u -> u t (t a reflection).  Used to cross-check
    the subword criterion."""
    if u == v:
        return True
    if u.length >= v.length:
        return False
    # reflections: the conjugates of the simple reflections
    reflections = {W.mult(W.mult(w, s), W.inverse(w))
                   for w in W.elements for s in W.simple_reflections}
    frontier = {u}
    for _ in range(v.length - u.length):
        nxt = set()
        for a in frontier:
            for t in reflections:
                b = W.mult(a, t)
                if b.length == a.length + 1:
                    nxt.add(b)
        if v in nxt:
            return True
        frontier = nxt
    return False


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "B2", "G2"])
def test_bruhat_two_ways_agree(t):
    W = cx.build_group(t)
    for u in W.elements:
        for v in W.elements:
            assert cx.bruhat_leq(W, u, v) == bruhat_leq_by_covers(W, u, v)


def test_bruhat_a2_brute_force_subwords():
    # third route, fully independent: u <= v iff some reduced word of v
    # contains a subsequence multiplying to u
    from itertools import combinations
    W = cx.build_group("A2")
    for u in W.elements:
        for v in W.elements:
            found = False
            for word in cx.reduced_expressions(W, v):
                for r in range(len(word) + 1):
                    for positions in combinations(range(len(word)), r):
                        sub = "".join(word[i] for i in positions)
                        if W.element(sub) == u:
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            assert found == cx.bruhat_leq(W, u, v), (u.word, v.word)


def test_bruhat_is_an_order():
    W = cx.build_group("A2")
    e = W.identity
    for w in W.elements:
        assert cx.bruhat_leq(W, e, w)
        assert cx.bruhat_leq(W, w, w)
    s, st = W.element("s"), W.element("st")
    assert cx.bruhat_leq(W, s, st)
    for u in W.elements:
        for v in W.elements:
            if cx.bruhat_leq(W, u, v) and cx.bruhat_leq(W, v, u):
                assert u == v
            if cx.bruhat_leq(W, u, v):
                assert u.length <= v.length
            for w in W.elements:
                if cx.bruhat_leq(W, u, v) and cx.bruhat_leq(W, v, w):
                    assert cx.bruhat_leq(W, u, w)


@pytest.mark.parametrize("t", sorted(ORDERS))
def test_coset_reps(t):
    W = cx.build_group(t)
    for s in W.simple_reflections:
        reps = cx.coset_reps(W, s)
        assert len(reps) == len(W.elements) // 2
        assert W.identity in reps
        for w in reps:
            assert W.mult(w, s).length == w.length + 1


def test_coset_reps_a1_a2():
    W1 = cx.build_group("A1")
    assert cx.coset_reps(W1, W1.element("s")) == {W1.identity}
    W2 = cx.build_group("A2")
    reps = cx.coset_reps(W2, W2.element("s"))
    # {e, t, s.t}: the minimal representatives of the cosets w<s>
    assert reps == {W2.element("e"), W2.element("t"), W2.element("st")}


def test_reduced_expressions():
    W = cx.build_group("A2")
    assert cx.reduced_expressions(W, W.longest_element) == {"sts", "tst"}
    assert cx.reduced_expressions(W, W.identity) == {""}
    for w in W.elements:
        for word in cx.reduced_expressions(W, w):
            assert len(word) == w.length
            assert W.element(word) == w


def test_multiply_involution():
    W = cx.build_group("B2")
    for w in W.elements:
        for s in W.simple_reflections:
            ws = W.mult(w, s)
            assert abs(ws.length - w.length) == 1
            assert W.mult(ws, s) == w


def test_serialization():
    W = cx.build_group("A2")
    assert W.identity.serialize() == "e"
    assert W.element("e") == W.identity
    for w in W.elements:
        assert W.element(w.serialize()) == w
    with pytest.raises(ValueError):
        W.element("sxu")


def test_distinguished_family():
    W = cx.build_group("A2")
    fam = cx.distinguished_family(W)
    assert len(fam) == len(W.elements)
    for x, word in fam.items():
        assert W.element(word) == W.inverse(x)
        assert len(word) == x.length
