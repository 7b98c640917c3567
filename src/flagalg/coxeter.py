"""
Finite Weyl groups: elements, length, Bruhat order, minimal coset
representatives and reduced expressions.

Groups are realized exactly by the action of the simple reflections on the
root lattice (integer matrices built from the Cartan matrix), so that all
comparisons are integer comparisons.  Each element carries a canonical
form: its shortlex-minimal reduced word over the fixed alphabet
's' < 't' < 'u' of simple reflections.  The identity serializes as "e".

>>> W = build_group("A2")
>>> len(W.elements), W.num_roots, W.longest_element.word
(6, 6, 'sts')
>>> bruhat_leq(W, W.element("s"), W.element("st"))
True
"""

from dataclasses import dataclass, field

from ._linalg import StructuralError

__all__ = [
    "CARTAN", "COXETER_NUMBER", "NUM_ROOTS", "LETTERS",
    "WeylGroup", "Element", "build_group", "bruhat_leq", "coset_reps",
    "reduced_expressions", "distinguished_family",
]

LETTERS = "stu"

# Cartan matrices, rows indexed by simple roots: s_i(a_j) = a_j - C[i][j] a_i.
CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "G2": [[2, -1], [-3, 2]],
}

COXETER_NUMBER = {"A1": 2, "A2": 3, "A3": 4, "B2": 4, "G2": 6}
NUM_ROOTS = {"A1": 2, "A2": 6, "A3": 12, "B2": 8, "G2": 12}


@dataclass(frozen=True)
class Element:
    """A Weyl group element, identified by its shortlex-minimal reduced
    word.  Two elements are equal iff their canonical words are equal."""

    word: str
    index: int = field(compare=False, hash=False)

    @property
    def length(self):
        return len(self.word)

    def __repr__(self):
        return f"Element({self.word or 'e'!r})"

    def serialize(self):
        return self.word if self.word else "e"


class WeylGroup:
    """A fully enumerated finite Weyl group of one of the supported Cartan
    types, with multiplication table, lengths and canonical words."""

    def __init__(self, cartan_type):
        if cartan_type not in CARTAN:
            raise ValueError(
                f"unsupported Cartan type {cartan_type!r}; "
                f"supported: {', '.join(sorted(CARTAN))}")
        self.cartan_type = cartan_type
        cartan = CARTAN[cartan_type]
        self.rank = len(cartan)
        self.simple_labels = LETTERS[: self.rank]
        gens = [_reflection_matrix(cartan, i) for i in range(self.rank)]

        # breadth-first enumeration by word length, letters tried in
        # alphabet order, so the first word reaching a matrix is its
        # shortlex-minimal reduced word and the depth is the length
        ident = _identity(self.rank)
        words = {ident: ""}
        frontier = [ident]
        while frontier:
            nxt = []
            for m in frontier:
                for i, g in enumerate(gens):
                    prod = _matmul_int(m, g)  # right multiplication
                    if prod not in words:
                        words[prod] = words[m] + LETTERS[i]
                        nxt.append(prod)
            frontier = nxt

        order = sorted(words.values(), key=lambda w: (len(w), w))
        self.elements = [Element(w, i) for i, w in enumerate(order)]
        self._by_word = {e.word: e for e in self.elements}
        mat_of = {words[m]: m for m in words}

        n = len(self.elements)
        self._mult = [[0] * n for _ in range(n)]
        index_of_mat = {mat_of[e.word]: e.index for e in self.elements}
        for a in self.elements:
            for b in self.elements:
                prod = _matmul_int(mat_of[a.word], mat_of[b.word])
                self._mult[a.index][b.index] = index_of_mat[prod]
        self._inv = [0] * n
        for a in self.elements:
            for b in self.elements:
                if self._mult[a.index][b.index] == 0:
                    self._inv[a.index] = b.index

        self.num_roots = NUM_ROOTS[cartan_type]
        self.coxeter_number = COXETER_NUMBER[cartan_type]
        self.longest_element = max(self.elements, key=lambda e: e.length)

        top = [e for e in self.elements
               if e.length == self.longest_element.length]
        if len(top) != 1 or 2 * top[0].length != self.num_roots:
            raise StructuralError("no unique longest element of length |R|/2")

    # -- lookups ------------------------------------------------------

    @property
    def identity(self):
        return self.elements[0]

    def element(self, word):
        """Element from a word over the simple-reflection alphabet; "e" or
        "" denotes the identity.  The word need not be reduced."""
        if word in ("e", ""):
            return self.elements[0]
        idx = 0
        for c in word:
            if c not in self.simple_labels:
                raise ValueError(f"unknown simple reflection {c!r} "
                                 f"for type {self.cartan_type}")
            s = self._by_word[c]
            idx = self._mult[idx][s.index]
        return self.elements[idx]

    def simple(self, i):
        return self._by_word[LETTERS[i]]

    @property
    def simple_reflections(self):
        return [self._by_word[c] for c in self.simple_labels]

    def mult(self, a, b):
        return self.elements[self._mult[a.index][b.index]]

    def inverse(self, a):
        return self.elements[self._inv[a.index]]

    def length(self, a):
        return a.length

    def right_descents(self, w):
        return [s for s in self.simple_reflections
                if self.mult(w, s).length < w.length]


def _reflection_matrix(cartan, i):
    # column convention: s_i(a_j) = sum_k out[k][j] a_k
    rank = len(cartan)
    out = [[0] * rank for _ in range(rank)]
    for j in range(rank):
        for k in range(rank):
            out[k][j] = (1 if k == j else 0) - (cartan[i][j] if k == i else 0)
    return tuple(tuple(row) for row in out)


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _matmul_int(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


_GROUPS = {}


def build_group(cartan_type):
    """Build (and cache) the Weyl group of the given Cartan type."""
    if cartan_type not in _GROUPS:
        _GROUPS[cartan_type] = WeylGroup(cartan_type)
    return _GROUPS[cartan_type]


def bruhat_leq(W, u, v):
    """Bruhat order via the subword criterion: u <= v iff u is a product of
    a subsequence of (any) one reduced word of v."""
    if u.length > v.length:
        return False
    reachable = {W.identity.index}
    for c in v.word:
        s = W.element(c)
        reachable |= {W._mult[i][s.index] for i in reachable}
    return u.index in reachable


def coset_reps(W, s):
    """The minimal coset representatives {w : ws > w} for the simple
    reflection s."""
    return {w for w in W.elements if W.mult(w, s).length > w.length}


def reduced_expressions(W, w):
    """All reduced words for w, as strings."""
    if w.length == 0:
        return {""}
    out = set()
    for s in W.right_descents(w):
        for r in reduced_expressions(W, W.mult(w, s)):
            out.add(r + s.word)
    return out


def distinguished_family(W):
    """The fixed family of words used to index Bott-Samelson style objects:
    for each x in W, the shortlex-minimal reduced word of x^{-1}.

    Returned as a dict x -> word (string).  Recorded in serialized output
    so downstream results are reproducible.
    """
    return {x: W.inverse(x).word for x in W.elements}
