import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np
import pytest

from flagalg import _linalg as la
from flagalg import formality as fm
from flagalg.galgebra import StructuralError

FROZEN = json.load(open(os.path.join(os.path.dirname(__file__), "fixtures",
                                     "frozen.json")))


def unit_line(p=5):
    return fm.BigradedDgAlgebra(p, [(0, 0)], [(0, 0, 0, 1)], {0: 1},
                                np.zeros((1, 1), dtype=np.int64))


def acyclic_pair(p=5, at=(0, 1)):
    i, j = at
    diff = np.zeros((3, 3), dtype=np.int64)
    diff[2, 1] = 1
    mult = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
            (0, 2, 2, 1), (2, 0, 2, 1)]
    return fm.BigradedDgAlgebra(p, [(0, 0), (i, j), (i + 1, j)], mult,
                                {0: 1}, diff)


def test_cohomology_zero_differential():
    R = unit_line()
    h = fm.cohomology(R).algebra
    assert h.dims_by_bidegree() == {(0, 0): 1}


def test_cohomology_acyclic_pair():
    R = acyclic_pair()
    h = fm.cohomology(R).algebra
    assert h.dims_by_bidegree() == {(0, 0): 1}
    assert fm.diagonal_check(R)


def test_euler_characteristic_per_column():
    for seed in range(20):
        R = fm.random_diagonal_instance(seed)
        h = fm.cohomology(R).algebra
        cols = {j for (_, j) in R.bidegrees} | \
            {j for (_, j) in h.bidegrees}
        for j in cols:
            chi_r = sum((-1) ** i * v
                        for (i, jj), v in R.dims_by_bidegree().items()
                        if jj == j)
            chi_h = sum((-1) ** i * v
                        for (i, jj), v in h.dims_by_bidegree().items()
                        if jj == j)
            assert chi_r == chi_h


def test_diagonal_check_failure():
    R = fm.random_nondiagonal_instance(0)
    assert not fm.diagonal_check(R)
    # the witness: a closed basis element at (1, 0) survives
    h = fm.cohomology(R).algebra
    assert (1, 0) in h.dims_by_bidegree()


def test_shear_on_zero_differential_diagonal():
    # d = 0, everything on the diagonal: the shear is everything
    p = 5
    # e_1 e_1 = 0
    mult = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)]
    R = fm.BigradedDgAlgebra(p, [(0, 0), (1, 1)], mult, {0: 1},
                             np.zeros((2, 2), dtype=np.int64))
    sub, inc, proj, hd = fm.shear_subalgebra(R)
    assert sub.dims_by_bidegree() == R.dims_by_bidegree()
    assert fm.verify_quasi_iso(sub, R, inc)
    assert fm.verify_quasi_iso(sub, hd.algebra, proj)


def test_shear_example_unit_plus_killed_pair():
    # unit; a at (0,0) with d(a) = b at (1,0): shear = unit line
    p = 5
    diff = np.zeros((3, 3), dtype=np.int64)
    diff[2, 1] = 1
    mult = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
            (0, 2, 2, 1), (2, 0, 2, 1)]
    R = fm.BigradedDgAlgebra(p, [(0, 0), (0, 0), (1, 0)], mult, {0: 1},
                             diff)
    sub, inc, proj, hd = fm.shear_subalgebra(R)
    # a is not closed and b sits below the diagonal: only the unit is left
    assert sub.dims_by_bidegree() == {(0, 0): 1}
    assert fm.verify_quasi_iso(sub, R, inc)
    assert fm.verify_quasi_iso(sub, hd.algebra, proj)
    assert hd.algebra.dims_by_bidegree() == {(0, 0): 1}


def test_shear_always_subalgebra():
    for seed in (3, 11, 19):
        R = fm.random_nondiagonal_instance(seed)
        sub, inc, proj, hd = fm.shear_subalgebra(R)
        sub.check()  # dg-subalgebra axioms hold regardless of diagonality


def test_quasi_iso_rejects_non_chain_maps():
    R = acyclic_pair()
    bad = np.zeros((3, 3), dtype=np.int64)
    bad[1, 2] = 1  # wrong direction: not a chain map
    with pytest.raises(ValueError):
        fm.verify_quasi_iso(R, R, bad)
    ident = np.eye(3, dtype=np.int64)
    assert fm.verify_quasi_iso(R, R, ident)
    zero = np.zeros((1, 1), dtype=np.int64)
    U = unit_line()
    assert not fm.verify_quasi_iso(U, U, zero)


def test_seeded_instances_all_pass():
    for seed in range(100):
        R = fm.random_diagonal_instance(seed)
        assert R.dim <= 40
        sub, inc, proj, hd = fm.shear_subalgebra(R)
        assert fm.diagonal_check(R)
        assert fm.verify_quasi_iso(sub, R, inc)
        assert fm.verify_quasi_iso(sub, hd.algebra, proj)


def _structure(A):
    return (A.p, list(A.bidegrees), A.mult.tolist(), sorted(A.unit.items()),
            np.mod(A.diff, A.p).tolist())


def test_structures_match_frozen_digest():
    # the structure constants, unit and differential of every algebra the
    # shear builds (R, its shear subalgebra, both cohomology algebras), the
    # inclusion, the projection and the representatives, for the diagonal
    # seeds 0-99, and of the non-diagonal seeds 0-49 with their cohomology
    parts = []
    for seed in range(100):
        R = fm.random_diagonal_instance(seed)
        sub, inc, proj, hd = fm.shear_subalgebra(R)
        hs = fm.cohomology(sub)
        parts.append([_structure(A) for A in (R, sub, hd.algebra, hs.algebra)]
                     + [inc.tolist(), proj.tolist(), hd.reps.tolist(),
                        hs.reps.tolist()])
    for seed in range(50):
        R = fm.random_nondiagonal_instance(seed)
        hd = fm.cohomology(R)
        parts.append([_structure(R), _structure(hd.algebra),
                      hd.reps.tolist()])
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert digest == FROZEN["formality_structures_sha256"]


# ---------------------------------------------------------------------------
# bigraded module data and the index shear, kept here as a check of the
# regrading convention omega(M<n>) = omega(M)[n]<n>; nothing in flagalg
# calls them


@dataclass(eq=False)
class BigradedComponents:
    """Bounded bigraded dg-module data: dims per bidegree and differential
    blocks of bidegree (1, 0)."""

    p: int
    dims: dict                 # (i, j) -> dimension
    diff: dict = field(default_factory=dict)  # (i, j) -> matrix to (i+1, j)

    def check(self):
        for (i, j), m in self.diff.items():
            if m.shape != (self.dims.get((i + 1, j), 0),
                           self.dims.get((i, j), 0)):
                raise StructuralError("differential block has wrong shape")
            nxt = self.diff.get((i + 1, j))
            if nxt is not None and m.size and nxt.size and \
                    np.any(la.mod_matmul(nxt, m, self.p)):
                raise StructuralError("d^2 != 0")

    def shift_internal(self, n):
        """<n>: component (i, j) of the result is component (i, j - n)."""
        return BigradedComponents(
            self.p,
            {(i, j + n): v for (i, j), v in self.dims.items()},
            {(i, j + n): m.copy() for (i, j), m in self.diff.items()})

    def shift_cohomological(self, n):
        """[n]: component (i, j) of the result is component (i + n, j)."""
        return BigradedComponents(
            self.p,
            {(i - n, j): v for (i, j), v in self.dims.items()},
            {(i - n, j): m.copy() for (i, j), m in self.diff.items()})

    def equal_to(self, other):
        a = {k: v for k, v in self.dims.items() if v}
        b = {k: v for k, v in other.dims.items() if v}
        if a != b:
            return False
        for k in set(self.diff) | set(other.diff):
            ma = self.diff.get(k)
            mb = other.diff.get(k)
            if ma is None or mb is None:
                if (ma is None or not ma.size or not np.any(ma)) and \
                   (mb is None or not mb.size or not np.any(mb)):
                    continue
                return False
            if ma.shape != mb.shape or \
                    not np.array_equal(ma % self.p, mb % self.p):
                return False
        return True


def omega_shear(M):
    """The index shear: component (i, j) of the result is component
    (i + j, j) of the input."""
    return BigradedComponents(
        M.p,
        {(i - j, j): v for (i, j), v in M.dims.items()},
        {(i - j, j): m.copy() for (i, j), m in M.diff.items()})


def omega_unshear(M):
    """Inverse regrading: component (i, j) of the result is component
    (i - j, j) of the input."""
    return BigradedComponents(
        M.p,
        {(i + j, j): v for (i, j), v in M.dims.items()},
        {(i + j, j): m.copy() for (i, j), m in M.diff.items()})


def test_omega_shear_bookkeeping():
    M = BigradedComponents(5, {(0, 0): 1, (2, 1): 3, (3, 1): 2},
                           {(2, 1): np.zeros((2, 3), dtype=np.int64)})
    O = omega_shear(M)
    assert O.dims == {(0, 0): 1, (1, 1): 3, (2, 1): 2}
    assert omega_unshear(O).equal_to(M)
    for n in (-2, 1, 3):
        lhs = omega_shear(M.shift_internal(n))
        rhs = omega_shear(M).shift_cohomological(n).shift_internal(n)
        assert lhs.equal_to(rhs)


def test_omega_shear_random_shift_law():
    rng = np.random.default_rng(5)
    for _ in range(10):
        dims = {}
        for _ in range(6):
            i, j = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            dims[(i, j)] = int(rng.integers(1, 4))
        M = BigradedComponents(5, dims)
        n = int(rng.integers(-3, 4))
        lhs = omega_shear(M.shift_internal(n))
        rhs = omega_shear(M).shift_cohomological(n).shift_internal(n)
        assert lhs.equal_to(rhs)


def test_components_check_raises_structural_error():
    one = np.ones((1, 1), dtype=np.int64)
    M = BigradedComponents(5, {(0, 0): 1, (1, 0): 1, (2, 0): 1},
                           {(0, 0): one, (1, 0): one})
    with pytest.raises(StructuralError, match=re.escape("d^2 != 0")):
        M.check()
    M = BigradedComponents(5, {(0, 0): 1}, {(0, 0): one})
    with pytest.raises(StructuralError, match="wrong shape"):
        M.check()


# ---------------------------------------------------------------------------
# the loop versions of mul_vec and check, kept as references


def _by_pair(A):
    """{(i, j): [(k, c)]}, from the rows (i, j, k, c) of A.mult."""
    out = {}
    for i, j, k, c in A.mult.tolist():
        out.setdefault((i, j), []).append((k, c))
    return out


def _mul_vec_loop(A, a, b, by_pair=None):
    by_pair = _by_pair(A) if by_pair is None else by_pair
    out = np.zeros(A.dim, dtype=np.int64)
    for i in np.nonzero(a)[0]:
        for j in np.nonzero(b)[0]:
            for k, c in by_pair.get((int(i), int(j)), ()):
                out[k] = (out[k] + int(a[i]) * int(b[j]) * c) % A.p
    return out


def _check_loop(A):
    p = A.p
    d2 = (A.diff @ A.diff) % p
    assert not np.any(d2), "d^2 != 0"
    for j in range(A.dim):
        i0, j0 = A.bidegrees[j]
        for i in np.nonzero(A.diff[:, j])[0]:
            assert A.bidegrees[int(i)] == (i0 + 1, j0), \
                "differential is not of bidegree (1, 0)"
    for a, b, k, c in A.mult.tolist():
        ia, ja = A.bidegrees[a]
        ib, jb = A.bidegrees[b]
        if c % p:
            assert A.bidegrees[k] == (ia + ib, ja + jb), \
                "product is not bidegree-additive"
    by_pair = _by_pair(A)
    u = A.unit_vector()
    for k in range(A.dim):
        e = np.zeros(A.dim, dtype=np.int64)
        e[k] = 1
        assert np.array_equal(_mul_vec_loop(A, u, e, by_pair), e), \
            "unit fails"
        assert np.array_equal(_mul_vec_loop(A, e, u, by_pair), e), \
            "unit fails"
    assert not np.any((A.diff @ u) % p), "d(1) != 0"
    for a in range(A.dim):
        for b in range(A.dim):
            ea = np.zeros(A.dim, dtype=np.int64)
            eb = np.zeros(A.dim, dtype=np.int64)
            ea[a] = 1
            eb[b] = 1
            lhs = (A.diff @ _mul_vec_loop(A, ea, eb, by_pair)) % p
            sign = 1 if A.bidegrees[a][0] % 2 == 0 else p - 1
            rhs = (_mul_vec_loop(A, (A.diff @ ea) % p, eb, by_pair)
                   + sign * _mul_vec_loop(A, ea, (A.diff @ eb) % p,
                                          by_pair)) % p
            assert np.array_equal(lhs, rhs), "Leibniz rule fails"
    # (a, b, c, l) -> the coefficient of e_l in (e_a e_b) e_c - e_a (e_b e_c)
    by_left, by_right = {}, {}      # i -> [(j, k, c)], j -> [(i, k, c)]
    for i, j, k, c in A.mult.tolist():
        by_left.setdefault(i, []).append((j, k, c))
        by_right.setdefault(j, []).append((i, k, c))
    assoc = {}
    for a, b, m, c1 in A.mult.tolist():
        for c, l, c2 in by_left.get(m, ()):
            assoc[a, b, c, l] = assoc.get((a, b, c, l), 0) + c1 * c2
    for b, c, m, c2 in A.mult.tolist():
        for a, l, c1 in by_right.get(m, ()):
            assoc[a, b, c, l] = assoc.get((a, b, c, l), 0) - c1 * c2
    assert all(v % p == 0 for v in assoc.values()), "associativity fails"


def _fresh(A):
    """A copy of A with nothing cached, so check runs again."""
    return fm.BigradedDgAlgebra(A.p, list(A.bidegrees), A.mult.copy(),
                                dict(A.unit), A.diff.copy())


def test_check_matches_loop_on_seeds():
    for seed in range(100):
        R = fm.random_diagonal_instance(seed)
        sub, _, _, hd = fm.shear_subalgebra(R)
        for A in (R, sub, hd.algebra):
            _check_loop(A)
            _fresh(A).check()


def _with_unit(bidegrees, diff_entries=(), products=(), p=5):
    """Basis element 0 is the unit at (0, 0); diff_entries are (row, col)
    positions of d set to 1; the rows (i, j, k, c) of products replace
    the unit's products e_i e_j."""
    n = len(bidegrees)
    diff = np.zeros((n, n), dtype=np.int64)
    for r, c in diff_entries:
        diff[r, c] = 1
    products = list(products)
    replaced = {(i, j) for i, j, _, _ in products}
    mult = [(i, j, k, 1) for k in range(n) for i, j in {(0, k), (k, 0)}
            if (i, j) not in replaced] + products
    return fm.BigradedDgAlgebra(p, list(bidegrees), mult, {0: 1}, diff)


def _broken_leibniz():
    # d x = y, d w = v and x x = w: d(x x) = v but (dx) x + x (dx) = 0
    return _with_unit([(0, 0), (0, 1), (1, 1), (0, 2), (1, 2)],
                      [(2, 1), (4, 3)], [(1, 1, 3, 1)])


def _broken_leibniz_in_last_chunk(pad=36):
    # the same failure with x the last basis element, after pad closed
    # elements
    n = pad + 5
    y, w, v, x = range(pad + 1, n)
    return _with_unit([(0, 0)] + [(2, 2)] * pad + [(1, 1), (0, 2), (1, 2),
                                                   (0, 1)],
                      [(y, x), (v, w)], [(x, x, w, 1)])


def _non_associative():
    # x x = y and x y = z, but y x = 0: (x x) x = 0 and x (x x) = z
    return _with_unit([(0, 0), (1, 1), (2, 2), (3, 3)], (),
                      [(1, 1, 2, 1), (1, 2, 3, 1)])


MUTANTS = [
    ("d^2 != 0",
     lambda: _with_unit([(0, 0), (0, 1), (1, 1), (2, 1)], [(2, 1), (3, 2)])),
    ("differential is not of bidegree (1, 0)",
     lambda: _with_unit([(0, 0), (0, 1), (1, 2)], [(2, 1)])),
    ("product is not bidegree-additive",
     lambda: _with_unit([(0, 0), (1, 1), (2, 1)], (), [(1, 1, 2, 1)])),
    ("unit fails",                                     # left unit
     lambda: _with_unit([(0, 0), (1, 1)], (), [(0, 1, 1, 2)])),
    ("unit fails",                                     # right unit
     lambda: _with_unit([(0, 0), (1, 1)], (), [(1, 0, 1, 2)])),
    ("d(1) != 0",
     lambda: _with_unit([(0, 0), (1, 0)], [(1, 0)])),
    ("Leibniz rule fails", _broken_leibniz),
    ("Leibniz rule fails", _broken_leibniz_in_last_chunk),
    ("associativity fails", _non_associative),
]


@pytest.mark.parametrize("message, build", MUTANTS)
def test_check_rejects_each_mutant(message, build):
    with pytest.raises(AssertionError, match=re.escape(message)):
        _check_loop(build())
    with pytest.raises(StructuralError, match=re.escape(message)):
        build().check()


def test_mul_vec_matches_loop():
    rng = np.random.default_rng(7)
    algebras = [fm.random_diagonal_instance(seed) for seed in range(5)]
    for _ in range(5):
        # arbitrary structure constants, in no order and with
        # coefficients outside [0, p)
        n = int(rng.integers(1, 8))
        mult = [(a, b, int(k), int(rng.integers(-9, 9)))
                for a in range(n) for b in range(n) if rng.random() < 0.6
                for k in np.unique(rng.integers(0, n, size=3))]
        rng.shuffle(mult)
        algebras.append(fm.BigradedDgAlgebra(
            7, [(0, 0)] * n, mult, {}, np.zeros((n, n), dtype=np.int64)))
    for A in algebras:
        for _ in range(10):
            a, b = rng.integers(-12, 12, size=(2, A.dim))
            assert np.array_equal(A.mul_vec(a, b), _mul_vec_loop(A, a, b))


_LEIBNIZ_UNDER_O = """
import numpy as np
from flagalg import formality as fm
from flagalg.galgebra import StructuralError
if __debug__:
    raise SystemExit("expected python -O")


def broken(bidegrees, x, y, w, v):
    # d x = y, d w = v and x x = w
    n = len(bidegrees)
    diff = np.zeros((n, n), dtype=np.int64)
    diff[y, x] = diff[v, w] = 1
    mult = [(0, k, k, 1) for k in range(n)] + \\
        [(k, 0, k, 1) for k in range(1, n)] + [(x, x, w, 1)]
    return fm.BigradedDgAlgebra(5, bidegrees, mult, {0: 1}, diff)


pad = 36            # x last, after pad closed elements
# x x = y and x y = z, but y x = 0
non_associative = fm.BigradedDgAlgebra(
    5, [(0, 0), (1, 1), (2, 2), (3, 3)],
    [(0, k, k, 1) for k in range(4)] + [(k, 0, k, 1) for k in range(1, 4)]
    + [(1, 1, 2, 1), (1, 2, 3, 1)], {0: 1}, np.zeros((4, 4), dtype=int))
for R in (broken([(0, 0), (0, 1), (1, 1), (0, 2), (1, 2)], 1, 2, 3, 4),
          broken([(0, 0)] + [(2, 2)] * pad +
                 [(1, 1), (0, 2), (1, 2), (0, 1)],
                 pad + 4, pad + 1, pad + 2, pad + 3),
          non_associative):
    try:
        R.check()
    except StructuralError as exc:
        print("StructuralError:", exc)
"""


def test_broken_leibniz_raises_structural_error_under_O():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _LEIBNIZ_UNDER_O],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == \
        ["StructuralError: Leibniz rule fails"] * 2 + \
        ["StructuralError: associativity fails"]


def test_classify_rejects_non_cycles():
    # the middle basis vector a has d(a) = b
    R = acyclic_pair(at=(0, 0))
    hd = fm.cohomology(R)
    with pytest.raises(StructuralError, match="vector is not a cycle/"):
        hd.classify(np.array([[0, 1, 0]]))
    R = acyclic_pair(at=(0, 1))
    with pytest.raises(StructuralError, match="vector is not a cycle$"):
        fm.cohomology(R).classify(np.array([[0, 1, 0]]))


def test_shear_not_closed_raises_structural_error():
    # x x = w leaves ker d at (2, 2); only a skipped check lets R through
    R = _with_unit([(0, 0), (1, 1), (2, 2), (3, 2)], [(3, 2)],
                   [(1, 1, 2, 1)])
    with pytest.raises(StructuralError, match="Leibniz rule fails"):
        _fresh(R).check()
    R._checked = True
    with pytest.raises(StructuralError,
                       match="shear subalgebra is not closed"):
        fm.shear_subalgebra(R)


def test_shear_basis_independence_is_certified(monkeypatch):
    # one row of the first block of the sub's basis repeated: without the
    # independence certificate this surfaces only as an out-of-range
    # structure constant from canonical_mult
    R = fm.random_diagonal_instance(3)
    lift, repeated = fm._lift, []

    def repeat_first_row(R, idxs, local):
        if not repeated and len(local):
            repeated.append(idxs)
            local = np.concatenate([local, local[:1]])
        return lift(R, idxs, local)

    monkeypatch.setattr(fm, "_lift", repeat_first_row)
    with pytest.raises(StructuralError, match="^basis is not independent$"):
        fm.shear_subalgebra(R)
    assert repeated


# ---------------------------------------------------------------------------
# cohomology one bidegree at a time, kept as the reference for the one
# elimination over the whole differential


def _cohomology_by_bidegree(R):
    """The cohomology of R from one nullspace and one RREF of [image |
    kernel] per bidegree, built like fm.cohomology."""
    R.check()
    p = R.p
    by_bd = fm._by_bidegree(R)
    reps, rep_bd, offset, bases = [], [], {}, {}
    for bd, idxs in by_bd.items():
        i, j = bd
        ker = la.mod_nullspace(R.diff[np.ix_(by_bd.get((i + 1, j), []),
                                             idxs)], p)
        img = np.mod(R.diff[np.ix_(idxs, by_bd.get((i - 1, j), []))], p)
        _, piv = la.mod_rref(np.concatenate([img, ker.T], axis=1), p)
        h_local = ker[[c - img.shape[1] for c in piv if c >= img.shape[1]]]
        bases[bd] = (idxs, np.concatenate(
            [h_local, img[:, piv[:len(piv) - len(h_local)]].T]), len(h_local))
        offset[bd] = len(rep_bd)
        reps.append(fm._lift(R, idxs, h_local))
        rep_bd.extend([bd] * len(h_local))
    reps_arr = np.concatenate(reps)

    def classify(vecs):
        vecs = np.mod(vecs, p)
        out = np.zeros((len(vecs), len(rep_bd)), dtype=np.int64)
        for bd, (idxs, basis, nh) in bases.items():
            local = vecs[:, idxs]
            if np.any(local):
                coords = la.mod_coordinates(basis, p, outside=(
                    "vector is not a cycle/boundary combo" if len(basis)
                    else "vector is not a cycle"))[0]
                out[:, offset[bd]: offset[bd] + nh] = coords(local)[:, :nh]
        return out

    h = len(rep_bd)
    # every product of two representatives, over the dense structure tensor
    T = la.structure_tensor(R.mult, R.dim)
    cls = classify(np.concatenate(
        [la.tensor_products(T, reps_arr, reps_arr, p).reshape(-1, R.dim),
         R.unit_vector()[None]]))
    t, k = np.nonzero(cls[:-1])
    H = fm.BigradedDgAlgebra(
        p, rep_bd, np.column_stack([t // h, t % h, k, cls[t, k]]),
        fm._entry(cls[-1]), np.zeros((h, h), dtype=np.int64))
    return fm.CohomologyData(H, reps_arr, classify)


def _parity_algebras():
    """The algebras the one-elimination cohomology is compared on: the
    diagonal seeds 0-199 with their shears and cohomology algebras, the
    non-diagonal seeds 0-49, and the hand-built ones."""
    for seed in range(200):
        R = fm.random_diagonal_instance(seed)
        sub, _, _, hd = fm.shear_subalgebra(R)
        yield from (_fresh(R), _fresh(sub), _fresh(hd.algebra))
    for seed in range(50):
        yield fm.random_nondiagonal_instance(seed)
    yield unit_line()
    for at in ((0, 0), (0, 1), (-2, 3)):
        yield acyclic_pair(at=at)
    yield _with_unit([(0, 0), (1, 1)])
    yield _with_unit([(0, 0), (0, 0), (1, 0)], [(2, 1)])
    yield _with_unit([(0, 0), (0, 1), (1, 1), (0, 2), (1, 2)],
                     [(2, 1), (4, 3)])


def test_cohomology_matches_per_bidegree_reference():
    rng = np.random.default_rng(11)
    count = 0
    for R in _parity_algebras():
        ref = _cohomology_by_bidegree(R)
        got = fm.cohomology(R)
        assert np.array_equal(got.reps, ref.reps)
        assert got.algebra.bidegrees == ref.algebra.bidegrees
        assert np.array_equal(got.algebra.mult, ref.algebra.mult)
        assert got.algebra.unit == ref.algebra.unit
        cycles = la.mod_nullspace(R.diff, R.p)
        batch = la.mod_matmul(
            rng.integers(0, R.p, size=(6, len(cycles))), cycles, R.p)
        assert np.array_equal(got.classify(batch), ref.classify(batch))
        count += 1
    assert count == 657


def test_products_match_dense_contraction():
    # _products against two contractions with the dense structure tensor,
    # on random rows X with every entry in [0, p)
    rng = np.random.default_rng(17)
    for trial in range(30):
        p = int(rng.choice([3, 5, 7]))
        R = _truncated_polynomial_exterior(rng, p)
        X = rng.integers(0, p, size=(int(rng.integers(0, 5)), R.dim))
        X[rng.random(X.shape) < 0.5] = 0
        dense = la.tensor_products(la.structure_tensor(R.mult, R.dim), X, X,
                                   p).reshape(-1, R.dim)
        pairs, vecs = fm._products(R, X)
        assert np.array_equal(pairs, np.flatnonzero(dense.any(axis=1)))
        assert np.array_equal(vecs, dense[pairs])


def test_cohomology_with_products_matches_reference():
    # cohomology algebras with nonzero products of representatives
    rng = np.random.default_rng(13)
    for _ in range(30):
        R = _truncated_polynomial_exterior(rng, int(rng.choice([3, 5, 7])))
        _check_loop(R)
        ref, got = _cohomology_by_bidegree(R), fm.cohomology(R)
        assert np.array_equal(got.reps, ref.reps)
        assert np.array_equal(got.algebra.mult, ref.algebra.mult)
        assert got.algebra.unit == ref.algebra.unit
        cycles = la.mod_nullspace(R.diff, R.p)
        batch = la.mod_matmul(
            rng.integers(0, R.p, size=(6, len(cycles))), cycles, R.p)
        assert np.array_equal(got.classify(batch), ref.classify(batch))


def test_cohomology_eliminates_once_whatever_the_bidegrees(monkeypatch):
    # one nullspace, one RREF and the class map's one coordinates map
    calls = {"rref": 0, "coordinates": 0}
    rref, coordinates = la.mod_rref, la.mod_coordinates

    def counted(name, fn):
        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(la, "mod_rref", counted("rref", rref))
    monkeypatch.setattr(la, "mod_coordinates",
                        counted("coordinates", coordinates))
    sizes = set()
    for seed in range(20):
        R = fm.random_diagonal_instance(seed)
        calls.update(rref=0, coordinates=0)
        fm.cohomology(R)
        sizes.add(len(R.dims_by_bidegree()))
        assert calls["rref"] - calls["coordinates"] == 2
        assert calls["coordinates"] == 1
    assert len(sizes) > 5


def _truncated_polynomial_exterior(rng, p, N=None):
    """F_p[x]/(x^N) tensor Lambda(y), d y = lam x^m, on the basis x^a,
    x^a y, each basis vector rescaled by a random unit (but the unit) and
    the basis shuffled; N is random in [2, 6] unless given.  x has
    bidegree (2, jx), so y has (2 m - 1, m jx); x commutes with y."""
    N = int(rng.integers(2, 7)) if N is None else N
    m = int(rng.integers(1, N + 1))
    jx = int(rng.integers(-1, 3))
    lam = int(rng.integers(1, p))
    n = 2 * N
    bd = [(2 * a, a * jx) for a in range(N)] + \
        [(2 * (a + m) - 1, (a + m) * jx) for a in range(N)]
    rows = []                       # x^a x^b, x^a (x^b y), (x^a y) x^b
    for a in range(N):
        for b in range(N - a):
            rows += [(a, b, a + b, 1), (a, N + b, N + a + b, 1)]
            rows += [(N + a, b, N + a + b, 1)]
    diff = np.zeros((n, n), dtype=np.int64)
    for a in range(N - m):
        diff[a + m, N + a] = lam
    # e'_k = scale[k] e_k, then e'_k renamed perm[k]
    scale = np.concatenate([[1], rng.integers(1, p, size=n - 1)])
    perm = rng.permutation(n)
    inv = [pow(int(v), p - 2, p) for v in scale]
    mult = [(perm[a], perm[b], perm[k],
             c * int(scale[a]) * int(scale[b]) * inv[k] % p)
            for a, b, k, c in rows]
    new_diff = np.zeros((n, n), dtype=np.int64)
    r, c = np.nonzero(diff)
    new_diff[perm[r], perm[c]] = diff[r, c] * scale[c] % p * \
        np.array(inv)[r] % p
    new_bd = [None] * n
    for k in range(n):
        new_bd[perm[k]] = bd[k]
    return fm.BigradedDgAlgebra(p, new_bd, mult, {int(perm[0]): 1},
                                new_diff)


def _corrupted(A, rng):
    """A copy of A with one structure constant changed, dropped or added,
    or one entry of D changed."""
    p, n = A.p, A.dim
    mult, diff = A.mult.copy(), A.diff.copy()
    kind = int(rng.integers(4))
    # mostly a row that is not a product with the unit
    inner = np.flatnonzero(~np.isin(mult[:, :2], list(A.unit)).any(axis=1))
    r = int(rng.choice(inner)) if len(inner) and rng.random() < 0.7 else \
        int(rng.integers(len(mult)))
    if kind == 0:
        mult[r, 3] = (mult[r, 3] + rng.integers(1, p - 1)) % p or p - 1
    elif kind == 1:
        mult = np.delete(mult, r, axis=0)
    elif kind == 2:
        taken = {tuple(r) for r in mult[:, :3].tolist()}
        a, b = (int(v) for v in rng.integers(n, size=2))
        bd = np.add(A.bidegrees[a], A.bidegrees[b]).tolist()
        fits = [k for k in range(n) if list(A.bidegrees[k]) == bd]
        ks = [k for k in (fits if fits and rng.random() < 0.7
                          else range(n)) if (a, b, k) not in taken]
        if ks:
            mult = np.concatenate(
                [mult, [[a, b, int(rng.choice(ks)), rng.integers(1, p)]]])
    else:
        r, c = (int(v) for v in rng.integers(n, size=2))
        fits = [(x, y) for x in range(n) for y in range(n)
                if np.array_equal(np.subtract(A.bidegrees[x],
                                              A.bidegrees[y]), (1, 0))]
        if fits and rng.random() < 0.8:
            r, c = fits[int(rng.integers(len(fits)))]
        diff[r, c] = (diff[r, c] + rng.integers(1, p)) % p
    return fm.BigradedDgAlgebra(p, list(A.bidegrees), mult, dict(A.unit),
                                diff)


def _verdict(run):
    try:
        run()
    except (AssertionError, StructuralError) as exc:
        return str(exc).splitlines()[0]     # not pytest's explanation
    return None


def test_check_agrees_with_loop_on_corrupted_algebras():
    # 200 seeded sparse algebras with one corrupted row or entry of D: the
    # same verdict and message from check and from the loop reference
    rng = np.random.default_rng(29)
    seen = []
    for seed in range(200):
        p = int(rng.choice([3, 5, 7]))
        A = _truncated_polynomial_exterior(rng, p) if seed % 2 else \
            fm.random_diagonal_instance(seed, max_dim=12, p=p)
        B = _corrupted(A, rng)
        got = _verdict(B.check)
        assert got == _verdict(lambda: _check_loop(_fresh(B))), seed
        seen.append(got)
    assert {None, "d^2 != 0", "differential is not of bidegree (1, 0)",
            "product is not bidegree-additive", "unit fails",
            "Leibniz rule fails", "associativity fails"} <= set(seen)


def test_certificates_need_no_structure_tensor(monkeypatch):
    # at dim 40 every certificate reads the rows of mult and the nonzeros
    # of D: forming or contracting a dense structure tensor raises
    def refuse(*args):
        raise AssertionError("dense structure tensor")

    algebras = [fm.random_diagonal_instance(94),
                _truncated_polynomial_exterior(np.random.default_rng(1), 5,
                                               N=20)]
    monkeypatch.setattr(la, "structure_tensor", refuse)
    monkeypatch.setattr(la, "tensor_products", refuse)
    verdicts = []
    for R in map(_fresh, algebras):
        assert R.dim == 40
        R.check()
        hd = fm.cohomology(R)
        sub, inc, proj, _ = fm.shear_subalgebra(R)
        verdicts.append((fm.verify_quasi_iso(sub, R, inc),
                         fm.verify_quasi_iso(sub, hd.algebra, proj)))
    assert verdicts[0] == (True, True)
    assert len(algebras[1].mult) > 600


def test_modulus_is_a_prime_with_exact_int64_products():
    def build(p):
        return fm.BigradedDgAlgebra(p, [(0, 0)], [(0, 0, 0, 1)], {0: 1},
                                    np.zeros((1, 1), dtype=np.int64))

    for p in (0, 1, 4, 6, 25):
        with pytest.raises(ValueError, match=f"^p = {p} is not prime$"):
            build(p)
    # (p - 1)^2 < 2^63 for the prime 3037000493, not for 3037000507
    assert build(3037000493).p == 3037000493
    for p in (3037000507, 2**61 - 1):
        with pytest.raises(OverflowError, match="modulus too large"):
            build(p)
