import random
from fractions import Fraction

import numpy as np
import pytest

from flagalg import _linalg as la


def test_rref_nullspace_roundtrip():
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert la.mod_rank(a, 5) == 2
    ns = la.mod_nullspace(a, 5)
    assert ns.shape[0] == 1
    assert not np.any((a @ ns.T) % 5)


def test_minpoly_jordan():
    b = np.array([[2, 1], [0, 2]])
    assert la.mod_minpoly(b, 5) == [4, 1, 1]  # (X - 2)^2


@pytest.mark.parametrize("p", [3, 5, 13])
def test_poly_squarefree_and_roots(p):
    f = la.poly_mul(la.poly_pow([3 % p, 1], 2, p), [1, 1], p)
    parts = la.coprime_power_split(f, p)
    prod = [1]
    for g in parts:
        prod = la.poly_mul(prod, g, p)
    assert la.poly_monic(prod, p) == la.poly_monic(f, p)


def test_radical_small_algebras():
    # F[x]/(x^2): rad = (x)
    mult = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    rad = la.algebra_radical(mult, 5)
    assert rad.shape[0] == 1 and rad[0][1] != 0
    # F x F: semisimple
    mult2 = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    assert la.algebra_radical(mult2, 5).shape[0] == 0
    # M_2(F): semisimple
    idx = [(0, 0), (0, 1), (1, 0), (1, 1)]

    def emul(a, b):
        (i, j), (k, l) = a, b
        out = [0] * 4
        if j == k:
            out[idx.index((i, l))] = 1
        return out

    mult3 = [[emul(a, b) for b in idx] for a in idx]
    assert la.algebra_radical(mult3, 5).shape[0] == 0
    # upper triangular 2x2: rad = strictly upper part
    t_idx = [(0, 0), (0, 1), (1, 1)]

    def tmul(a, b):
        (i, j), (k, l) = a, b
        out = [0] * 3
        if j == k and (i, l) in t_idx:
            out[t_idx.index((i, l))] = 1
        return out

    mult4 = [[tmul(a, b) for b in t_idx] for a in t_idx]
    rad4 = la.algebra_radical(mult4, 3)
    assert rad4.shape[0] == 1


def test_radical_certificates_raise_structural_errors():
    # in M_2(F_5) (basis E11, E12, E21, E22), E21 E11 = E21 leaves the span
    # of E11; in F_5 x F_5 the span of (1, 0) is an ideal, but idempotent
    idx = [(0, 0), (0, 1), (1, 0), (1, 1)]
    m2 = np.zeros((4, 4, 4), dtype=np.int64)
    for a, (i, j) in enumerate(idx):
        for b, (k, m) in enumerate(idx):
            if j == k:
                m2[a, b, idx.index((i, m))] = 1
    with pytest.raises(la.StructuralError, match="not an ideal"):
        la._check_nilpotent_ideal(m2, np.array([[1, 0, 0, 0]]), 5)
    split = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    with pytest.raises(la.StructuralError, match="not nilpotent"):
        la._check_nilpotent_ideal(split, np.array([[1, 0]]), 5)


def test_lloc_saturation():
    rows = [[Fraction(1), Fraction(0), Fraction(1, 5)],
            [Fraction(0), Fraction(1), Fraction(1, 5)]]
    sat = la.lloc_saturate(rows, 5)
    assert len(sat) == 2
    # (1, -1, 0) lies in the span and must be an l-integral combination
    assert _in_lattice([[1, -1, 0]], sat, 5)
    assert la.mod_rank(la.lloc_mod_ell(sat, 5), 5) == 2  # saturated


def test_frac_coordinates():
    basis = [[1, 2, 0], [0, Fraction(1, 3), 1]]
    assert la.frac_coordinates(basis, [[2, 5, 3], [0, 0, 0]]) == [[2, 3],
                                                                  [0, 0]]
    assert la.frac_coordinates(basis, [[1, 2, 0], [0, 0, 1]]) is None
    assert la.frac_coordinates(basis, []) == []
    assert la.frac_coordinates([], [[0, 0]]) == [[]]
    assert la.frac_coordinates([], [[0, 1]]) is None
    with pytest.raises(la.StructuralError,
                       match="^basis is not independent$"):
        la.frac_coordinates([[1, 2], [2, 4]], [[1, 2]])


def _smith_exponents(rows, ell):
    """Exponents of the elementary divisors l^e of the Z_(l)-span of the
    rows inside Z_(l)^n, by Smith reduction over the local PID Z_(l): the
    reference for the saturation test and for lloc_basis."""
    m = [[Fraction(x) for x in row] for row in rows]
    for row in m:
        for x in row:
            if not la.is_l_integral(x, ell):
                raise ValueError("matrix is not l-integral")
    exps = []
    while m and any(any(x != 0 for x in row) for row in m):
        best = None
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                if x != 0:
                    v = la.lval(x, ell)
                    if best is None or v < best[0]:
                        best = (v, i, j)
        v, i, j = best
        exps.append(v)
        piv = m[i][j]
        # clear column j with row operations, then row i with column ops
        for k in range(len(m)):
            if k != i and m[k][j] != 0:
                f = m[k][j] / piv
                m[k] = [x - f * y for x, y in zip(m[k], m[i])]
        for jj in range(len(m[i])):
            if jj != j and m[i][jj] != 0:
                f = m[i][jj] / piv
                for k in range(len(m)):
                    m[k][jj] -= f * m[k][j]
        m = [[x for jj, x in enumerate(row) if jj != j]
             for ii, row in enumerate(m) if ii != i]
    return sorted(exps)


def _in_lattice(vectors, basis, ell):
    """Are the vectors l-integral combinations of the basis rows?"""
    coords = la.frac_coordinates(basis, vectors)
    return coords is not None and all(la.is_l_integral(x, ell)
                                      for row in coords for x in row)


def _free_quotient(rows, ell):
    """The saturation test: l-integral rows are a basis of a direct
    summand exactly when they stay independent mod l."""
    return la.mod_rank(la.lloc_mod_ell(rows, ell), ell) == len(rows)


def test_elementary_exponents():
    # the Smith reference itself, and the saturation test that replaced it
    # in the library: Q-dependent rows are not a basis of a direct summand
    assert _smith_exponents([[1, 1], [0, 5]], 5) == [0, 1]
    assert _smith_exponents([[2, 0], [0, 3]], 5) == [0, 0]
    assert not _free_quotient([[1, 1], [0, 5]], 5)
    assert _free_quotient([[2, 0], [0, 3]], 5)
    assert not _free_quotient([[1, 0], [2, 0]], 5)
    for check in (_smith_exponents, _free_quotient):
        with pytest.raises(ValueError):
            check([[Fraction(1, 5)]], 5)


def _random_l_integral(rng, ell):
    """An l-integral rational: a small integer times a power of l, over a
    denominator prime to l."""
    den = rng.choice([d for d in (1, 1, 2, 3, 4, 7) if d % ell])
    return Fraction(rng.randint(-3, 3) * ell ** rng.choice([0, 0, 1, 2]),
                    den)


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_saturation_test_and_lloc_basis_match_smith_reduction(ell):
    # random l-integral rows, a third of them with a row dependent on the
    # others over Q: the saturation test agrees with the Smith exponents,
    # and lloc_basis is a basis of the same lattice (it holds the rows,
    # and has the same rank and elementary divisors inside Z_(l)^n)
    rng = random.Random(ell)
    for _ in range(150):
        n = rng.randint(1, 4)
        rows = [[_random_l_integral(rng, ell) for _ in range(n)]
                for _ in range(rng.randint(0, 4))]
        if len(rows) > 1 and rng.random() < 1 / 3:
            a, b = rng.sample(rows, 2)
            c = rng.randint(-2, 2)
            rows.insert(rng.randrange(len(rows)),
                        [x + c * y for x, y in zip(a, b)])
        exps = _smith_exponents(rows, ell)
        assert _free_quotient(rows, ell) == (
            len(exps) == len(rows) and not any(exps))
        basis = la.lloc_basis(rows, ell)
        assert len(basis) == len(exps)
        assert _smith_exponents(basis, ell) == exps
        assert _in_lattice(rows, basis, ell)


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_lloc_basis_of_a_redundant_spanning_set(ell):
    # a basis B, spanned again by unit multiples of its rows mixed with
    # l b and b1 + b2: each basis has l-integral coordinates in the other
    rng = random.Random(10 + ell)
    units = [u for u in (1, -1, 2, 3, 7) if u % ell]
    checked = 0
    while checked < 60:
        n = rng.randint(1, 4)
        B = [[_random_l_integral(rng, ell) for _ in range(n)]
             for _ in range(rng.randint(1, n))]
        if len(_smith_exponents(B, ell)) < len(B):
            continue
        rows = [[u * x for x in b] for u, b in zip(
            rng.choices(units, k=len(B)), B)]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(B), rng.choice(B)
            rows.append(rng.choice([[ell * x for x in a],
                                    [x + y for x, y in zip(a, b)]]))
        rng.shuffle(rows)
        basis = la.lloc_basis(rows, ell)
        assert _in_lattice(B, basis, ell) and _in_lattice(basis, B, ell)
        checked += 1


def frac_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


@pytest.mark.parametrize("e", range(10))
def test_frac_matpow_by_binary_powering(e, monkeypatch):
    a = frac_mat([[1, Fraction(1, 2), 0], [0, 2, 1], [-1, 0, 3]])
    want = la.frac_identity(3)
    for _ in range(e):
        want = la.frac_matmul(want, a)
    products = []
    matmul = la.frac_matmul
    monkeypatch.setattr(la, "frac_matmul",
                        lambda x, y: products.append(1) or matmul(x, y))
    got = la.frac_matpow(a, e)
    assert got == want and got is not a
    # a square per bit below the top one and a product per further set
    # bit: a^1 takes none and a^5 three
    assert len(products) == max(e.bit_length() - 1, 0) + \
        max(bin(e).count("1") - 1, 0)


def test_charpoly():
    assert la.int_charpoly([[1, 0], [0, 6]]) == [6, -7, 1]


def _frac_charpoly(a):
    """Faddeev-LeVerrier over Q: the reference for int_charpoly."""
    n = len(a)
    cs = [Fraction(1)] + [Fraction(0)] * n
    mk = la.frac_identity(n)
    for k in range(1, n + 1):
        amk = la.frac_matmul(frac_mat(a), mk)
        cs[k] = -sum(amk[i][i] for i in range(n)) / k
        mk = [[amk[i][j] + (cs[k] if i == j else 0) for j in range(n)]
              for i in range(n)]
    return list(reversed(cs))


@pytest.mark.parametrize("n", range(7))
def test_int_charpoly_matches_rational_reference(n):
    rng = random.Random(n)
    for trial in range(20):
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if trial % 4 == 0 and n:
            a[-1] = [2 * x for x in a[0]]       # singular
        got = la.int_charpoly(a)
        assert got == _frac_charpoly(a)
        assert all(type(c) is int for c in got) and got[-1] == 1


def test_int_charpoly_certifies_each_trace_division(monkeypatch):
    # a product off by one in a corner: at step 2 the trace of a M_2 is
    # odd, and no integer coefficient exists
    matmul = la.frac_matmul

    def off_by_one(x, y):
        out = matmul(x, y)
        out[0][0] += 1
        return out

    monkeypatch.setattr(la, "frac_matmul", off_by_one)
    with pytest.raises(la.StructuralError, match="not divisible by 2"):
        la.int_charpoly([[0, 0], [0, 0]])


def _frac_det_loop(a):
    """Gaussian elimination over Q: the reference for the Bareiss
    frac_det."""
    m = frac_mat(a)
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(c + 1, n):
            f = m[i][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def test_frac_det_matches_elimination():
    rng = random.Random(3)
    cases = [[], [[Fraction(2, 3)]], [[0, 1], [1, 0]],
             [[0, 0, 1], [0, 2, 0], [3, 0, 0]], [[1, 2], [2, 4]]]
    for trial in range(200):
        n = rng.randint(1, 6)
        a = [[Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 7]))
              for _ in range(n)] for _ in range(n)]
        if trial % 5 == 0:
            a[rng.randrange(n)] = [Fraction(0)] * n       # singular
        if trial % 5 == 1 and n > 1:
            a[1] = [3 * x for x in a[0]]                 # singular
        if trial % 5 == 2:
            for row in a:
                row[0] = Fraction(0)                     # singular
        if trial % 5 == 3:
            a[0][0] = Fraction(0)                        # a row swap
        cases.append(a)
    for a in cases:
        got = la.frac_det(a)
        assert got == _frac_det_loop(a) and isinstance(got, Fraction)
    assert la.frac_det([]) == 1
    assert la.frac_det([[0, 1], [1, 0]]) == -1


# ---------------------------------------------------------------------------
# loop references for the F_p elimination kernel


def _mod_rref_loop(a, p):
    """Full-matrix update at every pivot: the reference for mod_rref."""
    m = np.mod(np.array(a, dtype=np.int64), p)
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def _mod_nullspace_loop(a, p):
    """Free-column basis built entry by entry: the reference for
    mod_nullspace."""
    a = np.mod(np.array(a, dtype=np.int64), p)
    ncols = a.shape[1]
    r, pivots = _mod_rref_loop(a, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(r[i, c])) % p
    return basis


@pytest.mark.parametrize("p", [2, 5, 13, 10007])
def test_mod_rref_matches_loop(p):
    rng = np.random.default_rng(p)
    for shape in [(0, 0), (0, 4), (4, 0), (1, 1), (3, 9), (9, 4), (25, 8),
                  (8, 25), (16, 16)]:
        full = rng.integers(0, p, size=shape)
        sparse = full * (rng.random(shape) < 0.2)
        low_rank = rng.integers(0, p, size=(shape[0], 2)) @ \
            rng.integers(0, p, size=(2, shape[1]))
        for a in (full, sparse, low_rank, -full):
            r, piv = la.mod_rref(a, p)
            r0, piv0 = _mod_rref_loop(a, p)
            assert piv == piv0
            assert r.dtype == r0.dtype and np.array_equal(r, r0)
            if shape[1]:
                assert np.array_equal(la.mod_nullspace(a, p),
                                      _mod_nullspace_loop(a, p))


def _mod_minpoly_echelon(a, p):
    """Per start vector, Krylov vectors inserted one at a time into an
    incremental echelon form until one depends on the earlier ones: the
    reference for mod_minpoly."""
    a = np.mod(np.array(a, dtype=np.int64), p)
    n = a.shape[0]
    g = [1]
    for start in range(n):
        ech = la._Echelon(n, p)
        w = np.eye(1, n, start, dtype=np.int64)[0]
        while (dep := ech.insert(w)) is None:
            w = (a @ w) % p
        g = la.poly_lcm(g, [(-int(c)) % p for c in dep] + [1], p)
        if len(g) == n + 1:
            break
    return g


@pytest.mark.parametrize("p", [2, 3, 7])
def test_minpoly_matches_echelon(p):
    rng = np.random.default_rng(p)
    cases = [np.zeros((1, 1)), np.eye(4) * 3, np.diag([1, 1, 2, 0, 0])]
    for n in (1, 2, 5, 9):
        cases.append(rng.integers(0, p, size=(n, n)))
        # nilpotent, and rank one
        cases.append(np.triu(rng.integers(0, p, size=(n, n)), 1))
        cases.append(np.outer(rng.integers(0, p, size=n),
                              rng.integers(0, p, size=n)))
    for a in cases:
        assert la.mod_minpoly(a, p) == _mod_minpoly_echelon(a, p)


def test_is_prime():
    assert [n for n in range(-2, 40) if la.is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert la.is_prime(4294967311) and not la.is_prime(65537 * 65539)


def test_mod_rref_rejects_modulus_beyond_int64():
    # (p - 1)^2 > 2^63 - 1: the int64 row update would wrap silently
    with pytest.raises(OverflowError):
        la.mod_rref([[1, 2], [3, 4]], 4294967311)


def test_mod_matmul_overflow_names_both_bounds():
    p = 2147483647      # (p - 1)^2 < 2**62 <= 2 (p - 1)^2
    a = np.ones((2, 2), dtype=np.int64)
    assert la.mod_matmul(a[:, :1], a[:1], p).tolist() == [[1, 1], [1, 1]]
    with pytest.raises(OverflowError) as exc:
        la.mod_matmul(a, a, p)
    msg = str(exc.value)
    assert "modulus too large" in msg
    assert "k = 2" in msg and f"p = {p}" in msg
    assert "2**53" in msg and "2**62" in msg


# (shape of a, shape of b) for inner dimension k: matrix-vector products,
# products on both sides of la._BLAS_MIN_WORK multiply-adds, and both
# stacked forms
_MATMUL_SHAPES = [
    lambda k: ((1, k), (k, 70)),
    lambda k: ((70, k), (k, 1)),
    lambda k: ((3, k), (k, 5)),
    lambda k: ((64, k), (k, 64)),
    lambda k: ((64, k), (5, k, 64)),
    lambda k: ((5, 64, k), (k, 64)),
    lambda k: ((1, k), (5, k, 64)),
]


@pytest.mark.parametrize("p,ks", [
    (3, [0, 1, 5, 64]),
    (13, [0, 2, 33, 130]),
    (10007, [0, 3, 64, 200]),
    # 2**53 / (p - 1)**2 = 2.0000004: products with k <= 2 are exact in
    # float64, those with k >= 3 only in int64
    (67108859, [0, 1, 2, 3, 40]),
])
def test_mod_matmul_matches_object_reference(p, ks):
    rng = np.random.default_rng(p)
    for k in ks:
        for shapes in _MATMUL_SHAPES:
            sa, sb = shapes(k)
            a = rng.integers(1 - p, p, size=sa)
            b = rng.integers(1 - p, p, size=sb)
            # the extreme entries too: sums of k products of p - 1
            a.reshape(-1)[::7] = p - 1
            b.reshape(-1)[::5] = 1 - p
            got = la.mod_matmul(a, b, p)
            want = (a.astype(object) @ b.astype(object)) % p
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want), (p, k, sa, sb)
            assert got.size == 0 or (got.min() >= 0 and got.max() < p)


def _independent_stack(rng, p, n, shape):
    """n random entries of the given shape, independent as flat vectors."""
    while True:
        basis = rng.integers(0, p, size=(n, *shape))
        if la.mod_rank(basis.reshape(n, int(np.prod(shape))), p) == n:
            return basis


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("n,shape", [
    (0, (4,)), (1, (1,)), (3, (6,)), (5, (5,)),
    (0, (2, 3)), (2, (2, 3)), (4, (3, 3))])
def test_mod_coordinates_recovers_coefficients(p, n, shape):
    rng = np.random.default_rng(100 * p + 10 * n + len(shape))
    width = int(np.prod(shape))
    basis = _independent_stack(rng, p, n, shape)
    flat = basis.reshape(n, width)
    coords, sect, (red, piv) = la.mod_coordinates(basis, p)
    assert sect.shape == (width, n)
    # the third value is the RREF of the basis itself
    want_red, want_piv = la.mod_rref(flat, p)
    assert np.array_equal(red, want_red) and list(piv) == list(want_piv)
    assert np.array_equal(la.mod_matmul(flat, sect, p),
                          np.eye(n, dtype=np.int64))
    want = rng.integers(0, p, size=(7, n))
    items = la.mod_matmul(want, flat, p).reshape(7, *shape)
    got = coords(items)
    # the basis is independent, so the coefficients are unique
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal(la.mod_matmul(got, flat, p),
                          items.reshape(7, width))
    assert coords(items[:0]).shape == (0, n)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_mod_coordinates_certificates(p):
    rng = np.random.default_rng(p)
    basis = _independent_stack(rng, p, 3, (2, 4))
    dependent = np.concatenate([basis, 2 * basis[:1] % p])
    with pytest.raises(la.StructuralError, match="^rows repeat$"):
        la.mod_coordinates(dependent, p, dependent="rows repeat")
    with pytest.raises(la.StructuralError, match="^basis is not independent$"):
        la.mod_coordinates(dependent, p)
    flat = basis.reshape(3, 8)
    # a unit vector outside the 3-dimensional span of the basis
    k = next(k for k in range(8) if la.mod_rank(
        np.concatenate([flat, np.eye(1, 8, k, dtype=np.int64)]), p) == 4)
    items = np.stack([flat.sum(axis=0) % p,
                      np.eye(1, 8, k, dtype=np.int64)[0]])
    coords = la.mod_coordinates(basis, p, outside="not in the span")[0]
    assert np.array_equal(coords(items[:1].reshape(1, 2, 4)), [[1, 1, 1]])
    with pytest.raises(la.StructuralError, match="^not in the span$"):
        coords(items.reshape(2, 2, 4))
    # no rows: only zero has coordinates
    coords, sect, _ = la.mod_coordinates(np.zeros((0, 8), dtype=np.int64),
                                         p, outside="empty span")
    assert sect.shape == (8, 0)
    assert coords(np.zeros((2, 8), dtype=np.int64)).shape == (2, 0)
    with pytest.raises(la.StructuralError, match="^empty span$"):
        coords(items)
