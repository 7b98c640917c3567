"""The three workloads: inputs made from the seed, the timed operations,
and the check of every output against reference.json.

Every operation is one user-visible result: a CLI command run in-process
(its JSON on stdout is the result) or, where no command exists, one
public library call.  Each operation starts from fresh library state (a
new coinvariant algebra, an empty cache directory, cleared point-count
memos), so a repeated operation costs what a new `flagalg` process would.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction

from flagalg import cli, coxeter, deodhar, formality, phimod, soergel

HERE = os.path.dirname(os.path.abspath(__file__))

# primes above the Coxeter number (A2: 3, B2: 4, G2: 6) that keep the
# int64 kernels exact; graded dimensions do not depend on the choice
ELLS = (5, 7, 11)
ELLS_G2 = (7, 11, 13)
G2_MAX_LENGTH = 5            # 11 family words, 121 Hom blocks
KOSZUL_CAP = 7
WARM_READS = 10              # warm `endalg` reads per pass
SHEAR_INSTANCES = 100
CONTROLS = 50                # non-diagonal instances 0..49, all must fail
LATTICES = 200
LATTICE_FIELDS = ((5, 2), (5, 3), (7, 2), (7, 3), (13, 2), (13, 3))
MAX_ROW_SUM = 1000
ORACLE_PAIRS = 8 + 72 + 1152     # |W|^2 summed over A1..A3, times q = 2, 3


@dataclass
class Op:
    """One timed operation.  `key` is unique within a plan; operations of
    one `kind` are pooled into the figure of that name (unit: its suffix,
    `_s` or `_ms`)."""

    key: str
    kind: str
    run: object      # () -> output, timed
    check: object    # output -> bool, not timed


@dataclass
class Workload:
    params: dict     # the seeded choices, printed with the results
    plan: list       # one pass: the Ops in order


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def run_cli(argv):
    """Run one CLI command in this process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_matches(sha):
    def check(out):
        rc, text = out
        return rc == 0 and digest(text) == sha
    return check


def family_words(C, max_length=None):
    """Family words of C in (length, word) order of their elements."""
    fam = sorted(C.family().items(), key=lambda kv: (kv[0].length,
                                                      kv[0].word))
    return [w for x, w in fam if max_length is None or x.length <= max_length]


def g2_block_dims(ell):
    """Graded dims of every Hom block between the G2 Bott-Samelson
    modules whose family words have length <= G2_MAX_LENGTH."""
    C = soergel.coinvariant_algebra("G2", ell)
    words = family_words(C, G2_MAX_LENGTH)
    mods = {w: soergel.bott_samelson(C, w) for w in words}
    out = {}
    for t in words:
        for s in words:
            homs = soergel.graded_hom_basis(C, mods[s], mods[t])
            out[f"{t or 'e'}<-{s or 'e'}"] = {
                str(d): len(b) for d, b in sorted(homs.items())}
    return out


def wall_dims(ell):
    """Graded dims of E^s(B2) for both walls, from one coinvariant
    algebra (E itself is built once and shared)."""
    C = soergel.coinvariant_algebra("B2", ell)
    out = {}
    for s in (0, 1):
        data, _ = soergel.wall_algebra(C, s)
        out[str(s)] = {str(d): v
                       for d, v in data.algebra.dims_by_degree().items()}
    return out


def bimodule_checks(ell):
    C = soergel.coinvariant_algebra("A2", ell)
    return [soergel.bimodule_shift_check(C, s) for s in (0, 1)]


def flag_oracle():
    """Compare the point-count recursion with brute-force flag counts on
    every pair of A1..A3 at q = 2, 3; return (pairs, mismatches)."""
    for name in ("_R_MEMO", "_TABLE_MEMO"):
        memo = getattr(deodhar, name, None)
        if memo is not None:
            memo.clear()
    pairs = bad = 0
    for rank in (1, 2, 3):
        W = coxeter.build_group(f"A{rank}")
        for q in (2, 3):
            table = deodhar.flag_position_table(rank, q)
            for u in W.elements:
                for v in W.elements:
                    pairs += 1
                    bad += deodhar.r_polynomial(W, u, v)(q) != \
                        table.get((u.word, v.word), 0)
    return pairs, bad


# ---------------------------------------------------------------------------
# seeded lattices with a known splitting


def _order(q, ell):
    o, acc = 1, q % ell
    while acc != 1:
        acc = acc * q % ell
        o += 1
    return o


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def random_lattice(rng, rank, ell, q):
    """An integer matrix U J U^-1 with det U = 1 and J block upper
    bidiagonal with eigenvalues q^i for distinct i < min(ord(q), 5).

    Returns (rows, expected) with expected the sorted (i, block size)
    pairs: decompose must split it into exactly these eigenlattices."""
    avail = min(_order(q, ell), 5)
    exps = rng.sample(range(avail), rng.randint(1, min(rank, avail)))
    cuts = sorted(rng.sample(range(1, rank), len(exps) - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [rank])]
    J = [[0] * rank for _ in range(rank)]
    off = 0
    for i, sz in zip(exps, sizes):
        for a in range(sz):
            J[off + a][off + a] = q ** i
            if a + 1 < sz and rng.random() < 0.5:
                J[off + a][off + a + 1] = 1
        off += sz
    ident = [[int(a == b) for b in range(rank)] for a in range(rank)]
    while True:
        U = [row[:] for row in ident]
        U_inv = [row[:] for row in ident]
        for _ in range(rank if rank > 1 else 0):
            a, b = rng.sample(range(rank), 2)
            c = rng.choice((-1, 1))
            U[a] = [x + c * y for x, y in zip(U[a], U[b])]
            for row in U_inv:
                row[b] -= c * row[a]
        if _matmul(U, U_inv) != ident:
            raise RuntimeError("lattice generator: U_inv is not the inverse")
        rows = _matmul(_matmul(U, J), U_inv)
        # decompose searches integer roots up to the largest absolute row
        # sum, so its cost grows with the entries: keep them in one band
        if max(sum(abs(x) for x in row) for row in rows) <= MAX_ROW_SUM:
            return rows, sorted(zip(exps, sizes))


def _frac_det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def lattice_ok(dec, ell, q, expected):
    """The verdict is `decomposable` into exact eigenlattices q^i of the
    constructed sizes, and their bases together have unit determinant."""
    if dec.status != "decomposable" or not all(s.exact for s in dec.summands):
        return False
    if any(s.eigenvalue != Fraction(q) ** s.exponent for s in dec.summands):
        return False
    if sorted((s.exponent, len(s.basis)) for s in dec.summands) != expected:
        return False
    det = _frac_det([list(r) for s in dec.summands for r in s.basis])
    return det != 0 and det.numerator % ell != 0 and det.denominator % ell != 0


# ---------------------------------------------------------------------------
# workloads


def build(name, seed, tmp, ref):
    """The workload `name` for `seed`; `tmp` is an empty directory for the
    CLI caches."""
    rng = random.Random(seed)
    # Weyl groups are cached for the life of the process, so they are
    # built here and every operation, first or repeated, finds them
    for t in ("A1", "A2", "A3", "B2", "G2"):
        coxeter.build_group(t)
    return BUILDERS[name](rng, tmp, ref)


def _endalg(rng, tmp, ref):
    ell = rng.choice(ELLS)
    ell_g2 = rng.choice(ELLS_G2)
    argv = ["endalg", "--type", "B2", "--ell", str(ell), "--cache-dir"]
    state = {}

    def cold():
        state["dir"] = tempfile.mkdtemp(prefix="endalg-", dir=tmp)
        return run_cli(argv + [state["dir"]])

    def warm():
        return run_cli(argv + [state["dir"]])

    same = _cli_matches(ref["endalg_B2_sha256"][str(ell)])
    plan = [Op("cold", "endalg_cold_s", cold, same)]
    plan += [Op(f"warm{k}", "endalg_warm_ms", warm, same)
             for k in range(WARM_READS)]
    plan += [
        Op("walls", "wall_algebra_s", lambda: wall_dims(ell),
           lambda out: out == ref["wall_B2_dims"]),
        Op("g2", "hom_g2_s", lambda: g2_block_dims(ell_g2),
           lambda out: out == ref["hom_G2_block_dims"]),
    ]
    return Workload({"ell_B2": ell, "ell_G2": ell_g2}, plan)


def _categoryO(rng, tmp, ref):
    ell = rng.choice(ELLS)
    plan = [
        Op("standards", "standards_s",
           lambda: run_cli(["standards", "--type", "A2", "--ell", str(ell)]),
           _cli_matches(ref["standards_A2_sha256"][str(ell)])),
        Op("koszul", "koszul_s",
           lambda: run_cli(["koszul", "--type", "A2", "--ell", str(ell),
                            "--cap", str(KOSZUL_CAP)]),
           _cli_matches(ref["koszul_A2_sha256"][str(ell)])),
        Op("bimodule", "bimodule_s", lambda: bimodule_checks(ell),
           lambda out: out == [True, True]),
    ]
    return Workload({"ell_A2": ell}, plan)


def _shear_ok(expected_sha16):
    def check(out):
        rc, text = out
        if rc != 0 or digest(text)[:16] != expected_sha16:
            return False
        doc = json.loads(text)
        return doc["diagonal"] and doc["inclusion_quasi_iso"] and \
            doc["projection_quasi_iso"]
    return check


def _stratified(rng, sizes, count):
    """`count` keys of `sizes`, one drawn from each of `count` equal strata
    of the keys ordered by size, in random order.

    Instance cost grows with instance size: every seed then gets the same
    spread of sizes, and shuffling spreads each size over the whole pass."""
    keys = sorted(sizes, key=lambda k: (sizes[k], int(k)))
    width = len(keys) // count
    out = [rng.choice(keys[k * width:(k + 1) * width]) for k in range(count)]
    rng.shuffle(out)
    return out


def _certificates(rng, tmp, ref):
    pool = ref["formality_pool"]
    seeds = _stratified(rng, {s: v[0] for s, v in pool.items()},
                        SHEAR_INSTANCES)
    lattices = []
    for j in range(LATTICES):
        ell, q = LATTICE_FIELDS[(j // 5) % len(LATTICE_FIELDS)]
        rows, expected = random_lattice(rng, 1 + j % 5, ell, q)
        lattices.append((rows, ell, q, expected))

    def decompose_all():
        return [phimod.decompose(phimod.PhiModule.build(rows, ell, q))
                for rows, ell, q, _ in lattices]

    def decompose_ok(decs):
        return len(decs) == len(lattices) and all(
            lattice_ok(d, ell, q, exp)
            for d, (_, ell, q, exp) in zip(decs, lattices))

    plan = [Op(f"shear{s}", "shear_ms_p50",
               lambda s=s: run_cli(["formality-demo", "--seed", s]),
               _shear_ok(pool[s][1]))
            for s in seeds]
    plan += [
        Op("control", "control_ms",
           lambda: [formality.diagonal_check(
               formality.random_nondiagonal_instance(s))
               for s in range(CONTROLS)],
           lambda out: out == [False] * CONTROLS),
        Op("oracle", "flag_oracle_s", flag_oracle,
           lambda out: out == (ORACLE_PAIRS, 0)),
        Op("decompose", "decompose_s", decompose_all, decompose_ok),
    ]
    return Workload({}, plan)


BUILDERS = {"endalg": _endalg, "categoryO": _categoryO,
            "certificates": _certificates}
