"""
Command line surface: batch commands over the library, with JSON or text
output and an on-disk cache for computed endomorphism algebras.

Every command is deterministic given its arguments; JSON output uses
sorted keys so repeated runs are byte-identical.  A cached algebra file
stores the JSON text that `endalg` prints, with the sha256 of those
bytes and a key naming the file format; a cache hit checks the hash and
prints the stored text.  A corrupt cache entry, or a file of another
format, triggers recomputation with a warning.  Exit status
is zero exactly when no precondition was violated and every internal
certificate passed.
"""

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass

from . import coxeter, deodhar, formality, galgebra, gradedO, phimod, soergel

CACHE_ENV = "FLAGALG_CACHE_DIR"
SCHEMA_VERSION = 1
CACHE_FORMAT = "endalg-stdout-1"    # cache file layout: stdout and sha256

__all__ = ["main", "Config"]


@dataclass
class Config:
    cartan_type: str = None
    ell: int = None
    q: int = None
    precision: int = 32
    cache_dir: str = None
    fmt: str = "json"

    def validate_soergel(self):
        h = coxeter.COXETER_NUMBER[self.cartan_type]
        if self.ell is None or self.ell <= h:
            raise ValueError(
                f"need a prime ell > Coxeter number ({h}) for "
                f"type {self.cartan_type}")


def _emit(cfg, payload, text_lines):
    if cfg.fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_rpoly(cfg, u, v):
    W = coxeter.build_group(cfg.cartan_type)
    r = deodhar.r_polynomial(W, W.element(u), W.element(v))
    payload = {
        "command": "rpoly", "type": cfg.cartan_type, "u": u, "v": v,
        "polynomial": str(r),
        "coefficients": {str(e): c for e, c in r.coeffs},
    }
    _emit(cfg, payload, [str(r)])
    return 0


def _profile_payload(prof):
    return {str(n): [lo, hi] for n, (lo, hi) in prof.entries}


def cmd_envelope(cfg, u, v):
    W = coxeter.build_group(cfg.cartan_type)
    prof = deodhar.weight_envelope(W, W.element(u), W.element(v))
    payload = {
        "command": "envelope", "type": cfg.cartan_type, "u": u, "v": v,
        "label": prof.label, "intervals": _profile_payload(prof),
    }
    _emit(cfg, payload, [prof.label] + [
        f"  degree {n}: [{lo}, {hi}]" for n, (lo, hi) in prof.entries])
    return 0


def cmd_ext(cfg, u, v, s=None):
    W = coxeter.build_group(cfg.cartan_type)
    if s is None:
        prof = deodhar.ext_profile_standard(W, W.element(u), W.element(v))
    else:
        prof = deodhar.ext_profile_parabolic(W, W.element(u),
                                             W.element(v), W.element(s))
    payload = {
        "command": "ext", "type": cfg.cartan_type, "u": u, "v": v,
        "s": s, "label": prof.label, "intervals": _profile_payload(prof),
    }
    _emit(cfg, payload, [prof.label] + [
        f"  Ext^{n}: [{lo}, {hi}]" for n, (lo, hi) in prof.entries])
    return 0


def cmd_qcond(cfg):
    W = coxeter.build_group(cfg.cartan_type)
    if cfg.ell is None or cfg.q is None:
        raise ValueError("qcond needs --ell and --q")
    if cfg.q % cfg.ell == 0:
        raise ValueError("q must be prime to ell")
    order = deodhar.multiplicative_order(cfg.q, cfg.ell)
    deodhar.projective_weight_certificate(W, W.identity, cfg.ell, cfg.q)
    holds = order > W.num_roots
    payload = {
        "command": "qcond", "type": cfg.cartan_type, "ell": cfg.ell,
        "q": cfg.q, "order_of_q": order, "num_roots": W.num_roots,
        "twice_longest_length": 2 * W.longest_element.length,
        "holds": holds,
    }
    if W.num_roots != 2 * W.longest_element.length:
        raise galgebra.StructuralError("|R| != 2 l(w0)")
    _emit(cfg, payload, [
        f"ord_{cfg.ell}({cfg.q}) = {order}, |R| = {W.num_roots} "
        f"(= 2 l(w0)): hypothesis {'holds' if holds else 'fails'}"])
    return 0


def _cache_dir(cfg):
    d = cfg.cache_dir or os.environ.get(CACHE_ENV) or \
        os.path.join(tempfile.gettempdir(), "flagalg-cache")
    os.makedirs(d, exist_ok=True)
    return d


def _family_hash(C):
    words = sorted(C.family().values())
    return hashlib.sha256("|".join(words).encode()).hexdigest()[:16]


def _endalg_payload(cfg, data):
    alg = data.algebra
    payload = {
        "schema_version": SCHEMA_VERSION,
        "type": cfg.cartan_type, "ell": cfg.ell,
        "family": sorted(data.words),
        "dimension": alg.dim,
        "degrees": list(alg.degrees),
        "dims_by_degree": {str(k): v
                           for k, v in alg.dims_by_degree().items()},
        "idempotents": {w or "e": alg.idempotents[w] for w in data.words},
        "structure_constants": alg.mult.tolist(),
    }
    return payload


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cmd_endalg(cfg):
    cfg.validate_soergel()
    C = soergel.coinvariant_algebra(cfg.cartan_type, cfg.ell)
    path = os.path.join(
        _cache_dir(cfg),
        f"endalg-{cfg.cartan_type}-{cfg.ell}-{_family_hash(C)}.json")
    text = None
    if os.path.exists(path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
            text = doc["stdout"]
            if doc.get("format") != CACHE_FORMAT or \
                    _sha256(text) != doc["sha256"]:
                raise ValueError("cache checksum mismatch")
        except (ValueError, KeyError, TypeError, AttributeError):
            print("warning: cache entry corrupt, recomputing",
                  file=sys.stderr)
            text = None
    if text is None:
        data = soergel.endomorphism_algebra(C)
        text = json.dumps(_endalg_payload(cfg, data), sort_keys=True,
                          indent=2)
        fd, tmp = tempfile.mkstemp(dir=_cache_dir(cfg))
        with os.fdopen(fd, "w") as fh:
            json.dump({"format": CACHE_FORMAT, "stdout": text,
                       "sha256": _sha256(text)}, fh, sort_keys=True)
        os.replace(tmp, path)
    if cfg.fmt == "json":
        print(text)
        return 0
    payload = json.loads(text)
    series = galgebra.dims_to_laurent(
        {int(k): v for k, v in payload["dims_by_degree"].items()})
    print(f"E for {cfg.cartan_type} at ell = {cfg.ell}: "
          f"dim {payload['dimension']}")
    print(f"graded dimension: {series}")
    print(f"cache: {path}")
    return 0


def cmd_standards(cfg):
    cfg.validate_soergel()
    C = soergel.coinvariant_algebra(cfg.cartan_type, cfg.ell)
    W = C.group
    std = gradedO.standard_modules(C)
    out = {}
    lines = []
    for x in sorted(W.elements, key=lambda w: (w.length, w.word)):
        M = std[x]
        mult = gradedO.graded_multiplicities(C, M)
        entry = {
            "graded_dims": {str(k): v for k, v in M.dims_by_degree().items()},
            "multiplicities": {
                f"{y.serialize()}<{k}>": v for (y, k), v in sorted(
                    mult.items(),
                    key=lambda kv: (kv[0][0].length, kv[0][0].word,
                                    kv[0][1]))},
        }
        embeddings = {}
        for s in W.simple_reflections:
            xs = W.mult(x, s)
            if xs.length > x.length:
                phi = gradedO.standard_embedding(C, x, s)
                embeddings[s.serialize()] = [
                    [int(c) for c in row] for row in phi]
        entry["embedding_certificates"] = embeddings
        out[x.serialize()] = entry
        lines.append(f"standard at {x.serialize()}: "
                     f"{galgebra.dims_to_laurent(M.dims_by_degree())}")
    payload = {"command": "standards", "type": cfg.cartan_type,
               "ell": cfg.ell, "standards": out}
    _emit(cfg, payload, lines)
    return 0


def cmd_koszul(cfg, cap):
    cfg.validate_soergel()
    C = soergel.coinvariant_algebra(cfg.cartan_type, cfg.ell)
    E = soergel.endomorphism_algebra(C).algebra
    projs = gradedO.projectives_for(C)
    K = galgebra.ext_algebra_of_projectives(E, projs)
    rep = galgebra.koszulity_check(K, cap=cap)
    payload = {
        "command": "koszul", "type": cfg.cartan_type, "ell": cfg.ell,
        "cap": rep.cap,
        "regraded_dims": {str(k): v for k, v in K.dims_by_degree().items()},
        "is_nonneg_graded": rep.is_nonneg_graded,
        "is_semisimple_deg0": rep.is_semisimple_deg0,
        "linear_resolutions_up_to_cap": rep.linear_to_cap,
        "verdict": rep.verdict,
        "dual_graded_dims": {f"{i},{j}": v
                             for (i, j), v in sorted(
                                 rep.dual_graded_dims.items())},
    }
    _emit(cfg, payload, [
        f"regraded algebra dims: {K.dims_by_degree()}",
        f"verdict: {rep.verdict} (cap {rep.cap})",
    ])
    return 0


def cmd_decompose(cfg, matrix_file):
    with open(matrix_file) as fh:
        txt = fh.read()
    try:
        rows = json.loads(txt)
        if isinstance(rows, dict):
            rows = rows["matrix"]
    except json.JSONDecodeError:
        rows = [[int(x) for x in line.split()]
                for line in txt.splitlines() if line.strip()]
    if cfg.ell is None or cfg.q is None:
        raise ValueError("decompose needs --ell and --q")
    M = phimod.PhiModule.build(rows, cfg.ell, cfg.q, cfg.precision)
    dec = phimod.decompose(M)
    payload = {
        "command": "decompose", "ell": cfg.ell, "q": cfg.q,
        "precision": cfg.precision, "status": dec.status,
        "message": dec.message,
        "summands": [
            {"eigenvalue": str(s.eigenvalue), "exponent": s.exponent,
             "exact": s.exact,
             "basis": [[str(x) for x in row] for row in s.basis]}
            for s in dec.summands],
    }
    lines = [f"status: {dec.status}"]
    if dec.message:
        lines.append(dec.message)
    for s in dec.summands:
        rows = ", ".join("(" + ", ".join(str(x) for x in row) + ")"
                         for row in s.basis)
        lines.append(f"  eigenvalue {s.eigenvalue} "
                     f"(q-exponent {s.exponent}): basis {rows}")
    _emit(cfg, payload, lines)
    return 0


def cmd_formality_demo(cfg, seed):
    R = formality.random_diagonal_instance(seed)
    sub, inc, proj, hdata = formality.shear_subalgebra(R)
    diag = formality.diagonal_check(R)
    inc_qis = formality.verify_quasi_iso(sub, R, inc)
    proj_qis = formality.verify_quasi_iso(sub, hdata.algebra, proj)
    sub_h = formality.cohomology(sub).algebra
    payload = {
        "command": "formality-demo", "seed": seed,
        "instance_dims": {f"{i},{j}": v
                          for (i, j), v in R.dims_by_bidegree().items()},
        "shear_dims": {f"{i},{j}": v
                       for (i, j), v in sub.dims_by_bidegree().items()},
        "cohomology_dims": {f"{i},{j}": v for (i, j), v in
                            hdata.algebra.dims_by_bidegree().items()},
        "shear_cohomology_dims": {f"{i},{j}": v for (i, j), v in
                                  sub_h.dims_by_bidegree().items()},
        "diagonal": diag,
        "inclusion_quasi_iso": inc_qis,
        "projection_quasi_iso": proj_qis,
    }
    ok = diag and inc_qis and proj_qis
    _emit(cfg, payload, [
        f"instance dims: {R.dims_by_bidegree()}",
        f"diagonal cohomology: {diag}",
        f"inclusion quasi-iso: {inc_qis}",
        f"projection quasi-iso: {proj_qis}",
    ])
    return 0 if ok else 1


@functools.cache
def build_parser():
    """The parser, built once per process; parse_args gives each call a
    fresh namespace."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "text"),
                        default="json")
    shared.add_argument("--cache-dir", default=None)
    ap = argparse.ArgumentParser(
        prog="flagalg", parents=[shared],
        description="exact computations with Weyl group combinatorics, "
                    "opposite-Bruhat-cell point counts, coinvariant-algebra End "
                    "algebras, graded module categories and dg formality")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, *read):
        """--type, and of --ell and --q only those the command reads."""
        p.add_argument("--type", required=True, dest="type",
                       choices=sorted(coxeter.CARTAN))
        for name in read:
            p.add_argument(f"--{name}", type=int, default=None)

    p = sub.add_parser("rpoly", parents=[shared],
                       help="point-count polynomial")
    common(p)
    p.add_argument("u")
    p.add_argument("v")
    p = sub.add_parser("envelope", parents=[shared],
                       help="cohomology weight envelope")
    common(p)
    p.add_argument("u")
    p.add_argument("v")
    p = sub.add_parser("ext", parents=[shared],
                       help="Ext degree/weight profile")
    common(p)
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--s", default=None,
                   help="wall: compute the parabolic profile")
    p = sub.add_parser("qcond", parents=[shared],
                       help="order-of-q hypothesis check")
    common(p, "ell", "q")
    p = sub.add_parser("endalg", parents=[shared],
                       help="endomorphism algebra (cached)")
    common(p, "ell")
    p = sub.add_parser("standards", parents=[shared],
                       help="graded standard modules")
    common(p, "ell")
    p = sub.add_parser("koszul", parents=[shared],
                       help="Koszulity of the regraded algebra")
    common(p, "ell")
    p.add_argument("--cap", type=int, default=None)
    p = sub.add_parser("decompose", parents=[shared],
                       help="split a lattice automorphism")
    p.add_argument("matrix_file")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--precision", type=int, default=32)
    p = sub.add_parser("formality-demo", parents=[shared],
                       help="seeded shear demo")
    p.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    cfg = Config(
        cartan_type=getattr(args, "type", None),
        ell=getattr(args, "ell", None),
        q=getattr(args, "q", None),
        precision=getattr(args, "precision", 32),
        cache_dir=args.cache_dir,
        fmt=args.format,
    )
    try:
        if args.cmd == "rpoly":
            return cmd_rpoly(cfg, args.u, args.v)
        if args.cmd == "envelope":
            return cmd_envelope(cfg, args.u, args.v)
        if args.cmd == "ext":
            return cmd_ext(cfg, args.u, args.v, args.s)
        if args.cmd == "qcond":
            return cmd_qcond(cfg)
        if args.cmd == "endalg":
            return cmd_endalg(cfg)
        if args.cmd == "standards":
            return cmd_standards(cfg)
        if args.cmd == "koszul":
            return cmd_koszul(cfg, args.cap)
        if args.cmd == "decompose":
            return cmd_decompose(cfg, args.matrix_file)
        if args.cmd == "formality-demo":
            return cmd_formality_demo(cfg, args.seed)
        raise ValueError(f"unknown command {args.cmd}")
    except (ValueError, OverflowError, galgebra.StructuralError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
