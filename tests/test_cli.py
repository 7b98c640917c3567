import hashlib
import json
import os
import subprocess
import sys

import pytest

from flagalg import cli

FROZEN_SHA256 = json.load(open(os.path.join(
    os.path.dirname(__file__), "fixtures", "frozen.json")))["cli_sha256"]


def run(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rpoly(capsys):
    code, out, _ = run(capsys, "rpoly", "--type", "A2", "e", "sts", "--format", "text")
    assert code == 0
    assert out.strip() == "q^3 - 2*q^2 + 2*q - 1"
    code, out, _ = run(capsys, "rpoly", "--type", "A1", "s", "e", "--format", "text")
    assert code == 0 and out.strip() == "0"


def test_rpoly_json_deterministic(capsys):
    code, out1, _ = run(capsys, "rpoly", "--type", "A2", "e", "sts")
    code2, out2, _ = run(capsys, "rpoly", "--type", "A2", "e", "sts")
    assert code == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["coefficients"] == {"0": -1, "1": 2, "2": -2, "3": 1}


def test_malformed_word(capsys):
    code, _, err = run(capsys, "rpoly", "--type", "A2", "e", "xy")
    assert code == 1
    assert "unknown simple reflection" in err


def test_envelope_anchor(capsys):
    code, out, _ = run(capsys, "envelope", "--type", "A1", "e", "s")
    assert code == 0
    doc = json.loads(out)
    assert doc["intervals"] == {"1": [0, 0], "2": [-1, -1]}


def test_ext_and_parabolic(capsys):
    code, out, _ = run(capsys, "ext", "--type", "A2", "e", "sts")
    assert code == 0
    doc = json.loads(out)
    assert doc["intervals"]["3"] == [-3, -3]
    code, _, err = run(capsys, "ext", "--type", "A2", "s", "t", "--s", "s")
    assert code == 1 and "coset" in err


@pytest.mark.parametrize("argv", [
    ("rpoly", "--type", "A2", "--q", "3", "e", "s"),
    ("envelope", "--type", "A1", "--ell", "5", "e", "s"),
    ("endalg", "--type", "A1", "--ell", "5", "--precision", "8"),
    ("koszul", "--type", "A1", "--ell", "5", "--q", "2"),
])
def test_options_a_command_does_not_read_are_refused(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("first, second", [
    (("koszul", "--type", "A2", "--ell", "7", "--cap", "3"),
     ("koszul", "--type", "A2", "--ell", "7")),
    (("rpoly", "--type", "A2", "e", "sts", "--format", "text"),
     ("rpoly", "--type", "A2", "e", "sts")),
    (("endalg", "--type", "A2", "--ell", "7", "--cache-dir", "{dir}"),
     ("standards", "--type", "A2", "--ell", "7")),
])
def test_parser_built_once_carries_nothing_between_calls(
        first, second, tmp_path, capsys):
    # each call, made after another in one process, prints what it prints
    # as the first call after the parser is built
    def calls(run_dir):
        return [[a.format(dir=run_dir) for a in argv]
                for argv in (first, second)]

    fresh = []
    for argv in calls(tmp_path / "fresh"):
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli.build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls(tmp_path / "one")] == fresh
    assert fresh[0][0] == fresh[1][0] == 0
    # an option the command does not read is refused after the parses
    with pytest.raises(SystemExit) as exc:
        cli.main(list(second) + ["--q", "2"])
    assert exc.value.code == 2
    assert cli.build_parser.cache_info().currsize == 1


def test_qcond(capsys):
    code, out, _ = run(capsys, "qcond", "--type", "A2", "--ell", "13", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] and doc["order_of_q"] == 12 and doc["num_roots"] == 6
    code, out, _ = run(capsys, "qcond", "--type", "A1", "--ell", "5", "--q", "2")
    assert json.loads(out)["holds"]
    code, out, _ = run(capsys, "qcond", "--type", "A2", "--ell", "7", "--q", "3")
    assert not json.loads(out)["holds"]
    code, _, err = run(capsys, "qcond", "--type", "A2", "--ell", "13", "--q", "13")
    assert code == 1


def test_endalg_cache_roundtrip(tmp_path, capsys):
    args = ("endalg", "--type", "A1", "--ell", "5", "--cache-dir", str(tmp_path))
    code, out1, _ = run(capsys, *args)
    assert code == 0
    files = list(tmp_path.glob("endalg-*.json"))
    assert len(files) == 1
    first_bytes = files[0].read_bytes()
    code, out2, _ = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    assert files[0].read_bytes() == first_bytes
    doc = json.loads(out1)
    assert doc["dimension"] == 5
    assert doc["dims_by_degree"] == {"0": 3, "2": 2}


def test_endalg_cache_corruption_recovers(tmp_path, capsys):
    args = ("endalg", "--type", "A1", "--ell", "5", "--cache-dir", str(tmp_path))
    code, out1, _ = run(capsys, *args)
    path = list(tmp_path.glob("endalg-*.json"))[0]
    doc = json.loads(path.read_text())
    assert '"dimension": 5' in doc["stdout"]
    doc["stdout"] = doc["stdout"].replace('"dimension": 5',
                                          '"dimension": 999')
    path.write_text(json.dumps(doc))
    code, out2, err = run(capsys, *args)
    assert code == 0
    assert "recomputing" in err
    assert out2 == out1


def test_endalg_cache_of_another_format_recomputes(tmp_path, capsys):
    # a file in the earlier layout (the payload as a JSON object, with a
    # valid checksum) is not read: it is recomputed and rewritten
    args = ("endalg", "--type", "A1", "--ell", "5", "--cache-dir", str(tmp_path))
    code, out1, _ = run(capsys, *args)
    path = list(tmp_path.glob("endalg-*.json"))[0]
    payload = json.loads(out1)
    path.write_text(json.dumps({
        "schema_version": 1, "payload": payload, "generated_unix_time": 0,
        "checksum": hashlib.sha256(json.dumps(
            payload, sort_keys=True).encode()).hexdigest()}, indent=1))
    code, out2, err = run(capsys, *args)
    assert code == 0 and "recomputing" in err and out2 == out1
    code, out3, err = run(capsys, *args)
    assert code == 0 and err == "" and out3 == out1
    code, text, _ = run(capsys, *args, "--format", "text")
    assert code == 0
    assert text.splitlines()[:2] == [
        "E for A1 at ell = 5: dim 5", "graded dimension: 3 + 2*q^2"]


def test_decompose_matrix_file(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text("[[1, 0], [0, 6]]")
    code, out, _ = run(capsys, "decompose", str(f), "--ell", "5", "--q", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "decomposable"
    assert sorted(s["exponent"] for s in doc["summands"]) == [0, 1]
    f2 = tmp_path / "m.txt"
    f2.write_text("1 0\n1 6\n")
    code, out, _ = run(capsys, "decompose", str(f2), "--ell", "5",
                       "--q", "6")
    assert code == 0
    assert json.loads(out)["status"] == "indecomposable"
    code, _, err = run(capsys, "decompose", str(f), "--ell", "4", "--q", "3")
    assert code == 1


def test_decompose_undecidable_via_cli(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text("[[1, 5], [5, 26]]")
    code, out, _ = run(capsys, "decompose", str(f), "--ell", "5", "--q", "2",
                       "--precision", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "undecidable"
    assert "precision 16" in doc["message"]


def test_formality_demo(capsys):
    code, out, _ = run(capsys, "formality-demo", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["diagonal"] and doc["inclusion_quasi_iso"] \
        and doc["projection_quasi_iso"]


def test_standards_command(capsys):
    code, out, _ = run(capsys, "standards", "--type", "A1", "--ell", "5")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["standards"]) == {"e", "s"}
    assert doc["standards"]["e"]["graded_dims"] == {"0": 2}
    assert doc["standards"]["e"]["embedding_certificates"]["s"]


def test_koszul_command(capsys):
    code, out, _ = run(capsys, "koszul", "--type", "A1", "--ell", "5", "--cap", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["regraded_dims"] == {"0": 2, "1": 2, "2": 1}
    assert doc["linear_resolutions_up_to_cap"]


def test_soergel_precondition(capsys):
    code, _, err = run(capsys, "endalg", "--type", "A2", "--ell", "3")
    assert code == 1 and "Coxeter" in err
    # (ell - 1)^2 overflows int64: refused, not wrapped around
    code, _, err = run(capsys, "endalg", "--type", "A2", "--ell",
                       "4294967311")
    assert code == 1 and "modulus too large" in err
    # a non-prime ell is refused as such, not deep inside the algebra
    for cmd, t in (("endalg", "A2"), ("koszul", "A1"), ("standards", "A2")):
        code, out, err = run(capsys, cmd, "--type", t, "--ell", "9")
        assert code == 1 and out == ""
        assert err.strip() == "error: ell = 9 is not prime"


def test_endalg_modulus_too_large_for_products(tmp_path, capsys):
    # 2**31 - 1 passes the coinvariant algebra's bound, (ell - 1)^2 < 2**63,
    # but a product with inner dimension k >= 2 can leave int64
    code, out, err = run(capsys, "endalg", "--type", "A1", "--ell",
                         "2147483647", "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert "modulus too large" in err


_CATEGORY_O_IMPORTS = """
import contextlib, io, sys
from flagalg import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main([cmd, "--type", "A2", "--ell", "5",
                       "--cache-dir", sys.argv[1]])
             for cmd in ("standards", "koszul")]
print(codes, "numpy.ma" in sys.modules)
"""


def test_category_o_commands_do_not_import_numpy_ma(tmp_path):
    # numpy imports numpy.ma on the first np.unique or np.setdiff1d call,
    # at a cost in memory and time that graded category O does not need
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CATEGORY_O_IMPORTS, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] False"


@pytest.mark.parametrize("command", sorted(FROZEN_SHA256))
def test_cli_json_is_byte_identical(command, tmp_path, capsys):
    # the sha256 of the JSON on stdout, frozen; endalg also reads its
    # cache entry back and must print the same bytes
    args = command.split() + ["--cache-dir", str(tmp_path)]
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_SHA256[command]
    if args[0] == "endalg":
        assert run(capsys, *args)[1] == out
