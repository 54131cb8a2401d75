import json
import subprocess
import sys
from pathlib import Path

import pytest

from quatype.cli import main
from quatype.dsl import CheckReport, TrialFailure
from quatype.qtypes import QType
from quatype.algebra import Signature

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
DATA = HERE / "data"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "quatype.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def assert_matches_golden(proc, name):
    want = (GOLDEN / name).read_text()
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


# infer, tables and a sparse check, then a dense product, in a fresh interpreter
_COLD_START = """
import random
import sys

from quatype import algebra
from quatype.cli import main


def numpy_modules():
    return [m for m in sys.modules if m == "numpy" or m.startswith("numpy.")]


for argv in (["infer", "[U:1,V:2]"], ["tables", "--which", "pair"], ["check", "--sig", "3,0", "[U:1,V:2]"]):
    assert main(argv) == 0, argv
assert not numpy_modules(), numpy_modules()[:5]

sig = algebra.Signature(8, 0)
rng = random.Random(0)
u, v = (algebra.Multivector(sig, {b: rng.choice((-1, 1)) * rng.randint(1, 9) for b in range(1 << sig.n)}) for _ in "uv")
before = algebra.product_paths.copy()
w = u * v
assert algebra.product_paths - before == {"spinor": 1}, algebra.product_paths
assert "numpy" in sys.modules
reference = algebra._mul_sparse(u._dict(), v._dict(), sig.neg_mask, False)
assert sorted((b, type(x), x) for b, x in w._dict().items()) == sorted((b, type(x), x) for b, x in reference.items())
"""


def test_cold_start_loads_numpy_only_for_a_dense_product():
    # the residue rules and small sparse products never need an array; the
    # first full-density Cl(8,0) product loads numpy and still matches the
    # sparse reference exactly
    proc = subprocess.run([sys.executable, "-c", _COLD_START], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("which", ["triple", "pair", "musical", "threefold-fixed"])
@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_tables_match_goldens(which, fmt):
    proc = run_cli("tables", "--which", which, "--format", fmt)
    suffix = "txt" if fmt == "text" else "csv"
    assert_matches_golden(proc, f"tables_{which.replace('-', '_')}.{suffix}")


def test_eval_bracket_golden():
    proc = run_cli("eval", "--sig", "2,0", "--bindings", str(DATA / "bindings_uv.json"), "[U,V]")
    assert_matches_golden(proc, "eval_bracket.txt")
    assert proc.stdout.splitlines()[0] == "2 e12"


def test_eval_wexp_golden():
    proc = run_cli("eval", "--sig", "4,0", "--bindings", str(DATA / "bindings_wexp.json"), "wexp(U)")
    assert_matches_golden(proc, "eval_wexp.txt")
    assert proc.stdout.splitlines()[0] == "1 e + 1 e12 + 1 e34 + 1 e1234"


def test_infer_golden():
    proc = run_cli("infer", "{U:0, V:2, W:3}")
    assert_matches_golden(proc, "infer_triple.txt")
    assert proc.stdout.strip() == "1~"


def test_check_golden():
    proc = run_cli("check", "--sig", "3,1", "--trials", "200", "--seed", "0", "[U:1,V:3]")
    assert_matches_golden(proc, "check_pair.txt")


def test_check_json_output():
    proc = run_cli("check", "--sig", "4,0", "--trials", "10", "--seed", "3", "--json", "U:#2 ^^ 2")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["inferred"] == "0~"
    assert obj["failures"] == []
    assert obj["trials"] == 10


def test_check_expression_file(tmp_path):
    path = tmp_path / "exprs.txt"
    path.write_text("# a couple of identities\n[U:1~, V:3~]\nU:#2 ** 2  # rank square\n")
    proc = run_cli("check", "--sig", "4,0", "--trials", "20", "--file", str(path))
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 2


def test_eval_scalar_power():
    proc = run_cli("eval", "--sig", "1,0", "--bindings", str(DATA / "bindings_e1_cl10.json"), "U**2")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1 e"


# ---------------------------------------------------------------------------
# exit-code contract: 0 success, 1 verification failure, 2 usage/parse error


def test_exit_code_parse_error():
    proc = run_cli("infer", "]bad[")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_exit_code_infeasible_rank():
    proc = run_cli("check", "--sig", "3,0", "U:#5 ** 2")
    assert proc.returncode == 2
    assert "infeasible" in proc.stderr


def test_exit_code_negative_seed(capsys):
    # Random(-s) seeds like Random(s): seeds -3..3 would run three trials twice
    assert main(["check", "--sig", "4,0", "--seed", "-3", "--trials", "7", "[U:1,V:2]"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: seed must be nonnegative\n"


def test_exit_code_bad_signature():
    proc = run_cli("check", "--sig", "nope", "U:1~")
    assert proc.returncode == 2


def test_exit_code_missing_binding():
    proc = run_cli("eval", "--sig", "2,0", "[U,V]")
    assert proc.returncode == 2
    assert "binding" in proc.stderr


@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n  \n# another\n"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_exit_code_expression_file_without_expressions(text, json_flag, tmp_path, capsys):
    # a file of comments and blank lines checks nothing, so it must not pass
    path = tmp_path / "empty.qt"
    path.write_text(text)
    assert main(["check", "--sig", "3,0", *json_flag, "--file", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: no expressions in expression file {path}\n"


def test_exit_code_unreadable_expression_file(tmp_path, capsys):
    # an unreadable file is a usage error, not a containment failure
    path = tmp_path / "missing.txt"
    assert main(["check", "--sig", "3,0", "--file", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read expression file {path}: ")


def test_exit_code_usage():
    proc = run_cli("tables", "--which", "nonexistent")
    assert proc.returncode == 2


def test_exit_code_verification_failure(monkeypatch, capsys):
    # soundness holds on real expressions, so exercise the failure path with
    # a synthetic failing report
    failing = CheckReport(
        expr="[U:1~, V:2~]",
        signature=Signature(3, 0),
        inferred=QType({0}),
        trials=1,
        failures=[TrialFailure(trial=0, seed=0, observed=QType({1}))],
        observed=QType({1}),
    )
    import quatype.cli as cli_module

    monkeypatch.setattr(cli_module, "check", lambda *a, **k: failing)
    code = main(["check", "--sig", "3,0", "[U:1, V:2]"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_main_callable_directly(capsys):
    assert main(["infer", "[U:2, V:2, W:2]"]) == 0
    assert capsys.readouterr().out.strip() == "0~"


def test_exit_code_non_finite_float_result():
    # exp(U)**400 overflows to inf/NaN; that is an error, not a vacuous pass
    proc = run_cli("check", "--sig", "3,0", "exp(U:1~)**400")
    assert proc.returncode == 2
    assert "non-finite coefficient" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "PASS" not in proc.stdout


@pytest.mark.parametrize(
    "sig, expr",
    [("3,0", "exp(U:1~)**400"), ("3,0", "exp(exp(U:0~))")],
)
def test_trial_error_names_its_seed(sig, expr):
    proc = run_cli("check", "--sig", sig, expr)
    assert proc.returncode == 2
    assert "error: trial " in proc.stderr
    assert "(seed " in proc.stderr


def test_series_of_large_bracket_passes():
    # the bracket reaches coefficients in the hundreds; the series must not abort
    proc = run_cli("check", "--sig", "4,1", "cosh([U:1,V:2])")
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
