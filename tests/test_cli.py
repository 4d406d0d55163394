import ast
import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

import helpers
from darbouxops import catalog, cli, io_json, lie, linalg
from darbouxops import operators as ops
from darbouxops.errors import (
    DarbouxOpsError,
    InvalidOperandError,
    MetricIncompatibleError,
    NotACasimirError,
    NotACocycleError,
    NotALieAlgebraError,
    SingularMatrixError,
)
from darbouxops.latexout import operator_latex
from darbouxops.scalars import Scalar


def run_cli(args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "darbouxops.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


@pytest.fixture
def so3_file(tmp_path):
    path = tmp_path / "so3.json"
    io_json.dump_algebra(lie.so3(), str(path))
    return str(path)


@pytest.fixture
def kdv_files(tmp_path):
    a = tmp_path / "kdv_A.json"
    b = tmp_path / "kdv_B.json"
    io_json.dump_operator(helpers.kdv_A().to_poly_operator(), str(a))
    io_json.dump_operator(helpers.kdv_B().to_poly_operator(), str(b))
    return str(a), str(b)


def test_algebra_roundtrip_rational_and_extension(tmp_path):
    for g in (lie.so3(), lie.s46(), helpers_algebra_sqrt2()):
        path = tmp_path / "g.json"
        io_json.dump_algebra(g, str(path))
        assert io_json.load_algebra(str(path)) == g


def helpers_algebra_sqrt2():
    s2 = Scalar(0, 1, 2)
    return lie.LieAlgebra.from_brackets(3, {(0, 1): {2: s2}})


def test_operator_roundtrip(tmp_path):
    op = helpers.kdv_B().to_poly_operator()
    path = tmp_path / "op.json"
    io_json.dump_operator(op, str(path))
    loaded = io_json.load_operator(str(path))
    assert loaded.ring == op.ring
    for i in range(3):
        for j in range(3):
            assert loaded.g[i][j] == op.g[i][j]
            assert loaded.omega[i][j] == op.omega[i][j]


def test_check_exit_codes(tmp_path, so3_file):
    assert run_cli(["check", so3_file]).returncode == 0
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "out": {"2": "1"}},
            {"i": 1, "j": 3, "out": {"3": "1"}},
            {"i": 2, "j": 3, "out": {"1": "1"}},
        ],
    }))
    proc = run_cli(["check", str(broken)])
    assert proc.returncode == 1
    assert "Jacobi" in proc.stderr
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{nope")
    assert run_cli(["check", str(malformed)]).returncode == 2


def test_check_text_output(so3_file):
    proc = run_cli(["check", so3_file])
    assert "semisimple" in proc.stdout
    assert "center 0" in proc.stdout


def test_spaces_heisenberg_metrics(tmp_path):
    path = tmp_path / "heis.json"
    io_json.dump_algebra(lie.heisenberg3(), str(path))
    proc = run_cli(["--format", "json", "spaces", str(path), "--which", "metrics"])
    data = json.loads(proc.stdout)
    assert data["dim"] == 3
    assert data["witness"] is None
    text = run_cli(["spaces", str(path), "--which", "metrics"]).stdout
    assert "no nondegenerate witness" in text


def test_spaces_cocycles_abelian(tmp_path):
    path = tmp_path / "ab4.json"
    io_json.dump_algebra(lie.abelian(4), str(path))
    proc = run_cli(["--format", "json", "spaces", str(path), "--which", "cocycles"])
    data = json.loads(proc.stdout)
    assert data["dim"] == 6 and data["h2_dim"] == 6


def test_operator_build_and_verify(tmp_path, so3_file):
    out = tmp_path / "a33.json"
    proc = run_cli([
        "operator", "build", "--algebra", so3_file,
        "--eta", "alpha*I", "--f", "zero", "--out", str(out),
    ])
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data["params"] == ["alpha"]
    assert data["omega"][0][1] == "u3"
    assert run_cli(["operator", "verify", str(out)]).returncode == 0


def _nonaffine_operator():
    """g = I, omega^{12} = u1^2: not affine in u, and not Hamiltonian."""
    ring = ops.field_ring(2)
    w = ring.parse("u1^2")
    return ops.PolyOperator(ring, [[1, 0], [0, 1]], [[ring.zero, w], [-w, ring.zero]])


@pytest.mark.parametrize("which, mode, code, reports", [
    ("affine", "auto", 0, ["darboux", "general"]),
    ("affine", "darboux", 0, ["darboux"]),
    ("affine", "general", 0, ["general"]),
    ("nonaffine", "auto", 1, ["general"]),
    ("nonaffine", "darboux", 1, None),  # no Darboux form: an error line, no report
    ("nonaffine", "general", 1, ["general"]),
])
def test_operator_verify_modes(tmp_path, capsys, which, mode, code, reports):
    op = helpers.kdv_A().to_poly_operator() if which == "affine" else _nonaffine_operator()
    path = tmp_path / "op.json"
    io_json.dump_operator(op, str(path))
    assert cli.main(["--format", "json", "operator", "verify", str(path), "--mode", mode]) == code
    out = capsys.readouterr()
    if reports is None:
        assert out.out == "" and "not affine" in out.err
        return
    payload = json.loads(out.out)
    assert list(payload) == reports
    assert all(set(r) == {"passed", "conditions"} and r["passed"] == (code == 0)
               for r in payload.values())


def test_operator_verify_has_no_both_mode(tmp_path):
    path = tmp_path / "op.json"
    io_json.dump_operator(helpers.kdv_A().to_poly_operator(), str(path))
    with pytest.raises(SystemExit) as exc:
        cli.main(["operator", "verify", str(path), "--mode", "both"])
    assert exc.value.code == 2


@pytest.mark.parametrize("eta, f, params", [
    ("α*I", "zero", ["α"]),  # names the reader reads, though not ASCII identifiers
    ("x/y*I", "0,β,0;-β,0,0;0,0,0", ["x/y", "β"]),
    ("1/2*b+a,0,0;0,1/2*b+a,0;0,0,a+1/2*b", "0,c,-b;-c,0,a;b,-a,0", ["b", "a", "c"]),
    ("a , 0, 0; 0, a, 0; 0, 0, (1+sqrt(2))*a-sqrt(2)*a", "zero", ["a"]),
])
def test_operator_build_reads_parameters_as_the_reader_does(so3_file, capsys, eta, f, params):
    """Parameters are the reader's names, in order of first appearance, eta before f."""
    assert cli.main(["operator", "build", "--algebra", so3_file, "--eta", eta, "--f", f]) == 0
    assert json.loads(capsys.readouterr().out)["params"] == params


_SQUARE = {"g": [["1", "0"], ["0", "1"]], "omega": [["0", "u1"], ["-u1", "0"]]}


@pytest.mark.parametrize("bad", [
    {"field_sqrt": 1000000000000000000000000000007},  # used to hang in trial division
    {"field_sqrt": 4},
    {"g": [["1", "0"], ["0"]]},
    {"omega": [["0", "u1"], ["-u1"]]},
    {"omega": [["0", "1/0*u1"], ["-u1", "0"]]},
    {"omega": [["0", "u1^40000"], ["-u1", "0"]]},
    {"omega": [["0", "v1"], ["-v1", "0"]]},  # unknown indeterminate
    {"g": [["u1", "0"], ["0", "1"]]},  # leading coefficient not constant
    {"omega": [["0", "10^5000*u1"], ["-10^5000*u1", "0"]]},  # above the int-string digit limit
    {"g": [["10^4000*10^4000", "0"], ["0", "1"]]},
    {"dim": 1000000000},  # checked against the rows before the ring is built
    {"dim": -1},
])
def test_operator_verify_rejects_bad_files(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "field_sqrt": 0, **_SQUARE, **bad}))
    proc = run_cli(["operator", "verify", str(path)], timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


_SQRT3_OMEGA = {"dim": 2, "g": [["1", "0"], ["0", "1"]],
                "omega": [["0", "sqrt(3)"], ["-sqrt(3)", "0"]]}


@pytest.mark.parametrize("declared", [
    {"field_sqrt": 2},  # declared sqrt(2), coefficient in sqrt(3)
    {},  # undeclared: plain Q
    {"field_sqrt": 0},  # declared plain Q
])
def test_operator_file_field_tag_validated(tmp_path, declared):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({**_SQRT3_OMEGA, **declared}))
    for args in (["operator", "verify", str(path)], ["pencil", str(path), str(path)]):
        proc = run_cli(args, timeout=60)
        assert proc.returncode == 2, args
        assert "Traceback" not in proc.stderr
        assert "not rational" in proc.stderr or "not in Q(sqrt(2))" in proc.stderr


def test_operator_file_declared_tag_accepted(tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({**_SQRT3_OMEGA, "field_sqrt": 3}))
    proc = run_cli(["operator", "verify", str(path)], timeout=60)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


_SQRT3_BRACKET = {"dim": 2, "brackets": [{"i": 1, "j": 2, "out": {"2": "sqrt(3)"}}]}


@pytest.mark.parametrize("field_sqrt", [
    4,  # not square-free
    2,  # declared sqrt(2), coefficient in sqrt(3)
    0,  # declared plain Q
])
@pytest.mark.parametrize("command", [["check"], ["spaces", "--which", "metrics"]])
def test_algebra_file_field_tag_validated(tmp_path, field_sqrt, command):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({**_SQRT3_BRACKET, "field_sqrt": field_sqrt}))
    proc = run_cli([command[0], str(path), *command[1:]], timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "valid Lie algebra" not in proc.stdout


def test_algebra_file_zero_denominator_rejected(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 2, "brackets": [{"i": 1, "j": 2, "out": {"2": "1/0"}}]}))
    proc = run_cli(["check", str(path)], timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


_BIG_DENOMINATORS = "+".join(f"1/{10**2000 + k}" for k in (1, 3, 7))  # sum: ~6000 digits


@pytest.mark.parametrize("data", [
    {"dim": 150, "brackets": []},  # the dense dim^3 tensor alone took about 31 s
    {"dim": -1, "brackets": []},
    {"dim": 3, "brackets": [{"i": 1, "j": 2, "out": [1]}]},  # "out" is not an object
    {"dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"3": _BIG_DENOMINATORS}}]},
], ids=["dim-150", "dim-negative", "out-not-object", "sum-above-digit-limit"])
def test_algebra_file_rejected(tmp_path, data):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    proc = run_cli(["check", str(path)], timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_algebra_file_repeated_bracket_pair_rejected(tmp_path):
    """A second entry for one pair is an error, not a silent overwrite."""
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"3": 1}},
                                                       {"i": 1, "j": 2, "out": {"3": 5}}]}))
    proc = run_cli(["check", str(path)], timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "bracket pair (1,2) given twice" in proc.stderr
    assert "valid Lie algebra" not in proc.stdout


def test_matrix_file_json_error_names_the_line(tmp_path, kdv_files):
    path = tmp_path / "m.json"
    path.write_text('[["1", "0", "0"],\n ["0", "1", "0"],\n ["0", "0" "1"]]')
    proc = run_cli(["operator", "transform", kdv_files[0], "--matrix", str(path)], timeout=60)
    assert proc.returncode == 2
    assert "invalid JSON at line 3" in proc.stderr


def test_algebra_file_declared_tag_accepted(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({**_SQRT3_BRACKET, "field_sqrt": 3}))
    proc = run_cli(["check", str(path)], timeout=60)
    assert proc.returncode == 0
    assert "valid Lie algebra" in proc.stdout


def test_global_field_sqrt_rejected():
    proc = run_cli(["--field-sqrt", "1000000000000000000000000000007", "catalog", "list"],
                   timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_operator_build_rejects_bad_metric(so3_file):
    proc = run_cli([
        "operator", "build", "--algebra", so3_file,
        "--eta", "1,0,0;0,1,0;0,0,2", "--f", "zero",
    ])
    assert proc.returncode == 1
    assert "metric" in proc.stderr


@pytest.mark.parametrize("eta, f", [
    ("u1*I", "zero"),  # leading coefficient depends on u
    ("1,0,0;0,u2,0;0,0,1", "zero"),
    ("I", "0,u1,0;-u1,0,0;0,0,0"),  # cocycle block depends on u
    ("sqrt(2)*sqrt(3)*I", "zero"),  # mixed radicals
    ("sqrt(2)*I", "zero"),  # radical outside the declared field (plain Q)
    ("9" * 5000 + "*I", "zero"),  # above Python's int-string digit limit
    ("I,0,0;0,I,0;0,0,I", "zero"),  # "I" inside rows is not an indeterminate
    ("10^5000*I", "zero"),  # a short literal whose value is above the digit limit
    ("10^4000*10^4000*I", "zero"),
    ("1,0;0,1;0,0", "zero"),  # three rows of two entries
    ("I", "0,1;-1,0;0,0"),
], ids=["u-in-eta", "u-in-eta-rows", "u-in-f", "mixed-radicals", "undeclared-radical",
        "digit-limit", "I-in-rows", "digit-limit-power", "digit-limit-product",
        "short-eta-rows", "short-f-rows"])
def test_operator_build_rejects_bad_blocks(tmp_path, so3_file, eta, f):
    out = tmp_path / "op.json"
    proc = run_cli(["operator", "build", "--algebra", so3_file, "--eta", eta, "--f", f,
                    "--out", str(out)], timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_operator_build_declared_radical_accepted(tmp_path, so3_file):
    out = tmp_path / "op.json"
    proc = run_cli(["--field-sqrt", "2", "operator", "build", "--algebra", so3_file,
                    "--eta", "sqrt(2)*I", "--f", "zero", "--out", str(out)], timeout=60)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["field_sqrt"] == 2
    assert run_cli(["operator", "verify", str(out)], timeout=60).returncode == 0


_NOT_LIE = {"dim": 3, "brackets": [
    {"i": 1, "j": 2, "out": {"2": "1"}},
    {"i": 1, "j": 3, "out": {"3": "1"}},
    {"i": 2, "j": 3, "out": {"1": "1"}},
]}


@pytest.mark.parametrize("command", [
    ["check", "{}"],
    ["spaces", "{}", "--which", "cocycles"],
    ["operator", "build", "--algebra", "{}", "--eta", "I", "--f", "zero"],
])
def test_non_lie_tensor_is_an_invalid_operand(tmp_path, command):
    """Every command taking an algebra file exits 1 on a tensor failing Jacobi."""
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(_NOT_LIE))
    proc = run_cli([arg.format(path) for arg in command], timeout=60)
    assert proc.returncode == 1
    assert "Jacobi" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_global_seed_flag_removed():
    assert run_cli(["--seed", "1", "catalog", "list"]).returncode == 2


def test_operator_apply_kdv(kdv_files):
    a_file, _ = kdv_files
    proc = run_cli([
        "--format", "json", "operator", "apply", a_file,
        "--density=-1/2*u1^2+u1*u3-1/2*u3^2+1/2*sqrt(2)*u1+1/2*sqrt(2)*u3",
    ])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["V"][0] == ["-1", "0", "1"]
    assert data["W"][1] == "2*u1^2-4*u1*u3+2*u3^2+sqrt(2)*u1+sqrt(2)*u3"


def test_pencil_cli(kdv_files, tmp_path):
    a_file, b_file = kdv_files
    proc = run_cli(["pencil", a_file, b_file])
    assert proc.returncode == 0
    assert "compatible" in proc.stdout
    # breaking skewness of one f entry invalidates the operand
    data = json.loads(open(b_file).read())
    data["omega"][0][2] = "7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    proc = run_cli(["pencil", a_file, str(bad)])
    assert proc.returncode == 1
    assert "INVALID_OPERAND" in proc.stderr


def test_pencil_modes(kdv_files):
    a_file, b_file = kdv_files
    for mode in ("darboux", "lambda", "both"):
        assert run_cli(["pencil", a_file, b_file, "--mode", mode]).returncode == 0


@pytest.mark.parametrize("mode", [["--mode", "darboux"], []], ids=["darboux", "both"])
def test_pencil_darboux_mode_refuses_a_nonaffine_operand(tmp_path, capsys, mode):
    path = str(tmp_path / "na.json")
    io_json.dump_operator(_nonaffine_operator(), path)
    assert cli.main(["pencil", path, path, *mode]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "affine" in out.err


def _pencil_dict(compatible, mixed, lam):
    """One route of the pencil JSON from the mixed (name, first violation) rows
    and the lambda-route (name, first violation) rows or None, keys in order."""
    return {
        "compatible": compatible,
        "conditions": [{"name": name, "ok": v is None, "first_violation": v} for name, v in mixed],
        "lambda_check": None if lam is None else {
            "passed": compatible,
            "conditions": [{"name": name, "ok": v is None, "first_violation": v, "residual": None}
                           for name, v in lam]},
    }


def test_pencil_json_keeps_keys_order_and_values(tmp_path, capsys, kdv_files):
    moduli = str(tmp_path / "moduli.json")
    io_json.dump_operator(catalog.catalog_get("A_{6,11}").operator().to_poly_operator(), moduli)
    lam = ["omega-skew", "schouten", "phi-cyclic-symmetry", "phi-constant"]
    cases = [
        ([*kdv_files, "--mode", "darboux"], "darboux",
         _pencil_dict(True, [("mixed-jacobi", None), ("mixed-cocycle", None),
                             ("mixed-metric", None)], None)),
        ([*kdv_files, "--mode", "lambda"], "lambda",
         _pencil_dict(True, [], [(name, None) for name in lam])),
        ([moduli, moduli, "--mode", "darboux"], "darboux",
         _pencil_dict(False, [("mixed-jacobi", None), ("mixed-cocycle", None),
                              ("mixed-metric", [2, 5, 4])], None)),
        ([moduli, moduli, "--mode", "lambda"], "lambda",
         _pencil_dict(False, [], [("omega-skew", None), ("schouten", None),
                                  ("phi-cyclic-symmetry", [2, 4, 5]), ("phi-constant", None)])),
    ]
    for argv, route, want in cases:
        code = cli.main(["--format", "json", "pencil", *argv])
        assert code == (0 if want["compatible"] else 1)
        # the values and the key order
        assert capsys.readouterr().out == json.dumps({route: want}, indent=2) + "\n"


def test_catalog_cli():
    proc = run_cli(["catalog", "list"])
    assert proc.returncode == 0
    assert "A_{6,18}" in proc.stdout
    proc = run_cli(["catalog", "verify", "A_{4,2}"])
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
    proc = run_cli(["catalog", "show", "bogus"])
    assert proc.returncode == 2


def test_catalog_verify_all_is_the_run_without_a_name(capsys):
    outs = []
    for argv in (["--all"], []):
        assert cli.main(["--format", "json", "catalog", "verify", *argv]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert list(json.loads(outs[0])["checks"]) == catalog.catalog_list()


def test_catalog_verify_one_name(capsys):
    assert cli.main(["--format", "json", "catalog", "verify", "A_{4,2}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["entries"], payload["passed"], payload["failed"]) == (1, 1, [])
    assert list(payload["checks"]) == ["A_{4,2}"]


@pytest.mark.parametrize("argv", [["A_{4,2}", "--all"], ["--all", "A_{4,2}"]])
def test_catalog_verify_refuses_a_name_with_all(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["catalog", "verify", *argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "not allowed with argument" in out.err


def _error_types(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_types(sub)


def test_exit_code_table_covers_every_error_type():
    """Exit 1 is a negative verdict on read input; every other typed error is exit 2."""
    types = [DarbouxOpsError, *_error_types(DarbouxOpsError)]
    assert len(types) >= 16
    for cls in types + [OSError, FileNotFoundError, PermissionError]:
        assert cli.exit_row(cls("x"))[0] in (1, 2), cls
    assert {cls for cls in types if cli.exit_row(cls("x"))[0] == 1} == {
        NotALieAlgebraError, MetricIncompatibleError, NotACocycleError,
        InvalidOperandError, SingularMatrixError, NotACasimirError,
    }
    for exc in (ValueError("x"), IndexError("x"), KeyError("x"), Exception("x")):
        assert cli.exit_row(exc) is None


def test_bug_keeps_its_traceback(monkeypatch, so3_file):
    def broken(g):
        raise IndexError("a bug")

    monkeypatch.setattr(lie, "structure_tags", broken)
    with pytest.raises(IndexError):
        cli.main(["check", so3_file])


@pytest.fixture
def exit_files(tmp_path, kdv_files):
    """Inputs for one CLI case per row of the exit-code table."""
    files = {"A": kdv_files[0], "tmp": str(tmp_path)}
    data = json.loads(open(kdv_files[1]).read())
    data["omega"][0][2] = "7"  # breaks skewness: B is no longer Hamiltonian
    written = {
        "Bbad": data,
        "notlie": _NOT_LIE,
        "m22": [["1", "0"], ["0", "1"]],
        "m44": [["1" if i == j else "0" for j in range(4)] for i in range(4)],
        "msing": [["1", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]],
        "msqrt3": [["1", "0", "0"], ["0", "sqrt(3)", "0"], ["0", "0", "1"]],
        "mbig": [["1" + "0" * 4000, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    for stem, content in written.items():
        files[stem] = str(tmp_path / f"{stem}.json")
        (tmp_path / f"{stem}.json").write_text(json.dumps(content))
    files["so3"] = str(tmp_path / "so3.json")
    io_json.dump_algebra(lie.so3(), files["so3"])
    files["so3op"] = str(tmp_path / "so3op.json")
    so3op = ops.build_darboux(lie.so3(), linalg.identity(3), [[0] * 3 for _ in range(3)])
    io_json.dump_operator(so3op.to_poly_operator(), files["so3op"])
    return files


_EXIT_CASES = [
    ("not-a-lie-algebra", ["check", "{notlie}"], 1, "not a Lie algebra"),
    ("metric-rejected", ["operator", "build", "--algebra", "{so3}",
                         "--eta", "1,0,0;0,1,0;0,0,2", "--f", "zero"], 1, "rejected"),
    ("non-hamiltonian-operand", ["pencil", "{A}", "{Bbad}"], 1, "INVALID_OPERAND"),
    ("singular-matrix", ["operator", "transform", "{A}", "--matrix", "{msing}"], 1, "error"),
    ("unwritable-build-out", ["operator", "build", "--algebra", "{so3}", "--eta", "I",
                              "--f", "zero", "--out", "{tmp}/missing/op.json"], 2, "parse error"),
    ("unwritable-transform-out", ["operator", "transform", "{A}", "--matrix", "{m44}",
                                  "--out", "{tmp}/missing/op.json"], 2, "parse error"),
    ("matrix-2x2", ["operator", "transform", "{A}", "--matrix", "{m22}"], 2, "parse error"),
    ("matrix-4x4", ["operator", "transform", "{so3op}", "--matrix", "{m44}"], 2, "parse error"),
    ("clashing-radical", ["operator", "transform", "{A}", "--matrix", "{msqrt3}"], 2,
     "parse error"),
    ("missing-file", ["operator", "verify", "{tmp}/missing.json"], 2, "parse error"),
    ("bogus-catalog-entry", ["catalog", "verify", "bogus"], 2, "error"),
    ("field-sqrt-4", ["--field-sqrt", "4", "catalog", "list"], 2, "error"),
    ("unprintable-value", ["operator", "transform", "{so3op}", "--matrix", "{mbig}"], 2, "error"),
    ("density-parameter", ["operator", "apply", "{A}", "--density=q*u1"], 2, "error"),
]


def test_cli_writes_to_stderr_only_in_main():
    """One exit home: cli.py names sys.stderr only inside `main`, which prints
    the `EXIT_CODES` line of a typed error."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "stderr"
             and isinstance(node.value, ast.Name) and node.value.id == "sys"]
    assert lines
    assert all(main.lineno <= line <= main.end_lineno for line in lines), lines


def test_exit_cases_cover_every_row():
    assert {(code, prefix) for _, _, code, prefix in _EXIT_CASES} == {
        (code, prefix) for _, code, prefix in cli.EXIT_CODES
    }


@pytest.mark.parametrize("argv, code, prefix", [case[1:] for case in _EXIT_CASES],
                         ids=[case[0] for case in _EXIT_CASES])
def test_exit_code_table_rows(exit_files, argv, code, prefix):
    proc = run_cli([arg.format(**exit_files) for arg in argv], timeout=120)
    assert proc.returncode == code
    assert proc.stderr.startswith(prefix + ": ")
    assert "Traceback" not in proc.stderr
    if code == 2:
        assert proc.stdout == ""


def test_transform_writes_the_joined_field(exit_files, tmp_path):
    """A rational operator moved by a sqrt(2) matrix is written over Q(sqrt(2)) and loads again."""
    mat, out = tmp_path / "msqrt2.json", tmp_path / "moved.json"
    mat.write_text(json.dumps([["1", "0", "0"], ["0", "sqrt(2)", "0"], ["0", "0", "1"]]))
    proc = run_cli(["operator", "transform", exit_files["so3op"], "--matrix", str(mat),
                    "--out", str(out)], timeout=60)
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data["field_sqrt"] == 2
    assert data["omega"][0][1] == "sqrt(2)*u3"
    assert run_cli(["operator", "verify", str(out)], timeout=60).returncode == 0


def test_transform_darboux_file_verifies(tmp_path):
    """A rational triple moved by a sqrt(2) matrix lives over Q(sqrt(2)), and
    the file written from it loads and verifies."""
    op = ops.build_darboux(lie.so3(), linalg.identity(3), [[0] * 3 for _ in range(3)])
    moved = ops.transform_darboux(op, [[1, 0, 0], [0, Scalar.sqrt(2), 0], [0, 0, 1]])
    assert moved.ring.d == 2
    assert ops.verify_darboux(moved).passed
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(io_json.operator_to_dict(moved.to_poly_operator())))
    proc = run_cli(["operator", "verify", str(path)], timeout=60)
    assert proc.returncode == 0
    assert "darboux: PASS" in proc.stdout


def test_transform_out_keeps_the_file_when_unprintable(exit_files, tmp_path):
    """A result too long to print leaves an existing --out file as it was."""
    out = tmp_path / "kept.json"
    out.write_bytes(pathlib.Path(exit_files["so3op"]).read_bytes())
    before = out.read_bytes()
    proc = run_cli(["operator", "transform", exit_files["so3op"], "--matrix",
                    exit_files["mbig"], "--out", str(out)], timeout=60)
    assert proc.returncode == 2
    assert out.read_bytes() == before


def test_operator_transform_cli(kdv_files, tmp_path):
    a_file, _ = kdv_files
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps([["2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]]))
    proc = run_cli(["operator", "transform", a_file, "--matrix", str(mat)])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["g"][0][0] == "4"


def test_latex_golden_a32_a33():
    """The three-summand display for the catalogued dimension-3 families."""
    from darbouxops.catalog import catalog_get

    def normalize(s):
        return "".join(s.split())

    a33 = catalog_get("A_{3,3}")
    got = normalize(operator_latex(a33.eta, a33.omega))
    want = normalize(
        r"""
        \begin{pmatrix}
        \alpha & 0 & 0 \\
        0 & \alpha & 0 \\
        0 & 0 & \alpha
        \end{pmatrix}\,\partial_x
        +
        \begin{pmatrix}
        0 & u^{3} & -u^{2} \\
        -u^{3} & 0 & u^{1} \\
        u^{2} & -u^{1} & 0
        \end{pmatrix}
        +
        \begin{pmatrix}
        0 & f^{12} & f^{13} \\
        -f^{12} & 0 & f^{23} \\
        -f^{13} & -f^{23} & 0
        \end{pmatrix}
        """
    )
    assert got == want

    a32 = catalog_get("A_{3,2}")
    got = normalize(operator_latex(a32.eta, a32.omega))
    want = normalize(
        r"""
        \begin{pmatrix}
        0 & 0 & \alpha \\
        0 & \frac{1}{2}\alpha & 0 \\
        \alpha & 0 & 0
        \end{pmatrix}\,\partial_x
        +
        \begin{pmatrix}
        0 & u^{1} & -2 u^{2} \\
        -u^{1} & 0 & u^{3} \\
        2 u^{2} & -u^{3} & 0
        \end{pmatrix}
        +
        \begin{pmatrix}
        0 & f^{12} & f^{13} \\
        -f^{12} & 0 & f^{23} \\
        -f^{13} & -f^{23} & 0
        \end{pmatrix}
        """
    )
    assert got == want


def test_cli_main_function_directly(so3_file):
    assert cli.main(["check", so3_file]) == 0


# An invertible matrix over Q(sqrt(3)); transporting A_{6,11} by it puts
# radicals in every block, so both pencil routes run the sqrt(3) kernel.
_SQRT3_MATRIX = [
    ["0", "1-sqrt(3)", "0", "1-sqrt(3)", "0", "0"],
    ["0", "0", "1", "-1", "sqrt(3)", "0"],
    ["1", "sqrt(3)", "1", "1-sqrt(3)", "-1", "sqrt(3)"],
    ["-1", "0", "1", "0", "sqrt(3)", "1"],
    ["0", "sqrt(3)", "-1", "1-sqrt(3)", "sqrt(3)", "-1"],
    ["sqrt(3)", "1", "sqrt(3)", "0", "0", "-1"],
]


def test_pencil_both_pins_moduli_entry_over_sqrt3(tmp_path):
    """A moduli entry against its renamed copy is incompatible on both routes.

    The verdicts, first violations and the transported file are pinned.
    """
    entry = catalog.catalog_get("A_{6,11}")
    a, m, t = (tmp_path / f"{stem}.json" for stem in "AMT")
    a.write_text(json.dumps({
        "dim": entry.dim,
        "field_sqrt": 3,
        "g": [[str(x) for x in row] for row in entry.eta],
        "omega": [[str(x) for x in row] for row in entry.omega],
        "params": entry.eta_params + entry.f_params + list(entry.moduli),
    }))
    m.write_text(json.dumps(_SQRT3_MATRIX))
    proc = run_cli(["operator", "transform", str(a), "--matrix", str(m), "--out", str(t)],
                   timeout=120)
    assert proc.returncode == 0
    assert hashlib.sha256(t.read_bytes()).hexdigest() == (
        "4d83f3d51b61bb6d8690a915d846c319edd61712a052506bd5136b9d92f0fae9"
    )
    proc = run_cli(["--format", "json", "pencil", str(t), str(t), "--mode", "both"],
                   timeout=120)
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["darboux"]["compatible"] is False
    assert [(c["name"], c["first_violation"]) for c in data["darboux"]["conditions"]] == [
        ("mixed-jacobi", None),
        ("mixed-cocycle", None),
        ("mixed-metric", [1, 2, 2]),
    ]
    lam = data["lambda"]["lambda_check"]
    assert data["lambda"]["compatible"] is False
    assert [(c["name"], c["first_violation"], c["residual"]) for c in lam["conditions"]] == [
        ("omega-skew", None, None),
        ("schouten", None, None),
        ("phi-cyclic-symmetry", [1, 2, 2], None),
        ("phi-constant", None, None),
    ]
