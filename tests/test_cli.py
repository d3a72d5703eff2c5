"""End-to-end tests of the command-line interface."""

import json
import math
import warnings

import numpy as np
import pytest

from quatspec.cli import _dumps, main
from quatspec.qmatrix import QMatrix, op_norm, random_normal
from quatspec.quaternion import I, Quaternion

RNG = np.random.default_rng(55)


@pytest.fixture
def matrix_file(tmp_path):
    t = QMatrix.from_entries([[Quaternion(), I], [-I, Quaternion()]])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(t.to_json()))
    return str(path)


@pytest.fixture
def normal_file(tmp_path):
    t, _ = random_normal(4, RNG)
    path = tmp_path / "n.json"
    path.write_text(json.dumps(t.to_json()))
    return str(path)


def test_spectrum_command(matrix_file, capsys):
    assert main(["spectrum", "--input", matrix_file]) == 0
    out = json.loads(capsys.readouterr().out)
    reps = sorted(tuple(r) for r in out["reps"])
    assert abs(reps[0][0] + 1.0) <= 1e-12 and abs(reps[1][0] - 1.0) <= 1e-12
    assert out["mult"] == [1, 1]
    assert abs(out["radius"] - 1.0) <= 1e-12


def test_spectrum_emit_plot(matrix_file, tmp_path, capsys):
    svg = tmp_path / "spec.svg"
    assert main(["spectrum", "--input", matrix_file, "--emit-plot", str(svg)]) == 0
    capsys.readouterr()
    content = svg.read_text()
    assert content.startswith("<svg") and "circle" in content


def test_apply_identity_echoes_matrix(normal_file, capsys):
    assert main(["apply", "--input", normal_file, "--fn", "builtin:id",
                 "--mode", "intrinsic"]) == 0
    out = json.loads(capsys.readouterr().out)
    t = QMatrix.from_json(json.load(open(normal_file)))
    assert op_norm(QMatrix.from_json(out) - t) <= 1e-10 * max(1.0, op_norm(t))


def test_apply_circular_and_cslice_modes(normal_file, capsys):
    t = QMatrix.from_json(json.load(open(normal_file)))
    a = (t + t.adjoint()) * 0.5
    assert main(["apply", "--input", normal_file, "--fn", "builtin:re",
                 "--mode", "circular"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert op_norm(QMatrix.from_json(out) - a) <= 1e-9 * max(1.0, op_norm(t))
    assert main(["apply", "--input", normal_file, "--fn", "builtin:conj",
                 "--mode", "cslice"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert op_norm(QMatrix.from_json(out) - t.adjoint()) <= 1e-9 * max(1.0, op_norm(t))


def test_apply_contour_mode(normal_file, capsys):
    assert main(["apply", "--input", normal_file, "--fn", "builtin:square",
                 "--mode", "contour", "--nodes", "128"]) == 0
    out = json.loads(capsys.readouterr().out)
    t = QMatrix.from_json(json.load(open(normal_file)))
    assert op_norm(QMatrix.from_json(out) - t @ t) <= 1e-7 * max(1.0, op_norm(t)) ** 2


def test_apply_function_file(normal_file, tmp_path, capsys):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"kind": "poly",
                              "Q1": [[2, 0, [1, 0, 0, 0]], [0, 2, [-1, 0, 0, 0]]],
                              "Q2": [[1, 1, [2, 0, 0, 0]]]}))
    assert main(["apply", "--input", normal_file, "--fn", str(fn),
                 "--mode", "general"]) == 0
    out = json.loads(capsys.readouterr().out)
    t = QMatrix.from_json(json.load(open(normal_file)))
    assert op_norm(QMatrix.from_json(out) - t @ t) <= 1e-9 * max(1.0, op_norm(t)) ** 2


def test_decompose_command(normal_file, tmp_path, capsys):
    out_path = tmp_path / "ctx.json"
    assert main(["decompose", "--input", normal_file, "--out", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert set(data) == {"A", "B", "J", "K", "eigs"}
    a = QMatrix.from_json(data["A"])
    t = QMatrix.from_json(json.load(open(normal_file)))
    assert op_norm(a - (t + t.adjoint()) * 0.5) <= 1e-10 * max(1.0, op_norm(t))
    assert len(data["eigs"]) == 4


def test_nearly_normal_input_is_decomposed_and_applied(tmp_path, capsys):
    """An n = 32 T + E with ||E||_F = 3e-11 ||T||: `decompose` and
    `apply --mode contour` exit 0 (the contour once refused it, exit 3),
    and the contour matches `--mode general` within 1e-7."""
    rng = np.random.default_rng(56)
    t = random_normal(32, rng)[0]
    e = QMatrix(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)),
                rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    t = t + e * (3e-11 * op_norm(t) / e.frobenius())
    path = tmp_path / "t.json"
    path.write_text(json.dumps(t.to_json()))
    results = {}
    for mode in ("contour", "general"):
        assert main(["apply", "--input", str(path), "--fn", "builtin:exp",
                     "--mode", mode]) == 0
        results[mode] = QMatrix.from_json(json.loads(capsys.readouterr().out))
    assert (op_norm(results["contour"] - results["general"])
            <= 1e-7 * op_norm(results["general"]))
    assert main(["decompose", "--input", str(path), "--out", str(tmp_path / "ctx.json")]) == 0


def test_resolvent_command(matrix_file, capsys):
    assert main(["resolvent", "--input", matrix_file, "--q", "0,2,0,0",
                 "--tol", "1e-10"]) == 0
    out = json.loads(capsys.readouterr().out)
    r = QMatrix.from_json(out)
    t = QMatrix.from_json(json.load(open(matrix_file)))
    from quatspec.spectral import delta_q
    assert op_norm(delta_q(t, Quaternion(0, 2, 0, 0)) @ r - QMatrix.identity(2)) <= 1e-8


def test_verify_random(tmp_path, capsys):
    json_out = tmp_path / "report.json"
    code = main(["verify", "--random", "4,3,42", "--suite", "spectral",
                 "--json-out", str(json_out)])
    assert code == 0
    table = capsys.readouterr().out
    assert "passed" in table
    report = json.loads(json_out.read_text())
    assert report["ok"] and report["summary"]["fail"] == 0


def test_verify_random_full_battery(capsys):
    """The flagship invocation: 20 random operators of size 8, all suites."""
    assert main(["verify", "--random", "8,20,42"]) == 0
    table = capsys.readouterr().out
    assert " 0 failed" in table


def test_verify_deterministic(capsys):
    assert main(["verify", "--random", "3,2,7", "--suite", "spectral"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--random", "3,2,7", "--suite", "spectral"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_on_input_matrix(normal_file, capsys):
    assert main(["verify", "--input", normal_file, "--suite", "spectral"]) == 0


@pytest.mark.parametrize("spec, message", [("0,2,1", "--random n must be >= 1, got 0"),
                                           ("8,-1,1", "--random count must be >= 1, got -1"),
                                           ("8,2,-1", "--random seed must be >= 0, got -1")])
def test_exit_code_out_of_range_random_spec(capsys, spec, message):
    """n < 1 once raised an IndexError and a negative seed a ValueError,
    both exit 1 (verification failed); count < 1 ran no matrix and exit 0."""
    assert main(["verify", "--random", spec]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_exit_code_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spectrum", "--input", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["spectrum", "--input", str(missing)]) == 2
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"n": 2, "rows": [[1, 2], [3, 4]]}))
    assert main(["spectrum", "--input", str(malformed)]) == 2


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_exit_code_non_finite_matrix(tmp_path, capsys, value):
    data = random_normal(3, np.random.default_rng(3))[0].to_json()
    data["rows"][1][2][3] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["spectrum", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "entry (1, 2) component 3 is not finite" in err
    assert "Traceback" not in err


def test_exit_code_precondition(matrix_file, capsys):
    # |q| inside the spectral bound
    assert main(["resolvent", "--input", matrix_file, "--q", "0.1,0,0,0",
                 "--tol", "1e-8"]) == 3
    # sqrt needs a positive self-adjoint operator; this spectrum is {-1, 1}
    assert main(["apply", "--input", matrix_file, "--fn", "builtin:sqrt",
                 "--mode", "intrinsic"]) == 3


def test_matrix_json_roundtrip_bit_identical(normal_file):
    """parse -> serialize -> parse is stable after one normalization pass."""
    first = QMatrix.from_json(json.load(open(normal_file)))
    text1 = json.dumps(first.to_json())
    second = QMatrix.from_json(json.loads(text1))
    text2 = json.dumps(second.to_json())
    assert text1 == text2
    assert (first - second).frobenius() == 0.0


@pytest.mark.parametrize("coef", [[math.nan, 0, 0, 0], [0, math.inf, 0, 0], [1, 0, 0], "abcd"])
def test_exit_code_malformed_function(normal_file, tmp_path, capsys, coef):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"kind": "poly", "Q1": [[0, 0, coef]], "Q2": []}))
    assert main(["apply", "--input", normal_file, "--fn", str(fn)]) == 2
    err = capsys.readouterr().err
    assert "malformed function JSON" in err
    assert "Traceback" not in err
    if len(coef) == 4 and coef != "abcd":
        assert "X^0 Y^0 has a non-finite coefficient" in err


@pytest.mark.parametrize("argv, value", [
    (["apply", "--fn", "builtin:square", "--mode", "contour", "--radius", "nan"], "nan"),
    (["apply", "--fn", "builtin:square", "--mode", "contour", "--radius", "inf"], "inf"),
    (["resolvent", "--q", "nan,0,0,0"], "nan"),
    (["resolvent", "--q", "0,2,0,0", "--tol", "nan"], "nan"),
])
def test_exit_code_non_finite_argument(matrix_file, capsys, argv, value):
    assert main([argv[0], "--input", matrix_file, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert f"must be finite, got {value}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["apply", "--fn", "builtin:square", "--mode", "contour", "--nodes", "0"],
     "--nodes must be >= 16, got 0"),
    (["apply", "--fn", "builtin:square", "--mode", "contour", "--nodes", "1"],
     "--nodes must be >= 16, got 1"),
    (["apply", "--fn", "builtin:square", "--mode", "contour", "--nodes", "-4"],
     "--nodes must be >= 16, got -4"),
    (["apply", "--fn", "builtin:square", "--mode", "contour", "--radius", "-1"],
     "--radius must be > 0, got -1.0"),
    (["apply", "--fn", "builtin:square", "--mode", "contour", "--radius", "0"],
     "--radius must be > 0, got 0.0"),
    (["resolvent", "--q", "0,2,0,0", "--tol", "0"], "--tol must be > 0, got 0.0"),
])
def test_exit_code_out_of_range_option(matrix_file, capsys, argv, message):
    """These options once reached the library unchecked and exited 3
    (precondition) instead of 2 (malformed input)."""
    assert main([argv[0], "--input", matrix_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_exit_code_radius_inside_the_spectrum(matrix_file, capsys):
    """A positive radius that does not enclose the spectrum is a precondition
    on the matrix, not malformed input."""
    assert main(["apply", "--input", matrix_file, "--fn", "builtin:square",
                 "--mode", "contour", "--radius", "0.5"]) == 3
    assert "does not enclose the spectrum" in capsys.readouterr().err


def test_exit_code_contour_outside_domain(normal_file, capsys):
    assert main(["apply", "--input", normal_file, "--fn", "builtin:sqrt",
                 "--mode", "contour"]) == 3
    assert "quadrature node 1 lies outside the function domain" in capsys.readouterr().err


@pytest.mark.parametrize("exponent", [1.5, -1, True, "2"])
def test_exit_code_bad_monomial_exponent(normal_file, tmp_path, capsys, exponent):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"kind": "poly", "Q1": [[exponent, 0, [1, 0, 0, 0]]]}))
    assert main(["apply", "--input", normal_file, "--fn", str(fn)]) == 2
    err = capsys.readouterr().err
    assert f"monomial X^{exponent!r} Y^0: exponents must be non-negative integers" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["intrinsic", "general", "contour"])
def test_exit_code_overflowing_function(tmp_path, capsys, mode):
    """exp overflows on diag(800, 1): exit 3, no NaN rows on stdout and one
    error line on stderr, with no numpy warning before it."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps(QMatrix.diag([Quaternion(800), Quaternion(1)]).to_json()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["apply", "--input", str(path), "--fn", "builtin:exp", "--mode", mode])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: f is not finite at")
    assert captured.err.count("\n") == 1


def assert_json_indent2(text: str) -> None:
    """`text` is exactly what `json.dumps(..., indent=2)` writes, plus a newline."""
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["spectrum"],
    *(["apply", "--fn", fn, "--mode", mode] for mode, fn in [
        ("intrinsic", "builtin:square"), ("cslice", "builtin:conj"),
        ("circular", "builtin:re"), ("general", "builtin:exp")]),
    ["apply", "--fn", "builtin:square", "--mode", "contour", "--nodes", "32"],
    ["resolvent", "--q", "0,9,0,0"],
])
def test_stdout_is_json_indent2_text(normal_file, capsys, argv):
    assert main([argv[0], "--input", normal_file, *argv[1:]]) == 0
    assert_json_indent2(capsys.readouterr().out)


def test_output_files_are_json_indent2_text(normal_file, tmp_path, capsys):
    ctx_path, report_path = tmp_path / "ctx.json", tmp_path / "report.json"
    assert main(["decompose", "--input", normal_file, "--out", str(ctx_path)]) == 0
    assert main(["verify", "--random", "3,2,7", "--suite", "spectral",
                 "--json-out", str(report_path)]) == 0
    capsys.readouterr()
    assert_json_indent2(ctx_path.read_text())
    assert_json_indent2(report_path.read_text())


EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e-7, 0.1, math.nan, math.inf, -math.inf, 0, -7,
               2**70, True, False, None, [], {}, "\u00e9\u2603 \"q\"\\\n\t", np.float64(2.5)]


@pytest.mark.parametrize("value", [
    *EDGE_VALUES,
    EDGE_VALUES,
    [1.0, -0.0, 5e-324],
    [1.0, math.nan], [math.inf, 2.0], [1.0, 2], [True, 1.0], (1.0, 2.0),
    [[], {}, [[1.5]]],
    {"a": [1.0, 2.0], "b": {"c": [[1e300, -1e-300]], "d": {}}, "\u00e9": None},
    {1: "int key", "x": [0.5]},
])
def test_dumps_is_json_dumps_indent2(value):
    assert _dumps(value) == json.dumps(value, indent=2)
