"""CLI behavior: golden outputs, exit codes, input forms, and round trips."""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spincover.cli as cli
import spincover.covering as covering
import spincover.oracle as oracle
from spincover.cli import (
    EXIT_BAD_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_SELFCHECK,
    main,
    render_json,
)
from spincover.clifford_core import Multivector, Signature, blade_name, exp_bivector
from spincover.covering import Rotor, forward_map, matrix_to_rotor, select_candidate
from spincover.division_algebras import (
    rotor_to_quaternion,
    rotor_to_split,
    so21_to_unit_split_quaternion,
    so3_to_unit_quaternion,
    su2_defect,
    su11_defect,
)
from spincover.oracle import sample_matrix

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(env: dict[str, str], *args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "spincover", *args],
        capture_output=True,
        text=True,
        input=stdin,
        cwd=FIXTURES,
        env=env,
    )


def test_golden_outputs_are_byte_stable(cli_env):
    manifest = json.loads((FIXTURES / "manifest.json").read_text())
    assert len(manifest) == 7
    for entry in manifest:
        golden = (FIXTURES / entry["golden"]).read_text()
        for _ in range(2):
            result = run_cli(cli_env, *entry["args"], entry["input"])
            assert result.returncode == entry["exit_code"], entry["golden"]
            assert result.stdout == golden, entry["golden"]


def test_rejection_also_reports_on_stderr(cli_env):
    result = run_cli(cli_env, "rotor-from-matrix", "reject_11.json")
    assert result.returncode == EXIT_REJECTED
    assert "orthochronous" in result.stderr


@pytest.mark.skipif(
    shutil.which("spincover") is None,
    reason="the spincover console script is not on PATH; install it with `pip install -e .`",
)
def test_console_entry_point():
    result = subprocess.run(
        ["spincover", "rotor-from-matrix", str(FIXTURES / "c1_phi_pi.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["rotor"] == {"e12": 1.0}


# -- input forms -----------------------------------------------------------

def test_inline_json_input(capsys):
    code = main(["rotor-from-matrix", '{"p": 2, "q": 0, "matrix": [[1, 0], [0, 1]]}'])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert doc["rotor"] == {"1": 1.0}
    assert doc["F"] == "1"


def test_stdin_input(cli_env):
    payload = '{"p": 2, "q": 0, "matrix": [[-1, 0], [0, -1]]}'
    result = run_cli(cli_env, "rotor-from-matrix", stdin=payload)
    assert result.returncode == 0
    assert json.loads(result.stdout)["rotor"] == {"e12": 1.0}
    explicit = run_cli(cli_env, "rotor-from-matrix", "-", stdin=payload)
    assert explicit.stdout == result.stdout


def test_file_path_input(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text('{"p": 2, "q": 0, "matrix": [[1, 0], [0, 1]]}')
    assert main(["rotor-from-matrix", str(path)]) == EXIT_OK
    capsys.readouterr()


def test_missing_file_is_bad_input(capsys):
    code = main(["rotor-from-matrix", "/nonexistent/path.json"])
    assert code == EXIT_BAD_INPUT
    assert json.loads(capsys.readouterr().out)["exit_code"] == EXIT_BAD_INPUT


# -- bad input variants -------------------------------------------------------

@pytest.mark.parametrize(
    "payload",
    [
        "not json at all",
        "[1, 2, 3]",
        '{"q": 0, "matrix": [[1]]}',
        '{"p": 1.5, "q": 0, "matrix": [[1]]}',
        '{"p": true, "q": 0, "matrix": [[1]]}',
        '{"p": 2, "q": 0}',
        '{"p": 2, "q": 0, "matrix": [[1, 0]]}',
        '{"p": 2, "q": 0, "matrix": [[1, 0], [0, "x"]]}',
        '{"p": 2, "q": 0, "matrix": [[1, 0], [0, NaN]]}',
        '{"p": 0, "q": 0, "matrix": []}',
        '{"p": 5, "p": 2, "q": 0, "matrix": [[1, 0], [0, 1]]}',
    ],
)
def test_malformed_matrix_inputs(payload, capsys):
    assert main(["rotor-from-matrix", payload]) == EXIT_BAD_INPUT
    capsys.readouterr()


@pytest.mark.parametrize(
    "payload",
    [
        '{"p": 2, "q": 0}',
        '{"p": 2, "q": 0, "rotor": {}}',
        '{"p": 2, "q": 0, "rotor": {"e9": 1}}',
        '{"p": 2, "q": 0, "rotor": {"1": "big"}}',
        '{"p": 2, "q": 0, "rotor": {"1": NaN}}',
        '{"p": 2, "q": 0, "rotor": {"1": 0.5, "e12": 0.5, "e1_2": 0.5}}',
        '{"p": 2, "q": 0, "rotor": {"1": 1, "1": 2}}',
        '{"p": 2, "q": 0, "rotor": {"1": 1, "1": 1}}',
    ],
)
def test_malformed_rotor_inputs(payload, capsys):
    assert main(["matrix-from-rotor", payload]) == EXIT_BAD_INPUT
    capsys.readouterr()


HUGE = str(10**400)


def assert_bad_input_without_traceback(result: subprocess.CompletedProcess) -> None:
    assert result.returncode == EXIT_BAD_INPUT, result.stderr
    assert "Traceback" not in result.stderr
    if result.stdout:
        assert json.loads(result.stdout)["exit_code"] == EXIT_BAD_INPUT


@pytest.mark.parametrize(
    "args",
    [
        ("check", '{"p": 1, "q": 0, "matrix": [[%s]]}' % HUGE),
        ("rotor-from-matrix", '{"p": 1, "q": 0, "matrix": [[%s]]}' % HUGE),
        ("matrix-from-rotor", '{"p": 1, "q": 0, "rotor": {"1": %s}}' % HUGE),
    ],
    ids=lambda args: args[0],
)
def test_integer_too_large_for_a_float_is_bad_input(cli_env, args):
    assert_bad_input_without_traceback(run_cli(cli_env, *args))


@pytest.mark.parametrize("sig", [Signature(1, 0), Signature(1, 1), Signature(3, 1)], ids=lambda s: f"{s.p},{s.q}")
def test_n3_method_on_another_n_is_bad_input(cli_env, sig):
    # The matrix passes membership; the method does not fit its n.
    payload = json.dumps({"p": sig.p, "q": sig.q, "matrix": sample_matrix(sig, 2).tolist()})
    result = run_cli(cli_env, "rotor-from-matrix", "--method", "n3", payload)
    assert_bad_input_without_traceback(result)
    assert json.loads(result.stdout) == {"error": f"method 'n3' needs n = 3, got n = {sig.n}", "exit_code": 2}


@pytest.mark.parametrize("matrix", ["[[true, false], [false, true]]", '[["1", "0"], ["0", "1"]]'])
def test_matrix_entries_must_be_json_numbers(cli_env, matrix):
    result = run_cli(cli_env, "rotor-from-matrix", '{"p": 2, "q": 0, "matrix": %s}' % matrix)
    assert_bad_input_without_traceback(result)
    assert "matrix entry must be a number" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("check", "nan", '{"p": 1, "q": 0, "matrix": [[1]]}'),
        ("rotor-from-matrix", "-1", '{"p": 1, "q": 0, "matrix": [[1]]}'),
        ("matrix-from-rotor", "inf", '{"p": 1, "q": 0, "rotor": {"1": 1}}'),
    ],
    ids=lambda args: args[0],
)
def test_tolerance_must_be_finite_and_non_negative(cli_env, args):
    command, tol, payload = args
    result = run_cli(cli_env, command, "--tol", tol, payload)
    assert_bad_input_without_traceback(result)
    assert "--tol" in result.stderr


@pytest.mark.parametrize(
    "command, payload",
    [
        ("check", '{"p": 1, "q": 0, "matrix": [[1]]}'),
        ("rotor-from-matrix", '{"p": 2, "q": 0, "matrix": [[0, -1], [1, 0]]}'),
        ("matrix-from-rotor", '{"p": 1, "q": 0, "rotor": {"1": 1}}'),
    ],
)
def test_zero_tolerance_is_accepted(command, payload, capsys):
    assert main([command, "--tol", "0", payload]) == EXIT_OK
    capsys.readouterr()


def test_quaternion_method_needs_three_generators(capsys):
    code = main(
        ["rotor-from-matrix", "--method", "quaternion", '{"p": 2, "q": 0, "matrix": [[1, 0], [0, 1]]}']
    )
    assert code == EXIT_BAD_INPUT
    assert "quaternion" in json.loads(capsys.readouterr().out)["error"]


# -- rejection paths ------------------------------------------------------------

def test_matrix_from_rotor_rejects_odd_rotor(capsys):
    code = main(["matrix-from-rotor", '{"p": 3, "q": 0, "rotor": {"e1": 1}}'])
    assert code == EXIT_REJECTED
    assert "rotor invariant violated" in json.loads(capsys.readouterr().out)["error"]


def test_matrix_from_rotor_rejects_non_unit(capsys):
    code = main(["matrix-from-rotor", '{"p": 3, "q": 0, "rotor": {"1": 2}}'])
    assert code == EXIT_REJECTED
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "rotor-from-matrix"])
def test_overflowing_matrix_is_rejected(command, capsys):
    payload = '{"p": 2, "q": 0, "matrix": [[1e160, 0], [0, 1e-160]]}'
    assert main([command, payload]) == EXIT_REJECTED
    doc = json.loads(capsys.readouterr().out)
    report = doc if command == "check" else doc["report"]
    assert report["ok"] is False and report["metric_residual"] is None
    assert any("pseudo-orthogonal" in f for f in report["failures"])


def test_matrix_from_rotor_rejects_overflowing_rotor(capsys):
    assert main(["matrix-from-rotor", '{"p": 2, "q": 0, "rotor": {"1": 1e160}}']) == EXIT_REJECTED
    assert "deviates" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize(
    "args",
    [
        ("check", '{"p": 2, "q": 0, "matrix": [[1e160, 0], [0, 1e-160]]}'),
        ("rotor-from-matrix", '{"p": 2, "q": 0, "matrix": [[1e160, 0], [0, 1e-160]]}'),
        ("matrix-from-rotor", '{"p": 2, "q": 0, "rotor": {"1": 1e160}}'),
    ],
    ids=lambda args: args[0],
)
def test_overflow_rejection_prints_no_numpy_warning(cli_env, args):
    # The overflowed residuals fail their conditions quietly: stderr holds
    # the failure message and nothing else.
    result = run_cli(cli_env, *args)
    assert result.returncode == EXIT_REJECTED
    assert "RuntimeWarning" not in result.stderr
    assert len(result.stderr.splitlines()) == 1


def test_check_command_reports_and_exits(capsys):
    ok = main(["check", '{"p": 2, "q": 0, "matrix": [[0, -1], [1, 0]]}'])
    doc = json.loads(capsys.readouterr().out)
    assert ok == EXIT_OK
    assert doc["ok"] is True and doc["failures"] == []
    bad = main(["check", '{"p": 2, "q": 0, "matrix": [[1, 0], [0, -1]]}'])
    doc = json.loads(capsys.readouterr().out)
    assert bad == EXIT_REJECTED
    assert doc["ok"] is False and doc["failures"]


def test_project_flag_repairs_near_member(capsys):
    angle = 0.3
    c, s = math.cos(angle), math.sin(angle)
    noisy = [[c + 1e-6, -s], [s, c - 2e-6]]
    payload = json.dumps({"p": 2, "q": 0, "matrix": noisy})
    assert main(["rotor-from-matrix", payload]) == EXIT_REJECTED
    capsys.readouterr()
    assert main(["rotor-from-matrix", "--project", payload]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["residual"] <= 1e-9
    assert abs(doc["rotor"]["1"] - math.cos(angle / 2.0)) <= 1e-5


def test_project_flag_leaves_a_member_as_it_is(capsys):
    ch, sh = math.cosh(10.0), math.sinh(10.0)
    payload = json.dumps({"p": 2, "q": 1, "matrix": [[1.0, 0.0, 0.0], [0.0, ch, sh], [0.0, sh, ch]]})
    assert main(["rotor-from-matrix", payload]) == EXIT_OK
    plain = capsys.readouterr().out
    assert main(["rotor-from-matrix", "--project", payload]) == EXIT_OK
    assert capsys.readouterr().out == plain


def test_project_flag_reports_a_breakdown(capsys):
    payload = json.dumps({"p": 1, "q": 1, "matrix": [[0, 1], [1, 0]]})
    assert main(["rotor-from-matrix", "--project", payload]) == EXIT_BAD_INPUT
    assert "the projection broke down" in capsys.readouterr().err


def test_project_flag_reports_no_convergence(capsys):
    payload = json.dumps({"p": 1, "q": 1, "matrix": [[0, 1], [1, 1e-17]]})
    assert main(["rotor-from-matrix", "--project", payload]) == EXIT_BAD_INPUT
    assert "the projection did not converge" in capsys.readouterr().err


def test_loose_tolerance_accepts_near_member(capsys):
    angle = 0.3
    c, s = math.cos(angle), math.sin(angle)
    noisy = [[c + 1e-6, -s], [s, c - 2e-6]]
    payload = json.dumps({"p": 2, "q": 0, "matrix": noisy})
    assert main(["rotor-from-matrix", "--tol", "1e-4", payload]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["residual"] <= 1e-4


# -- round trips -----------------------------------------------------------------

def test_cli_round_trip_matrix_rotor_matrix(capsys):
    source = json.dumps(
        {
            "p": 1,
            "q": 1,
            "matrix": [[math.cosh(1.0), math.sinh(1.0)], [math.sinh(1.0), math.cosh(1.0)]],
        }
    )
    assert main(["rotor-from-matrix", source]) == EXIT_OK
    rotor_doc = json.loads(capsys.readouterr().out)
    back_payload = json.dumps({"p": 1, "q": 1, "rotor": rotor_doc["rotor"]})
    assert main(["matrix-from-rotor", back_payload]) == EXIT_OK
    matrix_doc = json.loads(capsys.readouterr().out)
    got = np.array(matrix_doc["matrix"])
    want = np.array(json.loads(source)["matrix"])
    assert np.max(np.abs(got - want)) <= 1e-9
    assert matrix_doc["membership"]["ok"] is True


def test_output_floats_round_trip_exactly(capsys):
    assert main(["rotor-from-matrix", "--method", "n3", str(FIXTURES / "quat_rot.json")]) == EXIT_OK
    first = capsys.readouterr().out
    doc = json.loads(first)
    rebuilt = json.dumps({"p": 3, "q": 0, "rotor": doc["rotor"]})
    assert main(["matrix-from-rotor", rebuilt]) == EXIT_OK
    matrix_doc = json.loads(capsys.readouterr().out)
    assert np.max(np.abs(np.array(matrix_doc["matrix"]) - np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]))) <= 1e-15


def test_rotor_from_large_boost_pipes_into_matrix_from_rotor(capsys):
    # The recovered rotor misses unit norm by ~1.5e-8 absolutely but only
    # ~1e-12 relative to its size, sum of squared coefficients ~ cosh 10.
    ch, sh = math.cosh(10.0), math.sinh(10.0)
    want = np.array([[ch, sh], [sh, ch]])
    source = json.dumps({"p": 1, "q": 1, "matrix": want.tolist()})
    assert main(["rotor-from-matrix", "--tol", "1e-6", source]) == EXIT_OK
    rotor_doc = json.loads(capsys.readouterr().out)
    back_payload = json.dumps({"p": 1, "q": 1, "rotor": rotor_doc["rotor"]})
    assert main(["matrix-from-rotor", back_payload]) == EXIT_OK
    got = np.array(json.loads(capsys.readouterr().out)["matrix"])
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


PIPE_SIGNATURES = [Signature(p, n - p) for n in range(1, 7) for p in range(n + 1)] + [Signature(7, 3)]


@pytest.mark.parametrize("sig", PIPE_SIGNATURES, ids=lambda s: f"{s.p}_{s.q}")
def test_rotor_from_matrix_stdout_pipes_into_matrix_from_rotor(sig, capsys):
    want = sample_matrix(sig, 1)
    assert main(["rotor-from-matrix", json.dumps({"p": sig.p, "q": sig.q, "matrix": want.tolist()})]) == EXIT_OK
    assert main(["matrix-from-rotor", capsys.readouterr().out]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["membership"]["ok"] is True
    bound = doc["membership"]["tolerance"] * max(1.0, float(np.max(np.square(want))))
    assert np.max(np.abs(np.array(doc["matrix"]) - want)) <= bound


def mixed_n12_matrix(r: float, seed: int) -> np.ndarray:
    # The (8,4) product, left to right over i = 0..7, of B_{i,8} B_{i,9}
    # B_{i,10} B_{i,11} R_{i,i+1 mod 8}: B_ij boosts generators i and j by t
    # ~ U(-r, r), R_ij turns them by theta ~ U(-pi, pi), drawn in that order.
    rng = np.random.default_rng(seed)
    product = np.eye(12)
    for i in range(8):
        for j in range(8, 12):
            ch, sh = math.cosh(t := rng.uniform(-r, r)), math.sinh(t)
            factor = np.eye(12)
            factor[[i, j], [i, j]], factor[[i, j], [j, i]] = ch, sh
            product = product @ factor
        c, s = math.cos(theta := rng.uniform(-math.pi, math.pi)), math.sin(theta)
        j = (i + 1) % 8
        factor = np.eye(12)
        factor[[i, j], [i, j]], factor[i, j], factor[j, i] = c, -s, s
        product = product @ factor
    return product


@pytest.mark.xfail(
    strict=True, raises=ValueError, reason="standing defect 2: at mixed n = 12 the recovered rotor misses the rotor rule"
)
def test_mixed_n12_recovery_passes_the_rotor_rule_or_refuses():
    # r = 1.7, seed 0 (max |P| 2.04e4): the rotor deviates from unit norm
    # by about 1e-2 against a tolerance of 4.479e-03.
    sig = Signature(8, 4)
    try:
        rotor = matrix_to_rotor(mixed_n12_matrix(1.7, 0), sig)
    except covering.NoCandidateError:
        return
    Rotor.checked(rotor)


# -- quaternion method ----------------------------------------------------------

QUATERNION_INPUTS = {
    "so3_half_turn_e12": {"p": 3, "q": 0, "matrix": [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]},
    "so3_half_turn_e23": {"p": 3, "q": 0, "matrix": [[1, 0, 0], [0, -1, 0], [0, 0, -1]]},
    "so3_half_turn_e13": {"p": 3, "q": 0, "matrix": [[-1, 0, 0], [0, 1, 0], [0, 0, -1]]},
    "so21_half_turn_e12": {"p": 2, "q": 1, "matrix": [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]},
    "quat_rot": json.loads((FIXTURES / "quat_rot.json").read_text()),
}


@pytest.mark.parametrize("payload", QUATERNION_INPUTS.values(), ids=QUATERNION_INPUTS.keys())
def test_quaternion_method_prints_no_negative_zero(payload, capsys):
    assert main(["rotor-from-matrix", "--method", "quaternion", json.dumps(payload)]) == EXIT_OK
    out = capsys.readouterr().out
    assert re.search(r"-0(?![.\d])", out) is None, out


CHAIN_CASES = (
    [(Signature(p, n - p), "general") for n in range(1, 5) for p in range(n + 1)]
    + [(Signature(p, 3 - p), "n3") for p in range(4)]
    + [(Signature(p, 3 - p), "quaternion") for p in range(4)]
)


@pytest.mark.parametrize("sig, method", CHAIN_CASES, ids=[f"{s.p}_{s.q}-{m}" for s, m in CHAIN_CASES])
def test_rotor_from_matrix_prints_the_library_chain(sig, method, capsys):
    # F of select_candidate and the rotor of matrix_to_rotor, bit for bit;
    # the quaternion method prints the n3 rotor.
    library = "n3" if method == "quaternion" else method
    for seed in range(3):
        matrix = sample_matrix(sig, seed)
        payload = json.dumps({"p": sig.p, "q": sig.q, "matrix": matrix.tolist()})
        assert main(["rotor-from-matrix", "--method", method, payload]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        rotor = matrix_to_rotor(matrix, sig, library)
        assert doc["F"] == blade_name(select_candidate(matrix, sig).F)
        assert doc["rotor"] == {blade_name(mask): coeff for mask, coeff in rotor.value.terms()}
        assert doc["rotor_negated"] == {blade_name(mask): coeff for mask, coeff in (-rotor.value).terms()}


def rotation_e1(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


UNIT_ELEMENT_CASES = (
    [(Signature(3, 0), sample_matrix(Signature(3, 0), seed)) for seed in range(10)]
    + [(Signature(2, 1), sample_matrix(Signature(2, 1), seed)) for seed in range(10)]
    + [(Signature(3, 0), rotation_e1(angle)) for angle in np.linspace(-math.pi, math.pi, 73)]
    + [(Signature(2, 1), forward_map(Rotor(exp_bivector(Multivector.from_terms(Signature(2, 1), {3: 1.5, 6: 2.0})))))]
    + [(Signature(1, 2), sample_matrix(Signature(1, 2), seed)) for seed in range(10)]
    + [(Signature(0, 3), sample_matrix(Signature(0, 3), seed)) for seed in range(10)]
)

#: The JSON keys, read bridge and image defect of each n = 3 signature's unit element.
UNIT_OUTPUTS = {
    Signature(3, 0): ("quaternion", "su2", rotor_to_quaternion, su2_defect),
    Signature(2, 1): ("split_quaternion", "su11", rotor_to_split, su11_defect),
    Signature(1, 2): ("split_quaternion", "su11", rotor_to_split, su11_defect),
    Signature(0, 3): ("quaternion", "su2", rotor_to_quaternion, su2_defect),
}


def test_quaternion_method_prints_the_library_unit_element(capsys):
    # One sheet rule: the CLI's (split-)quaternion, the library's unit
    # element and the bridge of the canonical n3 rotor agree bit for bit,
    # and the printed 2x2 image lies in SU(2) or SU(1,1).
    units = {Signature(3, 0): so3_to_unit_quaternion, Signature(2, 1): so21_to_unit_split_quaternion}
    for sig, matrix in UNIT_ELEMENT_CASES:
        payload = json.dumps({"p": sig.p, "q": sig.q, "matrix": matrix.tolist()})
        assert main(["rotor-from-matrix", "--method", "quaternion", payload]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        key, image_key, bridge, defect = UNIT_OUTPUTS[sig]
        unit = bridge(matrix_to_rotor(matrix, sig, "n3"))
        if sig in units:
            assert units[sig](matrix) == unit
        assert doc[key] == {"a": unit.a, "b": unit.b, "c": unit.c, "d": unit.d}, matrix
        assert defect(np.array([[complex(*z) for z in row] for row in doc[image_key]])) <= 1e-13, matrix


def test_quaternion_method_selects_and_assembles_once(monkeypatch, capsys):
    selections, assemblies = [], []
    select, assemble = covering._select, covering._assemble_general

    def counting_select(*args, **kwargs):
        selections.append(args[1])
        return select(*args, **kwargs)

    def counting_assemble(*args, **kwargs):
        assemblies.append(args[2])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(covering, "_select", counting_select)
    monkeypatch.setattr(covering, "_assemble_general", counting_assemble)
    assert main(["rotor-from-matrix", "--method", "quaternion", str(FIXTURES / "quat_rot.json")]) == EXIT_OK
    assert "quaternion" in json.loads(capsys.readouterr().out)
    assert selections == [Signature(3, 0)] and assemblies == [0]


def test_rotor_from_matrix_runs_matrix_to_rotor_once(monkeypatch, capsys):
    calls = []
    convert = cli.matrix_to_rotor

    def counting_convert(*args):
        calls.append(args[2:])
        return convert(*args)

    monkeypatch.setattr(cli, "matrix_to_rotor", counting_convert)
    assert main(["rotor-from-matrix", "--tol", "1e-8", str(FIXTURES / "quat_rot.json")]) == EXIT_OK
    capsys.readouterr()
    assert calls == [("general", 1e-8)]
    for name in ("require_membership", "select_candidate", "rotor_from_candidate"):
        assert not hasattr(cli, name)


# -- selfcheck --------------------------------------------------------------------

def test_selfcheck_passes(capsys):
    assert main(["selfcheck", "--p", "2", "--q", "1", "--trials", "10", "--seed", "3"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["trials"] == 10


def test_selfcheck_bad_arguments(capsys):
    assert main(["selfcheck", "--p", "0", "--q", "0"]) == EXIT_BAD_INPUT
    capsys.readouterr()
    assert main(["selfcheck", "--p", "2", "--q", "1", "--trials", "0"]) == EXIT_BAD_INPUT
    capsys.readouterr()


def test_selfcheck_failure_exit_code(monkeypatch, capsys):
    def broken(sig, trials=100, seed=1):
        return {"p": sig.p, "q": sig.q, "trials": trials, "seed": seed, "suites": {}, "ok": False}

    monkeypatch.setattr(cli, "run_selfcheck", broken)
    assert main(["selfcheck", "--p", "2", "--q", "1"]) == EXIT_SELFCHECK
    capsys.readouterr()


def test_selfcheck_reports_an_anticommutation_defect(monkeypatch, capsys):
    # The defect count is the algebra suite's residual: finite, so the JSON
    # renders, and the command fails with exit 1 instead of a traceback.
    monkeypatch.setattr(oracle, "anticommutation_defect", lambda sig: 1)
    assert main(["selfcheck", "--p", "2", "--q", "0", "--trials", "2"]) == EXIT_SELFCHECK
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["suites"]["algebra_laws"]["ok"] is False
    assert doc["suites"]["algebra_laws"]["max_residual"] == 1.0
    assert doc["ok"] is False
    assert "Traceback" not in err


def test_forced_numerical_failure_exit_code(capsys):
    payload = '{"p": 1, "q": 1, "matrix": [[-1, 0], [0, -1]]}'
    assert main(["rotor-from-matrix", "--tol", "4", payload]) == EXIT_NUMERICAL
    capsys.readouterr()


# -- JSON renderer ------------------------------------------------------------------

def test_render_json_formats():
    assert render_json(True) == "true"
    assert render_json(None) == "null"
    assert render_json(3) == "3"
    assert render_json(0.1) == "0.10000000000000001"
    assert render_json(1.0) == "1"
    assert render_json({"a": [1.5, "x"]}) == '{"a": [1.5, "x"]}'
    with pytest.raises(ValueError):
        render_json(float("nan"))
    with pytest.raises(TypeError):
        render_json(object())


def reference_render_json(obj: object) -> str:
    """render_json before it dispatched on exact types: one isinstance chain per value."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r} in output")
        return "%.17g" % value
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {reference_render_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_render_json(v) for v in obj) + "]"
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class Key(str):
    def __str__(self) -> str:
        return "renamed"


class Table(dict):
    pass


def test_render_json_is_the_isinstance_chain_byte_for_byte():
    scalars = [True, False, 0, -7, 2**70, np.int64(-3), np.int8(5), np.float64(0.1), np.float32(1.5), 0.1, -0.0,
               1e-300, 2.0**-52, 1.0, 3.5e300, '"quoted" \\ back\tslash\n é \u2028 \x01', "", None]
    corpus = scalars + [
        {"a": scalars, "b": {"c": (1.5, [np.float64(-2.25), None]), "e12": -0.5}, 7: "int key", True: 0.25,
         2.5: "float key", None: [], Key("k"): 1.0, '"': {}},
        list(scalars), tuple(scalars), [[0.1, -0.2], (0.3, [])], Table(x=0.5, y=[Table()]), (), [], {},
    ]
    for obj in corpus:
        assert render_json(obj) == reference_render_json(obj)
    failures = [(ValueError, bad) for bad in (float("nan"), np.float64("inf"), -math.inf, {"x": [1.0, math.nan]}, (math.inf,))]
    failures += [(TypeError, bad) for bad in (object(), {"x": {1, 2}}, [b"bytes"], 1j)]
    for error, bad in failures:
        with pytest.raises(error) as new:
            render_json(bad)
        with pytest.raises(error) as old:
            reference_render_json(bad)
        assert str(new.value) == str(old.value)


def test_render_json_17_digits_round_trip():
    values = [math.pi, 1e-300, 2.0**-52, 0.7071067811865476, -1.0 / 3.0]
    for v in values:
        assert float(json.loads(render_json(v))) == v
