"""Command-line front end.

Commands
    rotor-from-matrix   recover the rotor pair covering an SO+(p,q) matrix
    matrix-from-rotor   apply the forward map to a rotor
    check               report SO+(p,q) membership residuals
    selfcheck           run the built-in verification suites

Input is JSON from a file path, inline text starting with "{", or standard
input ("-", the default). Matrices: {"p": int, "q": int, "matrix": [[...]]}
row-major; rotors: {"p": int, "q": int, "rotor": {"1": c0, "e12": c3, ...}}.

Exit codes: 0 ok, 1 selfcheck failure, 2 bad input, 3 membership or rotor
invariant rejection, 4 numerical failure (no usable candidate). All floats
are printed with 17 significant digits, so output is byte-stable and
round-trips exactly through text.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

import numpy as np

from .clifford_core import Multivector, Signature, blade_from_name, blade_name
from .covering import NoCandidateError, forward_map, matrix_to_rotor
from .division_algebras import Quaternion, SplitQuaternion, _read, quaternion_to_su2, split_to_su11
from .matrix_group import (
    DEFAULT_TOLERANCE,
    MembershipError,
    MembershipReport,
    check_membership,
    project_to_group,
    require_tolerance,
)
from .oracle import run_selfcheck, verify_covering

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_BAD_INPUT = 2
EXIT_REJECTED = 3
EXIT_NUMERICAL = 4

_UNIT_OUTPUT = {
    Quaternion: ("quaternion", "su2", quaternion_to_su2),
    SplitQuaternion: ("split_quaternion", "su11", split_to_su11),
}


# ---------------------------------------------------------------------------
# Stable JSON output
# ---------------------------------------------------------------------------

def render_json(obj: object) -> str:
    """Serialize with insertion-ordered keys and %.17g floats."""
    # Containers first, as command output is one dict; their str keys come
    # from a cache and their finite floats are formatted in place (_item).
    if isinstance(obj, dict):
        items = ", ".join([f"{_key(k) if type(k) is str else json.dumps(str(k))}: {_item(v)}" for k, v in obj.items()])
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_item(v) for v in obj]) + "]"
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
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _item(value: object) -> str:
    # render_json of a dict or list member: an exact, finite float without the call.
    if type(value) is float and math.isfinite(value):
        return "%.17g" % value
    return render_json(value)


#: JSON text of a str key. Command output has fixed keys and blade names
#: only; the bound holds the keys of any other caller of render_json.
_key = lru_cache(maxsize=1 << 14)(json.dumps)

#: blade_name by mask, for the rotor terms of rotor-from-matrix.
_blade_name = lru_cache(maxsize=None)(blade_name)


def _emit(obj: object) -> None:
    sys.stdout.write(render_json(obj) + "\n")


def _fail(code: int, message: str, report: MembershipReport | None = None) -> int:
    doc: dict = {"error": message, "exit_code": code}
    if report is not None:
        doc["report"] = _report_dict(report)
    _emit(doc)
    print(message, file=sys.stderr)
    return code


def _report_dict(report: MembershipReport) -> dict:
    # JSON has no inf or nan: a value that overflowed prints as null.
    def number(value: float) -> float | None:
        return value if math.isfinite(value) else None

    return {
        "metric_residual": number(report.metric_residual),
        "determinant": number(report.determinant),
        "orientation_minor": number(report.orientation_minor),
        "tolerance": number(report.tolerance),
        "ok": report.ok,
        "failures": report.failures(),
    }


# ---------------------------------------------------------------------------
# Input parsing (all failures here mean exit code 2)
# ---------------------------------------------------------------------------

def _distinct(pairs: list[tuple[str, object]]) -> dict:
    # One JSON object; json.loads alone keeps the last value of a repeated key.
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r} in a JSON object")
    return dict(pairs)


def _load_json(source: str) -> dict:
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith("{"):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        obj = json.loads(text, object_pairs_hook=_distinct)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("top-level JSON value must be an object")
    return obj


def _number(value: object, what: str) -> float:
    # A JSON int or float, finite as a float64; numpy would take bools and strings.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite")
    return number


def tolerance(text: str) -> float:
    """argparse type of --tol, a finite non-negative float; argparse exits 2 on ValueError."""
    return require_tolerance(float(text))


def _parse_signature(obj: dict) -> Signature:
    for key in ("p", "q"):
        if key not in obj:
            raise ValueError(f'missing "{key}" in input')
    return Signature(obj["p"], obj["q"])


def _parse_matrix_input(obj: dict) -> tuple[Signature, np.ndarray]:
    sig = _parse_signature(obj)
    if "matrix" not in obj:
        raise ValueError('missing "matrix" in input')
    cells = np.asarray(obj["matrix"], dtype=object)
    if cells.shape != (sig.n, sig.n):
        raise ValueError(f"bad matrix: expected a {sig.n}x{sig.n} matrix, got shape {cells.shape}")
    return sig, np.array([[_number(x, "matrix entry") for x in row] for row in cells])


def _parse_rotor_input(obj: dict) -> tuple[Signature, Multivector]:
    sig = _parse_signature(obj)
    table = obj.get("rotor")
    if not isinstance(table, dict) or not table:
        raise ValueError('missing or empty "rotor" object in input')
    terms = {blade_from_name(name, sig.n): _number(value, f"coefficient of {name}") for name, value in table.items()}
    return sig, Multivector.from_terms(sig, terms)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_rotor_from_matrix(args: argparse.Namespace) -> int:
    try:
        sig, arr = _parse_matrix_input(_load_json(args.input))
        if args.method == "quaternion" and sig.n != 3:
            raise ValueError(f"method 'quaternion' needs n = p + q = 3, got ({sig.p},{sig.q})")
        if args.project:
            arr = project_to_group(arr, sig)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))

    # The (split-)quaternion is the n3 rotor read through the bridge.
    method = "n3" if args.method == "quaternion" else args.method
    try:
        rotor = matrix_to_rotor(arr, sig, method, args.tol)
    except MembershipError as exc:  # a ValueError, so caught first
        return _fail(EXIT_REJECTED, str(exc), exc.report)
    except NoCandidateError as exc:
        return _fail(EXIT_NUMERICAL, str(exc))
    except ValueError as exc:  # a method that does not fit the signature
        return _fail(EXIT_BAD_INPUT, str(exc))

    # -rotor conjugates exactly as rotor does, so one residual covers both.
    residual = verify_covering(rotor, arr).max_residual
    terms = {_blade_name(mask): coeff for mask, coeff in rotor.value.terms()}
    out: dict = {
        "p": sig.p,
        "q": sig.q,
        "method": args.method,
        "F": _blade_name(rotor.probe),
        "rotor": terms,
        "rotor_negated": {name: -coeff for name, coeff in terms.items()},
        "residual": residual,
    }
    if args.method == "quaternion":
        unit = _read(rotor)
        key, image_key, image = _UNIT_OUTPUT[type(unit)]
        out[key] = {"a": unit.a, "b": unit.b, "c": unit.c, "d": unit.d}
        # Each complex entry prints as its [real, imaginary] pair.
        out[image_key] = image(unit)[..., None].view(np.float64).tolist()
    _emit(out)
    return EXIT_OK


def cmd_matrix_from_rotor(args: argparse.Namespace) -> int:
    try:
        sig, value = _parse_rotor_input(_load_json(args.input))
    except (OSError, ValueError) as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    try:
        matrix = forward_map(value, args.tol)
    except ValueError as exc:
        return _fail(EXIT_REJECTED, f"rotor invariant violated: {exc}")
    report = check_membership(matrix, sig, args.tol)
    _emit(
        {
            "p": sig.p,
            "q": sig.q,
            "matrix": matrix.tolist(),
            "membership": _report_dict(report),
        }
    )
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    try:
        sig, arr = _parse_matrix_input(_load_json(args.input))
    except (OSError, ValueError) as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    report = check_membership(arr, sig, args.tol)
    doc = {"p": sig.p, "q": sig.q}
    doc.update(_report_dict(report))
    _emit(doc)
    if not report.ok:
        print(str(report), file=sys.stderr)
        return EXIT_REJECTED
    return EXIT_OK


def cmd_selfcheck(args: argparse.Namespace) -> int:
    try:
        result = run_selfcheck(Signature(args.p, args.q), trials=args.trials, seed=args.seed)
    except ValueError as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    _emit(result)
    if not result["ok"]:
        print("selfcheck failed; see residuals above", file=sys.stderr)
        return EXIT_SELFCHECK
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincover",
        description="Convert between SO+(p,q) matrices and the spin-group rotor pairs covering them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rfm = sub.add_parser("rotor-from-matrix", help="recover the rotor pair for a matrix")
    rfm.add_argument("input", nargs="?", default="-", help='file path, inline JSON, or "-" for stdin')
    rfm.add_argument("--method", choices=["general", "n3", "quaternion"], default="general")
    rfm.add_argument("--tol", type=tolerance, default=DEFAULT_TOLERANCE, help="membership tolerance")
    rfm.add_argument(
        "--project",
        action="store_true",
        help="project the input onto the group (polar-type iteration) before validating",
    )
    rfm.set_defaults(func=cmd_rotor_from_matrix)

    mfr = sub.add_parser("matrix-from-rotor", help="apply the covering map to a rotor")
    mfr.add_argument("input", nargs="?", default="-")
    mfr.add_argument("--tol", type=tolerance, default=DEFAULT_TOLERANCE, help="rotor invariant tolerance")
    mfr.set_defaults(func=cmd_matrix_from_rotor)

    chk = sub.add_parser("check", help="report SO+(p,q) membership residuals")
    chk.add_argument("input", nargs="?", default="-")
    chk.add_argument("--tol", type=tolerance, default=DEFAULT_TOLERANCE)
    chk.set_defaults(func=cmd_check)

    sc = sub.add_parser("selfcheck", help="run the verification suites")
    sc.add_argument("--p", type=int, required=True)
    sc.add_argument("--q", type=int, required=True)
    sc.add_argument("--trials", type=int, default=100)
    sc.add_argument("--seed", type=int, default=1)
    sc.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # An input near 1e160 overflows a residual to inf, which fails its
    # condition and is reported; numpy's warnings about it would only add
    # noise to stderr. The library keeps numpy's default: an errstate
    # around every membership check measurably slows small conversions.
    with np.errstate(over="ignore", invalid="ignore"):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
