"""Seeded inputs, independent references and output checks for the workloads.

An operation ("op") is a plain JSON-able dict, so the parent process can
generate every input once and hand the list to the measuring workers:

    kind    "rotor"  matrix -> rotor through the library (method general, n3
                     or quaternion)
            "matrix" rotor -> matrix: Rotor.checked -> forward_map ->
                     check_membership
            "cli"    in-process cli.main(argv) on JSON text
    p, q    signature
    input   row-major matrix (kind rotor) or 2^n rotor coefficients (matrix)
    argv    command line (kind cli); "expect" names what the output holds
    ref     {"rotor": coefficients} or {"matrix": rows}

References never come from the code path under test. Seeded rotors are the
generating rotors of oracle.sample_rotor, with matrices from grade1_matrix
below, which computes the conjugation action with its own sign rule. The
other families are products of plane factors (factor_rotor) whose rotor and
matrix are both known in closed form.
"""

from __future__ import annotations

import json
import math

import numpy as np

from spincover import covering
from spincover.clifford_core import Multivector, Signature, blade_name
from spincover.oracle import SplitMix64, rotor_distance, sample_rotor

#: Relative error budget for every output, as in the acceptance tests.
BUDGET = 1e-9

#: Failures that are refusals by the library, not wrong answers. "membership
#: of output" is a correct matrix that the library's own check_membership
#: rejects at the default tolerance.
REJECTIONS = ("MembershipError", "NoCandidateError", "ValueError", "exit 3", "exit 4", "membership of output")

SMALL_SIGS = [(2, 0), (1, 1), (3, 0), (2, 1), (3, 1), (2, 2), (1, 3)]
LARGE_RECOVERY_SIGS = [(5, 3), (4, 4), (6, 3), (3, 6), (7, 3), (7, 3)]
FORWARD_SIGS = [(6, 4), (6, 4), (8, 3), (8, 3), (8, 4), (4, 8)]
FORWARD_BLOCK_SIGS = [(6, 4), (8, 3), (8, 4), (4, 8)]
QUATERNION_SIGS = [(3, 0), (2, 1)]

#: The rapidity grid of acceptance criterion 2, applied on (1,1) and (3,1).
#: At the default tolerance the library rejects |t| >= 8.78 (its membership
#: residual is absolute and grows like e^(2|t|)). Timed cycles must not
#: fail, so they use TIMED_BOOSTS; boost_probe runs this grid once per run,
#: untimed, and reports the rejections on their own.
BOOST_GRID = [float(t) for t in np.linspace(-10.0, 10.0, 50)]
BOOST_SIGS = [(1, 1), (3, 1)]
TIMED_BOOSTS = [float(t) for t in np.linspace(-8.0, 8.0, 50)]


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def _eta(p: int, q: int) -> list[int]:
    return [1] * p + [-1] * q


def _factor(x: float | None, mixed: bool) -> tuple[float, float, float, float]:
    """(a, b, c, s) of one factor a - b e_ij and its block; None is an exact half turn."""
    if x is None:
        return 0.0, 1.0, -1.0, 0.0
    if mixed:
        return math.cosh(x / 2), math.sinh(x / 2), math.cosh(x), math.sinh(x)
    return math.cos(x / 2), math.sin(x / 2), math.cos(x), math.sin(x)


def factor_rotor(p: int, q: int, factors: list[tuple[int, int, float | None]]) -> tuple[np.ndarray, np.ndarray]:
    """Rotor and exact matrix of a product of plane factors, left to right.

    Factor (i, j, x), 0-based i < j, is a - b e_ij with a, b = cos, sin(x/2)
    (cosh, sinh for a pair of mixed metric signs). It maps e_i to
    c e_i + eta_i s e_j and e_j to -eta_j s e_i + c e_j, with c, s = cos x,
    sin x (cosh x, sinh x), so the matrix of the product is the product of
    these blocks. The rotor is built with this module's own sign rule.
    """
    n = p + q
    eta = _eta(p, q)
    masks = np.arange(1 << n, dtype=np.int64)
    neg = ((1 << n) - 1) ^ ((1 << p) - 1)
    coeffs = np.zeros(1 << n)
    coeffs[0] = 1.0
    matrix = np.eye(n)
    for i, j, x in factors:
        a, b, c, s = _factor(x, eta[i] != eta[j])
        pair = (1 << i) | (1 << j)
        times_pair = np.zeros_like(coeffs)
        times_pair[masks ^ pair] = coeffs * _blade_signs(masks, pair, neg, n)
        coeffs = a * coeffs - b * times_pair
        block = np.eye(n)
        block[i, i] = block[j, j] = c
        block[j, i] = eta[i] * s
        block[i, j] = -eta[j] * s
        matrix = matrix @ block
    return coeffs, matrix


def block_rotor(p: int, q: int, params: list[float | None]) -> tuple[np.ndarray, np.ndarray]:
    """Commuting factors on the pairs (1,2), (3,4), ...; params[k] belongs to pair k."""
    return factor_rotor(p, q, [(2 * k, 2 * k + 1, x) for k, x in enumerate(params)])


def _popcount(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x).astype(np.int64)


def _blade_signs(a: np.ndarray, b: np.ndarray | int, neg_mask: int, n: int) -> np.ndarray:
    # Sign of e_a e_b: one swap per pair (i in a, j in b) with i > j, and a
    # factor -1 per shared generator that squares to -1.
    swaps = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    for shift in range(1, n):
        swaps += _popcount((a >> shift) & b)
    swaps += _popcount(a & b & neg_mask)
    return np.where(swaps & 1, -1.0, 1.0)


def grade1_matrix(p: int, q: int, coeffs: np.ndarray) -> np.ndarray:
    """Column a holds the grade-1 part of S e_a reverse(S), in O(n^2 2^n)."""
    n = p + q
    masks = np.arange(1 << n, dtype=np.int64)
    neg = ((1 << n) - 1) ^ ((1 << p) - 1)
    grades = _popcount(masks)
    reverse = np.where((grades * (grades - 1) // 2) & 1, -1.0, 1.0) * coeffs
    out = np.empty((n, n))
    for a in range(n):
        ea = 1 << a
        u = np.zeros(1 << n)
        u[masks ^ ea] = coeffs * _blade_signs(masks, ea, neg, n)
        for b in range(n):
            partner = masks ^ (1 << b)
            out[b, a] = float(np.sum(u * reverse[partner] * _blade_signs(masks, partner, neg, n)))
    return out


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _parse_blade(name: str) -> int:
    if name == "1":
        return 0
    body = name[1:]
    return sum(1 << (int(i) - 1) for i in (body.split("_") if "_" in body else body))


def _rotor_error(p: int, q: int, coeffs: np.ndarray, ref: list[float]) -> float:
    sig = Signature(p, q)
    expected = Multivector(sig, ref)
    return rotor_distance(Multivector(sig, coeffs), expected) / expected.max_abs()


def _matrix_error(matrix: np.ndarray, ref: list[list[float]]) -> float:
    expected = np.asarray(ref)
    return float(np.max(np.abs(np.asarray(matrix) - expected)) / np.max(np.abs(expected)))


def quaternion_coeffs(p: int, q: int, components: tuple[float, float, float, float]) -> np.ndarray:
    """(Split-)quaternion a + b i + c j + d k as Cl(p,q) coefficients: e12 = i, e13 = j, e23 = -k."""
    a, b, c, d = components
    coeffs = np.zeros(1 << (p + q))
    coeffs[[0, 0b011, 0b101, 0b110]] = a, b, c, -d
    return coeffs


def check(op: dict, outcome: tuple) -> tuple[str | None, float]:
    """(failure reason or None, relative error) for one recorded outcome.

    outcome is ("raised", exception class name) or ("ok", value) with value
    the rotor coefficients, (matrix, membership ok) or (exit code, stdout).
    """
    status, value = outcome
    if status == "raised":
        return value, 0.0
    p, q, ref = op["p"], op["q"], op["ref"]
    if op["kind"] == "rotor":
        err = _rotor_error(p, q, value, ref["rotor"])
    elif op["kind"] == "matrix":
        matrix, member = value
        err = _matrix_error(matrix, ref["matrix"])
        if err <= BUDGET and not member:
            return "membership of output", err
    else:
        code, text = value
        if code != 0:
            return f"exit {code}", 0.0
        doc = json.loads(text)
        if op["expect"] == "rotor":
            coeffs = np.zeros(1 << (p + q))
            for name, c in doc["rotor"].items():
                coeffs[_parse_blade(name)] = c
            err = _rotor_error(p, q, coeffs, ref["rotor"])
        elif op["expect"] == "matrix":
            err = _matrix_error(np.array(doc["matrix"]), ref["matrix"])
            if err <= BUDGET and not doc["membership"]["ok"]:
                return "membership of output", err
        else:
            return (None if doc["ok"] else "check verdict"), 0.0
    return (None if err <= BUDGET else "over budget"), err


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _rows(arr: np.ndarray) -> list[list[float]]:
    return [[float(x) for x in row] for row in arr]


def _rotor_json(p: int, q: int, coeffs: np.ndarray) -> str:
    terms = {blade_name(int(m)): float(coeffs[m]) for m in np.nonzero(coeffs)[0]}
    return json.dumps({"p": p, "q": q, "rotor": terms})


def _matrix_json(p: int, q: int, matrix: np.ndarray) -> str:
    return json.dumps({"p": p, "q": q, "matrix": _rows(matrix)})


class _Inputs:
    """One (rotor, matrix) pair per case, both as plain lists."""

    def __init__(self, seed: int):
        self.rng = SplitMix64(seed)

    def sampled(self, p: int, q: int) -> dict:
        rotor = sample_rotor(Signature(p, q), self.rng.next_u64()).coeffs
        return self._case(p, q, rotor, grade1_matrix(p, q, rotor))

    def block(self, p: int, q: int, params: list | None = None) -> dict:
        if params is None:
            eta = _eta(p, q)
            params = [
                (2.0 if eta[2 * k] != eta[2 * k + 1] else math.pi) * self.rng.next_symmetric()
                for k in range((p + q) // 2)
            ]
        return self._case(p, q, *block_rotor(p, q, params))

    def product(self, p: int, q: int) -> dict:
        """A rotor with every even coefficient nonzero: factors on the chain of
        planes (1,2), (2,3), ..., then on 2n seeded planes; angles in [-pi, pi),
        rapidities in [-0.3, 0.3)."""
        n = p + q
        eta = _eta(p, q)
        planes = [(k, k + 1) for k in range(n - 1)]
        for _ in range(2 * n):
            i = int(self.rng.next_u64() % n)
            j = int(self.rng.next_u64() % (n - 1))
            planes.append(tuple(sorted((i, j + (j >= i)))))
        factors = [(i, j, (0.3 if eta[i] != eta[j] else math.pi) * self.rng.next_symmetric()) for i, j in planes]
        case = self._case(p, q, *factor_rotor(p, q, factors))
        if np.count_nonzero(case["rotor"]) != 1 << (n - 1):
            raise RuntimeError(f"product rotor on ({p},{q}) is not dense")
        return case

    def half_turn(self, p: int, q: int) -> dict | None:
        """Exact half turns on every same-type pair, or None if there is none."""
        eta = _eta(p, q)
        params = [None if eta[2 * k] == eta[2 * k + 1] else 0.0 for k in range((p + q) // 2)]
        if None not in params:
            return None
        return self.block(p, q, params)

    def axis_half_turn(self) -> dict:
        """Criterion 3's degenerate family in SO(3): a half turn about an axis in the e1e2 plane."""
        phi = math.pi * self.rng.next_symmetric()
        c, s = math.cos(phi), math.sin(phi)
        matrix = np.array([[c, s, 0.0], [s, -c, 0.0], [0.0, 0.0, -1.0]])
        rotor = np.zeros(8)
        rotor[0b101], rotor[0b110] = math.sin(phi / 2), -math.cos(phi / 2)
        return self._case(3, 0, rotor, matrix)

    @staticmethod
    def boost(p: int, q: int, t: float) -> dict:
        params = [0.0] * ((p + q) // 2)
        params[-1] = t
        return _Inputs._case(p, q, *block_rotor(p, q, params))

    @staticmethod
    def _case(p: int, q: int, rotor: np.ndarray, matrix: np.ndarray) -> dict:
        return {"p": p, "q": q, "rotor": [float(x) for x in rotor], "matrix": _rows(matrix)}


def to_rotor(case: dict, method: str = "general") -> dict:
    return {"kind": "rotor", "method": method, "p": case["p"], "q": case["q"], "input": case["matrix"],
            "ref": {"rotor": case["rotor"]}}


def to_matrix(case: dict) -> dict:
    return {"kind": "matrix", "p": case["p"], "q": case["q"], "input": case["rotor"],
            "ref": {"matrix": case["matrix"]}}


def to_cli(case: dict, command: str, method: str = "general") -> dict:
    p, q = case["p"], case["q"]
    if command == "matrix-from-rotor":
        argv, expect, ref = [command, _rotor_json(p, q, np.array(case["rotor"]))], "matrix", {"matrix": case["matrix"]}
    elif command == "check":
        argv, expect, ref = [command, _matrix_json(p, q, np.array(case["matrix"]))], "check", {}
    else:
        argv = [command, "--method", method, _matrix_json(p, q, np.array(case["matrix"]))]
        expect, ref = "rotor", {"rotor": case["rotor"]}
    return {"kind": "cli", "p": p, "q": q, "argv": argv, "expect": expect, "ref": ref}


def small_mixed(seed: int, tiny: bool = False) -> list[dict]:
    gen = _Inputs(seed)
    sigs = [s for s in SMALL_SIGS if sum(s) <= 3] if tiny else SMALL_SIGS
    per_sig = 1 if tiny else 3
    ops: list[dict] = []
    for p, q in sigs:
        cases = [gen.sampled(p, q) for _ in range(per_sig)] + [gen.block(p, q) for _ in range(1 if tiny else 2)]
        for case in cases:
            ops += [to_rotor(case), to_matrix(case)]
            if (p, q) in QUATERNION_SIGS:
                ops += [to_rotor(case, "n3"), to_rotor(case, "quaternion")]
        half = gen.half_turn(p, q)
        if half is not None:
            ops.append(to_rotor(half))
        first = cases[0]
        ops += [to_cli(first, "rotor-from-matrix"), to_cli(first, "matrix-from-rotor"), to_cli(first, "check")]
        if (p, q) in QUATERNION_SIGS:
            ops += [to_cli(first, "rotor-from-matrix", "n3"), to_cli(first, "rotor-from-matrix", "quaternion")]
    for _ in range(1 if tiny else 2):
        case = gen.axis_half_turn()
        ops += [to_rotor(case, m) for m in ("general", "n3", "quaternion")]
    grid = TIMED_BOOSTS[::12] if tiny else TIMED_BOOSTS
    for p, q in BOOST_SIGS[:1] if tiny else BOOST_SIGS:
        ops += [to_rotor(_Inputs.boost(p, q, t)) for t in grid]
    return _shuffled(ops, gen.rng)


def large_recovery(seed: int, tiny: bool = False) -> list[dict]:
    gen = _Inputs(seed)
    cases = [gen.product(p, q) for p, q in ([(3, 0), (2, 1)] if tiny else LARGE_RECOVERY_SIGS)]
    return [to_rotor(case) for case in cases]


def forward_large(seed: int, tiny: bool = False) -> list[dict]:
    gen = _Inputs(seed)
    dense, blocks = ([(2, 1), (1, 2)], [(2, 1)]) if tiny else (FORWARD_SIGS, FORWARD_BLOCK_SIGS)
    cases = [gen.product(p, q) for p, q in dense] + [gen.block(p, q) for p, q in blocks]
    return [to_matrix(case) for case in cases]


def cold_start_op(seed: int) -> dict:
    """The CLI cold-start op of every workload: rotor-from-matrix on a seeded (3,0) image,
    so that the process start, not the conversion, dominates."""
    return to_cli(_Inputs(seed).sampled(3, 0), "rotor-from-matrix")


def boost_probe() -> dict[str, int]:
    """Failure reasons, with counts, of general conversions over BOOST_GRID."""
    reasons: dict[str, int] = {}
    for p, q in BOOST_SIGS:
        for t in BOOST_GRID:
            op = to_rotor(_Inputs.boost(p, q, t))
            try:
                outcome = ("ok", covering.matrix_to_rotor(np.array(op["input"]), Signature(p, q)).coeffs)
            except Exception as exc:
                outcome = ("raised", type(exc).__name__)
            reason, _ = check(op, outcome)
            if reason is not None:
                reasons[reason] = reasons.get(reason, 0) + 1
    return reasons


def _shuffled(ops: list[dict], rng: SplitMix64) -> list[dict]:
    # Fisher-Yates driven by the workload seed, so no op kind runs in a block.
    for i in range(len(ops) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        ops[i], ops[j] = ops[j], ops[i]
    return ops


#: Workload name -> (seed, tiny) -> one cycle of ops.
#: A run repeats whole cycles, so every run sees the same mix.
WORKLOADS = {"small-mixed": small_mixed, "large-recovery": large_recovery, "forward-large": forward_large}
