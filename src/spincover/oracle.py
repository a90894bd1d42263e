"""Sampling and verification helpers: deterministic rotors, covering residual
checks, and the selfcheck suites behind the CLI.

Randomness comes from SplitMix64 with fixed constants so that identical seeds
reproduce identical samples on any platform; generator state is explicit and
never global.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford_core import (
    Multivector,
    Signature,
    _is_integer,
    _layout,
    blade_signs,
    exp_bivector,
    grade_masks,
    squared_norm,
)
from . import covering
from .covering import Rotor, _conjugated_generators, forward_map, matrix_to_rotor
from .matrix_group import as_square_matrix, require_membership

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """64-bit counter-based generator (constants from the reference design)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def next_double(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_symmetric(self) -> float:
        """Uniform in [-1, 1)."""
        return 2.0 * self.next_double() - 1.0


def sample_rotor(sig: Signature, seed: int) -> Rotor:
    """Deterministic random rotor: exponential of a random bivector.

    Bivector coefficients are uniform in [-1, 1] scaled by 0.5, which keeps
    the sampled rotors away from huge boost factors so that round-trip
    residuals stay near machine precision.
    """
    rng = SplitMix64(seed)
    coeffs = np.zeros(sig.dim)
    if sig.n >= 2:
        for mask in grade_masks(sig.n, 2):
            coeffs[mask] = 0.5 * rng.next_symmetric()
    return Rotor(exp_bivector(Multivector(sig, coeffs)))


def sample_matrix(sig: Signature, seed: int) -> np.ndarray:
    """Deterministic random SO+(p,q) matrix (the image of a sampled rotor)."""
    return forward_map(sample_rotor(sig, seed))


def sample_multivector(sig: Signature, rng: SplitMix64, scale: float = 0.25) -> Multivector:
    """Dense random multivector with coefficients uniform in [-scale, scale]."""
    coeffs = np.array([scale * rng.next_symmetric() for _ in range(sig.dim)])
    return Multivector(sig, coeffs)


@dataclass(frozen=True)
class CoveringReport:
    """Per-generator residuals of S e_a S^-1 against the matrix columns."""

    residuals: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


def verify_covering(rotor: Rotor | Multivector, matrix: object) -> CoveringReport:
    """Per generator, max |S e_a S^-1 - P e_a|, the n products in one grouped
    pair-sum pass, each the sum that geometric_product gives. ValueError
    unless S is even, as forward_map requires, and reverse(S) S is finite and nonzero.
    """
    value = rotor.value if isinstance(rotor, Rotor) else rotor
    arr, layout = as_square_matrix(matrix, value.sig.n), _layout(value.sig.n)
    if np.count_nonzero(value.coeffs[layout.odd]):
        raise ValueError("rotor has odd-grade coefficients")
    norm = squared_norm(value)
    if not (norm != 0.0 and np.isfinite(norm)):
        raise ValueError(f"reverse-norm {norm} of the value is not invertible")
    images = _conjugated_generators(value, Multivector(value.sig, value.coeffs * layout.reverse_signs / norm))
    images[:, layout.grade_masks[1]] -= arr.T
    return CoveringReport(tuple(np.max(np.abs(images), axis=1).tolist()))


# ---------------------------------------------------------------------------
# Selfcheck suites
# ---------------------------------------------------------------------------

ROUND_TRIP_TOLERANCE = 1e-9
AGREEMENT_TOLERANCE = 1e-10
ALGEBRA_TOLERANCE = 1e-12


def rotor_distance(x: Rotor | Multivector, y: Rotor | Multivector) -> float:
    """Coefficientwise distance up to the covering's global sign."""
    xv = x.value if isinstance(x, Rotor) else x
    yv = y.value if isinstance(y, Rotor) else y
    return min((xv - yv).max_abs(), (xv + yv).max_abs())


def _round_trip_suite(sig: Signature, trials: int, seed: int) -> float:
    worst = 0.0
    for t in range(trials):
        rotor = sample_rotor(sig, seed + t)
        recovered = matrix_to_rotor(forward_map(rotor), sig)
        worst = max(worst, rotor_distance(rotor, recovered))
    return worst


def first_order_sum(matrix: np.ndarray, sig: Signature, F: int) -> Multivector:
    """Direct evaluation of the paper's L_F = e_F + sum over a, b of P[b, a] e_b e_F e^a."""
    probe = Multivector.basis(sig, F)
    total = probe
    for a in range(sig.n):
        upper = Multivector.basis(sig, 1 << a, float(sig.metric(a + 1)))
        for b in range(sig.n):
            total = total + Multivector.basis(sig, 1 << b, float(matrix[b, a])) * probe * upper
    return total


def _method_agreement_suite(sig: Signature, trials: int, seed: int) -> float:
    # candidate_n3's half sum, validated and tabled once per matrix, against
    # the direct products; the assembly is looked up in covering at each
    # call, so a substituted one is what the suite checks.
    worst = 0.0
    for t in range(trials):
        matrix = require_membership(sample_matrix(sig, seed + t), sig)
        tables = covering._minor_tables(matrix, sig.n)
        for F in (0, 0b011, 0b101, 0b110):
            half = Multivector(sig, covering._assemble_general(sig, tables, F) / 2.0)
            worst = max(worst, (half - first_order_sum(matrix, sig, F)).max_abs())
    return worst


def anticommutation_defect(sig: Signature) -> int:
    """Structural check of e_a e_b + e_b e_a = 2 eta_ab; 0 when exact."""
    defect = 0
    for a in range(sig.n):
        for b in range(sig.n):
            ea = Multivector.basis(sig, 1 << a)
            eb = Multivector.basis(sig, 1 << b)
            anti = ea * eb + eb * ea
            expected = Multivector.scalar(sig, 2.0 * (sig.metric(a + 1) if a == b else 0.0))
            if (anti - expected).max_abs() != 0.0:
                defect += 1
    return defect


def center_sum(u: Multivector) -> Multivector:
    """Direct evaluation of sum over all blades A of e_A u e^A."""
    sig = u.sig
    total = Multivector.zero(sig)
    for a_mask in range(sig.dim):
        sign = float(blade_signs(sig, a_mask, a_mask))
        total = total + Multivector.basis(sig, a_mask) * u * Multivector.basis(sig, a_mask, sign)
    return total


def _law(difference: Multivector, size: float) -> float:
    # A law's residual relative to max(1, size), size bounding the sum of
    # the magnitudes of the terms in any one coefficient: the rounding of
    # such a sum grows with that sum, not with the result.
    return difference.max_abs() / max(1.0, size)


def _algebra_suite(sig: Signature, trials: int, seed: int) -> float:
    # Coefficient D of (u v) w or u (v w) sums +-u_A v_B w_C over the pairs
    # (A, B), C = A ^ B ^ D, at most |u|_1 |v|_1 max |w| in all; one of
    # u v sums +-u_A v_B, at most |u|_1 max |v|. Coefficient C of
    # center_sum sums 2^n terms +-u_C, at most 2^n max |u|. A nonzero
    # anticommutation defect, a count of pairs, is the residual itself.
    if defect := anticommutation_defect(sig):
        return float(defect)
    rng = SplitMix64(seed)
    worst = 0.0
    for _ in range(trials):
        u = sample_multivector(sig, rng)
        v = sample_multivector(sig, rng)
        w = sample_multivector(sig, rng)
        nu, nv = float(np.sum(np.abs(u.coeffs))), float(np.sum(np.abs(v.coeffs)))
        worst = max(worst, _law((u * v) * w - u * (v * w), nu * nv * w.max_abs()))
        worst = max(worst, _law((u * v).reverse() - v.reverse() * u.reverse(), nu * v.max_abs()))
        worst = max(worst, _law(center_sum(u) - float(sig.dim) * u.center_projection(), sig.dim * u.max_abs()))
    return worst


def run_selfcheck(sig: Signature, trials: int = 100, seed: int = 1) -> dict:
    """All suites for one signature, as the CLI JSON (ValueError unless integer seed and trials >= 1)."""
    if not (_is_integer(trials) and _is_integer(seed)):
        raise ValueError(f"trials and seed must be integers, got {trials!r} and {seed!r}")
    if not trials >= 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    checks = [("round_trip", _round_trip_suite, 0, ROUND_TRIP_TOLERANCE)]
    if sig.n == 3:
        checks.append(("method_agreement", _method_agreement_suite, 1_000_003, AGREEMENT_TOLERANCE))
    checks.append(("algebra_laws", _algebra_suite, 2_000_003, ALGEBRA_TOLERANCE))
    suites: dict[str, dict] = {}
    for name, suite, offset, tolerance in checks:
        residual = suite(sig, trials, seed + offset)
        suites[name] = {"max_residual": residual, "tolerance": tolerance, "ok": residual <= tolerance}
    return {
        "p": sig.p,
        "q": sig.q,
        "trials": trials,
        "seed": seed,
        "suites": suites,
        "ok": all(s["ok"] for s in suites.values()),
    }
