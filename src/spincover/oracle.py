"""Sampling and verification helpers: deterministic rotors, covering residual
checks, frames of conjugated generators, and the selfcheck suites behind the
CLI.

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
    blade_signs,
    exp_bivector,
    grade_masks,
    squared_norm,
)
from .covering import (
    Frame,
    Rotor,
    _closed_form,
    candidate_general,
    candidate_n3,
    conjugated_generators,
    even_blades,
    forward_map,
    matrix_to_rotor,
)
from .matrix_group import as_square_matrix

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
    """Per generator, max |S e_a S^-1 - P e_a|: one product each, as S e_a permutes S."""
    value = rotor.value if isinstance(rotor, Rotor) else rotor
    arr = as_square_matrix(matrix, value.sig.n)
    images = conjugated_generators(value, value.reverse() / squared_norm(value))
    images[:, 1 << np.arange(value.sig.n)] -= arr.T
    return CoveringReport(tuple(np.max(np.abs(images), axis=1).tolist()))


def frame_from_rotor(rotor: Rotor | Multivector) -> Frame:
    """The unchecked frame beta_a: column a of forward_map's matrix, the grade-1 part of S e_a reverse(S)."""
    value = rotor.value if isinstance(rotor, Rotor) else rotor
    return Frame(value.sig, tuple(Multivector.vector(value.sig, col) for col in _closed_form(value)[0].T))


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


def _method_agreement_suite(sig: Signature, trials: int, seed: int) -> float:
    worst = 0.0
    for t in range(trials):
        matrix = sample_matrix(sig, seed + t)
        for F in even_blades(3):
            general = candidate_general(matrix, sig, F)
            first_order = candidate_n3(matrix, sig, F)
            worst = max(worst, (general.M - 2.0 * first_order.M).max_abs())
        worst = max(
            worst,
            rotor_distance(
                matrix_to_rotor(matrix, sig, "general"),
                matrix_to_rotor(matrix, sig, "n3"),
            ),
        )
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
    # center_sum sums 2^n terms +-u_C, at most 2^n max |u|.
    if anticommutation_defect(sig):
        return float("inf")
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
    """All suites for one signature; the returned dict mirrors the CLI JSON."""
    suites: dict[str, dict] = {}
    rt = _round_trip_suite(sig, trials, seed)
    suites["round_trip"] = {
        "max_residual": rt,
        "tolerance": ROUND_TRIP_TOLERANCE,
        "ok": rt <= ROUND_TRIP_TOLERANCE,
    }
    if sig.n == 3:
        agree = _method_agreement_suite(sig, trials, seed + 1_000_003)
        suites["method_agreement"] = {
            "max_residual": agree,
            "tolerance": AGREEMENT_TOLERANCE,
            "ok": agree <= AGREEMENT_TOLERANCE,
        }
    alg = _algebra_suite(sig, trials, seed + 2_000_003)
    suites["algebra_laws"] = {
        "max_residual": alg,
        "tolerance": ALGEBRA_TOLERANCE,
        "ok": alg <= ALGEBRA_TOLERANCE,
    }
    return {
        "p": sig.p,
        "q": sig.q,
        "trials": trials,
        "seed": seed,
        "suites": suites,
        "ok": all(s["ok"] for s in suites.values()),
    }
