"""Pseudo-orthogonal matrix checks for the metric eta = diag(+1 x p, -1 x q).

A matrix P lies in O(p,q) when P^T eta P = eta. The subgroup handled here is
SO+(p,q): determinant +1 and orthochronous, meaning the leading p x p minor
stays >= 1 (it cannot drop below 1 on the identity component). Membership is
decided numerically against a tolerance. The minors of P feed the covering
construction; batched_minors builds all of one size from the next smaller
size by one Laplace step.

Orientation convention used throughout the package: entries[b][a] (0-based)
is the coordinate over generator b+1 of the image of generator a+1, so the
image coordinates of one generator fill one column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford_core import Signature, grade_masks, _real_array

#: Default tolerance for membership residuals.
DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MembershipReport:
    """Residuals of the three membership conditions, with the verdict.

    The metric residual and |det - 1| are held to tolerance * scale, where
    scale = max(1, max |P_ij|)^2 is the size of their rounding; |det - 1| is
    never allowed more than 1, so a determinant near -1 never passes. A
    scale or residual that overflows fails the metric condition. The
    orthochronous minor must reach 1 - tolerance.
    """

    sig: Signature
    metric_residual: float
    determinant: float
    orientation_minor: float
    tolerance: float
    scale: float

    @property
    def bound(self) -> float:
        return self.tolerance * self.scale

    @property
    def determinant_bound(self) -> float:
        return min(self.bound, 1.0)

    @property
    def is_pseudo_orthogonal(self) -> bool:
        return self.metric_residual <= self.bound < math.inf

    @property
    def has_unit_determinant(self) -> bool:
        return abs(self.determinant - 1.0) <= self.determinant_bound

    @property
    def is_orthochronous(self) -> bool:
        return self.orientation_minor >= 1.0 - self.tolerance

    @property
    def ok(self) -> bool:
        return self.is_pseudo_orthogonal and self.has_unit_determinant and self.is_orthochronous

    def failures(self) -> list[str]:
        out = []
        if not self.is_pseudo_orthogonal:
            out.append(
                f"not pseudo-orthogonal: max |P^T eta P - eta| = {self.metric_residual:.3e} "
                f"exceeds {self.bound:.3e}"
            )
        if not self.has_unit_determinant:
            out.append(f"determinant {self.determinant:.12g} is not 1 within {self.determinant_bound:.3e}")
        if not self.is_orthochronous:
            out.append(
                f"orthochronous condition failed: leading {self.sig.p}x{self.sig.p} minor "
                f"{self.orientation_minor:.12g} is below 1"
            )
        return out

    def __str__(self) -> str:
        if self.ok:
            return f"matrix is in SO+({self.sig.p},{self.sig.q})"
        return f"matrix is not in SO+({self.sig.p},{self.sig.q}): " + "; ".join(self.failures())


class MembershipError(ValueError):
    """Raised when a matrix fails the SO+(p,q) membership check."""

    def __init__(self, report: MembershipReport):
        self.report = report
        super().__init__(str(report))


def metric_matrix(sig: Signature) -> np.ndarray:
    return np.diag(np.array([1.0] * sig.p + [-1.0] * sig.q))


def require_tolerance(tol: float) -> float:
    """tol itself when it is finite and non-negative, else ValueError."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    return tol


def as_square_matrix(matrix: object, n: int) -> np.ndarray:
    """Validate an (n, n) input of real numbers (no bools, strings or complex) as float64."""
    arr = _real_array(matrix, "matrix entries")
    if arr.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def check_membership(matrix: object, sig: Signature, tol: float = DEFAULT_TOLERANCE) -> MembershipReport:
    """Measure how far a matrix is from SO+(p,q); never raises on failure.

    The metric and determinant residuals are judged relative to
    max(1, max |P_ij|)^2, so a correctly rounded large boost passes; the
    determinant bound never exceeds 1, so its sign is never lost.
    """
    require_tolerance(tol)
    arr = as_square_matrix(matrix, sig.n)
    eta = metric_matrix(sig)
    residual = float(np.max(np.abs(arr.T @ eta @ arr - eta)))
    det = float(np.linalg.det(arr))
    if sig.p == 0:
        orient = 1.0
    else:
        orient = float(np.linalg.det(arr[: sig.p, : sig.p]))
    scale = max(1.0, float(np.max(np.square(arr))))
    return MembershipReport(sig, residual, det, orient, tol, scale)


def require_membership(matrix: object, sig: Signature, tol: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """The float64 array that check_membership validated, or MembershipError."""
    report = check_membership(matrix, sig, tol)
    if not report.ok:
        raise MembershipError(report)
    return np.asarray(matrix, dtype=np.float64)


def project_to_group(matrix: object, sig: Signature) -> np.ndarray:
    """Project a noisy matrix onto O(p,q) by iterating toward the polar factor.

    Newton iteration on the metric constraint, P <- (P + eta P^-T eta) / 2,
    converges quadratically for inputs near the group; for q = 0 the limit is
    the orthogonal polar factor. Determinant sign and orientation are not
    repaired, only the metric condition.
    """
    eta = metric_matrix(sig)
    arr = as_square_matrix(matrix, sig.n).copy()
    try:
        for _ in range(60):
            residual = float(np.max(np.abs(arr.T @ eta @ arr - eta)))
            if residual <= 1e-15:
                break
            arr = 0.5 * (arr + eta @ np.linalg.inv(arr).T @ eta)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is singular; cannot project onto the group") from exc
    return arr


def batched_minors(
    matrix: np.ndarray, k: int, lower: tuple[np.ndarray, np.ndarray] | None, suffix: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """All k x k minors of an n x n matrix, from its (k-1) x (k-1) minors.

    Returns (masks, dets): masks holds the grade-k blade masks in ascending
    order, bit i standing for 0-based row or column i, and dets[i, j] is the
    minor on rows masks[i] and columns masks[j]. lower is the table returned
    for grade k - 1; grade 0 needs none and is ([0], [[1]]). Every minor is
    one first-row Laplace step,

        det P[B, A] = sum over j of (-1)^j p[b_1, a_j] det P[B - b_1, A - a_j]

    with b_1 the lowest row in B and a_j the j-th lowest column in A (from
    j = 0), summed in order of j: for k <= 3 this is the arithmetic of the
    closed-form 1x1, 2x2 and 3x3 determinants, term for term.

    With suffix = r > 0, only the row sets B of the last r masks are
    expanded, and dets has those r rows. The rows of lower are counted from
    its end, so lower may be a suffix table too if it ends with every
    B - b_1 that these rows reach. At grade n/2 the last C(n-1, n/2) masks
    are the row sets holding row n - 1.
    """
    n = matrix.shape[0]
    masks = grade_masks(n, k)
    if k == 0:
        return masks, np.ones((1, 1))
    bits, cols = _laplace_indices(n, k)
    # B - b_1 is A - a_0 for A = B, so the rows reuse the j = 0 columns,
    # counted from the end of lower (-0: every row). Whole-row and
    # whole-column takes gather faster than one (row, column) index pair.
    first = bits[0][-suffix:]
    below = lower[1].take(cols[0][-suffix:] - lower[0].size, axis=0)
    for j in range(k):
        term = below.take(cols[j], axis=1)
        term *= matrix.take(bits[j], axis=1).take(first, axis=0)
        if j == 0:
            dets = term
        elif j % 2:
            dets -= term
        else:
            dets += term
    return masks, dets


@lru_cache(maxsize=None)
def _laplace_indices(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    # (k, m) arrays over the grade-k masks A: bits[j] is a_j, the j-th
    # lowest bit of A, and cols[j] the index of A - a_j among the grade
    # k - 1 masks.
    masks = grade_masks(n, k)
    position = np.zeros(1 << n, dtype=np.int64)
    lower = grade_masks(n, k - 1)
    position[lower] = np.arange(lower.size)
    bits = np.nonzero((masks[:, None] >> np.arange(n)) & 1)[1].reshape(-1, k).T.copy()
    cols = position[masks ^ (1 << bits)]
    for index in (bits, cols):
        index.setflags(write=False)
    return bits, cols
