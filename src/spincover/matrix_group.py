"""Pseudo-orthogonal matrix checks for the metric eta = diag(+1 x p, -1 x q).

A matrix P lies in O(p,q) when P^T eta P = eta. The subgroup handled here is
SO+(p,q): determinant +1 and orthochronous, meaning the leading p x p minor
stays >= 1 (it cannot drop below 1 on the identity component). Membership is
decided numerically against a tolerance, and minors of P feed the covering
construction.

Orientation convention used throughout the package: entries[b][a] (0-based)
is the coordinate over generator b+1 of the image of generator a+1, so the
image coordinates of one generator fill one column.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .clifford_core import Signature

#: Default tolerance for membership residuals.
DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MembershipReport:
    """Residuals of the three membership conditions, with the verdict."""

    sig: Signature
    metric_residual: float
    determinant: float
    orientation_minor: float
    tolerance: float

    @property
    def is_pseudo_orthogonal(self) -> bool:
        return self.metric_residual <= self.tolerance

    @property
    def has_unit_determinant(self) -> bool:
        return abs(self.determinant - 1.0) <= self.tolerance

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
                f"exceeds {self.tolerance:.3e}"
            )
        if not self.has_unit_determinant:
            out.append(f"determinant {self.determinant:.12g} is not 1 within {self.tolerance:.3e}")
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


def as_square_matrix(matrix: object, n: int) -> np.ndarray:
    """Validate and coerce input to an (n, n) float64 array."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def check_membership(matrix: object, sig: Signature, tol: float = DEFAULT_TOLERANCE) -> MembershipReport:
    """Measure how far a matrix is from SO+(p,q); never raises on failure."""
    arr = as_square_matrix(matrix, sig.n)
    eta = metric_matrix(sig)
    residual = float(np.max(np.abs(arr.T @ eta @ arr - eta)))
    det = float(np.linalg.det(arr))
    if sig.p == 0:
        orient = 1.0
    else:
        orient = float(np.linalg.det(arr[: sig.p, : sig.p]))
    return MembershipReport(sig, residual, det, orient, tol)


def require_membership(matrix: object, sig: Signature, tol: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """Return the validated array, or raise MembershipError with the report."""
    arr = as_square_matrix(matrix, sig.n)
    report = check_membership(arr, sig, tol)
    if not report.ok:
        raise MembershipError(report)
    return arr


@dataclass(frozen=True)
class OrthoMatrix:
    """A matrix validated to lie in SO+(p,q) at construction time.

    `entries` is read-only; column a holds the image coordinates of
    generator a+1 (see the module docstring).
    """

    sig: Signature
    entries: np.ndarray
    tol: float

    @classmethod
    def validate(
        cls,
        matrix: object,
        sig: Signature,
        tol: float = DEFAULT_TOLERANCE,
        project: bool = False,
    ) -> OrthoMatrix:
        arr = as_square_matrix(matrix, sig.n)
        if project:
            arr = project_to_group(arr, sig)
        report = check_membership(arr, sig, tol)
        if not report.ok:
            raise MembershipError(report)
        arr = arr.copy()
        arr.setflags(write=False)
        return cls(sig, arr, tol)


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


def _submatrix(matrix: object, rows: Sequence[int], cols: Sequence[int], n: int) -> np.ndarray:
    for indices in (rows, cols):
        prev = 0
        for i in indices:
            if not 1 <= i <= n:
                raise ValueError(f"index {i} outside 1..{n}")
            if i <= prev:
                raise ValueError(f"indices must be strictly ascending, got {tuple(indices)}")
            prev = i
    arr = np.asarray(matrix, dtype=np.float64)
    return arr[np.ix_([r - 1 for r in rows], [c - 1 for c in cols])]


def _det_closed(sub: np.ndarray) -> float:
    k = sub.shape[0]
    if k == 1:
        return float(sub[0, 0])
    if k == 2:
        return float(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
    if k == 3:
        return float(
            sub[0, 0] * (sub[1, 1] * sub[2, 2] - sub[1, 2] * sub[2, 1])
            - sub[0, 1] * (sub[1, 0] * sub[2, 2] - sub[1, 2] * sub[2, 0])
            + sub[0, 2] * (sub[1, 0] * sub[2, 1] - sub[1, 1] * sub[2, 0])
        )
    return float(np.linalg.det(sub))


def minor(matrix: object, rows: Sequence[int], cols: Sequence[int]) -> float:
    """Determinant of the submatrix on the given rows and columns (1-based).

    Indices must be strictly ascending; empty index lists give 1.0. Accepts
    an OrthoMatrix or any square array. Sizes up to 3 use closed forms, the
    rest LU.
    """
    if isinstance(matrix, OrthoMatrix):
        matrix = matrix.entries
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if len(rows) != len(cols):
        raise ValueError(f"minor needs equally many rows and columns, got {len(rows)} and {len(cols)}")
    if not rows:
        return 1.0
    return _det_closed(_submatrix(arr, rows, cols, arr.shape[0]))


def batched_minors(matrix: np.ndarray, k: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """All k x k minors of an n x n matrix at once.

    Returns the list of k-subsets of range(n) (0-based, lexicographic) and a
    square array whose [i, j] entry is the minor on rows subsets[i] and
    columns subsets[j]. Sizes up to 3 use closed forms; larger sizes go
    through batched LU determinant calls on slabs of at most
    _SLAB_ENTRIES gathered entries each.
    """
    n = matrix.shape[0]
    subsets = list(combinations(range(n), k))
    if k == 0:
        return subsets, np.ones((1, 1))
    rows = np.array(subsets)
    if k >= 4:
        return subsets, _slab_determinants(matrix, rows)
    blocks = matrix[rows[:, None, :, None], rows[None, :, None, :]]
    if k == 1:
        return subsets, blocks[:, :, 0, 0].copy()
    if k == 2:
        dets = blocks[:, :, 0, 0] * blocks[:, :, 1, 1] - blocks[:, :, 0, 1] * blocks[:, :, 1, 0]
        return subsets, dets
    dets = (
        blocks[:, :, 0, 0] * (blocks[:, :, 1, 1] * blocks[:, :, 2, 2] - blocks[:, :, 1, 2] * blocks[:, :, 2, 1])
        - blocks[:, :, 0, 1] * (blocks[:, :, 1, 0] * blocks[:, :, 2, 2] - blocks[:, :, 1, 2] * blocks[:, :, 2, 0])
        + blocks[:, :, 0, 2] * (blocks[:, :, 1, 0] * blocks[:, :, 2, 1] - blocks[:, :, 1, 1] * blocks[:, :, 2, 0])
    )
    return subsets, dets


#: Largest number of matrix entries batched_minors gathers for one LU call:
#: 512 KB of float64.
_SLAB_ENTRIES = 1 << 16


def _slab_determinants(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # One gather of every block holds m^2 k^2 floats, 12.7 MB for n = 10 and
    # k = 5. Whether the malloc heap keeps or returns freed arrays that size
    # depends on its layout, which moved a process's peak RSS by MB from one
    # run to the next. Slabs of rows bound each gather; every block's LU,
    # and so every minor, is the same as in one stacked call.
    m, k = rows.shape
    dets = np.empty((m, m))
    step = max(1, _SLAB_ENTRIES // (m * k * k))
    for start in range(0, m, step):
        slab = rows[start:start + step]
        dets[start:start + step] = np.linalg.det(matrix[slab[:, None, :, None], rows[None, :, None, :]])
    return dets
