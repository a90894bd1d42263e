"""Two-sheeted covering between the spin group and SO+(p,q).

A rotor is an even multivector S with reverse(S) S = 1 whose conjugation
action maps grade 1 to grade 1. Conjugating the generators expands as
S e_a S^-1 = sum_b p_a^b e_b, and the coordinates p_a^b fill column a of a
matrix P in SO+(p,q); S and -S give the same P, so the inverse direction
recovers a pair of rotors.

Recovery probes the matrix with an even-grade blade F, assembling

    M_F = sum over k = 0..n, over row k-subsets B and column k-subsets A,
          of minor(P, B, A) * e_B e_F e^A

which is always proportional to the sought rotor. For n = 3 the sum
collapses to the cheaper first-order candidate

    L_F = e_F + sum over a, b of p_a^b e_b e_F e^a

with M_F = 2 L_F.

The candidate is M_F = 2^n eps_F s_F S, where eps_F is the sign of
reverse(e_F) e_F and s_F the e_F coefficient of S, so it vanishes exactly
when s_F does. Only the B = A terms reach e_F, each as (-1)^|A & F| e_F,
so the e_F coefficient

    <M_F>_F = sum over A of (-1)^|A & F| det P[A, A] = 2^n eps_F s_F^2

is a Walsh-Hadamard transform of the 2^n principal minors. One transform
ranks every probe by w_F = eps_F <M_F>_F = 2^n s_F^2, and only the
candidate with the largest w_F is assembled. The rotor is
M_F / sqrt(2^n eps_F <M_F>_F), up to sign. The reverse-norm
reverse(M_F) M_F = 4^n s_F^2 would give the same divisor in exact
arithmetic, but for q > 0 it is an indefinite sum of squares that
cancels catastrophically on large boosts, so it only tests that the
chosen candidate is nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from .clifford_core import (
    Multivector,
    Signature,
    _reverse_norm_signs,
    blade_grade,
    blade_name,
    blade_signs,
    grade_masks,
    squared_norm,
)
from .matrix_group import (
    DEFAULT_TOLERANCE,
    OrthoMatrix,
    as_square_matrix,
    batched_minors,
    project_to_group,
    require_membership,
)

Method = Literal["general", "n3"]

#: Candidates with reverse-norm at or below RELATIVE_THRESHOLD x (2^n)^2
#: (scaled by 1/4 for the n=3 form) count as zero.
RELATIVE_THRESHOLD = 1e-18


class NoCandidateError(RuntimeError):
    """No probe blade produced a usable candidate (all reverse-norms ~ 0)."""


@dataclass(frozen=True)
class Rotor:
    """One of the two spin-group preimages of a matrix under the covering."""

    value: Multivector

    @property
    def sig(self) -> Signature:
        return self.value.sig

    @property
    def coeffs(self) -> np.ndarray:
        return self.value.coeffs

    def __neg__(self) -> Rotor:
        return Rotor(-self.value)

    def canonicalized(self) -> Rotor:
        """Fix the sign: largest-magnitude coefficient positive, ties by lowest mask."""
        lead = int(np.argmax(np.abs(self.value.coeffs)))
        if self.value.coeffs[lead] < 0:
            return Rotor(-self.value)
        return self

    def inverse(self) -> Multivector:
        """Reversion, which inverts unit rotors."""
        return self.value.reverse()

    def unit_residual(self) -> float:
        """Distance of reverse(S) * S from 1, over all components."""
        gram = self.value.reverse() * self.value
        scalar_defect = abs(gram.scalar_part() - 1.0)
        rest = (gram - gram.grade_projection(0)).max_abs()
        return max(scalar_defect, rest)

    @classmethod
    def checked(cls, value: Multivector, tol: float = DEFAULT_TOLERANCE) -> Rotor:
        """Wrap a multivector after verifying evenness and unit norm."""
        if value.odd_part_max() != 0.0:
            raise ValueError("rotor has odd-grade coefficients")
        rotor = cls(value)
        residual = rotor.unit_residual()
        if residual > tol:
            raise ValueError(f"reverse(S)*S deviates from 1 by {residual:.3e} (tolerance {tol:.3e})")
        return rotor


@dataclass(frozen=True)
class CandidateElement:
    """Unnormalized covering candidate for one probe blade F."""

    F: int
    M: Multivector
    normsq: float

    @property
    def blade(self) -> str:
        return blade_name(self.F)


@dataclass(frozen=True)
class Frame:
    """Images beta_a of the generators under one conjugation action."""

    sig: Signature
    beta: tuple[Multivector, ...]

    def __post_init__(self) -> None:
        if len(self.beta) != self.sig.n:
            raise ValueError(f"expected {self.sig.n} frame vectors, got {len(self.beta)}")
        for i, b in enumerate(self.beta):
            if b.sig != self.sig:
                raise ValueError(f"frame vector {i + 1} has signature Cl({b.sig.p},{b.sig.q})")
            residual = (b - b.grade_projection(1)).max_abs()
            if residual > DEFAULT_TOLERANCE:
                raise ValueError(f"frame vector {i + 1} is not grade 1 (residual {residual:.3e})")

    def coordinate_matrix(self) -> np.ndarray:
        """Matrix with column a holding the generator coordinates of beta_a."""
        return np.column_stack([b.vector_components() for b in self.beta])

    def gram_matrix(self) -> np.ndarray:
        """Symmetric matrix of scalar parts of beta_a beta_b."""
        n = self.sig.n
        gram = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                gram[i, j] = gram[j, i] = (self.beta[i] * self.beta[j]).scalar_part()
        return gram


# ---------------------------------------------------------------------------
# Forward direction: rotor -> matrix
# ---------------------------------------------------------------------------

def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    # Butterfly on a copy, one pass per generator:
    # out_F = sum_A (-1)^|A & F| v_A.
    w = v.copy()
    for bit in range(w.size.bit_length() - 1):
        pairs = w.reshape(-1, 2, 1 << bit)
        low, high = pairs[:, 0].copy(), pairs[:, 1].copy()
        pairs[:, 0], pairs[:, 1] = low + high, low - high
    return w


def _reachable(sig: Signature, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    # Masks A ^ B over A in left and B in right: where the xor-convolution
    # of the two support indicators, a transform of the product of their
    # transforms, is nonzero.
    spectrum = np.ones(sig.dim)
    for support in (left, right):
        indicator = np.zeros(sig.dim)
        indicator[support] = 1.0
        spectrum *= _walsh_hadamard(indicator)
    return np.nonzero(_walsh_hadamard(spectrum) > 0.0)[0]


def conjugated_generators(value: Multivector, right: Multivector) -> np.ndarray:
    """(n, 2^n) coefficients whose row a is the product value e_a right.

    Each value e_a is a signed permutation of value, so the n products
    with right are one matrix product with the right-multiplication
    operator, operator[C, A] = sign(e_A e_{A^C}) right[A^C]. Its columns
    are the union of the supports of the n left factors and its rows the
    masks that those factors can reach in a product with right.
    """
    value._check_sig(right)
    sig = value.sig
    bits = (np.int64(1) << np.arange(sig.n, dtype=np.int64))[:, None]
    occupied = np.zeros(sig.dim, dtype=bool)
    occupied[np.nonzero(value.coeffs)[0] ^ bits] = True
    cols = np.nonzero(occupied)[0]
    shifted = cols ^ bits
    left = blade_signs(sig, shifted, bits) * value.coeffs[shifted]
    rows = _reachable(sig, cols, np.nonzero(right.coeffs)[0])
    partner = rows[:, None] ^ cols
    operator = blade_signs(sig, cols, partner) * right.coeffs[partner]
    images = np.zeros((sig.n, sig.dim))
    images[:, rows] = (operator @ left.T).T
    return images


def forward_map(rotor: Rotor | Multivector, tol: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """Matrix of the conjugation action: column a holds S e_a S^-1.

    S^-1 is reverse(S), and all n images come from one
    conjugated_generators call, so no geometric product runs. Raises
    ValueError when reverse(S) S is not 1 within tol or when some
    conjugated generator picks up non-grade-1 components beyond tol,
    checked over every coefficient of every image.
    """
    value = rotor.value if isinstance(rotor, Rotor) else rotor
    sig = value.sig
    norm = squared_norm(value)
    if abs(norm - 1.0) > tol:
        raise ValueError(f"rotor norm reverse(S)*S = {norm:.12g} is not 1 within {tol:.3e}")
    images = conjugated_generators(value, value.reverse())
    vectors = 1 << np.arange(sig.n)
    matrix = images[:, vectors].T.copy()
    images[:, vectors] = 0.0
    worst = float(np.max(np.abs(images)))
    if worst > tol:
        raise ValueError(
            f"conjugation does not preserve grade 1 (residual {worst:.3e}); not a rotor"
        )
    return matrix


# ---------------------------------------------------------------------------
# Inverse direction: matrix -> rotor
# ---------------------------------------------------------------------------

def _subset_mask_vector(subsets: list[tuple[int, ...]]) -> np.ndarray:
    return np.array([sum(1 << i for i in s) for s in subsets], dtype=np.int64)


def _minor_tables(arr: np.ndarray, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    tables = []
    for k in range(n + 1):
        subsets, dets = batched_minors(arr, k)
        tables.append((_subset_mask_vector(subsets), dets))
    return tables


def _assemble_general(sig: Signature, tables: list[tuple[np.ndarray, np.ndarray]], F: int) -> Multivector:
    # One bincount per grade accumulates every minor(P,B,A) e_B e_F e^A term:
    # sign(e_B e_F) * sign(e_{B^F} e_A) * sign(e_A e_A) at mask B ^ F ^ A.
    # Only the middle sign needs the pair grid.
    every = np.arange(sig.dim)
    with_probe = blade_signs(sig, every, F)
    squares = blade_signs(sig, every, every)
    total = np.zeros(sig.dim)
    for masks, dets in tables:
        b = masks[:, None]
        a = masks[None, :]
        signs = with_probe[b] * blade_signs(sig, b ^ F, a) * squares[a]
        total += np.bincount(
            ((b ^ F) ^ a).ravel(), weights=(dets * signs).ravel(), minlength=sig.dim
        )
    return Multivector(sig, total)


def _candidate_from(sig: Signature, F: int, M: Multivector) -> CandidateElement:
    return CandidateElement(F, M, squared_norm(M))


def candidate_general(matrix: object, sig: Signature, F: int) -> CandidateElement:
    """Full-grade-sum candidate M_F for an even probe blade F."""
    if blade_grade(F) % 2:
        raise ValueError(f"probe blade {blade_name(F)} has odd grade")
    arr = _entries(matrix, sig)
    M = _assemble_general(sig, _minor_tables(arr, sig.n), F)
    return _candidate_from(sig, F, M)


def candidate_n3(matrix: object, sig: Signature, F: int) -> CandidateElement:
    """First-order candidate L_F, valid only for n = 3; M_F = 2 L_F."""
    if sig.n != 3:
        raise ValueError(f"the first-order candidate needs n = 3, got n = {sig.n}")
    if blade_grade(F) % 2:
        raise ValueError(f"probe blade {blade_name(F)} has odd grade")
    arr = _entries(matrix, sig)
    masks = np.int64(1) << np.arange(3, dtype=np.int64)
    b = masks[:, None]
    a = masks[None, :]
    signs = blade_signs(sig, b, F) * blade_signs(sig, b ^ F, a) * blade_signs(sig, a, a)
    coeffs = np.bincount(((b ^ F) ^ a).ravel(), weights=(arr * signs).ravel(), minlength=sig.dim)
    coeffs[F] += 1.0
    return _candidate_from(sig, F, Multivector(sig, coeffs))


def even_blades(n: int) -> Iterator[int]:
    """All even-grade blade masks in ascending (grade, mask) order."""
    for k in range(0, n + 1, 2):
        for mask in grade_masks(n, k):
            yield int(mask)


def _principal_minors(
    arr: np.ndarray, sig: Signature, method: Method
) -> tuple[list[tuple[np.ndarray, np.ndarray]] | None, np.ndarray]:
    """Minor tables (general only) and d with d[A] = det P[A, A], d[0] = 1.

    The n3 form sees only the first-order terms: d = (1, p11, p22, p33) on
    masks 0, 1, 2, 4 and zero elsewhere.
    """
    d = np.zeros(sig.dim)
    if method == "n3":
        if sig.n != 3:
            raise ValueError(f"method 'n3' needs n = 3, got n = {sig.n}")
        d[0] = 1.0
        d[[1, 2, 4]] = np.diagonal(arr)
        return None, d
    if method != "general":
        raise ValueError(f"unknown method {method!r}; expected 'general' or 'n3'")
    tables = _minor_tables(arr, sig.n)
    for masks, dets in tables:
        d[masks] = np.diagonal(dets)
    return tables, d


def _probe_weights(sig: Signature, d: np.ndarray) -> np.ndarray:
    # w_F = eps_F sum_A (-1)^|A & F| d_A.
    return _reverse_norm_signs(sig.p, sig.q) * _walsh_hadamard(d)


def probe_weights(matrix: object, sig: Signature, method: Method = "general") -> np.ndarray:
    """Per-mask weights w_F = eps_F <M_F>_F, ranking the probe blades.

    For a matrix in SO+(p,q) covered by +-S, w_F = 2^n s_F^2 with s_F the
    e_F coefficient of S (2^(n-1) s_F^2 for the n3 form). Only the even
    masks name probes.
    """
    return _probe_weights(sig, _principal_minors(_entries(matrix, sig), sig, method)[1])


def iter_candidates(matrix: object, sig: Signature, method: Method = "general") -> Iterator[CandidateElement]:
    """Candidates for the even probe blades, assembled lazily, largest w_F first.

    The order comes from probe_weights; exact ties keep ascending
    (grade, mask) order.
    """
    arr = _entries(matrix, sig)
    tables, d = _principal_minors(arr, sig, method)
    evens = np.fromiter(even_blades(sig.n), dtype=np.int64)
    weights = _probe_weights(sig, d)[evens]
    for F in evens[np.argsort(-weights, kind="stable")].tolist():
        if tables is None:
            yield candidate_n3(arr, sig, F)
        else:
            yield _candidate_from(sig, F, _assemble_general(sig, tables, F))


def select_candidate(
    matrix: object,
    sig: Signature,
    method: Method = "general",
    threshold: float | None = None,
) -> CandidateElement:
    """The first candidate from iter_candidates whose reverse-norm exceeds threshold.

    For a matrix in SO+(p,q) that is the first one, the probe with the
    largest s_F^2, so exactly one candidate is assembled. A matrix outside
    the group (validation skipped or loosened) can give a vanishing first
    candidate; the later ones are then tried in turn.

    Raises NoCandidateError, naming the candidate with the largest
    reverse-norm, when none exceeds threshold.
    """
    scale = 4.0 if method == "n3" else 1.0
    if threshold is None:
        threshold = RELATIVE_THRESHOLD * float(sig.dim) ** 2 / scale
    best: CandidateElement | None = None
    for cand in iter_candidates(matrix, sig, method):
        if cand.normsq > threshold:
            return cand
        if best is None or cand.normsq > best.normsq:
            best = cand
    assert best is not None
    arr = _entries(matrix, sig)
    raise NoCandidateError(
        f"no nonzero covering candidate: best reverse-norm {best.normsq:.6g} at "
        f"F = {best.blade} (threshold {threshold:.6g}) for matrix\n{np.array2string(arr)}"
    )


def rotor_from_candidate(cand: CandidateElement, method: Method = "general") -> Rotor:
    """The sign-canonicalized rotor M_F / sqrt(2^n eps_F <M_F>_F).

    The scale is 2^(n-1) for the n3 form. NoCandidateError is raised when
    the radicand is not positive, which no SO+(p,q) matrix gives.
    """
    sig = cand.M.sig
    scale = 2.0 ** (sig.n - 1 if method == "n3" else sig.n)
    weight = scale * _reverse_norm_signs(sig.p, sig.q)[cand.F] * cand.M.coeffs[cand.F]
    if not weight > 0.0:
        raise NoCandidateError(
            f"candidate at F = {cand.blade} has non-positive normalizer {weight:.6g}; "
            f"the matrix is not in SO+({sig.p},{sig.q})"
        )
    return Rotor(cand.M / math.sqrt(weight)).canonicalized()


def matrix_to_rotor(
    matrix: object,
    sig: Signature,
    method: Method = "general",
    tol: float = DEFAULT_TOLERANCE,
    validate: bool = True,
    project: bool = False,
) -> Rotor:
    """One of the two rotors covering the given SO+(p,q) matrix.

    The result is sign-canonicalized; the other preimage is its negation.
    With validate (the default) the matrix must pass membership first;
    project applies the polar-type group projection before validating.
    The candidate comes from select_candidate and its normalization from
    rotor_from_candidate.
    """
    arr = _entries(matrix, sig)
    if project:
        arr = project_to_group(arr, sig)
    if validate:
        require_membership(arr, sig, tol)
    return rotor_from_candidate(select_candidate(arr, sig, method=method), method)


def rotor_from_frames(
    frame: Frame,
    method: Method = "general",
    tol: float = DEFAULT_TOLERANCE,
) -> Rotor:
    """Rotor sending each generator e_a to the frame vector beta_a.

    The frame's coordinate matrix must pass SO+(p,q) membership; a frame
    whose Gram matrix deviates from the metric fails the pseudo-orthogonality
    condition there.
    """
    matrix = frame.coordinate_matrix()
    require_membership(matrix, frame.sig, tol)
    return matrix_to_rotor(matrix, frame.sig, method=method, validate=False)


def _entries(matrix: object, sig: Signature) -> np.ndarray:
    if isinstance(matrix, OrthoMatrix):
        if matrix.sig != sig:
            raise ValueError(
                f"matrix signature Cl({matrix.sig.p},{matrix.sig.q}) does not match Cl({sig.p},{sig.q})"
            )
        return matrix.entries
    return as_square_matrix(matrix, sig.n)
