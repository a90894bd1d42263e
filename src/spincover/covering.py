"""Two-sheeted covering between the spin group and SO+(p,q).

A rotor is an even multivector S with reverse(S) S = 1 whose conjugation
action maps grade 1 to grade 1. Conjugating the generators expands as
S e_a S^-1 = sum_b p_a^b e_b, and the coordinates p_a^b fill column a of a
matrix P in SO+(p,q); S and -S give the same P, so the inverse direction
recovers a pair of rotors.

Recovery probes the matrix with an even-grade blade F, assembling

    M_F = sum over k = 0..n, over row k-subsets B and column k-subsets A,
          of minor(P, B, A) * e_B e_F e^A

which is always proportional to the sought rotor. The minors come grade
by grade, each grade one Laplace step from the one below
(matrix_group.batched_minors). For n = 3 the same sum cut after grade 1
is the first-order candidate

    L_F = e_F + sum over a, b of p_a^b e_b e_F e^a

with M_F = 2 L_F, so the n3 form is the general assembly over the
grade 0 and 1 tables.

The candidate is M_F = 2^n eps_F s_F S, where eps_F is the sign of
reverse(e_F) e_F and s_F the e_F coefficient of S, so it vanishes exactly
when s_F does. Only the B = A terms reach e_F, each as (-1)^|A & F| e_F,
so the e_F coefficient

    <M_F>_F = sum over A of (-1)^|A & F| det P[A, A] = 2^n eps_F s_F^2

is a Walsh-Hadamard transform of the 2^n principal minors. One transform
ranks every probe by w_F = eps_F <M_F>_F = 2^n s_F^2, and only the
candidate with the largest w_F is assembled; no other probe is tried.
The rotor is M_F / sqrt(2^n eps_F <M_F>_F), up to sign. The reverse-norm
reverse(M_F) M_F = 4^n s_F^2 would give the same divisor in exact
arithmetic, but for q > 0 it is an indefinite sum of squares that
cancels catastrophically on large boosts, so it only tests that the
chosen candidate is nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    as_square_matrix,
    batched_minors,
    require_membership,
)

Method = Literal["general", "n3"]

#: Minor tables of grades 0, 1, ..., as returned by batched_minors.
_Tables = list[tuple[np.ndarray, np.ndarray]]

#: Candidates with reverse-norm at or below RELATIVE_THRESHOLD x scale^2
#: count as zero, scale being the candidate's 2^n (2^(n-1) for the n3 form).
RELATIVE_THRESHOLD = 1e-18

#: Operator entries built at a time in _operator_products, so that a row
#: block's temporaries stay in cache and the 32 MB n = 12 operator is never
#: held whole. It leaves at least 128 rows per block, which with OpenBLAS
#: reproduce the unblocked product bit for bit (32 or 64 rows do not).
_BLOCK = 1 << 18


class NoCandidateError(RuntimeError):
    """The candidate of the largest-weight probe is unusable.

    Either its reverse-norm is ~ 0 or its normalizer is not positive; no
    matrix in SO+(p,q) gives either, and no other probe is tried.
    """


def _size(value: Multivector) -> float:
    # max(1, sum of squared coefficients): the scale of the rounding in
    # S reverse(S) and in S e_a reverse(S).
    return max(1.0, float(np.dot(value.coeffs, value.coeffs)))


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

    @cached_property
    def action(self) -> np.ndarray:
        """Read-only (n + 1, 2^n) conjugation product, built once per rotor.

        Row a holds S e_{a+1} reverse(S) and row n holds e_1 S reverse(S),
        all from one right-multiplication operator for reverse(S).
        """
        products = _operator_products(self.value, self.value.reverse())
        products.setflags(write=False)
        return products

    def unit_residual(self) -> float:
        """Distance of S reverse(S) from 1, over all components.

        Read from the last row of action, e_1 S reverse(S): multiplying by
        e_1 signs and permutes coefficients exactly, so the largest
        |row - e_1| is the largest |S reverse(S) - 1|. In a
        finite-dimensional algebra S reverse(S) = 1 exactly when
        reverse(S) S = 1.
        """
        row = self.action[-1].copy()
        row[1] -= 1.0
        return float(np.max(np.abs(row)))

    def _require_unit(self, tol: float) -> float:
        # The unit residual is held to tol * max(1, sum of squared
        # coefficients), the size of its rounding; returns that bound.
        bound = tol * _size(self.value)
        residual = self.unit_residual()
        if not residual <= bound < math.inf:
            raise ValueError(
                f"rotor norm S*reverse(S) is not 1: it deviates by {residual:.3e} "
                f"(tolerance {bound:.3e})"
            )
        return bound

    @classmethod
    def checked(cls, value: Multivector, tol: float = DEFAULT_TOLERANCE) -> Rotor:
        """Wrap a multivector after verifying evenness and unit norm.

        The unit residual is held to tol relative to the rotor's size,
        tol * max(1, sum of squared coefficients): rounding in S reverse(S)
        grows with that sum, which for q > 0 exceeds the reverse-norm 1; a
        sum that overflows fails. The residual comes from action, which
        forward_map then reuses.
        """
        if value.odd_part_max() != 0.0:
            raise ValueError("rotor has odd-grade coefficients")
        rotor = cls(value)
        rotor._require_unit(tol)
        return rotor


@dataclass(frozen=True)
class CandidateElement:
    """Unnormalized candidate M = scale eps_F s_F S for one probe blade F.

    scale is 2^n for the general sum and 2^(n-1) for the n3 form.
    """

    F: int
    M: Multivector
    normsq: float
    scale: float

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
        """Scalar parts of beta_a beta_b: sum over A of sign(e_A e_A) beta_a[A] beta_b[A]."""
        rows = np.stack([b.coeffs for b in self.beta])
        every = np.arange(self.sig.dim)
        return (rows * blade_signs(self.sig, every, every)) @ rows.T


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
    return _operator_products(value, right)[:-1]


def _operator_products(value: Multivector, right: Multivector) -> np.ndarray:
    # Rows value e_a right for a = 1..n, then e_1 value right, all through
    # one right-multiplication operator (see conjugated_generators), built
    # and applied in row blocks of about _BLOCK entries; e_1 value is
    # supported on value's support ^ e_1, which the columns already hold.
    # The last row sums separately rounded products, with no fused
    # multiply-add, so that an exactly unit rotor such as cos t + sin t I
    # reads S reverse(S) = 1 exactly.
    value._check_sig(right)
    sig = value.sig
    bits = (np.int64(1) << np.arange(sig.n, dtype=np.int64))[:, None]
    occupied = np.zeros(sig.dim, dtype=bool)
    occupied[np.nonzero(value.coeffs)[0] ^ bits] = True
    cols = np.nonzero(occupied)[0]
    shifted = cols ^ bits
    left = blade_signs(sig, shifted, bits) * value.coeffs[shifted]
    unit_left = blade_signs(sig, 1, shifted[0]) * value.coeffs[shifted[0]]
    rows = _reachable(sig, cols, np.nonzero(right.coeffs)[0])
    products = np.zeros((sig.n + 1, sig.dim))
    step = _BLOCK // max(1, cols.size)
    for start in range(0, rows.size, step):
        block = rows[start : start + step]
        partner = block[:, None] ^ cols
        operator = blade_signs(sig, cols, partner) * right.coeffs[partner]
        products[:-1, block] = (operator @ left.T).T
        operator *= unit_left
        products[-1, block] = np.add.reduce(operator, axis=1)
    return products


def forward_map(rotor: Rotor | Multivector, tol: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """Matrix of the conjugation action: column a holds S e_a S^-1.

    S^-1 is reverse(S). The images and the unit residual are rows of the
    rotor's cached Rotor.action (a Multivector is wrapped in an unchecked
    Rotor), so after Rotor.checked no further operator is built and no
    geometric product runs. Raises ValueError when S reverse(S) is not 1
    or when some conjugated generator picks up non-grade-1 components,
    checked over every coefficient; both tests allow tol relative to the
    rotor's size, as in Rotor.checked, and fail when it overflows.
    """
    rotor = rotor if isinstance(rotor, Rotor) else Rotor(rotor)
    bound = rotor._require_unit(tol)
    images = rotor.action[:-1].copy()
    vectors = 1 << np.arange(rotor.sig.n)
    matrix = images[:, vectors].T.copy()
    images[:, vectors] = 0.0
    worst = float(np.max(np.abs(images)))
    if not worst <= bound:
        raise ValueError(
            f"conjugation does not preserve grade 1 (residual {worst:.3e}); not a rotor"
        )
    return matrix


# ---------------------------------------------------------------------------
# Inverse direction: matrix -> rotor
# ---------------------------------------------------------------------------

def _minor_tables(arr: np.ndarray, sig: Signature, method: Method) -> tuple[_Tables, float]:
    # Grades 0..n for the general sum and 0..1 for the n3 form, the same
    # sum cut after grade 1; each grade is one Laplace step from the last.
    # The scale is the candidate's factor 2^n, halved by the n = 3 cut.
    if method == "n3":
        if sig.n != 3:
            raise ValueError(f"method 'n3' needs n = 3, got n = {sig.n}")
        top, scale = 1, sig.dim / 2.0
    elif method == "general":
        top, scale = sig.n, float(sig.dim)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'general' or 'n3'")
    tables = [batched_minors(arr, 0, None)]
    for k in range(1, top + 1):
        tables.append(batched_minors(arr, k, tables[-1]))
    return tables, scale


def _assemble_general(sig: Signature, tables: _Tables, F: int) -> Multivector:
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


def _candidate(sig: Signature, tables: _Tables, scale: float, F: int) -> CandidateElement:
    M = _assemble_general(sig, tables, F)
    return CandidateElement(F, M, squared_norm(M), scale)


def _probe_candidate(matrix: object, sig: Signature, F: int, method: Method) -> CandidateElement:
    if blade_grade(F) % 2:
        raise ValueError(f"probe blade {blade_name(F)} has odd grade")
    return _candidate(sig, *_minor_tables(as_square_matrix(matrix, sig.n), sig, method), F)


def candidate_general(matrix: object, sig: Signature, F: int) -> CandidateElement:
    """Full-grade-sum candidate M_F for an even probe blade F."""
    return _probe_candidate(matrix, sig, F, "general")


def candidate_n3(matrix: object, sig: Signature, F: int) -> CandidateElement:
    """First-order candidate L_F, the sum cut after grade 1; n = 3 only, where M_F = 2 L_F."""
    return _probe_candidate(matrix, sig, F, "n3")


def even_blades(n: int) -> Iterator[int]:
    """All even-grade blade masks in ascending (grade, mask) order."""
    for k in range(0, n + 1, 2):
        for mask in grade_masks(n, k):
            yield int(mask)


def _probe_weights(sig: Signature, tables: _Tables) -> np.ndarray:
    # w_F = eps_F sum_A (-1)^|A & F| det P[A, A] over the grades in tables;
    # the n3 form sees d = (1, p11, p22, p33) on masks 0, 1, 2, 4.
    d = np.zeros(sig.dim)
    for masks, dets in tables:
        d[masks] = np.diagonal(dets)
    return _reverse_norm_signs(sig.p, sig.q) * _walsh_hadamard(d)


def probe_weights(matrix: object, sig: Signature, method: Method = "general") -> np.ndarray:
    """Per-mask weights w_F = eps_F <M_F>_F, ranking the probe blades.

    For a matrix in SO+(p,q) covered by +-S, w_F = 2^n s_F^2 with s_F the
    e_F coefficient of S (2^(n-1) s_F^2 for the n3 form). Only the even
    masks name probes.
    """
    return _probe_weights(sig, _minor_tables(as_square_matrix(matrix, sig.n), sig, method)[0])


def select_candidate(matrix: object, sig: Signature, method: Method = "general") -> CandidateElement:
    """The candidate of the probe F with the largest w_F from probe_weights.

    Exact ties go to the first even blade in (grade, mask) order. Only this
    one candidate is assembled: for a matrix in SO+(p,q) it is the probe
    with the largest s_F^2, and since the s_F^2 over the even blades sum to
    at least 1 that candidate cannot vanish.

    Raises NoCandidateError, naming the candidate, when its reverse-norm is
    not above RELATIVE_THRESHOLD x scale^2; no other probe is tried.
    """
    arr = as_square_matrix(matrix, sig.n)
    tables, scale = _minor_tables(arr, sig, method)
    evens = np.fromiter(even_blades(sig.n), dtype=np.int64)
    cand = _candidate(sig, tables, scale, int(evens[np.argmax(_probe_weights(sig, tables)[evens])]))
    threshold = RELATIVE_THRESHOLD * scale**2
    if not cand.normsq > threshold:
        raise NoCandidateError(
            f"no nonzero covering candidate: best reverse-norm {cand.normsq:.6g} at "
            f"F = {cand.blade} (threshold {threshold:.6g}) for matrix\n{np.array2string(arr)}"
        )
    return cand


def rotor_from_candidate(cand: CandidateElement) -> Rotor:
    """The sign-canonicalized rotor M_F / sqrt(scale eps_F <M_F>_F).

    NoCandidateError is raised when the radicand is not positive, which no
    SO+(p,q) matrix gives. Membership is not checked here; matrix_to_rotor
    is the validated call.
    """
    sig = cand.M.sig
    weight = cand.scale * _reverse_norm_signs(sig.p, sig.q)[cand.F] * cand.M.coeffs[cand.F]
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
) -> Rotor:
    """One of the two rotors covering the given SO+(p,q) matrix.

    The result is sign-canonicalized; the other preimage is its negation.
    The matrix must pass membership at tol (MembershipError otherwise);
    call project_to_group first to repair a noisy input. The candidate
    comes from select_candidate and its normalization from
    rotor_from_candidate, which together are the unvalidated recovery.
    """
    return rotor_from_candidate(select_candidate(require_membership(matrix, sig, tol), sig, method))


def rotor_from_frames(
    frame: Frame,
    method: Method = "general",
    tol: float = DEFAULT_TOLERANCE,
) -> Rotor:
    """Rotor sending each generator e_a to the frame vector beta_a.

    The frame's coordinate matrix must pass SO+(p,q) membership in
    matrix_to_rotor; a frame whose Gram matrix deviates from the metric
    fails the pseudo-orthogonality condition there.
    """
    return matrix_to_rotor(frame.coordinate_matrix(), frame.sig, method, tol)

