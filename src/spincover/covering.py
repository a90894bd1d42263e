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
    metric_matrix,
    require_membership,
    require_tolerance,
)

Method = Literal["general", "n3"]

#: Minor tables of grades 0, 1, ..., as returned by batched_minors.
_Tables = list[tuple[np.ndarray, np.ndarray]]

#: Candidates with reverse-norm at or below RELATIVE_THRESHOLD x scale^2
#: count as zero, scale being the candidate's 2^n (2^(n-1) for the n3 form).
RELATIVE_THRESHOLD = 1e-18


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

    def unit_residual(self) -> float:
        """max |S reverse(S) - 1| over all components (0 iff reverse(S) S = 1), by one product."""
        gram = (self.value * self.value.reverse()).coeffs.copy()
        gram[0] -= 1.0
        return float(np.max(np.abs(gram)))

    @classmethod
    def checked(cls, value: Multivector, tol: float = DEFAULT_TOLERANCE) -> Rotor:
        """Wrap a multivector after verifying evenness and unit norm.

        unit_residual is held to tol * max(1, sum of squared coefficients),
        the size of its rounding (for q > 0 above the reverse-norm 1); a sum
        that overflows fails. A closed-form bound (see forward_map) within a
        quarter of that passes without a geometric product.
        """
        bound = require_tolerance(tol) * _size(value)
        if value.odd_part_max() != 0.0:
            raise ValueError("rotor has odd-grade coefficients")
        if not _closed_form(value)[1] <= bound / 4.0 < math.inf:
            _require_unit(value, bound)
        return cls(value)


def _require_unit(value: Multivector, bound: float) -> float:
    residual = Rotor(value).unit_residual()
    if not residual <= bound < math.inf:
        raise ValueError(
            f"rotor norm S*reverse(S) is not 1: it deviates by {residual:.3e} "
            f"(tolerance {bound:.3e})"
        )
    return residual


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


def _shifts(value: Multivector) -> tuple[np.ndarray, np.ndarray]:
    # (n, 2^n) rows value e_a and e_a value, each a signed permutation of value.
    sig = value.sig
    bits = (1 << np.arange(sig.n))[:, None]
    partner = np.arange(sig.dim) ^ bits
    moved = value.coeffs[partner]
    return blade_signs(sig, partner, bits) * moved, blade_signs(sig, bits, partner) * moved


def conjugated_generators(value: Multivector, right: Multivector) -> np.ndarray:
    """(n, 2^n) coefficients whose row a is value e_a right, one product each."""
    value._check_sig(right)
    return np.array([(Multivector(value.sig, row) * right).coeffs for row in _shifts(value)[0]])


def _closed_form(value: Multivector, unit: float | None = None) -> tuple[np.ndarray, float]:
    # P[b, a] = eta_bb <(S e_a)(reverse(S) e_b)>_0, the e_b coordinate of
    # S e_a reverse(S), is one product, as reverse(S) e_b reverses e_b S. The
    # float bounds max |D|, D = S reverse(S) - 1 (or builds on unit, max |D|
    # by product), and every non-grade-1 coefficient of S e_a reverse(S)
    # = v_a + v_a D + R_a reverse(S), v_a = P e_a, R_a = S e_a - v_a S. With
    # u_b = eta P^T eta e_b and R'_b = e_b S - S u_b, e_b D - D e_b = R'_b
    # reverse(S) - S reverse(R'_b); D off its centre (grades 0 and odd n) is
    # the mean of D - e_A D e_A^-1, at most |S|_2 sum_b |R'_b|_2 as no U V
    # coefficient exceeds |U|_2 |V|_2. R alone bounds neither: S (1 + d e1234),
    # S a rapidity-12 boost in Cl(4,1), has |R| ~ 2d and |D| ~ 800 d.
    sig = value.sig
    right, left = _shifts(value)
    eta = np.diag(metric_matrix(sig))
    matrix = eta[:, None] * ((left * _reverse_norm_signs(sig.p, sig.q)) @ right.T)
    norm = math.sqrt(float(np.dot(value.coeffs, value.coeffs)))
    if unit is None:
        unit = abs(squared_norm(value) - 1.0)
        if sig.n % 2:
            every = np.arange(sig.dim)
            unit += abs(np.dot(blade_signs(sig, every, every[::-1]) * value.coeffs, value.reverse().coeffs[::-1]))
        unit += norm * np.sum(np.linalg.norm(left - (eta[:, None] * matrix * eta) @ right, axis=1))
    slip = np.linalg.norm(right - matrix.T @ left, axis=1)
    return matrix, float(unit + np.max(np.sum(np.abs(matrix), axis=0) * unit + slip * norm))


def forward_map(rotor: Rotor | Multivector, tol: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """Matrix of the conjugation action: column a holds S e_a S^-1 = S e_a reverse(S).

    P is read from signed permutations of S. ValueError unless S reverse(S)
    is 1 and every S e_a reverse(S) grade 1, over all coefficients, to tol
    relative to the size as in Rotor.checked. Geometric products run only
    when a closed-form bound is not within a quarter of that (_closed_form).
    """
    value = rotor.value if isinstance(rotor, Rotor) else rotor
    bound = require_tolerance(tol) * _size(value)
    matrix, residual = _closed_form(value)
    if not residual <= bound / 4.0 < math.inf:
        unit = _require_unit(value, bound)
        if not _closed_form(value, unit)[1] <= bound / 4.0:
            images = conjugated_generators(value, value.reverse())
            images[:, 1 << np.arange(value.sig.n)] = 0.0
            worst = float(np.max(np.abs(images)))
            if not worst <= bound:
                raise ValueError(f"conjugation does not preserve grade 1 (residual {worst:.3e}); not a rotor")
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

