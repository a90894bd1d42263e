"""Two-sheeted covering between the spin group and SO+(p,q).

A rotor is an even multivector S with reverse(S) S = 1 whose conjugation
action maps grade 1 to grade 1. Conjugating the generators expands as
S e_a S^-1 = sum_b p_a^b e_b, and the coordinates p_a^b fill column a of a
matrix P in SO+(p,q); S and -S give the same P, so the inverse direction
recovers a pair of rotors.

Recovery probes the matrix with an even-grade blade F. The full sum

    M_F = sum over k = 0..n, over row k-subsets B and column k-subsets A,
          of minor(P, B, A) * e_B e_F e^A

is always proportional to the sought rotor. For P in SO(p,q),
P^-1 = eta P^T eta and det P = 1, so by Jacobi's complementary-minor
identity the term of (B^c, A^c) equals the term of (B, A) for every even
F. So M_F = 2 L_F, where the half sum L_F takes the grades k < n/2 in
full and, for even n, the rows B of grade n/2 that hold e_n; no minor
above grade n/2 is computed. The minors come grade by grade, each grade
one Laplace step from the one below (matrix_group.batched_minors). For
n = 3 the half sum is the first-order candidate

    L_F = e_F + sum over a, b of p_a^b e_b e_F e^a

of the paper, so the n3 form is L_F itself and the general candidate is
exactly 2 L_F.

The candidate is M_F = 2^n eps_F s_F S, where eps_F is the sign of
reverse(e_F) e_F and s_F the e_F coefficient of S, so it vanishes exactly
when s_F does. Only the B = A terms reach e_F, each as (-1)^|A & F| e_F,
so the e_F coefficient

    <M_F>_F = sum over A of (-1)^|A & F| det P[A, A] = 2^n eps_F s_F^2

is a Walsh-Hadamard transform of the 2^n principal minors, of which the
half sum holds one of each complementary pair (A and A^c give the same
minor and the same sign). One transform ranks every probe by
w_F = eps_F <M_F>_F = 2^n s_F^2, and only the candidate with the largest
w_F is assembled; no other probe is tried. The rotor is
M_F / sqrt(2^n eps_F <M_F>_F), up to sign. The reverse-norm
reverse(M_F) M_F = 4^n s_F^2 would give the same divisor in exact
arithmetic, but for q > 0 it is an indefinite sum of squares that
cancels catastrophically on large boosts, so it only tests that the
chosen candidate is nonzero.

Off the group the halving fails. On an element of O(p,q) the full sum is
(1 + det P) L_F, which vanishes for det P = -1 while L_F need not, so
candidate_general and probe_weights assume det P = +1, and
select_candidate refuses a negative determinant by its sign alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Literal

import numpy as np

from .clifford_core import (
    Multivector,
    Signature,
    _reverse_norm_signs,
    _reverse_signs,
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

#: Minor tables of grades 0..n/2, as returned by batched_minors; a table
#: with fewer rows than masks holds the row sets of its last masks.
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
    #: Mask of the probe blade F whose candidate this rotor normalizes.
    probe: int | None = field(default=None, compare=False)
    # (matrix, bound) from _judge, kept by checked for forward_map.
    _closed: tuple[np.ndarray, float] | None = field(default=None, repr=False, compare=False)

    @property
    def sig(self) -> Signature:
        return self.value.sig

    @property
    def coeffs(self) -> np.ndarray:
        return self.value.coeffs

    def __neg__(self) -> Rotor:
        return Rotor(-self.value, self.probe)

    def canonicalized(self) -> Rotor:
        """Fix the sign: largest-magnitude coefficient positive, ties by lowest mask."""
        return -self if self.value.coeffs[np.argmax(np.abs(self.value.coeffs))] < 0 else self

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
        quarter of that passes without a geometric product. The rotor keeps
        the closed form, re-based on unit_residual if that ran, for forward_map.
        """
        bound = require_tolerance(tol) * _size(value)
        if value.odd_part_max() != 0.0:
            raise ValueError("rotor has odd-grade coefficients")
        return cls(value, _closed=_judge(value, bound, images=False))


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


@lru_cache(maxsize=None)
def _partners(n: int) -> np.ndarray:
    # Read-only (n, 2^n) index of B ^ e_a at [a, B]; taking row a swaps bit a's halves.
    partners = np.arange(1 << n) ^ (1 << np.arange(n))[:, None]
    partners.setflags(write=False)
    return partners


@lru_cache(maxsize=None)
def _shift_signs(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    # Read-only (n, 2^n) int8 signs of e_B e_a and of e_a e_B, stored at
    # column B ^ e_a: the signs that make S e_a and e_a S out of S with
    # the halves of bit a swapped.
    sig = Signature(p, q)
    bits = (1 << np.arange(sig.n))[:, None]
    partner = _partners(sig.n)
    tables = blade_signs(sig, partner, bits), blade_signs(sig, bits, partner)
    for table in tables:
        table.setflags(write=False)
    return tables


@lru_cache(maxsize=None)
def _pseudoscalar_signs(p: int, q: int) -> np.ndarray:
    # Read-only int8 signs of e_A reverse(e_{A^c}) at A: the pseudoscalar
    # coefficient of S reverse(S) is sum_A signs_A s_A s_{A^c}.
    sig = Signature(p, q)
    every = np.arange(sig.dim)
    signs = blade_signs(sig, every, every[::-1]) * _reverse_signs(sig.n)[::-1]
    signs.setflags(write=False)
    return signs


def _shifts(value: Multivector) -> tuple[np.ndarray, np.ndarray]:
    # (n, 2^n) rows value e_a and e_a value: value with the halves of bit a
    # swapped, times the cached signs.
    sig = value.sig
    right_signs, left_signs = _shift_signs(sig.p, sig.q)
    moved = value.coeffs.take(_partners(sig.n))
    left = left_signs * moved
    return np.multiply(right_signs, moved, out=moved), left


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
    # The signs of the shifted copies come from the _shift_signs caches. One
    # (n, 2^n) work buffer holds in turn left times the reverse-norm signs
    # for the matrix product, the residuals left - E right (E = eta P eta)
    # and right - P^T left.
    sig = value.sig
    right, left = _shifts(value)
    eta = np.diag(metric_matrix(sig))
    work = left * _reverse_norm_signs(sig.p, sig.q)
    matrix = eta[:, None] * (work @ right.T)
    norm = math.sqrt(float(np.dot(value.coeffs, value.coeffs)))
    if unit is None:
        unit = abs(squared_norm(value) - 1.0)
        if sig.n % 2:
            unit += abs(np.dot(_pseudoscalar_signs(sig.p, sig.q) * value.coeffs, value.coeffs[::-1]))
        np.subtract(left, np.matmul(eta[:, None] * matrix * eta, right, out=work), out=work)
        unit += norm * np.sum(_row_norms(work))
    np.subtract(right, np.matmul(matrix.T, left, out=work), out=work)
    return matrix, float(unit + np.max(np.sum(np.abs(matrix), axis=0) * unit + _row_norms(work) * norm))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # Euclidean row norms summed as np.linalg.norm sums them, but squaring
    # rows in place rather than into a temporary.
    return np.sqrt(np.add.reduce(np.square(rows, out=rows), axis=1))


def _judge(value: Multivector, bound: float, images: bool) -> tuple[np.ndarray, float]:
    # The verdict of Rotor.checked and forward_map and the closed form's
    # (matrix, bound). A bound over a quarter of `bound` is re-based on the
    # exact S reverse(S) residual, held to `bound`; one still over, with
    # images, holds the non-grade-1 coefficients of S e_a reverse(S) to it.
    closed = _closed_form(value)
    if not closed[1] <= bound / 4.0 < math.inf:
        residual = Rotor(value).unit_residual()
        if not residual <= bound < math.inf:
            raise ValueError(f"rotor norm S*reverse(S) is not 1: it deviates by {residual:.3e} "
                             f"(tolerance {bound:.3e})")
        closed = _closed_form(value, residual)
        if images and not closed[1] <= bound / 4.0:
            conjugated = conjugated_generators(value, value.reverse())
            conjugated[:, 1 << np.arange(value.sig.n)] = 0.0
            worst = float(np.max(np.abs(conjugated)))
            if not worst <= bound:
                raise ValueError(f"conjugation does not preserve grade 1 (residual {worst:.3e}); not a rotor")
    return closed


def forward_map(rotor: Rotor | Multivector, tol: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """Matrix of the conjugation action: column a holds S e_a S^-1 = S e_a reverse(S).

    P is read from signed permutations of S. ValueError unless S reverse(S)
    is 1 and every S e_a reverse(S) grade 1, over all coefficients, to tol
    relative to the size as in Rotor.checked. Geometric products run only
    when a closed-form bound is not within a quarter of that (_closed_form);
    a rotor from Rotor.checked brings its closed form along.
    """
    value = rotor.value if isinstance(rotor, Rotor) else rotor
    bound = require_tolerance(tol) * _size(value)
    kept = rotor._closed if isinstance(rotor, Rotor) else None
    if kept is not None and kept[1] <= bound / 4.0 < math.inf:
        return kept[0].copy()
    return _judge(value, bound, images=True)[0]


# ---------------------------------------------------------------------------
# Inverse direction: matrix -> rotor
# ---------------------------------------------------------------------------

def _minor_tables(arr: np.ndarray, sig: Signature, method: Method) -> tuple[_Tables, float]:
    # The tables of the half sum L_F (see the module notes), each grade one
    # Laplace step from the last, and the factor the method applies to
    # L_F: 2 for the candidate M_F, 1 for the n3 form.
    if method == "n3":
        if sig.n != 3:
            raise ValueError(f"method 'n3' needs n = 3, got n = {sig.n}")
        factor = 1.0
    elif method == "general":
        factor = 2.0
    else:
        raise ValueError(f"unknown method {method!r}; expected 'general' or 'n3'")
    n = sig.n
    tables = [batched_minors(arr, 0, None)]
    for k in range(1, (n + 1) // 2):
        tables.append(batched_minors(arr, k, tables[-1]))
    if n % 2 == 0:
        tables.append(batched_minors(arr, n // 2, tables[-1], math.comb(n - 1, n // 2)))
    return tables, factor


@lru_cache(maxsize=None)
def _pair_signs(p: int, q: int, k: int, rows: int) -> np.ndarray:
    # Read-only int8 grid of sign(e_B e_A) sign(e_A e_A) over the last rows
    # grade-k masks B and every grade-k mask A, the rows of a minor table.
    sig = Signature(p, q)
    masks = grade_masks(sig.n, k)
    signs = blade_signs(sig, masks[-rows:, None], masks) * blade_signs(sig, masks, masks)
    signs.setflags(write=False)
    return signs


def _assemble_general(sig: Signature, tables: _Tables, F: int) -> Multivector:
    # One bincount per grade accumulates every minor(P,B,A) e_B e_F e^A term:
    # sign(e_B e_F) * sign(e_{B^F} e_A) * sign(e_A e_A) at mask B ^ F ^ A.
    # The sign keys are linear in their first mask (clifford_core._sign_keys),
    # so sign(e_{B^F} e_A) = sign(e_B e_A) sign(e_F e_A): the F-free part is
    # the cached _pair_signs grid, the rest a row and a column sign. The
    # terms are binned at B ^ A and the total read at every mask ^ F.
    every = np.arange(sig.dim)
    with_probe = blade_signs(sig, every, F)
    total = np.zeros(sig.dim)
    for k, (masks, dets) in enumerate(tables):
        b = masks[-len(dets) :, None]
        signs = _pair_signs(sig.p, sig.q, k, len(dets)) * (with_probe[b] * blade_signs(sig, F, masks))
        total += np.bincount((b ^ masks).ravel(), weights=(dets * signs).ravel(), minlength=sig.dim)
    return Multivector(sig, total[every ^ F])


def _candidate(sig: Signature, tables: _Tables, factor: float, F: int) -> CandidateElement:
    M = factor * _assemble_general(sig, tables, F)
    return CandidateElement(F, M, squared_norm(M), factor * sig.dim / 2.0)


def _probe_candidate(matrix: object, sig: Signature, F: int, method: Method) -> CandidateElement:
    if blade_grade(F) % 2:
        raise ValueError(f"probe blade {blade_name(F)} has odd grade")
    return _candidate(sig, *_minor_tables(as_square_matrix(matrix, sig.n), sig, method), F)


def candidate_general(matrix: object, sig: Signature, F: int) -> CandidateElement:
    """Candidate M_F = 2 L_F for an even probe blade F; assumes det P = +1 (see the module notes)."""
    return _probe_candidate(matrix, sig, F, "general")


def candidate_n3(matrix: object, sig: Signature, F: int) -> CandidateElement:
    """First-order candidate L_F, the half sum at n = 3 (grades 0 and 1); M_F = 2 L_F."""
    return _probe_candidate(matrix, sig, F, "n3")


@lru_cache(maxsize=None)
def _even_masks(n: int) -> np.ndarray:
    # Read-only probe masks in (grade, mask) order; ties go to the first.
    masks = np.concatenate([grade_masks(n, k) for k in range(0, n + 1, 2)])
    masks.setflags(write=False)
    return masks


def even_blades(n: int) -> Iterator[int]:
    """All even-grade blade masks in ascending (grade, mask) order."""
    return iter(_even_masks(n).tolist())


def _probe_weights(sig: Signature, tables: _Tables, factor: float) -> np.ndarray:
    # w_F = factor eps_F sum_A (-1)^|A & F| det P[A, A] over the principal
    # minors in tables; |A^c & F| = |A & F| mod 2 for even F, so the A in
    # the half sum stand for their complements too. The n3 form sees
    # d = (1, p11, p22, p33) on masks 0, 1, 2, 4.
    d = np.zeros(sig.dim)
    for masks, dets in tables:
        d[masks[-len(dets) :]] = np.diagonal(dets, masks.size - len(dets))
    return factor * _reverse_norm_signs(sig.p, sig.q) * _walsh_hadamard(d)


def probe_weights(matrix: object, sig: Signature, method: Method = "general") -> np.ndarray:
    """Per-mask weights w_F = eps_F <M_F>_F, ranking the probe blades.

    For a matrix in SO+(p,q) covered by +-S, w_F = 2^n s_F^2 with s_F the
    e_F coefficient of S (2^(n-1) s_F^2 for the n3 form). Only the even
    masks name probes. Like candidate_general, the weights assume det P = +1.
    """
    return _probe_weights(sig, *_minor_tables(as_square_matrix(matrix, sig.n), sig, method))


def select_candidate(matrix: object, sig: Signature, method: Method = "general") -> CandidateElement:
    """The candidate of the probe F with the largest w_F from probe_weights.

    Exact ties go to the first even blade in (grade, mask) order. Only this
    one candidate is assembled: for a matrix in SO+(p,q) it is the probe
    with the largest s_F^2, and since the s_F^2 over the 2^(n-1) even
    blades sum to at least 1, its w_F is at least 2 and it cannot vanish.

    Raises NoCandidateError when det P < 0 (by its sign only: a large
    boost rounds it far from 1), where the half sum would not vanish, and,
    naming the candidate, when its reverse-norm is not above
    RELATIVE_THRESHOLD x scale^2; no other probe is tried.
    """
    arr = as_square_matrix(matrix, sig.n)
    det = float(np.linalg.det(arr))
    if det < 0.0:
        raise NoCandidateError(
            f"no covering candidate: determinant {det:.6g} is negative for matrix\n{np.array2string(arr)}"
        )
    tables, factor = _minor_tables(arr, sig, method)
    evens = _even_masks(sig.n)
    cand = _candidate(sig, tables, factor, int(evens[np.argmax(_probe_weights(sig, tables, factor)[evens])]))
    threshold = RELATIVE_THRESHOLD * cand.scale**2
    if not cand.normsq > threshold:
        raise NoCandidateError(
            f"no nonzero covering candidate: best reverse-norm {cand.normsq:.6g} at "
            f"F = {cand.blade} (threshold {threshold:.6g}) for matrix\n{np.array2string(arr)}"
        )
    return cand


def rotor_from_candidate(cand: CandidateElement) -> Rotor:
    """The sign-canonicalized rotor M_F / sqrt(scale eps_F <M_F>_F), with probe F.

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
    return Rotor(cand.M / math.sqrt(weight), cand.F).canonicalized()


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

