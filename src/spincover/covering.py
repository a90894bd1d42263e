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

of the paper, so the n3 form is M_F / 2 and recovers the same rotor: the
method only names which check applies.

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
every entry point checks membership first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal

import numpy as np

from .clifford_core import (
    Multivector,
    Signature,
    _algebra,
    _blade_mask,
    _layout,
    blade_grade,
    blade_name,
    blade_signs,
    grade_masks,
    squared_norm,
)
from .matrix_group import (
    DEFAULT_TOLERANCE,
    _scratch,
    _tables,
    batched_minors,
    require_membership,
    require_tolerance,
)

Method = Literal["general", "n3"]

#: Minor tables of grades 0..n/2, as returned by batched_minors; a table
#: with fewer rows than masks holds the row sets of its last masks.
_Tables = list[tuple[np.ndarray, np.ndarray]]

#: Candidates with reverse-norm at or below RELATIVE_THRESHOLD x 4^n count as zero.
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
    # (matrix, tol) from _judge, set only by checked and kept for forward_map.
    _closed: tuple[np.ndarray, float] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def sig(self) -> Signature:
        return self.value.sig

    @property
    def coeffs(self) -> np.ndarray:
        return self.value.coeffs

    def __neg__(self) -> Rotor:
        # -S has the matrix of S, so the negation keeps what checked kept.
        negated = Rotor(-self.value, self.probe)
        object.__setattr__(negated, "_closed", self._closed)
        return negated

    def canonicalized(self) -> Rotor:
        """Fix the sign: largest-magnitude coefficient positive, ties by lowest mask."""
        return -self if self.value.coeffs[np.argmax(np.abs(self.value.coeffs))] < 0 else self

    def unit_residual(self) -> float:
        """max |S reverse(S) - 1| over all components (0 iff reverse(S) S = 1), by one product."""
        gram = (self.value * self.value.reverse()).coeffs.copy()
        gram[0] -= 1.0
        return float(np.max(np.abs(gram)))

    @classmethod
    def checked(cls, value: Rotor | Multivector, tol: float = DEFAULT_TOLERANCE) -> Rotor:
        """Wrap a multivector (or a rotor's value) that passes the rotor rule of forward_map at tol.

        The rotor keeps the matrix and tol, so forward_map at a tolerance of
        at least tol returns that matrix without judging again; its probe is None.
        """
        rotor = cls(value.value if isinstance(value, Rotor) else value)
        object.__setattr__(rotor, "_closed", (_judge(rotor.value, tol), tol))
        return rotor


@dataclass(frozen=True)
class CandidateElement:
    """Unnormalized candidate M_F = 2^n eps_F s_F S for one probe blade F."""

    F: int
    M: Multivector
    normsq: float

    @property
    def blade(self) -> str:
        return blade_name(self.F)


# ---------------------------------------------------------------------------
# Forward direction: rotor -> matrix
# ---------------------------------------------------------------------------

def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    # Butterfly in place, one pass per generator:
    # v_F <- sum_A (-1)^|A & F| v_A.
    for bit in range(v.size.bit_length() - 1):
        pairs = v.reshape(-1, 2, 1 << bit)
        low, high = pairs[:, 0], pairs[:, 1]
        diff = low - high
        low += high
        high[...] = diff
    return v


def _conjugated_generators(value: Multivector, right: Multivector) -> np.ndarray:
    # (n, 2^n) rows value e_a right, one product each; any value, so full-width shifts signed per call.
    value._check_sig(right)
    sig, bits = value.sig, (1 << np.arange(value.sig.n))[:, None]
    partners = np.arange(sig.dim) ^ bits
    rows = blade_signs(sig, partners, bits) * value.coeffs[partners]
    return np.array([(Multivector(sig, row) * right).coeffs for row in rows])


def _closed_form(value: Multivector) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    # P[b, a] = eta_bb <(S e_a)(reverse(S) e_b)>_0, the e_b coordinate of
    # S e_a reverse(S), is one product, as reverse(S) e_b reverses e_b S.
    # P comes with the pieces of a bound: for any u >= max |D|, D =
    # S reverse(S) - 1, u + max over a of (columns_a u + slips_a) bounds
    # max |D| and every non-grade-1 coefficient of S e_a reverse(S) = v_a +
    # v_a D + R_a reverse(S), v_a = P e_a, R_a = S e_a - v_a S, columns_a =
    # |v_a|_1, slips_a = |S|_2 |R_a|_2; the returned unit is such a u.
    # With u_b = eta P^T eta e_b and R'_b = e_b S - S u_b, e_b D - D e_b =
    # R'_b reverse(S) - S reverse(R'_b); D is even, so off grade 0 it is the
    # mean of D - e_A D e_A^-1, at most |S|_2 sum_b |R'_b|_2 as no U V
    # coefficient exceeds |U|_2 |V|_2. R alone bounds neither: S (1 + d e1234),
    # S a rapidity-12 boost in Cl(4,1), has |R| ~ 2d and |D| ~ 800 d.
    # S is even (the rule refuses odd parts first), so S e_a, e_a S, v_a S and
    # S u_b are odd: the layout's partners gather them and the algebra's shift
    # signs sign them on the odd masks alone. One (n, 2^(n-1)) work buffer
    # holds in turn left times the reverse-norm signs for the product, the
    # residuals left - E right (E = eta P eta) and right - P^T left. All three
    # live in this thread's working buffers at n = 12; every returned piece is
    # a new array.
    partners, algebra = _layout(value.sig.n).partners, _algebra(value.sig.p, value.sig.q)
    moved = value.coeffs.take(partners, out=_scratch(0, partners.shape), mode="wrap")
    left = np.multiply(algebra.left_signs, moved, out=_scratch(1, partners.shape))
    right = np.multiply(algebra.right_signs, moved, out=moved)
    eta = np.diag(algebra.eta)
    work = np.multiply(left, algebra.odd_norm_signs, out=_scratch(2, partners.shape))
    matrix = eta[:, None] * (work @ right.T)
    norm = math.sqrt(float(np.dot(value.coeffs, value.coeffs)))
    unit = abs(squared_norm(value) - 1.0)
    np.subtract(left, np.matmul(eta[:, None] * matrix * eta, right, out=work), out=work)
    unit += norm * np.sum(_row_norms(work))
    np.subtract(right, np.matmul(matrix.T, left, out=work), out=work)
    return matrix, float(unit), np.sum(np.abs(matrix), axis=0), _row_norms(work) * norm


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # Euclidean row norms summed as np.linalg.norm sums them, but squaring
    # rows in place rather than into a temporary.
    return np.sqrt(np.add.reduce(np.square(rows, out=rows), axis=1))


def _judge(value: Multivector, tol: float) -> np.ndarray:
    # The one rotor rule, of Rotor.checked and forward_map, and the closed
    # form's matrix. S must be even. A closed-form bound over a quarter of
    # tol * size is re-based on the exact S reverse(S) residual, held to
    # tol * size; one still over holds S e_a reverse(S) off grade 1 to it.
    # A value that passes at tol passes at every larger tol.
    bound = require_tolerance(tol) * _size(value)
    if value.odd_part_max() != 0.0:
        raise ValueError("rotor has odd-grade coefficients")
    matrix, unit, columns, slips = _closed_form(value)
    if not unit + np.max(columns * unit + slips) <= bound / 4.0 < math.inf:
        unit = Rotor(value).unit_residual()
        if not unit <= bound < math.inf:
            raise ValueError(f"rotor norm S*reverse(S) is not 1: it deviates by {unit:.3e} "
                             f"(tolerance {bound:.3e})")
        if not unit + np.max(columns * unit + slips) <= bound / 4.0:
            conjugated = _conjugated_generators(value, value.reverse())
            conjugated[:, 1 << np.arange(value.sig.n)] = 0.0
            worst = float(np.max(np.abs(conjugated)))
            if not worst <= bound:
                raise ValueError(f"conjugation does not preserve grade 1 (residual {worst:.3e}); not a rotor")
    return matrix


def forward_map(rotor: Rotor | Multivector, tol: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """Matrix of the conjugation action: column a holds S e_a S^-1 = S e_a reverse(S).

    P is read from signed permutations of S. ValueError unless S is even,
    S reverse(S) is 1 and every S e_a reverse(S) grade 1, over all
    coefficients, to tol times max(1, sum of squared coefficients), the
    size of their rounding (for q > 0 above the reverse-norm 1); a size
    that overflows fails. Geometric products run only when a closed-form
    bound is not within a quarter of that (_closed_form). A rotor from
    Rotor.checked at a tolerance of at most tol brings its matrix along.
    """
    kept = rotor._closed if isinstance(rotor, Rotor) else None
    if kept is not None and kept[1] <= require_tolerance(tol):
        return kept[0].copy()
    return _judge(rotor.value if isinstance(rotor, Rotor) else rotor, tol)


# ---------------------------------------------------------------------------
# Inverse direction: matrix -> rotor
# ---------------------------------------------------------------------------

def _check_method(method: str, n: int) -> None:
    if method not in ("general", "n3"):
        raise ValueError(f"unknown method {method!r}; expected 'general' or 'n3'")
    if method == "n3" and n != 3:
        raise ValueError(f"method 'n3' needs n = 3, got n = {n}")


def _minor_tables(arr: np.ndarray, n: int) -> _Tables:
    # The tables of the half sum L_F (see the module notes), each grade one
    # Laplace step from the last.
    tables = [batched_minors(arr, 0, None)]
    for k in range(1, (n + 1) // 2):
        tables.append(batched_minors(arr, k, tables[-1]))
    if n % 2 == 0:
        tables.append(batched_minors(arr, n // 2, tables[-1], math.comb(n - 1, n // 2)))
    return tables


@lru_cache(maxsize=None)
def _pair_signs(p: int, q: int, k: int, rows: int) -> np.ndarray:
    # Read-only int8 grid of sign(e_B e_A) sign(e_A e_A) over the last rows
    # grade-k masks B and every grade-k mask A, the rows of a minor table.
    sig, masks = Signature(p, q), grade_masks(p + q, k)
    signs = blade_signs(sig, masks[-rows:, None], masks) * blade_signs(sig, masks, masks)
    signs.setflags(write=False)
    return signs


def _assemble_general(sig: Signature, tables: _Tables, F: int) -> np.ndarray:
    # Coefficients of M_F = 2 L_F. The grade-0 term of L_F is e_F; one
    # bincount per higher grade accumulates every minor(P,B,A) e_B e_F e^A
    # term: sign(e_B e_F) * sign(e_{B^F} e_A) * sign(e_A e_A) at B ^ F ^ A.
    # The sign keys are linear in their first mask (clifford_core._Algebra),
    # so sign(e_{B^F} e_A) = sign(e_B e_A) sign(e_F e_A): the F-free part is
    # the cached _pair_signs grid, the rest a row and a column sign, read
    # from the signs of e_B e_F and e_F e_A over every mask. The terms are
    # binned at B ^ A and the total read at every mask ^ F. The weighted
    # minors are written B-major, whatever the layout of dets, so bincount
    # sums them in the order of the (B, A) table. The sign grid, the
    # weighted minors and the bin keys of a large grade live in this
    # thread's working buffers.
    every = np.arange(sig.dim)
    from_probe, to_probe = blade_signs(sig, every, F), blade_signs(sig, F, every)
    total = np.zeros(sig.dim)
    total[0] = 1.0
    for k, (masks, dets) in enumerate(tables[1:], 1):
        b = masks[-len(dets) :, None]
        signs = np.multiply(_pair_signs(sig.p, sig.q, k, len(dets)), from_probe[b] * to_probe[masks],
                            out=_scratch(0, dets.shape, np.int8))
        weights = np.multiply(dets, signs, out=_scratch(1, dets.shape))
        keys = np.bitwise_xor(b, masks, out=_scratch(2, dets.shape, np.int64))
        total += np.bincount(keys.ravel(), weights=weights.ravel(), minlength=sig.dim)
    return 2.0 * total[every ^ F]


def candidate_n3(matrix: object, sig: Signature, F: int) -> Multivector:
    """The paper's first-order L_F = e_F + sum p_a^b e_b e_F e^a for n = 3: M_F / 2.

    The matrix must pass membership at DEFAULT_TOLERANCE (MembershipError
    otherwise); then n must be 3 and F an even mask in 0..7 (ValueError otherwise).
    """
    arr = require_membership(matrix, sig)
    _check_method("n3", sig.n)
    F = _blade_mask(sig, F)
    if blade_grade(F) % 2:
        raise ValueError(f"probe blade {blade_name(F)} has odd grade")
    return Multivector(sig, _assemble_general(sig, _minor_tables(arr, sig.n), F) / 2.0)


def _probe_weights(sig: Signature, tables: _Tables) -> np.ndarray:
    # w_F = eps_F <M_F>_F = 2^n s_F^2 for every mask F (only the even ones
    # name probes): 2 eps_F sum_A (-1)^|A & F| det P[A, A] over the
    # principal minors in tables; |A^c & F| = |A & F| mod 2 for even F, so
    # the A in the half sum stand for their complements too. At n = 3 they
    # are d = (1, p11, p22, p33) on masks 0, 1, 2, 4.
    d = np.zeros(sig.dim)
    for masks, dets in tables:
        d[masks[-len(dets) :]] = np.diagonal(dets, masks.size - len(dets))
    return 2.0 * _algebra(sig.p, sig.q).norm_signs * _walsh_hadamard(d)


def select_candidate(matrix: object, sig: Signature) -> CandidateElement:
    """The candidate of the probe F with the largest weight w_F = 2^n s_F^2.

    Exact ties go to the first even blade in (grade, mask) order. Only this
    one candidate is assembled: for a matrix in SO+(p,q) it is the probe
    with the largest s_F^2, and since the s_F^2 over the 2^(n-1) even
    blades sum to at least 1, its w_F is at least 2 and it cannot vanish.

    The matrix must pass membership at DEFAULT_TOLERANCE (MembershipError
    otherwise). NoCandidateError, naming the candidate, is raised when its
    reverse-norm is not above RELATIVE_THRESHOLD x 4^n; no other probe is
    tried.
    """
    F, M, normsq = _select(require_membership(matrix, sig), sig)
    return CandidateElement(F, Multivector(sig, M), normsq)


def _select(arr: np.ndarray, sig: Signature) -> tuple[int, np.ndarray, float]:
    # select_candidate on a validated array, as (F, M_F coefficients, reverse-norm).
    # The probes are the even blades in (grade, mask) order; ties go to the first.
    # The large tables go to this thread's table store and never leave here.
    with _tables:
        tables = _minor_tables(arr, sig.n)
    evens = _layout(sig.n).probes
    F = int(evens[np.argmax(_probe_weights(sig, tables)[evens])])
    M = _assemble_general(sig, tables, F)
    normsq = float(np.dot(_algebra(sig.p, sig.q).norm_signs * M, M))  # squared_norm
    threshold = RELATIVE_THRESHOLD * float(sig.dim) ** 2
    if not normsq > threshold:
        raise NoCandidateError(
            f"no nonzero covering candidate: best reverse-norm {normsq:.6g} at "
            f"F = {blade_name(F)} (threshold {threshold:.6g}) for matrix\n{np.array2string(arr)}"
        )
    return F, M, normsq


def matrix_to_rotor(
    matrix: object,
    sig: Signature,
    method: Method = "general",
    tol: float = DEFAULT_TOLERANCE,
) -> Rotor:
    """One of the two rotors covering the given SO+(p,q) matrix.

    The result is the sign-canonicalized M_F / sqrt(2^n eps_F <M_F>_F) of
    select_candidate, with probe F; the other preimage is its negation.
    The matrix must pass membership at tol (MembershipError otherwise);
    call project_to_group first to repair a noisy input. Both methods
    recover the same rotor; "n3" checks that n = 3 (ValueError after
    membership otherwise). NoCandidateError is also raised on a
    non-positive normalizer, which no SO+(p,q) matrix gives.
    """
    arr = require_membership(matrix, sig, tol)
    _check_method(method, sig.n)
    F, M, _ = _select(arr, sig)
    weight = float(sig.dim) * _algebra(sig.p, sig.q).norm_signs[F] * M[F]
    if not weight > 0.0:
        raise NoCandidateError(
            f"candidate at F = {blade_name(F)} has non-positive normalizer {weight:.6g}; "
            f"the matrix is not in SO+({sig.p},{sig.q})"
        )
    S = M / math.sqrt(weight)
    if S[np.argmax(np.abs(S))] < 0:  # Rotor.canonicalized
        np.negative(S, out=S)
    return Rotor(Multivector(sig, S), F)
