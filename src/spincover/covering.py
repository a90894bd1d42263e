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
when s_F does. D_F = diag(-1 on F, +1 elsewhere) is the matrix of e_F,
and one rule ranks the probes, one batched determinant over the even F:

    w_F = eps_F det(I + P D_F) = 2^n s_F^2,

with exact ties to the first F in (grade, mask) order. Only the candidate
of the largest w_F is assembled; no other probe is tried. Expanded over
principal minors, det(I + P D_F) is the Walsh-Hadamard transform
sum over A of (-1)^|A & F| det P[A, A], which is <M_F>_F, as only the
B = A terms reach e_F. The rotor is M_F / sqrt(2^n eps_F <M_F>_F), up to
sign. The reverse-norm reverse(M_F) M_F = 4^n s_F^2 would give the same
divisor in exact arithmetic, but for q > 0 it is an indefinite sum of
squares that cancels catastrophically on large boosts, so it only tests
that the chosen candidate is nonzero.

Off the group the halving fails. On an element of O(p,q) the full sum is
(1 + det P) L_F, which vanishes for det P = -1 while L_F need not, so
every entry point checks membership first.

matrix_to_rotor assembles that candidate below n = 5 (_CAYLEY_FROM). From
n = 5 on it takes the Cayley transform instead (Lipschitz, "Untersuchungen
ueber die Summen von Quadraten", 1886; Lounesto, Clifford Algebras and
Spinors, 2nd ed., 2001; Higham, "J-orthogonal matrices: properties and
generation", SIAM Review 45, 2003), in O(n^3 + n 2^n) where the minors
take O(4^n) and their error grows as eps |P|_F^2. P D_F is the matrix of
S e_F. Its Cayley transform Omega = (P D_F - I)(P D_F + I)^-1 is one
solve, eta-antisymmetric (Omega^T eta = -eta Omega), so K = Omega eta is
antisymmetric, and

    S e_F = s_F eps'_F sum over even I of Pf(K_I) e_I,

with Pf(K_I) the Pfaffian of K on the rows and columns of I and eps'_F the
sign of e_F e_F. So S = s_F sum of Pf(K_I) e_I e_F, every
Pf(K_I) = +-s_{I^F} / s_F, and s_F^2 is w_F / 2^n. The Pfaffians come
grade by grade from the first-row expansion, one gather per even grade.

The probe must have s_F != 0, as I + P D_F is singular otherwise, and the
largest |s_F| keeps the solve best conditioned. The pass at F = 0 gives
|Pf(K_I)| = |s_I / s_0|, whose largest entry, first in (grade, mask)
order, names F; a second pass at that F certifies it when no |Pf(K_I)|
exceeds 1 and w_F >= 2 (the s_F^2 sum to at least 1 over the 2^(n-1) even
F), each up to rounding. A singular solve, which exact half turns give at
F = 0, or an F not certified falls back to the probe rule above. The
recovered S must pass the rotor rule at the caller's tolerance, and its
own matrix must lie within membership's bound of the input, or
NoCandidateError names why.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal

import numpy as np

from .clifford_core import (
    MAX_DIMENSION,
    Multivector,
    Signature,
    _algebra,
    _blade_mask,
    _layout,
    _pair_sums,
    blade_grade,
    blade_name,
    blade_signs,
    grade_masks,
    squared_norm,
)
from .matrix_group import (
    DEFAULT_TOLERANCE,
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

#: Recoveries of n >= _CAYLEY_FROM generators go through the Cayley transform.
_CAYLEY_FROM = 5

#: A probe F is certified when no |Pf(K_I)| = |s_{I^F} / s_F| exceeds
#: 1 + _PROBE_SLACK and w_F = 2^n s_F^2 is at least 2 - _PROBE_SLACK.
_PROBE_SLACK = 2.0**-26

#: Signs (-1)^j of the terms of a Pfaffian's first-row expansion, j = 2, 3, ...
_ALTERNATING = np.resize([1.0, -1.0], MAX_DIMENSION)

#: From _MAPPED bytes, glibc's default mmap threshold, a freed temporary
#: tends to go back to the kernel, so each call would fault it in again; the
#: closed form's three of that size (n = 12 only) are kept per thread in _held.
_MAPPED = 128 * 1024
_held = threading.local()


class NoCandidateError(RuntimeError):
    """The candidate of the largest-weight probe is unusable.

    Either its reverse-norm is ~ 0 or its normalizer is not positive, or,
    from n = 5 on, the rotor fails the rotor rule or its matrix misses the
    input by more than membership allows; no matrix in SO+(p,q) gives any
    of these to working precision, and no other probe is tried.
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
    # (matrix, tol) from _judge, set by checked and by matrix_to_rotor from
    # n = 5 on, and kept for forward_map.
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

def _conjugated_generators(value: Multivector, right: Multivector) -> np.ndarray:
    # (n, 2^n) rows value e_a right of any value: the signed shifts value e_a,
    # then their products with right in one grouped pair-sum call, each row
    # the sum that geometric_product would give.
    value._check_sig(right)
    partners, signs = _generator_shifts(value.sig.p, value.sig.q)
    return _pair_sums(value.sig, signs * value.coeffs[partners], right.coeffs)


@lru_cache(maxsize=None)
def _generator_shifts(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    # Read-only full-width partners B = C ^ e_a and int8 signs of e_B e_a at
    # [a, C]: (value e_a)[C] = sign * value[B]. The forward map's closed form
    # reads only the odd masks C (clifford_core._Layout), so this table is
    # made on the first conjugation product of its signature.
    sig, bits = Signature(p, q), (1 << np.arange(p + q))[:, None]
    partners = np.arange(sig.dim) ^ bits
    signs = blade_signs(sig, partners, bits)
    for table in (partners, signs):
        table.setflags(write=False)
    return partners, signs


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
    # are this thread's _temporaries at n = 12; every returned piece is a new
    # array.
    partners, algebra = _layout(value.sig.n).partners, _algebra(value.sig.p, value.sig.q)
    moved, left, work = _temporaries(partners.shape)
    moved = value.coeffs.take(partners, out=moved, mode="wrap")
    left = np.multiply(algebra.left_signs, moved, out=left)
    right = np.multiply(algebra.right_signs, moved, out=moved)
    eta = np.diag(algebra.eta)
    work = np.multiply(left, algebra.odd_norm_signs, out=work)
    matrix = eta[:, None] * (work @ right.T)
    norm = math.sqrt(float(np.dot(value.coeffs, value.coeffs)))
    unit = abs(squared_norm(value) - 1.0)
    np.subtract(left, np.matmul(eta[:, None] * matrix * eta, right, out=work), out=work)
    unit += norm * np.sum(_row_norms(work))
    np.subtract(right, np.matmul(matrix.T, left, out=work), out=work)
    return matrix, float(unit), np.sum(np.abs(matrix), axis=0), _row_norms(work) * norm


def _temporaries(shape: tuple[int, int]) -> tuple[np.ndarray | None, ...]:
    # The out= arrays of the closed form's three temporaries: Nones below
    # _MAPPED bytes, so numpy allocates, else the calling thread's own three
    # float64 arrays, made on its first call (only n = 12 reaches _MAPPED,
    # so one shape); no view may outlive the call.
    if 8 * shape[0] * shape[1] < _MAPPED:
        return None, None, None
    if not hasattr(_held, "arrays"):
        _held.arrays = tuple(np.empty(shape) for _ in range(3))
    return _held.arrays


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
    # Coefficients of M_F = 2 L_F for an even probe F. The grade-0 term of
    # L_F is e_F; one bincount per higher grade accumulates every
    # minor(P,B,A) e_B e_F e^A term: sign(e_B e_F) * sign(e_{B^F} e_A) *
    # sign(e_A e_A) at B ^ F ^ A. The sign keys are linear in their first
    # mask (clifford_core._Algebra), so sign(e_{B^F} e_A) = sign(e_B e_A)
    # sign(e_F e_A): the F-free part is the cached _pair_signs grid, the
    # rest a row and a column sign. With y the key of F, sign(e_F e_A) is
    # (-1)^|A & y|, and as F is even sign(e_B e_F) = (-1)^|B & F| sign(e_F e_B)
    # = (-1)^|B & (y ^ F)|: both are parities, read from the layout in one
    # gather. The terms are binned at B ^ A and the total read at every
    # mask ^ F. The weighted minors are written B-major, whatever the layout
    # of dets, so bincount sums them in the order of the (B, A) table.
    every = np.arange(sig.dim)
    y = int(_algebra(sig.p, sig.q).keys[F])
    from_probe, to_probe = _layout(sig.n).parities[every & np.array([[y ^ F], [y]])]
    total = np.zeros(sig.dim)
    total[0] = 1.0
    for k, (masks, dets) in enumerate(tables[1:], 1):
        b = masks[-len(dets) :, None]
        weights = dets * (_pair_signs(sig.p, sig.q, k, len(dets)) * (from_probe[b] * to_probe[masks]))
        total += np.bincount((b ^ masks).ravel(), weights=weights.ravel(), minlength=sig.dim)
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


def select_candidate(matrix: object, sig: Signature) -> CandidateElement:
    """The candidate of the probe F with the largest w_F = eps_F det(I + P D_F).

    w_F = 2^n s_F^2 (see the module notes); exact ties go to the first even
    blade in (grade, mask) order. Only this one candidate is assembled: for
    a matrix in SO+(p,q) it is the probe with the largest s_F^2, and since
    the s_F^2 over the 2^(n-1) even blades sum to at least 1, its w_F is at
    least 2 and it cannot vanish.

    The matrix must pass membership at DEFAULT_TOLERANCE (MembershipError
    otherwise). NoCandidateError, naming the candidate, is raised when its
    reverse-norm is not above RELATIVE_THRESHOLD x 4^n; no other probe is
    tried.
    """
    F, M, normsq = _select(require_membership(matrix, sig), sig)
    return CandidateElement(F, Multivector(sig, M), normsq)


def _select(arr: np.ndarray, sig: Signature) -> tuple[int, np.ndarray, float]:
    # select_candidate on a validated array, as (F, M_F coefficients, reverse-norm).
    F, _ = _best_probe(arr, sig)
    M = _assemble_general(sig, _minor_tables(arr, sig.n), F)
    normsq = float(np.dot(_algebra(sig.p, sig.q).norm_signs * M, M))  # squared_norm
    threshold = RELATIVE_THRESHOLD * float(sig.dim) ** 2
    if not normsq > threshold:
        raise NoCandidateError(
            f"no nonzero covering candidate: best reverse-norm {normsq:.6g} at "
            f"F = {blade_name(F)} (threshold {threshold:.6g}) for matrix\n{np.array2string(arr)}"
        )
    return F, M, normsq


@lru_cache(maxsize=None)
def _pfaffian_indices(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    # Per even grade k >= 2, over its ascending masks I = {i_1 < ... < i_k}:
    # the masks, and as (k - 1, m) int32 arrays the flat index i_1 n + i_j of
    # K[i_1, i_j] and the mask of I - i_1 - i_j, for j = 2..k; 82 KiB at n = 12.
    out = []
    for masks in _layout(n).grade_masks[2::2]:
        bits = np.nonzero((masks[:, None] >> np.arange(n)) & 1)[1].reshape(masks.size, -1).T
        low, rest = bits[0], bits[1:]
        pairs, rests = (low * n + rest).astype(np.int32), (masks ^ (1 << low) ^ (1 << rest)).astype(np.int32)
        for index in (pairs, rests):
            index.setflags(write=False)
        out.append((masks, pairs, rests))
    return tuple(out)


def _pfaffians(arr: np.ndarray, sig: Signature, F: int) -> np.ndarray:
    # Pf(K_I) at every mask I (0 at the odd ones) for the probe F, with
    # Omega = (P D_F + I)^-1 (P D_F - I) by one solve and K the antisymmetric
    # part of Omega eta, which is all of it on the group; LinAlgError when
    # P D_F + I is singular. Each even grade is one gather and one dot of
    # the first-row expansion
    # Pf(K_I) = sum over j >= 2 of (-1)^j K[i_1, i_j] Pf(K_{I - i_1 - i_j}).
    moved = arr * _layout(sig.n).parities[1 << np.arange(sig.n) & F]
    identity = np.eye(sig.n)
    K = np.linalg.solve(moved + identity, moved - identity) * np.diag(_algebra(sig.p, sig.q).eta)
    flat = (0.5 * (K - K.T)).ravel()
    pf = np.zeros(sig.dim)
    pf[0] = 1.0
    for masks, pairs, rests in _pfaffian_indices(sig.n):
        pf[masks] = _ALTERNATING[: len(pairs)] @ (flat.take(pairs) * pf.take(rests))
    return pf


def _weights(arr: np.ndarray, sig: Signature, probes: np.ndarray) -> np.ndarray:
    # w_F = eps_F det(I + P D_F) = 2^n s_F^2 for each probe F, by one
    # batched determinant.
    flips = _layout(sig.n).parities[probes[:, None] & 1 << np.arange(sig.n)]
    return _algebra(sig.p, sig.q).norm_signs[probes] * np.linalg.det(arr * flips[:, None, :] + np.eye(sig.n))


def _best_probe(arr: np.ndarray, sig: Signature) -> tuple[int, float]:
    # (F, w_F) by the probe rule of the module notes: the largest w_F over
    # the even blades in (grade, mask) order, ties to the first.
    evens = _layout(sig.n).probes
    weights = _weights(arr, sig, evens)
    best = int(np.argmax(weights))
    return int(evens[best]), float(weights[best])


def _cayley(arr: np.ndarray, sig: Signature) -> tuple[int, np.ndarray, float]:
    # (F, Pf(K_I) at every mask I, w_F) for the probe F of the largest s_F^2:
    # the pass at F = 0 names F and a pass at F certifies it. The s_F^2 sum
    # to at least 1, so the largest has w_F >= 2; a singular solve, or an F
    # with some |Pf(K_I)| = |s_{I^F} / s_F| above 1 or with w_F below 2,
    # beyond rounding, leaves the choice to the probe rule, _best_probe.
    evens = _layout(sig.n).probes
    try:
        pf = _pfaffians(arr, sig, 0)
        F = int(evens[np.argmax(np.abs(pf[evens]))])
        if F:
            pf = _pfaffians(arr, sig, F)
        weight = float(_weights(arr, sig, np.array([F]))[0])
        if np.max(np.abs(pf[evens])) <= 1.0 + _PROBE_SLACK and weight >= 2.0 - _PROBE_SLACK:
            return F, pf, weight
    except np.linalg.LinAlgError:
        pass
    F, weight = _best_probe(arr, sig)
    weight = _positive(sig, F, weight)
    return F, _pfaffians(arr, sig, F), weight


def _positive(sig: Signature, F: int, weight: float) -> float:
    # The normalizer w_F itself when it is positive, as on SO+(p,q).
    if not weight > 0.0:
        raise NoCandidateError(
            f"candidate at F = {blade_name(F)} has non-positive normalizer {weight:.6g}; "
            f"the matrix is not in SO+({sig.p},{sig.q})"
        )
    return weight


def matrix_to_rotor(
    matrix: object,
    sig: Signature,
    method: Method = "general",
    tol: float = DEFAULT_TOLERANCE,
) -> Rotor:
    """One of the two rotors covering the given SO+(p,q) matrix.

    Below n = 5 the result is the sign-canonicalized M_F / sqrt(2^n eps_F
    <M_F>_F) of select_candidate, with probe F. From n = 5 on it is the
    sign-canonicalized rotor of the Cayley transform (see the module notes),
    whose probe F is that of select_candidate up to rounding of near ties;
    it has passed the rotor rule of Rotor.checked at tol, so forward_map at
    tol returns its matrix without judging again. The other preimage is the
    negation. The matrix must pass membership at tol (MembershipError
    otherwise); project_to_group repairs some noisy inputs, not all. Both
    methods recover the same rotor; "n3" checks that n = 3 (ValueError
    after membership otherwise). NoCandidateError is raised on a
    non-positive normalizer, which no SO+(p,q) matrix gives, and from n = 5
    on when the rotor fails the rule at tol or its matrix misses the input
    by more than tol * max(1, max |P|)^2, the bound of membership.
    """
    arr = require_membership(matrix, sig, tol)
    _check_method(method, sig.n)
    if sig.n >= _CAYLEY_FROM:
        return _cayley_rotor(arr, sig, tol)
    F, M, _ = _select(arr, sig)
    weight = _positive(sig, F, float(sig.dim) * _algebra(sig.p, sig.q).norm_signs[F] * M[F])
    return _canonical(sig, M / math.sqrt(weight), F)


def _canonical(sig: Signature, S: np.ndarray, F: int) -> Rotor:
    # Rotor.canonicalized, with the sign flipped in place on S.
    if S[np.argmax(np.abs(S))] < 0:
        np.negative(S, out=S)
    return Rotor(Multivector(sig, S), F)


def _cayley_rotor(arr: np.ndarray, sig: Signature, tol: float) -> Rotor:
    # matrix_to_rotor from n = _CAYLEY_FROM on: S = s_F sum over even I of
    # Pf(K_I) e_I e_F, with sign(e_I e_F) = (-1)^|I & (y ^ F)| as in
    # _assemble_general. S must pass the rotor rule at tol and cover the
    # input within membership's bound tol * max(1, max |P|)^2: an input
    # off the group that membership admits can give a rotor of the rule
    # whose own matrix is far from it.
    F, pf, weight = _cayley(arr, sig)
    layout = _layout(sig.n)
    S = np.zeros(sig.dim)
    signs = layout.parities[layout.probes & (int(_algebra(sig.p, sig.q).keys[F]) ^ F)]
    S[layout.probes ^ F] = math.sqrt(weight / sig.dim) * signs * pf[layout.probes]
    rotor = _canonical(sig, S, F)
    try:
        matrix = _judge(rotor.value, tol)
    except ValueError as exc:
        raise NoCandidateError(
            f"the rotor recovered at F = {blade_name(F)} fails the rotor rule (unit residual "
            f"{rotor.unit_residual():.3e}): {exc}"
        ) from None
    miss, bound = float(np.max(np.abs(matrix - arr))), tol * max(1.0, float(np.max(np.square(arr))))
    if not miss <= bound:
        raise NoCandidateError(
            f"the rotor recovered at F = {blade_name(F)} covers a matrix {miss:.3e} away from the input "
            f"(tolerance {bound:.3e}); the matrix is not in SO+({sig.p},{sig.q}) to working precision"
        )
    object.__setattr__(rotor, "_closed", (matrix, tol))
    return rotor
