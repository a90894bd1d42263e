"""Independent reference implementations used to cross-check the package.

Everything here but the last function shares no code or representation
with the package under test. Most of it works on index tuples and dicts
with explicit bubble-sort sign bookkeeping and Laplace-expansion
determinants: deliberately naive, slow, and meant for small n only. The
full-grade covering sum and the gathered closed form use numpy arrays to
reach n = 12; the exact Cayley pair uses Fractions alone. The last function, reference_matrix_to_rotor, is the
package's earlier recovery pipeline, kept to pin its outputs and
exceptions bit for bit; it reuses the package's minor tables and signs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


def naive_blade_product(
    a: tuple[int, ...], b: tuple[int, ...], p: int, q: int
) -> tuple[int, tuple[int, ...]]:
    """Product of basis blades given as ascending 1-based index tuples.

    Concatenates the index lists, then bubble-sorts: each swap of distinct
    neighbors flips the sign, and each adjacent equal pair contracts to its
    metric square (+1 for indices <= p, -1 above).
    """
    seq = list(a) + list(b)
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(seq) - 1:
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
            elif seq[i] == seq[i + 1]:
                sign *= 1 if seq[i] <= p else -1
                del seq[i : i + 2]
                changed = True
            else:
                i += 1
    return sign, tuple(seq)


def naive_reversion_sign(blade: tuple[int, ...]) -> int:
    """Sign produced by writing the blade's generators in reverse order."""
    seq = list(reversed(blade))
    sign = 1
    for _ in range(len(seq)):
        for j in range(len(seq) - 1):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


def naive_blade_inverse(blade: tuple[int, ...], p: int, q: int) -> tuple[int, tuple[int, ...]]:
    square, rest = naive_blade_product(blade, blade, p, q)
    assert rest == ()
    return square, blade


# Multivectors as {index-tuple: coefficient} dicts.

def naive_product(u: dict, v: dict, p: int, q: int) -> dict:
    out: dict[tuple[int, ...], float] = {}
    for a, x in u.items():
        for b, y in v.items():
            sign, blade = naive_blade_product(a, b, p, q)
            out[blade] = out.get(blade, 0.0) + sign * x * y
    return {blade: c for blade, c in out.items() if c != 0.0}


def naive_reverse(u: dict) -> dict:
    return {blade: naive_reversion_sign(blade) * c for blade, c in u.items()}


def naive_center_sum(u: dict, p: int, q: int) -> dict:
    """Direct sum of e_A u e^A over every basis blade A."""
    n = p + q
    total: dict[tuple[int, ...], float] = {}
    for k in range(n + 1):
        for blade in combinations(range(1, n + 1), k):
            inv_sign, _ = naive_blade_inverse(blade, p, q)
            term = naive_product(
                naive_product({blade: 1.0}, u, p, q), {blade: float(inv_sign)}, p, q
            )
            for b, c in term.items():
                total[b] = total.get(b, 0.0) + c
    return {blade: c for blade, c in total.items() if c != 0.0}


def corollary_expansion(frame: list[dict], probe: tuple[int, ...], p: int, q: int) -> dict:
    """Direct probe expansion over frame products: sum of beta_A e_F e^A.

    frame[a] is the vector beta_(a+1) and beta_A the product of the frame
    vectors named by the blade A (empty product = 1). Agrees with the
    general candidate built from the frame's coordinate matrix, without
    any minor; exponential cost.
    """
    n = p + q
    total: dict[tuple[int, ...], float] = {}
    for k in range(n + 1):
        for blade in combinations(range(1, n + 1), k):
            beta: dict[tuple[int, ...], float] = {(): 1.0}
            for i in blade:
                beta = naive_product(beta, frame[i - 1], p, q)
            inv_sign, _ = naive_blade_inverse(blade, p, q)
            term = naive_product(
                naive_product(beta, {probe: 1.0}, p, q), {blade: float(inv_sign)}, p, q
            )
            for b, c in term.items():
                total[b] = total.get(b, 0.0) + c
    return {blade: c for blade, c in total.items() if c != 0.0}


def naive_det(matrix: list[list[float]]) -> float:
    """Laplace expansion along the first row."""
    n = len(matrix)
    if n == 0:
        return 1.0
    if n == 1:
        return matrix[0][0]
    total = 0.0
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1.0) ** j * matrix[0][j] * naive_det(sub)
    return total


def naive_minor(matrix: list[list[float]], rows: tuple[int, ...], cols: tuple[int, ...]) -> float:
    """Minor with 1-based ascending index tuples."""
    sub = [[matrix[r - 1][c - 1] for c in cols] for r in rows]
    return naive_det(sub)


def mask_to_blade(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def blade_to_mask(blade: tuple[int, ...]) -> int:
    mask = 0
    for i in blade:
        mask |= 1 << (i - 1)
    return mask


def coeffs_to_dict(coeffs) -> dict:
    return {mask_to_blade(m): float(c) for m, c in enumerate(coeffs) if c != 0.0}


def dict_to_coeffs(d: dict, n: int) -> list[float]:
    out = [0.0] * (1 << n)
    for blade, c in d.items():
        out[blade_to_mask(blade)] += c
    return out


# The full-grade covering sum: the minors are numpy's LU determinants of
# gathered submatrices, and the blade signs come from counting swaps
# generator by generator.

def _popcounts(n: int) -> list[int]:
    return [bin(mask).count("1") for mask in range(1 << n)]


def vectorized_blade_sign(a, b, n: int, p: int):
    """Signs of e_a e_b over broadcast mask arrays: each generator j of b
    moves left past the generators of a above it, and each shared
    generator above p squares to -1."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    pop = np.array(_popcounts(n))
    swaps = sum(((b >> j) & 1) * pop[a >> (j + 1)] for j in range(n))
    negative = pop[a & b & (((1 << n) - 1) ^ ((1 << p) - 1))]
    return 1 - 2 * ((swaps + negative) & 1)


def full_minor_tables(matrix) -> list:
    """(masks, dets) for every grade 0..n: dets[i, j] = det P[masks[i], masks[j]]."""
    arr = np.asarray(matrix, dtype=np.float64)
    n = arr.shape[0]
    pop = _popcounts(n)
    tables = []
    for k in range(n + 1):
        masks = np.array([m for m in range(1 << n) if pop[m] == k], dtype=np.int64)
        if k == 0:
            tables.append((masks, np.ones((1, 1))))
            continue
        index = np.array([[i for i in range(n) if m >> i & 1] for m in masks.tolist()])
        dets = np.empty((masks.size, masks.size))
        for r, rows in enumerate(index):
            dets[r] = np.linalg.det(arr[rows][:, index].transpose(1, 0, 2))
        tables.append((masks, dets))
    return tables


def full_grade_candidate(tables, probe: int, n: int, p: int):
    """(M_F, T): the coefficients of sum over every grade and every (B, A) of
    minor(P, B, A) e_B e_F e^A, and per coefficient the sum T of the
    magnitudes of its terms, the scale of its rounding."""
    total, size = np.zeros(1 << n), np.zeros(1 << n)
    for masks, dets in tables:
        b, a = masks[:, None], masks[None, :]
        signs = (
            vectorized_blade_sign(b, probe, n, p)
            * vectorized_blade_sign(b ^ probe, a, n, p)
            * vectorized_blade_sign(a, a, n, p)
        )
        target = (b ^ probe ^ a).ravel()
        total += np.bincount(target, weights=(signs * dets).ravel(), minlength=1 << n)
        size += np.bincount(target, weights=np.abs(dets).ravel(), minlength=1 << n)
    return total, size


def full_grade_weights(tables, n: int, p: int):
    """(w, T): w_F = eps_F sum over all 2^n masks A of (-1)^|A & F| det P[A, A],
    the e_F coefficient of M_F times the sign of reverse(e_F) e_F, and T the
    sum of the magnitudes of its terms, the same for every F."""
    pop = np.array(_popcounts(n))
    principal = np.zeros(1 << n)
    for masks, dets in tables:
        principal[masks] = np.diagonal(dets)
    every = np.arange(1 << n)
    weights = np.empty(1 << n)
    for start in range(0, 1 << n, 256):
        probes = every[start : start + 256, None]
        weights[start : start + 256] = (1 - 2 * (pop[probes & every] & 1)) @ principal
    negative = ((1 << n) - 1) ^ ((1 << p) - 1)
    return (1 - 2 * (pop[every & negative] & 1)) * weights, float(np.sum(np.abs(principal)))


def gathered_closed_form(coeffs, p: int, q: int, masks=None):
    """(P, unit, columns, slips) in the arithmetic of covering._closed_form,
    with the shifted copies S e_a and e_a S gathered on the odd masks C
    through an int64 partner index C ^ e_a per call and every sign from
    vectorized_blade_sign: the pieces the package must reproduce bit for
    bit. An even S moves only onto odd masks; a value with even-grade
    shifted parts loses them here as in the package. masks = every mask
    gives the full-width product that the package read before. unit takes
    no grade-n term of S reverse(S) at odd n: it is zero for an even S, the
    only kind the rotor rule reads, and the package leaves it out."""
    n = p + q
    c = np.asarray(coeffs, dtype=np.float64)
    pop = np.array(_popcounts(n))
    every = np.arange(1 << n)
    cols = every[pop & 1 == 1] if masks is None else np.asarray(masks)
    bits = (1 << np.arange(n))[:, None]
    partner = cols ^ bits
    moved = c[partner]
    right = vectorized_blade_sign(partner, bits, n, p) * moved
    left = vectorized_blade_sign(bits, partner, n, p) * moved
    reverse_norm = 1 - 2 * (pop[every & (((1 << n) - 1) ^ ((1 << p) - 1))] & 1)
    eta = np.array([1.0] * p + [-1.0] * q)
    matrix = eta[:, None] * ((left * reverse_norm[cols]) @ right.T)
    norm = math.sqrt(float(np.dot(c, c)))
    unit = abs(float(np.dot(reverse_norm * c, c)) - 1.0)
    unit += norm * np.sum(np.linalg.norm(left - (eta[:, None] * matrix * eta) @ right, axis=1))
    slips = np.linalg.norm(right - matrix.T @ left, axis=1) * norm
    return matrix, float(unit), np.sum(np.abs(matrix), axis=0), slips


def exact_cayley_pair(K: list[list[Fraction]], p: int):
    """(P, S, N) for a rational antisymmetric K, n = len(K), exactly.

    With eta = diag(+1 x p, -1 x q) and Omega = eta K, which is
    eta-antisymmetric, P = (I - Omega)^-1 (I + Omega) is in SO(p,q), by
    Gauss-Jordan elimination over Fractions (Lipschitz 1886; Higham,
    "J-orthogonal matrices", SIAM Review 45, 2003). The even multivector
    X = sum over even subsets I of Pf(eta K eta restricted to I) e_I, each
    Pfaffian expanded along its first row by plain recursion, covers P up
    to scale; N = sum of eps_I X_I^2 is its exact reverse-norm, with eps_I
    the product of eta over I. P is orthochronous exactly when N > 0, and
    then S = X / sqrt(N) (a dict of float coefficients by mask, each
    rounded once) is a rotor of P. P is returned as a list of Fraction rows.
    N = det(I - Omega), so for N = 0 there is no P and (None, None, 0) returns.
    """
    n = len(K)
    eta = [1 if a < p else -1 for a in range(n)]
    tilde = [[eta[a] * eta[b] * K[a][b] for b in range(n)] for a in range(n)]
    memo: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}

    def pfaffian(index: tuple[int, ...]) -> Fraction:
        if index not in memo:
            first, rest = index[0], index[1:]
            memo[index] = sum(
                (-1) ** j * tilde[first][rest[j]] * pfaffian(rest[:j] + rest[j + 1 :]) for j in range(len(rest))
            )
        return memo[index]

    X = {sum(1 << a for a in index): pfaffian(index) for k in range(0, n + 1, 2) for index in combinations(range(n), k)}
    N = sum(_eps(m, eta) * x * x for m, x in X.items())
    if N == 0:
        return None, None, N
    left = [[Fraction(int(a == b)) - eta[a] * K[a][b] for b in range(n)] for a in range(n)]
    right = [[Fraction(int(a == b)) + eta[a] * K[a][b] for b in range(n)] for a in range(n)]
    P = _gauss_jordan(left, right)
    S = {m: math.copysign(_float_sqrt(x * x / N), x) for m, x in X.items() if x} if N > 0 else None
    return P, S, N


def _eps(mask: int, eta: list[int]) -> int:
    # the sign of reverse(e_I) e_I: the product of eta over the generators of I
    return math.prod(eta[a] for a in range(len(eta)) if mask >> a & 1)


def _float_sqrt(x: Fraction) -> float:
    # sqrt(x) for x > 0, rounded once up to the floor of an integer square
    # root of at least 128 bits, far below a float64 rounding step.
    shift = 128 + x.denominator.bit_length()
    return float(Fraction(math.isqrt((x.numerator << 2 * shift) // x.denominator), 1 << shift))


def _gauss_jordan(A: list[list[Fraction]], B: list[list[Fraction]]) -> list[list[Fraction]]:
    """X with A X = B, by Gauss-Jordan elimination with a nonzero pivot; A is nonsingular."""
    n = len(A)
    rows = [A[r][:] + B[r][:] for r in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        lead = rows[c][c]
        rows[c] = [x / lead for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                factor = rows[r][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def reference_matrix_to_rotor(matrix, sig, method: str = "general", tol: float = 1e-9):
    """matrix_to_rotor as the package computed it before it validated once.

    check_membership built eta with np.diag; select_candidate coerced the
    matrix again and refused det P < 0; the probes were ranked by a
    Walsh-Hadamard transform of the principal minors, whose butterfly
    copied both halves per pass, so this is now the independent check of
    the package's determinant rule w_F = eps_F det(I + P D_F); the
    candidate was a Multivector at every step, normalized by a Rotor and
    canonicalized by Rotor.canonicalized. The steps the package kept
    (coercion rules, minor tables, sign grids, the report and the
    exception classes) are called from the package.
    """
    from spincover import covering
    from spincover.clifford_core import Multivector, _algebra, _real_array, blade_name, blade_signs
    from spincover.covering import RELATIVE_THRESHOLD, CandidateElement, NoCandidateError, Rotor
    from spincover.matrix_group import MembershipError, MembershipReport, require_tolerance

    def as_square_matrix(values):
        arr = _real_array(values, "matrix entries")
        if arr.shape != (sig.n, sig.n):
            raise ValueError(f"expected a {sig.n}x{sig.n} matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        return arr

    def walsh_hadamard(v):
        w = v.copy()
        for bit in range(w.size.bit_length() - 1):
            pairs = w.reshape(-1, 2, 1 << bit)
            low, high = pairs[:, 0].copy(), pairs[:, 1].copy()
            pairs[:, 0], pairs[:, 1] = low + high, low - high
        return w

    def assemble(tables, F):
        every = np.arange(sig.dim)
        with_probe = blade_signs(sig, every, F)
        total = np.zeros(sig.dim)
        for k, (masks, dets) in enumerate(tables):
            b = masks[-len(dets) :, None]
            signs = covering._pair_signs(sig.p, sig.q, k, len(dets)) * (with_probe[b] * blade_signs(sig, F, masks))
            total += np.bincount((b ^ masks).ravel(), weights=(dets * signs).ravel(), minlength=sig.dim)
        return Multivector(sig, total[every ^ F])

    require_tolerance(tol)
    arr = as_square_matrix(matrix)
    eta = np.diag(np.array([1.0] * sig.p + [-1.0] * sig.q))
    residual = float(np.max(np.abs(arr.T @ eta @ arr - eta)))
    det = float(np.linalg.det(arr))
    orient = 1.0 if sig.p == 0 else float(np.linalg.det(arr[: sig.p, : sig.p]))
    scale = max(1.0, float(np.max(np.square(arr))))
    report = MembershipReport(sig, residual, det, orient, tol, scale)
    if not report.ok:
        raise MembershipError(report)
    covering._check_method(method, sig.n)

    arr = as_square_matrix(np.asarray(matrix, dtype=np.float64))
    det = float(np.linalg.det(arr))
    if det < 0.0:
        raise NoCandidateError(
            f"no covering candidate: determinant {det:.6g} is negative for matrix\n{np.array2string(arr)}"
        )
    tables = covering._minor_tables(arr, sig.n)
    d = np.zeros(sig.dim)
    for masks, dets in tables:
        d[masks[-len(dets) :]] = np.diagonal(dets, masks.size - len(dets))
    weights = 2.0 * _algebra(sig.p, sig.q).norm_signs * walsh_hadamard(d)
    # Even probes in (grade, mask) order; ties go to the first.
    evens = np.array(sorted((m for m in range(sig.dim) if m.bit_count() % 2 == 0), key=lambda m: (m.bit_count(), m)))
    F = int(evens[np.argmax(weights[evens])])
    M = 2.0 * assemble(tables, F)
    cand = CandidateElement(F, M, float(np.dot(_algebra(sig.p, sig.q).norm_signs * M.coeffs, M.coeffs)))
    threshold = RELATIVE_THRESHOLD * float(sig.dim) ** 2
    if not cand.normsq > threshold:
        raise NoCandidateError(
            f"no nonzero covering candidate: best reverse-norm {cand.normsq:.6g} at "
            f"F = {cand.blade} (threshold {threshold:.6g}) for matrix\n{np.array2string(arr)}"
        )
    weight = float(sig.dim) * _algebra(sig.p, sig.q).norm_signs[F] * M.coeffs[F]
    if not weight > 0.0:
        raise NoCandidateError(
            f"candidate at F = {blade_name(F)} has non-positive normalizer {weight:.6g}; "
            f"the matrix is not in SO+({sig.p},{sig.q})"
        )
    return Rotor(M / math.sqrt(weight), F).canonicalized()
