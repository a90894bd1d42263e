"""Real Clifford algebra Cl(p,q) with dense bitmask-indexed coefficients.

Basis blades are indexed by bitmasks over the n = p + q generator slots:
bit i set means generator e_{i+1} is present. For n = 3:

    mask 0b000 = 0 : 1      (scalar)
    mask 0b001 = 1 : e1
    mask 0b010 = 2 : e2
    mask 0b011 = 3 : e12
    mask 0b100 = 4 : e3
    mask 0b101 = 5 : e13
    mask 0b110 = 6 : e23
    mask 0b111 = 7 : e123

A multivector is a float64 vector of 2^n coefficients in mask order.
Generators square to +1 for index <= p and to -1 above, and distinct
generators anticommute; all structure signs are computed with integer
bit arithmetic on demand, so products are exact in their signs and no
multiplication table is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

#: Largest supported number of generators; 2^n coefficients per multivector.
MAX_DIMENSION = 12

#: Coefficients at or below this magnitude are dropped by display/serialization.
ZERO_THRESHOLD = 1e-12

#: Coefficient pairs summed per block in geometric_product.
_PAIRS = 1 << 18


@dataclass(frozen=True)
class Signature:
    """Metric signature (p, q): p generators square to +1, q to -1."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature counts must be nonnegative, got ({self.p}, {self.q})")
        n = self.p + self.q
        if not 1 <= n <= MAX_DIMENSION:
            raise ValueError(
                f"dimension n = p + q = {n} outside supported range 1..{MAX_DIMENSION} "
                f"(2^n coefficient storage)"
            )

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        """Number of basis blades, 2^n."""
        return 1 << self.n

    def metric(self, a: int) -> int:
        """Square of generator e_a (1-based index): +1 or -1."""
        if not 1 <= a <= self.n:
            raise ValueError(f"generator index {a} outside 1..{self.n}")
        return 1 if a <= self.p else -1

    @property
    def negative_mask(self) -> int:
        """Bitmask of the generators that square to -1."""
        return ((1 << self.n) - 1) ^ ((1 << self.p) - 1)


# ---------------------------------------------------------------------------
# Blade-level structure
# ---------------------------------------------------------------------------

def blade_grade(mask: int) -> int:
    """Number of generators in the blade."""
    return mask.bit_count()


def blade_indices(mask: int) -> tuple[int, ...]:
    """Ascending 1-based generator indices of the blade."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def blade_name(mask: int) -> str:
    """Serialization name: "1" for the scalar blade, else e.g. "e12".

    Generator indices are concatenated for single-digit indices; two-digit
    indices (n >= 10) are joined with underscores to stay unambiguous, and a
    single two-digit index takes a leading one: "e_10", since "e10" is e1 e0.
    """
    if mask == 0:
        return "1"
    idx = blade_indices(mask)
    if idx[-1] <= 9:
        return "e" + "".join(str(i) for i in idx)
    return ("e_" if len(idx) == 1 else "e") + "_".join(str(i) for i in idx)


def blade_from_name(name: str, n: int) -> int:
    """Parse a blade name back to its mask; inverse of blade_name."""
    if name == "1":
        return 0
    if not name.startswith("e") or len(name) < 2:
        raise ValueError(f"malformed blade name {name!r}")
    body = name[1:]
    parts = body.removeprefix("_").split("_") if "_" in body else list(body)
    mask = 0
    prev = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"malformed blade name {name!r}")
        i = int(part)
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} in {name!r} outside 1..{n}")
        if i <= prev:
            raise ValueError(f"generator indices in {name!r} must be strictly ascending")
        prev = i
        mask |= 1 << (i - 1)
    return mask


@lru_cache(maxsize=None)
def _sign_keys(p: int, q: int) -> np.ndarray:
    """Per-mask keys K_A with sign(e_A e_B) = (-1)^popcount(B & K_A).

    Generator i of A passes every generator of B below it, so the swap
    parity is popcount(B & ((1 << i) - 1)) summed over the bits i of A;
    the shared generators that square to -1 add popcount(B & A & neg).
    Both parities are linear in B over GF(2), so one xor-combined key per
    A carries them.
    """
    sig = Signature(p, q)
    masks = np.arange(sig.dim, dtype=np.int64)
    keys = masks & sig.negative_mask
    for i in range(sig.n):
        keys ^= np.where(masks >> i & 1, (1 << i) - 1, 0)
    keys.setflags(write=False)
    return keys


def blade_signs(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Signs of e_a e_b as int8, broadcast over integer mask arrays a and b."""
    odd = np.bitwise_count(b & _sign_keys(sig.p, sig.q)[a]) & 1
    return 1 - 2 * odd.astype(np.int8)


@lru_cache(maxsize=None)
def _reverse_signs(n: int) -> np.ndarray:
    """Per-mask reversion signs (-1)^(k(k-1)/2), k = grade."""
    grades = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    signs = np.where((grades * (grades - 1) // 2) & 1, -1, 1).astype(np.int8)
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=None)
def _grades(n: int) -> np.ndarray:
    grades = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int8)
    grades.setflags(write=False)
    return grades


@lru_cache(maxsize=None)
def _odd_grades(n: int) -> np.ndarray:
    odd = _grades(n) % 2 == 1
    odd.setflags(write=False)
    return odd


@lru_cache(maxsize=None)
def _reverse_norm_signs(p: int, q: int) -> np.ndarray:
    """Per-mask sign of reverse(e_A) e_A, the product of the metric squares."""
    sig = Signature(p, q)
    masks = np.arange(sig.dim, dtype=np.uint64)
    neg = np.bitwise_count(masks & np.uint64(sig.negative_mask))
    signs = np.where(neg & 1, -1, 1).astype(np.int8)
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=None)
def grade_masks(n: int, k: int) -> np.ndarray:
    """Ascending masks of all grade-k blades in an n-generator algebra."""
    if not 0 <= k <= n:
        raise ValueError(f"grade {k} outside 0..{n}")
    all_masks = np.arange(1 << n, dtype=np.int64)
    masks = all_masks[_grades(n) == k]
    masks.setflags(write=False)
    return masks


def _real_array(values: object, what: str) -> np.ndarray:
    """A new float64 array of values, which must be real numbers: bool,
    string, complex and object entries raise ValueError.

    numpy infers a number dtype for a list that mixes bools with numbers,
    so such input is searched for bool elements; an ndarray is judged by
    its dtype alone.
    """
    arr = np.array(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be real numbers, got dtype {arr.dtype}")
    if not isinstance(values, np.ndarray) and not {bool, np.bool_}.isdisjoint(
        map(type, np.array(values, dtype=object).flat)
    ):
        raise ValueError(f"{what} must be real numbers, got a bool")
    return arr if arr.dtype.char == "d" else arr.astype(np.float64)


def _is_scalar(value: object) -> bool:
    """A Python or numpy int or float; bool and numpy.bool_ are not scalars."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Multivectors
# ---------------------------------------------------------------------------

class Multivector:
    """Immutable dense multivector: signature plus 2^n float64 coefficients."""

    __slots__ = ("sig", "_coeffs")

    def __init__(self, sig: Signature, coeffs: Iterable[float]):
        arr = _real_array(coeffs, "coefficients")
        if arr.shape != (sig.dim,):
            raise ValueError(f"expected {sig.dim} coefficients for Cl({sig.p},{sig.q}), got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "_coeffs", arr)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Multivector is immutable")

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient vector in mask order."""
        return self._coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> Multivector:
        return cls(sig, np.zeros(sig.dim))

    @classmethod
    def scalar(cls, sig: Signature, value: float = 1.0) -> Multivector:
        coeffs = np.zeros(sig.dim)
        coeffs[0] = _real_array(value, "scalar values")
        return cls(sig, coeffs)

    @classmethod
    def basis(cls, sig: Signature, mask: int, coeff: float = 1.0) -> Multivector:
        if not 0 <= mask < sig.dim:
            raise ValueError(f"blade mask {mask} outside 0..{sig.dim - 1}")
        coeffs = np.zeros(sig.dim)
        coeffs[mask] = _real_array(coeff, "blade coefficients")
        return cls(sig, coeffs)

    @classmethod
    def from_terms(cls, sig: Signature, terms: Mapping[int, float]) -> Multivector:
        coeffs = np.zeros(sig.dim)
        for mask, value in zip(terms, _real_array(list(terms.values()), "term coefficients")):
            if not 0 <= mask < sig.dim:
                raise ValueError(f"blade mask {mask} outside 0..{sig.dim - 1}")
            coeffs[mask] += value
        return cls(sig, coeffs)

    @classmethod
    def vector(cls, sig: Signature, components: Iterable[float]) -> Multivector:
        """Grade-1 element from n vector components."""
        comp = _real_array(list(components), "vector components")
        if comp.shape != (sig.n,):
            raise ValueError(f"expected {sig.n} vector components, got {comp.shape}")
        coeffs = np.zeros(sig.dim)
        coeffs[1 << np.arange(sig.n)] = comp
        return cls(sig, coeffs)

    # -- accessors ----------------------------------------------------------

    def coefficient(self, mask: int) -> float:
        return float(self._coeffs[mask])

    def scalar_part(self) -> float:
        return float(self._coeffs[0])

    def vector_components(self) -> np.ndarray:
        """The n grade-1 coefficients, in generator order."""
        return self._coeffs[1 << np.arange(self.sig.n)].copy()

    def terms(self) -> Iterator[tuple[int, float]]:
        """(mask, coefficient) pairs above ZERO_THRESHOLD, in (grade, mask) order."""
        grades = _grades(self.sig.n)
        order = np.lexsort((np.arange(self.sig.dim), grades))
        for mask in order:
            value = self._coeffs[mask]
            if abs(value) > ZERO_THRESHOLD:
                yield int(mask), float(value)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._coeffs)))

    def isclose(self, other: Multivector, tol: float = ZERO_THRESHOLD) -> bool:
        self._check_sig(other)
        return bool(np.max(np.abs(self._coeffs - other._coeffs)) <= tol)

    # -- linear structure ----------------------------------------------------

    def _check_sig(self, other: Multivector) -> None:
        if self.sig != other.sig:
            raise ValueError(f"signature mismatch: Cl({self.sig.p},{self.sig.q}) vs Cl({other.sig.p},{other.sig.q})")

    def __add__(self, other: Multivector) -> Multivector:
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_sig(other)
        return Multivector(self.sig, self._coeffs + other._coeffs)

    def __sub__(self, other: Multivector) -> Multivector:
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_sig(other)
        return Multivector(self.sig, self._coeffs - other._coeffs)

    def __neg__(self) -> Multivector:
        return Multivector(self.sig, -self._coeffs)

    def __mul__(self, other: Multivector | float | int) -> Multivector:
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        if _is_scalar(other):
            return Multivector(self.sig, self._coeffs * other)
        return NotImplemented

    def __rmul__(self, other: float | int) -> Multivector:
        if _is_scalar(other):
            return Multivector(self.sig, self._coeffs * other)
        return NotImplemented

    def __truediv__(self, other: float | int) -> Multivector:
        if _is_scalar(other):
            return Multivector(self.sig, self._coeffs / other)
        return NotImplemented

    # -- grade and involution operations --------------------------------------

    def grade_projection(self, k: int) -> Multivector:
        """Keep only the grade-k coefficients."""
        if not 0 <= k <= self.sig.n:
            raise ValueError(f"grade {k} outside 0..{self.sig.n}")
        keep = _grades(self.sig.n) == k
        return Multivector(self.sig, np.where(keep, self._coeffs, 0.0))

    def reverse(self) -> Multivector:
        """Reversion: grade k scaled by (-1)^(k(k-1)/2); reverses products."""
        return Multivector(self.sig, self._coeffs * _reverse_signs(self.sig.n))

    def center_projection(self) -> Multivector:
        """Projection onto the center: grade 0, plus grade n when n is odd."""
        n = self.sig.n
        grades = _grades(n)
        keep = grades == 0
        if n % 2 == 1:
            keep = keep | (grades == n)
        return Multivector(self.sig, np.where(keep, self._coeffs, 0.0))

    def even_projection(self) -> Multivector:
        return Multivector(self.sig, np.where(_odd_grades(self.sig.n), 0.0, self._coeffs))

    def odd_part_max(self) -> float:
        """Largest absolute odd-grade coefficient."""
        odd = _odd_grades(self.sig.n)
        if not odd.any():
            return 0.0
        return float(np.max(np.abs(self._coeffs[odd])))

    def __repr__(self) -> str:
        parts = [f"{value:.6g}*{blade_name(mask)}" for mask, value in self.terms()]
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"<{body} in Cl({self.sig.p},{self.sig.q})>"


def geometric_product(u: Multivector, v: Multivector) -> Multivector:
    """Bilinear extension of the blade product (associative, unit 1), in blocks of _PAIRS pairs."""
    u._check_sig(v)
    sig = u.sig
    ia = np.nonzero(u.coeffs)[0]
    ib = np.nonzero(v.coeffs)[0]
    total = np.zeros(sig.dim)
    step = _PAIRS // max(1, ib.size)
    for start in range(0, ia.size, step):
        rows = ia[start : start + step, None]
        signs = blade_signs(sig, rows, ib)
        values = (u.coeffs[rows] * v.coeffs[ib] * signs).ravel()
        total += np.bincount((rows ^ ib).ravel(), weights=values, minlength=sig.dim)
    return Multivector(sig, total)


def squared_norm(u: Multivector) -> float:
    """Scalar part of reverse(u) * u; indefinite when q > 0.

    Cross terms between distinct blades have no scalar part, so this reduces
    to a signed sum of squared coefficients and never needs a full product.
    """
    signs = _reverse_norm_signs(u.sig.p, u.sig.q)
    return float(np.dot(signs * u.coeffs, u.coeffs))


def exp_bivector(b: Multivector) -> Multivector:
    """Exponential of a pure grade-2 element.

    Power series with argument halving: the input is scaled by 2^-h until its
    coefficient 1-norm is at most 1, 20 series terms are summed, and the
    result is squared h times. The 1-norm bounds the product of two
    multivectors by the product of their norms, so the k-th term is at most
    1/k! and the series has converged. Accuracy target is reverse(R)*R = 1
    to 1e-12, which 2^h eps passes beyond h = 12: a 1-norm above 4096 raises
    ValueError, as does a non-finite one (an inf or NaN coefficient).
    """
    if np.any(b.coeffs[_grades(b.sig.n) != 2]):
        raise ValueError("exp_bivector requires a pure grade-2 argument")
    norm = float(np.sum(np.abs(b.coeffs)))
    if not math.isfinite(norm):
        raise ValueError(f"exp_bivector requires a finite argument, got coefficient 1-norm {norm}")
    # The least h >= 0 with norm <= 2^h: norm = m 2^e with 0.5 <= m < 1.
    m, e = math.frexp(norm)
    halvings = max(0, e - (m == 0.5))
    if halvings > 12:
        raise ValueError(f"exp_bivector needs 1-norm <= 4096 (12 halvings), got {norm}")
    x = b / (1 << halvings) if halvings else b
    result = Multivector.scalar(b.sig)
    term = Multivector.scalar(b.sig)
    for k in range(1, 20):
        term = term * x / k
        result = result + term
    for _ in range(halvings):
        result = result * result
    return result
