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

#: Coefficient pairs summed per block of one row in _pair_sums (and so geometric_product).
_PAIRS = 1 << 18

#: Pairs up to which _pair_sums sums consecutive rows in one block. Timed
#: on verify_covering (one core, numpy 2.4): 2^14 groups four (4,3) rows,
#: 210-220 us against 230-240 us at 2^13 and 290-300 us at 2^16, where all
#: seven share one block; n <= 6 and n >= 8 read the same from 2^13 to 2^15.
_GROUP_PAIRS = 1 << 14


@dataclass(frozen=True)
class Signature:
    """Metric signature (p, q): p generators square to +1, q to -1."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (_is_integer(self.p) and _is_integer(self.q)):
            raise ValueError(f"signature counts must be integers, got ({self.p!r}, {self.q!r})")
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "q", int(self.q))
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
    return len(blade_indices(mask))


def blade_indices(mask: int) -> tuple[int, ...]:
    """Ascending 1-based generator indices of the blade; ValueError on a negative or bool mask."""
    if not (_is_integer(mask) and mask >= 0):
        raise ValueError(f"blade masks must be nonnegative integers, got {mask!r}")
    mask = int(mask)
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def blade_name(mask: int) -> str:
    """Serialization name: "1" for the scalar blade, else e.g. "e12".

    Generator indices are concatenated for single-digit indices; two-digit
    indices (n >= 10) are joined with underscores to stay unambiguous, and a
    single two-digit index takes a leading one: "e_10", since "e10" is e1 e0.
    """
    idx = blade_indices(mask)
    if not idx:
        return "1"
    if idx[-1] <= 9:
        return "e" + "".join(str(i) for i in idx)
    return ("e_" if len(idx) == 1 else "e") + "_".join(str(i) for i in idx)


def blade_from_name(name: str, n: int) -> int:
    """Parse a blade name back to its mask; only the spelling of blade_name passes."""
    if name == "1":
        return 0
    body = name[1:] if name.startswith("e") else ""
    parts = body.removeprefix("_").split("_") if "_" in body else list(body)
    if not parts or not all(part.isdecimal() for part in parts):
        raise ValueError(f"malformed blade name {name!r}")
    mask = 0
    for i in map(int, parts):
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} in {name!r} outside 1..{n}")
        mask |= 1 << (i - 1)
    if blade_name(mask) != name:
        raise ValueError(f"blade name {name!r} is not the canonical {blade_name(mask)!r}")
    return mask


class _Record:
    # Fixed tables, made once by their key: every array, each view in a tuple too, is read-only.

    def __post_init__(self) -> None:
        for value in vars(self).values():
            for table in value if isinstance(value, tuple) else (value,):
                table.setflags(write=False)


@dataclass(frozen=True)
class _Layout(_Record):
    """The masks of an n-generator algebra, whatever its signature."""

    grades: np.ndarray  # int8 grade of each mask
    reverse_signs: np.ndarray  # int8 (-1)^(k(k-1)/2) of each mask, -1 where bit 1 of k is set
    order: np.ndarray  # every mask, in (grade, mask) order
    grade_masks: tuple[np.ndarray, ...]  # grade k's ascending masks, a view of order
    odd: np.ndarray  # the odd masks C, ascending
    partners: np.ndarray  # C ^ e_a at [a, C]
    probes: np.ndarray  # the even masks, in (grade, mask) order
    parities: np.ndarray  # int8 (-1)^k of each mask of grade k


@lru_cache(maxsize=None)
def _layout(n: int) -> _Layout:
    grades = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int8)
    order = np.argsort(grades, kind="stable")
    by_grade = tuple(np.split(order, np.cumsum([math.comb(n, k) for k in range(n)])))
    columns = np.flatnonzero(grades % 2)
    return _Layout(grades, 1 - (grades & 2), order, by_grade, columns, columns ^ (1 << np.arange(n))[:, None],
                   order[grades[order] % 2 == 0], 1 - 2 * (grades & 1))


@dataclass(frozen=True)
class _Algebra(_Record):
    """The signs and the metric of Cl(p,q)."""

    #: Per-mask keys K_A with sign(e_A e_B) = (-1)^popcount(B & K_A).
    #: Generator i of A passes every generator of B below it, so the swap
    #: parity is popcount(B & ((1 << i) - 1)) summed over the bits i of A;
    #: the shared generators that square to -1 add popcount(B & A & neg).
    #: Both parities are linear in B over GF(2), so one xor-combined key per
    #: A carries them.
    keys: np.ndarray
    norm_signs: np.ndarray  # int8 sign of reverse(e_A) e_A, the product of the metric squares
    eta: np.ndarray  # diag(+1 x p, -1 x q)
    right_signs: np.ndarray  # int8 sign of e_B e_a at [a, C], B the layout's partner C ^ e_a
    left_signs: np.ndarray  # int8 sign of e_a e_B at [a, C]
    odd_norm_signs: np.ndarray  # norm_signs at the odd masks C


@lru_cache(maxsize=None)
def _algebra(p: int, q: int) -> _Algebra:
    sig, layout = Signature(p, q), _layout(p + q)
    masks = np.arange(sig.dim, dtype=np.int64)
    keys = masks & sig.negative_mask
    for i in range(sig.n):
        keys ^= np.where(masks >> i & 1, (1 << i) - 1, 0)
    norm_signs = np.where(np.bitwise_count(masks & sig.negative_mask) & 1, -1, 1).astype(np.int8)
    bits = (1 << np.arange(sig.n))[:, None]
    return _Algebra(keys, norm_signs, np.diag(np.array([1.0] * p + [-1.0] * q)),
                    _signs(keys, layout.partners, bits), _signs(keys, bits, layout.partners),
                    norm_signs[layout.odd])


def blade_signs(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Signs of e_a e_b as int8, broadcast over integer mask arrays a and b."""
    return _signs(_algebra(sig.p, sig.q).keys, a, b)


def _signs(keys: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    odd = np.bitwise_count(b & keys[a]) & 1
    return 1 - 2 * odd.astype(np.int8)


def grade_masks(n: int, k: int) -> np.ndarray:
    """Ascending masks of all grade-k blades in an n-generator algebra, read-only."""
    if not (_is_integer(n) and 1 <= n <= MAX_DIMENSION):
        raise ValueError(f"dimension n must be an integer in 1..{MAX_DIMENSION}, got {n!r}")
    if not _is_integer(k):
        raise ValueError(f"grades must be integers, got {k!r}")
    if not 0 <= k <= n:
        raise ValueError(f"grade {k} outside 0..{n}")
    return _layout(int(n)).grade_masks[k]


def _real_array(values: object, what: str) -> np.ndarray:
    """A new float64 array of values, which must be real numbers: bool,
    string, complex and object entries raise ValueError.

    numpy infers a number dtype for a list that mixes bools with numbers,
    so such input is searched for bool elements, but a float or a flat list
    of Python floats holds none; an ndarray is judged by its dtype alone.
    """
    arr = np.array(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be real numbers, got dtype {arr.dtype}")
    scan = not (isinstance(values, (np.ndarray, float)) or arr.ndim == 1 and all(type(v) is float for v in values))
    if scan and not {bool, np.bool_}.isdisjoint(map(type, np.array(values, dtype=object).flat)):
        raise ValueError(f"{what} must be real numbers, got a bool")
    return arr if arr.dtype.char == "d" else arr.astype(np.float64)


def _is_integer(value: object) -> bool:
    """A Python or numpy integer; bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_scalar(value: object) -> bool:
    """A Python or numpy int or float; bool and numpy.bool_ are not scalars."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _blade_mask(sig: Signature, mask: object) -> int:
    """mask itself when it is an integer in 0..2^n - 1, else ValueError."""
    if not _is_integer(mask):
        raise ValueError(f"blade masks must be integers, got {mask!r}")
    if not 0 <= mask < sig.dim:
        raise ValueError(f"blade mask {mask} outside 0..{sig.dim - 1}")
    return int(mask)


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
        return cls.basis(sig, 0, value)

    @classmethod
    def basis(cls, sig: Signature, mask: int, coeff: float = 1.0) -> Multivector:
        coeffs = np.zeros(sig.dim)
        coeffs[_blade_mask(sig, mask)] = _real_array(coeff, "blade coefficients")
        return cls(sig, coeffs)

    @classmethod
    def from_terms(cls, sig: Signature, terms: Mapping[int, float]) -> Multivector:
        coeffs = np.zeros(sig.dim)
        for mask, value in zip(terms, _real_array(list(terms.values()), "term coefficients")):
            coeffs[_blade_mask(sig, mask)] += value
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
        return float(self._coeffs[_blade_mask(self.sig, mask)])

    def scalar_part(self) -> float:
        return float(self._coeffs[0])

    def vector_components(self) -> np.ndarray:
        """The n grade-1 coefficients, in generator order."""
        return self._coeffs[1 << np.arange(self.sig.n)].copy()

    def terms(self) -> Iterator[tuple[int, float]]:
        """(mask, coefficient) pairs above ZERO_THRESHOLD, in (grade, mask) order."""
        order = _layout(self.sig.n).order
        kept = order[np.abs(self._coeffs[order]) > ZERO_THRESHOLD]
        return zip(kept.tolist(), self._coeffs[kept].tolist())

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._coeffs)))

    def __eq__(self, other: object) -> bool:
        """Same signature and equal coefficients (-0.0 equals 0.0, NaN nothing)."""
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and bool(np.array_equal(self._coeffs, other._coeffs))

    def __hash__(self) -> int:
        # Adding 0.0 turns -0.0 into 0.0, so equal values hash alike.
        return hash((self.sig, (self._coeffs + 0.0).tobytes()))

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
        masks = grade_masks(self.sig.n, k)
        coeffs = np.zeros(self.sig.dim)
        coeffs[masks] = self._coeffs[masks]
        return Multivector(self.sig, coeffs)

    def reverse(self) -> Multivector:
        """Reversion: grade k scaled by (-1)^(k(k-1)/2); reverses products."""
        return Multivector(self.sig, self._coeffs * _layout(self.sig.n).reverse_signs)

    def center_projection(self) -> Multivector:
        """Projection onto the center: grade 0, plus grade n when n is odd."""
        n = self.sig.n
        grades = _layout(n).grades
        keep = (grades == 0) | (grades == n) & (n % 2 == 1)
        return Multivector(self.sig, np.where(keep, self._coeffs, 0.0))

    def even_projection(self) -> Multivector:
        return Multivector(self.sig, np.where(_layout(self.sig.n).grades % 2, 0.0, self._coeffs))

    def odd_part_max(self) -> float:
        """Largest absolute odd-grade coefficient."""
        return float(np.max(np.abs(self._coeffs[_layout(self.sig.n).odd])))

    def __repr__(self) -> str:
        parts = [f"{value:.6g}*{blade_name(mask)}" for mask, value in self.terms()]
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"<{body} in Cl({self.sig.p},{self.sig.q})>"


def geometric_product(u: Multivector, v: Multivector) -> Multivector:
    """Bilinear extension of the blade product (associative, unit 1), in blocks of _PAIRS pairs."""
    u._check_sig(v)
    return Multivector(u.sig, _pair_sums(u.sig, u.coeffs, v.coeffs))


def _pair_sums(sig: Signature, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    # The products of each 2^n row of left with right, new in left's shape.
    # Row r sums (u_i v_j) sign(e_i e_j) at i ^ j over its nonzero masks i
    # ascending, then the nonzero masks j of right ascending, from 0.0, so
    # every coefficient is the same sum whatever the rows beside it: one
    # bincount sums the pairs of a block of rows at r 2^n + (i ^ j). Rows
    # join the open block while it holds at most _GROUP_PAIRS pairs; a row
    # with more is a block alone, cut after every _PAIRS // |j| masks i,
    # and its blocks are added in order.
    coeffs = left.ravel()
    flat = coeffs.nonzero()[0]  # r 2^n + i, row-major
    ib = right.nonzero()[0]
    if not (flat.size and ib.size):
        return np.zeros(left.shape)
    dim, rows = sig.dim, left.size >> sig.n
    keys, values, vb = _algebra(sig.p, sig.q).keys, coeffs[flat], right[ib]
    step, group = max(1, _PAIRS // ib.size), min(_PAIRS, _GROUP_PAIRS) // ib.size
    ends = flat.searchsorted(np.arange(dim, left.size + 1, dim)).tolist() if rows > 1 else [flat.size]
    # Blocks (start, end, first, last): flat[start:end] holds rows first..last - 1.
    blocks, start, first, begin = [], 0, 0, 0
    for r, end in enumerate(ends):  # row r is flat[begin:end]
        if end - start > group:  # row r does not fit the open block: close it
            if r > first:
                blocks.append((start, begin, first, r))
            start, first = begin, r
            if end - begin > group:  # nor any block: it goes alone
                blocks += [(s, min(s + step, end), r, r + 1) for s in range(begin, end, step)]
                start, first = end, r + 1
        begin = end
    if rows > first:
        blocks.append((start, begin, first, rows))
    sums, opened = [], -1
    for start, end, first, last in blocks:
        at = flat[start:end, None] - first * dim if first else flat[start:end, None]  # (r - first) 2^n + i
        signs = 1 - 2 * (np.bitwise_count(ib & keys.take(at, mode="wrap")) & 1).astype(np.int8)  # keys[i]
        weights = (values[start:end, None] * vb * signs).ravel()
        block = np.bincount((at ^ ib).ravel(), weights, (last - first) * dim)
        if first == opened:
            sums[-1] += block
        else:
            sums.append(block)
        opened = first
    return (sums[0] if len(sums) == 1 else np.concatenate(sums)).reshape(left.shape)


def squared_norm(u: Multivector) -> float:
    """Scalar part of reverse(u) * u; indefinite when q > 0.

    Cross terms between distinct blades have no scalar part, so this reduces
    to a signed sum of squared coefficients and never needs a full product.
    """
    signs = _algebra(u.sig.p, u.sig.q).norm_signs
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
    if np.any(b.coeffs[_layout(b.sig.n).grades != 2]):
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
