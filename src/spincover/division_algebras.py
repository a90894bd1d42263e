"""Quaternion and split-quaternion forms of the n = 3 coverings.

The even subalgebra of Cl(p,q), p + q = 3, is the quaternions or the
split-quaternions (Lounesto, Clifford Algebras and Spinors), by one rule:
i is the first of e12, e13, e23 that squares to -1, j the first other one,
k = ij, and j^2 = -1 or +1 names the algebra; so i, j, k are e12, e13, -e23
at (3,0) and (2,1), e23, e12, e13 at (1,2) and e12, e13, e23 at (0,3). The
read bridges take all four signatures, the write bridges write Cl(3,0) and
Cl(2,1). Unit elements double-cover SO+(p,q); each is the n3 rotor of
matrix_to_rotor read through the bridge, sharing its membership check,
probe, normalizer and sign, with a 2x2 complex image in SU(2) or SU(1,1).

Both are a + bi + cj + dk with i^2 = -1, ij = k and s = j^2 = k^2:
s = -1 gives the quaternions (ijk = -1) and s = +1 the split-quaternions
(ijk = +1), where

    ij = k   jk = -i   ki = j
    ji = -k  kj = i    ik = -j
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .clifford_core import Multivector, Signature, _real_array, blade_signs
from .covering import Rotor, matrix_to_rotor
from .matrix_group import DEFAULT_TOLERANCE

SIG_30 = Signature(3, 0)
SIG_21 = Signature(2, 1)


@dataclass(frozen=True)
class _FourComponent:
    """a + bi + cj + dk with i^2 = -1, ij = k and j^2 = k^2 = SQUARE."""

    a: float
    b: float
    c: float
    d: float

    SQUARE: ClassVar[float]

    def __post_init__(self) -> None:
        values = _real_array([self.a, self.b, self.c, self.d], "components")
        for name, value in zip("abcd", values.tolist()):
            object.__setattr__(self, name, value)

    def conjugate(self):
        return type(self)(self.a, -self.b, -self.c, -self.d)

    def norm_squared(self) -> float:
        """conj(q) q = a^2 + b^2 - s (c^2 + d^2) with s = j^2."""
        return self.a * self.a + self.b * self.b - self.SQUARE * (self.c * self.c + self.d * self.d)

    def __neg__(self):
        return type(self)(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        s = self.SQUARE
        return type(self)(
            self.a * other.a - self.b * other.b + s * (self.c * other.c + self.d * other.d),
            self.a * other.b + self.b * other.a - s * (self.c * other.d - self.d * other.c),
            self.a * other.c + self.c * other.a - self.b * other.d + self.d * other.b,
            self.a * other.d + self.d * other.a + self.b * other.c - self.c * other.b,
        )

    def components(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])

    def isclose(self, other: _FourComponent, tol: float = 1e-12) -> bool:
        if type(other) is not type(self):
            raise ValueError(f"a {type(self).__name__} compares with {type(self).__name__}, not {type(other).__name__}")
        return bool(np.max(np.abs(self.components() - other.components())) <= tol)


@dataclass(frozen=True)
class Quaternion(_FourComponent):
    """q = a + bi + cj + dk with i^2 = j^2 = k^2 = ijk = -1."""

    SQUARE: ClassVar[float] = -1.0


@dataclass(frozen=True)
class SplitQuaternion(_FourComponent):
    """q = a + bi + cj + dk with i^2 = -1, j^2 = k^2 = +1, ijk = +1."""

    SQUARE: ClassVar[float] = 1.0


# ---------------------------------------------------------------------------
# 2x2 complex representations
# ---------------------------------------------------------------------------

def _image(q: _FourComponent) -> np.ndarray:
    # [[z, w], [s conj(w), conj(z)]], z = a + bi, w = c + di, s = j^2; 0.0 - x keeps zeros +0.0.
    sw = complex(0.0 - q.c, q.d) if q.SQUARE < 0 else complex(q.c, 0.0 - q.d)
    return np.array([[complex(q.a, q.b), complex(q.c, q.d)], [sw, complex(q.a, 0.0 - q.b)]])


def quaternion_to_su2(q: Quaternion) -> np.ndarray:
    """a sigma_0 + b i sigma_3 + c i sigma_2 + d i sigma_1; unit q lands in SU(2)."""
    if type(q) is not Quaternion:
        raise ValueError(f"an SU(2) image reads as Quaternion, not {type(q).__name__}")
    return _image(q)


def split_to_su11(q: SplitQuaternion) -> np.ndarray:
    """a sigma_0 + b i sigma_3 + c sigma_1 - d sigma_2; unit q lands in SU(1,1)."""
    if type(q) is not SplitQuaternion:
        raise ValueError(f"an SU(1,1) image reads as SplitQuaternion, not {type(q).__name__}")
    return _image(q)


def su2_defect(m: np.ndarray) -> float:
    """Max deviation of m^H m from the identity."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(2))))


def su11_defect(m: np.ndarray) -> float:
    """Max deviation of m^H diag(1,-1) m from diag(1,-1)."""
    eta = np.diag([1.0, -1.0])
    return float(np.max(np.abs(m.conj().T @ eta @ m - eta)))


# ---------------------------------------------------------------------------
# Bridges to the Clifford rotors, and the unit elements covering a matrix
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bridge(sig: Signature) -> tuple[type, np.ndarray, np.ndarray]:
    # The rule as (algebra, masks, signs): 1, i, j, k are signs[m] e_masks[m].
    if sig.n != 3:
        raise ValueError(f"expected a Cl(p,q) element with p + q = 3, got Cl({sig.p},{sig.q})")
    planes = np.array([0b011, 0b101, 0b110])
    i = planes[blade_signs(sig, planes, planes) < 0][0]  # two generators share a sign
    j = planes[planes != i][0]
    left, right = np.array([0, i, j, i]), np.array([0, 0, 0, j])
    algebra = Quaternion if blade_signs(sig, j, j) < 0 else SplitQuaternion
    masks, signs = left ^ right, blade_signs(sig, left, right)
    masks.setflags(write=False)
    signs.setflags(write=False)
    return algebra, masks, signs


def _to_rotor(q: _FourComponent, sig: Signature) -> Rotor:
    algebra, masks, signs = _bridge(sig)
    if type(q) is not algebra:
        raise ValueError(f"a Cl({sig.p},{sig.q}) element reads as {algebra.__name__}, not {type(q).__name__}")
    coeffs = np.zeros(sig.dim)
    coeffs[masks] = signs * q.components()
    return Rotor(Multivector(sig, coeffs))


def _read(rotor: Rotor | Multivector, algebra: type | None = None) -> Quaternion | SplitQuaternion:
    # The element of the bridge's algebra (or of algebra, if given) that rotor reads as.
    value = rotor.value if isinstance(rotor, Rotor) else rotor
    found, masks, signs = _bridge(value.sig)
    if algebra not in (None, found):
        raise ValueError(f"a Cl({value.sig.p},{value.sig.q}) element reads as {found.__name__}, not {algebra.__name__}")
    if (worst := value.odd_part_max()) > 1e-12:
        raise ValueError(f"element has components outside the even subalgebra (max {worst:.3e})")
    # x + 0.0 is 0.0, never -0.0, for a zero coefficient.
    return found(*(value.coeffs[masks] * signs + 0.0).tolist())


def quaternion_to_rotor(q: Quaternion) -> Rotor:
    """The Cl(3,0) rotor of q: e12 = i, e13 = j, e23 = -k."""
    return _to_rotor(q, SIG_30)


def rotor_to_quaternion(rotor: Rotor | Multivector) -> Quaternion:
    return _read(rotor, Quaternion)


def split_to_rotor(q: SplitQuaternion) -> Rotor:
    """The Cl(2,1) rotor of q: e12 = i, e13 = j, e23 = -k."""
    return _to_rotor(q, SIG_21)


def rotor_to_split(rotor: Rotor | Multivector) -> SplitQuaternion:
    return _read(rotor, SplitQuaternion)


def so3_to_unit_quaternion(matrix: object, tol: float = DEFAULT_TOLERANCE) -> Quaternion:
    """The unit quaternion of the canonical n3 rotor of P in SO(3).

    Its sign is the rotor's (Rotor.canonicalized); -q is the other preimage.
    """
    return rotor_to_quaternion(matrix_to_rotor(matrix, SIG_30, "n3", tol))


def so21_to_unit_split_quaternion(matrix: object, tol: float = DEFAULT_TOLERANCE) -> SplitQuaternion:
    """The unit split-quaternion of the canonical n3 rotor of P in SO+(2,1).

    NoCandidateError is raised when no probe gives a usable candidate,
    which no SO+(2,1) matrix does.
    """
    return rotor_to_split(matrix_to_rotor(matrix, SIG_21, "n3", tol))
