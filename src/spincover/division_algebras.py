"""Quaternion and split-quaternion forms of the n = 3 coverings.

The even subalgebra of Cl(3,0) is the quaternions and that of Cl(2,1) the
split-quaternions, via

    e -> 1,  e12 -> i,  e13 -> j,  e23 -> -k.

Unit quaternions double-cover SO(3) and unit split-quaternions SO+(2,1).
The four quaternion candidates are the n3 candidates L_F read through this
bridge, so the unit elements are the n3 rotor of matrix_to_rotor read
through it: one membership check, one probe, one normalizer and one sign
(Rotor.canonicalized) for both algebras. Both algebras also get their 2x2
complex representations (SU(2), SU(1,1)).

Both are a + bi + cj + dk with i^2 = -1, ij = k and s = j^2 = k^2:
s = -1 gives the quaternions (ijk = -1) and s = +1 the split-quaternions
(ijk = +1), where

    ij = k   jk = -i   ki = j
    ji = -k  kj = i    ik = -j
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .clifford_core import Multivector, Signature, _real_array
from .covering import Rotor, matrix_to_rotor
from .matrix_group import DEFAULT_TOLERANCE

SIG_30 = Signature(3, 0)
SIG_21 = Signature(2, 1)

#: Pauli matrices sigma_0..sigma_3; sigma_1 sigma_2 sigma_3 = i I.
PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
for _m in PAULI:
    _m.setflags(write=False)


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

def quaternion_to_su2(q: Quaternion) -> np.ndarray:
    """a sigma_0 + b i sigma_3 + c i sigma_2 + d i sigma_1; unit q lands in SU(2)."""
    return np.array(
        [[complex(q.a, q.b), complex(q.c, q.d)], [complex(0.0 - q.c, q.d), complex(q.a, 0.0 - q.b)]]
    )


def split_to_su11(q: SplitQuaternion) -> np.ndarray:
    """a sigma_0 + b i sigma_3 + c sigma_1 - d sigma_2; unit q lands in SU(1,1)."""
    return np.array(
        [[complex(q.a, q.b), complex(q.c, q.d)], [complex(q.c, 0.0 - q.d), complex(q.a, 0.0 - q.b)]]
    )


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

def _bridge_to_rotor(q, sig: Signature) -> Rotor:
    coeffs = np.zeros(sig.dim)
    coeffs[0] = q.a
    coeffs[0b011] = q.b
    coeffs[0b101] = q.c
    coeffs[0b110] = -q.d
    return Rotor(Multivector(sig, coeffs))


def _bridge_components(value: Multivector, sig: Signature) -> tuple[float, float, float, float]:
    if value.sig != sig:
        raise ValueError(f"expected a Cl({sig.p},{sig.q}) element, got Cl({value.sig.p},{value.sig.q})")
    worst = value.odd_part_max()
    if worst > 1e-12:
        raise ValueError(f"element has components outside the even subalgebra (max {worst:.3e})")
    # x + 0.0 and 0.0 - x are 0.0, never -0.0, for a zero coefficient.
    c = value.coeffs
    return float(c[0] + 0.0), float(c[0b011] + 0.0), float(c[0b101] + 0.0), float(0.0 - c[0b110])


def quaternion_to_rotor(q: Quaternion) -> Rotor:
    """Inverse of the e -> 1, e12 -> i, e13 -> j, e23 -> -k correspondence."""
    return _bridge_to_rotor(q, SIG_30)


def rotor_to_quaternion(rotor: Rotor | Multivector) -> Quaternion:
    value = rotor.value if isinstance(rotor, Rotor) else rotor
    return Quaternion(*_bridge_components(value, SIG_30))


def split_to_rotor(q: SplitQuaternion) -> Rotor:
    """Same correspondence into Cl(2,1)."""
    return _bridge_to_rotor(q, SIG_21)


def rotor_to_split(rotor: Rotor | Multivector) -> SplitQuaternion:
    value = rotor.value if isinstance(rotor, Rotor) else rotor
    return SplitQuaternion(*_bridge_components(value, SIG_21))


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
