"""Quaternion scalars, the complexified algebra H(x)C and the unit sphere S.

This module contains:

- `Quaternion` - an element a + b*i + c*j + d*k of the real quaternion algebra
- `SpherePoint` - a unit imaginary quaternion (a square root of -1)
- `fold(q)` - the upper-half-plane representative (Re q, |Im q|) of S_q
- `_cstar_norm` - the C*-norm on H(x)C, on floats or on arrays of elements
- `sphere_grid(count)` - deterministic quasi-uniform sample of S
- `random_sphere_point(rng)` - uniform random element of S

Two scalar forms are kept as references for the array kernels that the
program runs: `ComplexifiedQuaternion` (an element q + I*p of H(x)C, against
`qmatrix._hc_mul` and `_hc_norm`) and `sphere_decompose(q)` (q = alpha +
iota*beta with beta >= 0, against `SliceFunction.values`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

# Relative floor used everywhere a quaternion is tested for being real.
REAL_TOL = 1e-12


@dataclass(frozen=True)
class Quaternion:
    """Element q = a + b*i + c*j + d*k of the quaternion algebra H.

    Values are immutable; all operations return new instances, so instances
    may be freely shared between threads.
    """

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "d", float(self.d))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Quaternion | float") -> "Quaternion":
        other = _coerce(other)
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __sub__(self, other: "Quaternion | float") -> "Quaternion":
        other = _coerce(other)
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __rsub__(self, other: "Quaternion | float") -> "Quaternion":
        return _coerce(other) - self

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other: "Quaternion | float") -> "Quaternion":
        if isinstance(other, (int, float)):
            return Quaternion(self.a * other, self.b * other,
                              self.c * other, self.d * other)
        p, q = self, other
        return Quaternion(
            p.a * q.a - p.b * q.b - p.c * q.c - p.d * q.d,
            p.a * q.b + p.b * q.a + p.c * q.d - p.d * q.c,
            p.a * q.c - p.b * q.d + p.c * q.a + p.d * q.b,
            p.a * q.d + p.b * q.c - p.c * q.b + p.d * q.a,
        )

    def __rmul__(self, other: float) -> "Quaternion":
        # real scalars commute with everything
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __truediv__(self, other: float) -> "Quaternion":
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        return NotImplemented

    def __pow__(self, n: int) -> "Quaternion":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- involution, norm, parts -------------------------------------------

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm(self) -> float:
        return math.sqrt(self.a * self.a + self.b * self.b
                         + self.c * self.c + self.d * self.d)

    __abs__ = norm

    def im_norm(self) -> float:
        return math.sqrt(self.b * self.b + self.c * self.c + self.d * self.d)

    def isclose(self, other: "Quaternion | float", tol: float = 1e-12) -> bool:
        return (self - _coerce(other)).norm() <= tol

    # -- conversions ---------------------------------------------------------

    def components(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def to_json(self) -> list[float]:
        return [self.a, self.b, self.c, self.d]

    @classmethod
    def from_json(cls, data) -> "Quaternion":
        a, b, c, d = (float(x) for x in data)
        return cls(a, b, c, d)

    def __repr__(self) -> str:
        return f"Quaternion({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def _coerce(x) -> Quaternion:
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, (int, float)):
        return Quaternion(float(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as a quaternion")


class SpherePoint(Quaternion):
    """Unit imaginary quaternion iota with iota^2 = -1.

    Construction validates the input (imaginary to 1e-9, unit norm to 1e-9)
    and then renormalizes exactly, so arithmetic downstream sees a genuine
    square root of -1 up to one rounding.
    """

    def __init__(self, b: float, c: float, d: float):
        n = math.sqrt(b * b + c * c + d * d)
        if abs(n - 1.0) > 1e-9:
            raise PreconditionError(f"not a unit imaginary quaternion: |Im| = {n}")
        super().__init__(0.0, b / n, c / n, d / n)


def _cstar_norm(q, p):
    """C*-norm (|q|^2 + |p|^2 + 2|Im(p conj(q))|)^(1/2) of q + I*p in H(x)C.

    q and p are the four components of each part: floats, or arrays of one
    shape for many elements at once.
    """
    qa, qb, qc, qd = q
    pa, pb, pc, pd = p
    # Im(p conj(q)) = qa Im(p) - pa Im(q) - Im(p) x Im(q)
    vb = qa * pb - pa * qb - (pc * qd - pd * qc)
    vc = qa * pc - pa * qc - (pd * qb - pb * qd)
    vd = qa * pd - pa * qd - (pb * qc - pc * qb)
    return np.sqrt(qa * qa + qb * qb + qc * qc + qd * qd + pa * pa + pb * pb
                   + pc * pc + pd * pd + 2.0 * np.sqrt(vb * vb + vc * vc + vd * vd))


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = SpherePoint(1.0, 0.0, 0.0)
J = SpherePoint(0.0, 1.0, 0.0)
K = SpherePoint(0.0, 0.0, 1.0)


def sphere_decompose(q: Quaternion) -> tuple[float, float, SpherePoint | None]:
    """Split q = alpha + iota*beta with alpha real, beta >= 0, iota in S.

    For real q (|Im q| <= REAL_TOL |q|) beta is 0 and iota is None: the
    caller chooses any axis, keeping the non-uniqueness of the decomposition
    visible at the API boundary.
    """
    alpha = q.a
    beta = math.hypot(q.b, q.c, q.d)  # no underflow of the squares at tiny |Im q|
    if beta <= REAL_TOL * q.norm():
        return alpha, 0.0, None
    return alpha, beta, SpherePoint(q.b / beta, q.c / beta, q.d / beta)


def fold(q: Quaternion) -> tuple[float, float]:
    """Upper-half-plane representative (Re q, |Im q|) of the sphere S_q."""
    return (q.a, q.im_norm())


@dataclass(frozen=True)
class ComplexifiedQuaternion:
    """Element w = q + I*p of H(x)C, with central I commuting with H."""

    q: Quaternion = ZERO
    p: Quaternion = ZERO

    def __add__(self, other: "ComplexifiedQuaternion") -> "ComplexifiedQuaternion":
        return ComplexifiedQuaternion(self.q + other.q, self.p + other.p)

    def __sub__(self, other: "ComplexifiedQuaternion") -> "ComplexifiedQuaternion":
        return ComplexifiedQuaternion(self.q - other.q, self.p - other.p)

    def __neg__(self) -> "ComplexifiedQuaternion":
        return ComplexifiedQuaternion(-self.q, -self.p)

    def __mul__(self, other: "ComplexifiedQuaternion") -> "ComplexifiedQuaternion":
        # (q + Ip)(q' + Ip') = qq' - pp' + I(qp' + pq')
        return ComplexifiedQuaternion(
            self.q * other.q - self.p * other.p,
            self.q * other.p + self.p * other.q,
        )

    def star(self) -> "ComplexifiedQuaternion":
        """The *-involution w* = conj(q) - I*conj(p)."""
        return ComplexifiedQuaternion(self.q.conjugate(), -self.p.conjugate())

    def norm(self) -> float:
        """C*-norm; equals sup over iota in S of |q + iota*p|."""
        return float(_cstar_norm(self.q.components(), self.p.components()))

    def isclose(self, other: "ComplexifiedQuaternion", tol: float = 1e-12) -> bool:
        return (self - other).norm() <= tol

    def to_json(self) -> dict:
        return {"q": self.q.to_json(), "p": self.p.to_json()}

    @classmethod
    def from_json(cls, data) -> "ComplexifiedQuaternion":
        return cls(Quaternion.from_json(data["q"]), Quaternion.from_json(data["p"]))


def sphere_grid(count: int) -> np.ndarray:
    """Deterministic quasi-uniform (Fibonacci lattice) sample of S.

    Returns a (count, 3) array of unit imaginary components (b, c, d). The
    worst-case mesh angle shrinks like 1/sqrt(count), so a sampled supremum
    over S undershoots the true one by O(1/count) relatively.
    """
    k = np.arange(count, dtype=float)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * k + 1.0) / count
    theta = 2.0 * math.pi * k / golden
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def random_sphere_point(rng: np.random.Generator) -> SpherePoint:
    """Uniform random unit imaginary quaternion."""
    v = rng.normal(size=3)
    n = float(np.linalg.norm(v))
    while n < 1e-12:  # pragma: no cover - probability zero
        v = rng.normal(size=3)
        n = float(np.linalg.norm(v))
    return SpherePoint(v[0] / n, v[1] / n, v[2] / n)

