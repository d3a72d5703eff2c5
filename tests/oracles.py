"""Independent references and fixtures that the tests check the program
against. The program runs none of them.

- `ComplexifiedQuaternion` - an element q + I*p of H(x)C in scalar
  `Quaternion` arithmetic, with its own C*-norm formula, the reference for
  `qmatrix._hc_mul`, `_hc_star` and `_hc_norm`
- `sphere_decompose(q)` - q = alpha + iota*beta with beta >= 0, the
  reference for `SliceFunction.values`
- `fold(q)` - the upper-half-plane representative (Re q, |Im q|) of the
  sphere S_q
- `isclose`, `evaluate`, `matrix_of`, `basis_vector`, `function_json` - a
  tolerance comparison, f at one quaternion, a matrix from rows of
  quaternions, a standard basis vector, and the JSON document of a function
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quatspec.errors import PreconditionError
from quatspec.qmatrix import QMatrix, QVector
from quatspec.quaternion import REAL_TOL, Quaternion, SpherePoint
from quatspec.slicefn import SliceFunction


def isclose(x, y, tol: float = 1e-12) -> bool:
    """|x - y| <= tol, for quaternions or elements of H(x)C."""
    return (x - y).norm() <= tol


@dataclass(frozen=True)
class ComplexifiedQuaternion:
    """Element w = q + I*p of H(x)C, with central I commuting with H."""

    q: Quaternion
    p: Quaternion

    def __sub__(self, other: "ComplexifiedQuaternion") -> "ComplexifiedQuaternion":
        return ComplexifiedQuaternion(self.q - other.q, self.p - other.p)

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
        """C*-norm (|q|^2 + |p|^2 + 2|Im(p conj(q))|)^(1/2); equals the sup
        over iota in S of |q + iota*p|."""
        w = self.p * self.q.conjugate()
        return math.sqrt(self.q.norm() ** 2 + self.p.norm() ** 2
                         + 2.0 * math.sqrt(w.b * w.b + w.c * w.c + w.d * w.d))


def fold(q: Quaternion) -> tuple[float, float]:
    """Upper-half-plane representative (Re q, |Im q|) of the sphere S_q."""
    return (q.a, math.sqrt(q.b * q.b + q.c * q.c + q.d * q.d))


def sphere_decompose(q: Quaternion) -> tuple[float, float, SpherePoint | None]:
    """Split q = alpha + iota*beta with alpha real, beta >= 0, iota in S.

    For real q (|Im q| <= REAL_TOL |q|) beta is 0 and iota is None: the
    caller chooses any axis, keeping the non-uniqueness of the decomposition
    visible at the API boundary.
    """
    alpha = q.a
    # Scale Im q by its largest component first: the squares cannot underflow
    # and a subnormal beta does not spoil the unit length of the direction.
    m = max(abs(q.b), abs(q.c), abs(q.d))
    if m == 0.0:
        return alpha, 0.0, None
    b, c, d = q.b / m, q.c / m, q.d / m
    r = math.hypot(b, c, d)
    beta = m * r
    if beta <= REAL_TOL * math.hypot(alpha, beta):
        return alpha, 0.0, None
    return alpha, beta, SpherePoint(b / r, c / r, d / r)


def evaluate(f: SliceFunction, q: Quaternion) -> Quaternion:
    """f(q) at one quaternion."""
    return Quaternion(*f.values(q.components())[0])


def matrix_of(rows) -> QMatrix:
    """The matrix with the given rows of quaternions."""
    return QMatrix.from_components([[q.components() for q in row] for row in rows])


def basis_vector(n: int, k: int) -> QVector:
    """The k-th standard basis vector of H^n."""
    x1 = np.zeros(n)
    x1[k] = 1.0
    return QVector(x1, np.zeros(n))


def function_json(f: SliceFunction) -> dict:
    """The JSON document that `SliceFunction.from_json` reads back as f."""
    if f.kind == "poly":
        out = {"kind": "poly"}
        for key, part in (("Q1", 0), ("Q2", 1)):
            rows = f.exps[:, 1] % 2 == part
            out[key] = [[int(h), int(k), c.tolist()]
                        for (h, k), c in zip(f.exps[rows], f.coefs[rows, part])]
    elif f.kind == "builtin":
        out = {"kind": "builtin", "name": f.name}
    else:
        raise PreconditionError(f"{f.kind} stems cannot be serialized")
    if f.domain is not None:
        out["domain"] = f.domain.to_json()
    return out
