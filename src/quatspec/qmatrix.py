"""Quaternionic n x n matrices as bounded right-H-linear operators on H^n.

A vector or matrix x is stored as its complex pair x = x1 + x2 j, two
complex arrays over C_i. Since j z = conj(z) j, one product formula
(M1 + M2 j)(N1 + N2 j) = (M1 N1 - M2 conj N2) + (M1 N2 + M2 conj N1) j
serves M @ N, M @ u and the inner product, and the complex 2n x 2n
embedding `chi_embed`, the numerical workhorse (norms, square roots and
inverses run through numpy on it), is one block matrix of the pair.
Quaternion components (..., 4) are read and written only at the boundary
(`from_components`, `components`, JSON, entries).

At small n a kernel call costs more in numpy's per-call wrappers than in
arithmetic, so the kernels avoid them and stay bit-identical to the plain
formulas: `chi_embed` writes its four blocks into one preallocated array
(no `np.block`), `op_norm` is the first singular value of one `svd` (no
`np.linalg.norm(., 2)`), and `_qmul` / `_hc_mul` index the last axes and
write one output array (no `moveaxis`, no `np.stack`).

Main contents:

- `QVector`, `QMatrix` - vectors/operators on H^n as complex pairs
- `_qmul`, `_hc_mul`, `_hc_star`, `_hc_norm` - the products, the involution
  and the C*-norm of H and H(x)C on arrays of components, shared by the
  calculi, the stems and the verification suites
- `chi_embed` / `chi_extract` - the complex adjoint representation
  M = M1 + M2*j  ->  [[M1, M2], [-conj(M2), conj(M1)]]
- `op_norm` - operator norm sup ||Mu||/||u|| (largest singular value of chi)
- `polar_decompose` - M = W P with P = |M|, W isometric on Ker(P)^perp
- `split_plus_minus` - the splitting H = H+ (+) H- attached to (J, iota)
- `LeftMultiplication` - basis-induced left scalar
  multiplication L_q u = sum_z z q <z|u>, and the diagonal sandwich
  Z diag(q_m) Z* on the basis columns Z, which realizes every operator the
  calculi build from an eigenbasis
- random generators for matrices, Haar unitaries (the polar factor of a
  Gaussian matrix) and normal operators with a prescribed ground-truth
  spectrum
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import PreconditionError
from .quaternion import Quaternion, SpherePoint, _cstar_norm

# -- component arithmetic on (..., 4) float arrays ---------------------------


def _qmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The quaternion product of (..., 4) component arrays, broadcast over
    the leading axes; each component is written into one output array."""
    x, y = np.asarray(x), np.asarray(y)
    a1, b1, c1, d1 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    a2, b2, c2, d2 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    real = a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2  # of the broadcast shape and type
    out = np.empty(np.shape(real) + (4,), dtype=real.dtype)
    out[..., 0] = real
    out[..., 1] = a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2
    out[..., 2] = a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2
    out[..., 3] = a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2
    return out


def _qconj(x: np.ndarray) -> np.ndarray:
    out = x.copy()
    out[..., 1:] *= -1.0
    return out


# -- H(x)C arithmetic on (..., 2, 4) arrays: row 0 holds q, row 1 p of q + I*p


def _hc_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(q + Ip)(q' + Ip') = qq' - pp' + I(qp' + pq') over the leading axes."""
    x, y = np.asarray(x), np.asarray(y)
    q1, p1, q2, p2 = x[..., 0, :], x[..., 1, :], y[..., 0, :], y[..., 1, :]
    q = _qmul(q1, q2) - _qmul(p1, p2)
    out = np.empty(q.shape[:-1] + (2, 4), dtype=q.dtype)
    out[..., 0, :] = q
    out[..., 1, :] = _qmul(q1, p2) + _qmul(p1, q2)
    return out


def _hc_star(x: np.ndarray) -> np.ndarray:
    """The *-involution q + Ip -> conj(q) - I conj(p)."""
    return _qconj(x) * [[1.0], [-1.0]]


def _hc_norm(x: np.ndarray) -> np.ndarray:
    """The C*-norm of every element."""
    return _cstar_norm(*np.moveaxis(x, (-2, -1), (0, 1)))


def _as_qarray(q: Quaternion) -> np.ndarray:
    return np.array(q.components(), dtype=float)


def _pair(x) -> tuple[np.ndarray, np.ndarray]:
    """Split (..., 4) components a + bi + cj + dk into the complex pair
    (a + bi, c + di) of x = x1 + x2 j; the `.view` keeps every bit (-0.0,
    subnormals), which `a + 1j*b` would not."""
    z = np.ascontiguousarray(x, dtype=float).view(complex)
    return z[..., 0].copy(), z[..., 1].copy()


def _pair_product(m1, m2, n1, n2) -> tuple[np.ndarray, np.ndarray]:
    """(M1 + M2 j)(N1 + N2 j) = (M1 N1 - M2 conj N2) + (M1 N2 + M2 conj N1) j,
    since j z = conj(z) j for z in C_i."""
    return m1 @ n1 - m2 @ n2.conj(), m1 @ n2 + m2 @ n1.conj()


# -- vectors and matrices ------------------------------------------------------


class _QArray:
    """Shared arithmetic of `QVector` and `QMatrix`: the entries are stored
    as two complex arrays x1, x2 with x = x1 + x2 j."""

    __slots__ = ("x1", "x2")
    _ndim = 0

    def __init__(self, x1, x2):
        x1, x2 = np.asarray(x1, dtype=complex), np.asarray(x2, dtype=complex)
        if x1.ndim != self._ndim or x2.shape != x1.shape or len(set(x1.shape)) > 1:
            raise PreconditionError(f"{type(self).__name__} expects two complex arrays of "
                                    f"one {self._ndim}-d square shape, got {x1.shape}, "
                                    f"{x2.shape}")
        self.x1, self.x2 = x1, x2

    @classmethod
    def from_components(cls, x):
        """From the (..., 4) float components a + bi + cj + dk of each entry."""
        arr = np.asarray(x, dtype=float)
        if arr.ndim != cls._ndim + 1 or arr.shape[-1] != 4:
            raise PreconditionError(
                f"expected a {cls._ndim + 1}-d (..., 4) component array, got {arr.shape}")
        return cls(*_pair(arr))

    def components(self) -> np.ndarray:
        """The (..., 4) float components of every entry."""
        return np.stack([self.x1, self.x2], axis=-1).view(float)

    @property
    def n(self) -> int:
        return self.x1.shape[0]

    def __getitem__(self, idx) -> Quaternion:
        z1, z2 = self.x1[idx], self.x2[idx]
        return Quaternion(z1.real, z1.imag, z2.real, z2.imag)

    def _check_dim(self, other: "_QArray") -> None:
        if other.n != self.n:
            raise PreconditionError("dimension mismatch")

    def __add__(self, other):
        self._check_dim(other)
        return type(self)(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other):
        self._check_dim(other)
        return type(self)(self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self):
        return type(self)(-self.x1, -self.x2)

    def __mul__(self, r: float):
        if not isinstance(r, (int, float)):
            return NotImplemented
        return type(self)(self.x1 * float(r), self.x2 * float(r))

    __rmul__ = __mul__

    def frobenius(self) -> float:
        return float(np.hypot(np.linalg.norm(self.x1), np.linalg.norm(self.x2)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class QVector(_QArray):
    """Vector in H^n with the Hermitean product <u|v> = sum conj(u_k) v_k."""

    __slots__ = ()
    _ndim = 1

    @classmethod
    def basis_vector(cls, n: int, k: int) -> "QVector":
        x1 = np.zeros(n)
        x1[k] = 1.0
        return cls(x1, np.zeros(n))

    def rmul(self, q: Quaternion) -> "QVector":
        """Right scalar multiplication u -> u q."""
        q1, q2 = complex(q.a, q.b), complex(q.c, q.d)
        return QVector(self.x1 * q1 - self.x2 * q2.conjugate(),
                       self.x1 * q2 + self.x2 * q1.conjugate())

    def inner(self, other: "QVector") -> Quaternion:
        self._check_dim(other)
        z1, z2 = _pair_product(self.x1.conj(), -self.x2, other.x1, other.x2)
        return Quaternion(z1.real, z1.imag, z2.real, z2.imag)

    def norm(self) -> float:
        return self.frobenius()

    def to_json(self) -> dict:
        return {"v": self.components().tolist()}

    @classmethod
    def from_json(cls, data) -> "QVector":
        return cls.from_components(data["v"])


class QMatrix(_QArray):
    """Quaternionic n x n matrix acting on H^n by (Mu)_k = sum_l M_kl u_l."""

    __slots__ = ()
    _ndim = 2

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "QMatrix":
        return cls(np.zeros((n, n)), np.zeros((n, n)))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(np.eye(n), np.zeros((n, n)))

    @classmethod
    def diag(cls, entries: Sequence[Quaternion]) -> "QMatrix":
        q1, q2 = _pair(np.array([q.components() for q in entries], dtype=float).reshape(-1, 4))
        return cls(np.diag(q1), np.diag(q2))

    @classmethod
    def from_entries(cls, rows: Sequence[Sequence[Quaternion]]) -> "QMatrix":
        return cls.from_components([[q.components() for q in row] for row in rows])

    def column(self, m: int) -> QVector:
        return QVector(self.x1[:, m], self.x2[:, m])

    # -- algebra ----------------------------------------------------------------

    def __matmul__(self, other: "QMatrix | QVector"):
        if not isinstance(other, (QMatrix, QVector)):
            return NotImplemented
        self._check_dim(other)
        return type(other)(*_pair_product(self.x1, self.x2, other.x1, other.x2))

    def adjoint(self) -> "QMatrix":
        """Entrywise conjugate transpose; satisfies <M* u|v> = <u|M v>."""
        return QMatrix(self.x1.conj().T, -self.x2.T)

    def power(self, k: int) -> "QMatrix":
        if k < 0:
            raise PreconditionError("negative matrix powers are not defined here")
        out = QMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return out

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "rows": self.components().tolist()}

    @classmethod
    def from_json(cls, data) -> "QMatrix":
        n = int(data["n"])
        rows = np.asarray(data["rows"], dtype=float)
        if rows.shape != (n, n, 4):
            raise PreconditionError(f"rows shape {rows.shape} inconsistent with n={n}")
        bad = np.argwhere(~np.isfinite(rows))
        if bad.size:
            k, l, comp = bad[0]
            raise PreconditionError(
                f"entry ({k}, {l}) component {comp} is not finite: {rows[k, l, comp]}")
        return cls.from_components(rows)


# -- complex adjoint representation -------------------------------------------


def chi_embed(m: QMatrix) -> np.ndarray:
    """Complex 2n x 2n image of M; an injective real-algebra *-homomorphism.
    The four blocks are written into one array."""
    n = m.n
    out = np.empty((2 * n, 2 * n), dtype=complex)
    out[:n, :n], out[:n, n:] = m.x1, m.x2
    np.negative(np.conjugate(m.x2, out=out[n:, :n]), out=out[n:, :n])
    np.conjugate(m.x1, out=out[n:, n:])
    return out


def chi_extract(c: np.ndarray, tol: float = 1e-10) -> QMatrix:
    """Inverse of `chi_embed`; requires the symplectic block symmetry."""
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] % 2:
        raise PreconditionError(f"expected a 2n x 2n matrix, got {c.shape}")
    n = c.shape[0] // 2
    c11, c12 = c[:n, :n], c[:n, n:]
    c21, c22 = c[n:, :n], c[n:, n:]
    # Frobenius norms: the defect is >= its 2-norm and the scale <= ||c||_2,
    # so the test is at least as strict as a 2-norm one, without an SVD
    scale = float(np.linalg.norm(c)) / np.sqrt(2 * n)
    defect = max(float(np.linalg.norm(c21 + c12.conj())),
                 float(np.linalg.norm(c22 - c11.conj())))
    if defect > tol * scale:
        raise PreconditionError(
            f"matrix is not in the image of the embedding (defect {defect:.3e})")
    return QMatrix(0.5 * (c11 + c22.conj()), 0.5 * (c12 - c21.conj()))


def op_norm(m: QMatrix) -> float:
    """Operator norm sup ||Mu||/||u||, the largest singular value of chi(M)
    (the first one `svd` returns, in descending order)."""
    return float(np.linalg.svd(chi_embed(m), compute_uv=False)[0])


# -- operator classes -----------------------------------------------------------


def is_self_adjoint(m: QMatrix, tol: float = 1e-10) -> bool:
    return (m - m.adjoint()).frobenius() <= tol * m.frobenius()


def is_anti_self_adjoint(m: QMatrix, tol: float = 1e-10) -> bool:
    return (m + m.adjoint()).frobenius() <= tol * m.frobenius()


def is_unitary(m: QMatrix, tol: float = 1e-10) -> bool:
    return (m @ m.adjoint() - QMatrix.identity(m.n)).frobenius() <= tol * m.n


def is_normal(m: QMatrix, tol: float = 1e-10) -> bool:
    comm = m @ m.adjoint() - m.adjoint() @ m
    return comm.frobenius() <= tol * m.frobenius() ** 2


# -- polar decomposition ----------------------------------------------------


def polar_decompose(m: QMatrix) -> tuple[QMatrix, QMatrix]:
    """Polar decomposition M = W P with P = |M| = sqrt(M* M), both read off
    one SVD of chi(M) (Higham, SISC 7, 1986).

    W vanishes on Ker(P) and is isometric on Ker(P)^perp; singular values
    below 1e-10 of the largest are treated as kernel. W inherits
    (anti-)self-adjointness from M.
    """
    c = chi_embed(m)
    u, s, vh = np.linalg.svd(c)
    cutoff = 1e-10 * float(s.max(initial=0.0))
    keep = s > cutoff
    p_mat = (vh.conj().T * s) @ vh
    w_mat = u[:, keep] @ vh[keep, :]
    return chi_extract(w_mat), chi_extract(p_mat)


# -- imaginary units and complex subspaces ---------------------------------------


def split_plus_minus(u: QVector, j: QMatrix, iota: SpherePoint) -> tuple[QVector, QVector]:
    """Orthogonal splitting u = u+ + u- with J u(+-) = (+-) u(+-) iota.

    Uses u(+-) = (u -+ J u iota) / 2.
    """
    if not (is_anti_self_adjoint(j) and is_unitary(j)):
        raise PreconditionError("J must be an anti-self-adjoint unitary operator")
    ju_iota = (j @ u).rmul(iota)
    u_plus = (u - ju_iota) * 0.5
    u_minus = (u + ju_iota) * 0.5
    return u_plus, u_minus


class LeftMultiplication:
    """Left scalar multiplication induced by an orthonormal Hilbert basis N:
    L_q u = sum_z z q <z|u>.

    q -> L_q is a norm-preserving real-algebra homomorphism with
    (L_q)* = L_conj(q) and L_r u = u r for real r.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: QMatrix):
        gram = columns.adjoint() @ columns
        defect = (gram - QMatrix.identity(columns.n)).frobenius()
        if defect > 1e-10 * columns.n:
            raise PreconditionError(
                f"basis is not orthonormal (Gram deviation {defect:.3e})")
        self.columns = columns

    @property
    def n(self) -> int:
        return self.columns.n

    def vector(self, m: int) -> QVector:
        return self.columns.column(m)

    def diagonal(self, values: np.ndarray) -> QMatrix:
        """Z diag(q_m) Z* for the basis columns Z and quaternions q_m given as
        an (n, 4) component array, or as an (n,) array of numbers of C_i:
        one column scaling Z diag(q_m) and one product."""
        values = np.asarray(values)
        q1, q2 = (values, 0.0) if values.ndim == 1 else _pair(values)
        z = self.columns
        scaled = QMatrix(z.x1 * q1 - z.x2 * np.conj(q2), z.x1 * q2 + z.x2 * np.conj(q1))
        return scaled @ z.adjoint()

    def matrix(self, q: Quaternion) -> QMatrix:
        """The operator L_q as a quaternionic matrix."""
        return self.diagonal(np.tile(_as_qarray(q), (self.n, 1)))


# -- random generators ------------------------------------------------------------


def random_qvector(n: int, rng: np.random.Generator, scale: float = 1.0) -> QVector:
    return QVector.from_components(rng.normal(size=(n, 4)) * scale)


def random_qmatrix(n: int, rng: np.random.Generator, scale: float = 1.0) -> QMatrix:
    return QMatrix.from_components(rng.normal(size=(n, n, 4)) * scale)


def random_unitary(n: int, rng: np.random.Generator) -> QMatrix:
    """Haar random quaternionic unitary: the polar factor of a Gaussian
    matrix, whose law is invariant under Sp(n) on both sides (Mezzadri,
    Notices AMS 54, 2007)."""
    return polar_decompose(random_qmatrix(n, rng))[0]


def random_normal(n: int, rng: np.random.Generator, kind: str = "normal",
                  real_fraction: float = 0.25) -> tuple[QMatrix, np.ndarray]:
    """Random normal operator T = V D V* with known eigensphere representatives.

    D is diagonal with entries alpha_m + iota_m beta_m (independent random
    axes iota_m), V is a random quaternionic unitary, which makes T normal to
    machine precision. Returns (T, reps) where reps is the (n, 2) array of
    ground-truth (alpha, beta >= 0) representatives.

    kind: "normal" (a `real_fraction` of the eigenvalues is placed on the real
    axis), "selfadjoint", "antiselfadjoint", "unitary" or "imaginaryunit"
    (anti-self-adjoint and unitary).
    """
    alpha = rng.uniform(-2.0, 2.0, size=n)
    beta = rng.uniform(0.3, 2.0, size=n)
    if kind == "normal":
        beta[rng.uniform(size=n) < real_fraction] = 0.0
    elif kind == "selfadjoint":
        beta[:] = 0.0
    elif kind == "antiselfadjoint":
        alpha[:] = 0.0
    elif kind == "unitary":
        theta = rng.uniform(0.0, np.pi, size=n)
        alpha, beta = np.cos(theta), np.sin(theta)
    elif kind == "imaginaryunit":
        alpha[:] = 0.0
        beta[:] = 1.0
    else:
        raise ValueError(f"unknown kind {kind!r}")
    from .quaternion import random_sphere_point

    diag = []
    for m in range(n):
        axis = random_sphere_point(rng)
        diag.append(Quaternion(alpha[m]) + axis * beta[m])
    v = random_unitary(n, rng)
    t = v @ QMatrix.diag(diag) @ v.adjoint()
    return t, np.column_stack([alpha, beta])
