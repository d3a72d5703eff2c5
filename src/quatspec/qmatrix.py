"""Quaternionic n x n matrices as bounded right-H-linear operators on H^n.

The internal representation is a real (n, n, 4) ndarray of quaternion
components; the complex 2n x 2n embedding `chi_embed` is the numerical
workhorse (norms, square roots, inverses run through numpy/scipy on it).

Main contents:

- `QVector`, `QMatrix` - vectors/operators on H^n with the product from the
  quaternion multiplication table
- `_qmul`, `_hc_mul`, `_hc_star`, `_hc_norm` - the products, the involution
  and the C*-norm of H and H(x)C on arrays of components, shared by the
  matrices, the stems and the verification suites
- `chi_embed` / `chi_extract` - the complex adjoint representation
  M = M1 + M2*j  ->  [[M1, M2], [-conj(M2), conj(M1)]]
- `op_norm` - operator norm sup ||Mu||/||u|| (largest singular value of chi)
- `sqrt_positive` - square root of a positive operator
- `polar_decompose` - M = W P with P = |M|, W isometric on Ker(P)^perp
- `split_plus_minus` - the splitting H = H+ (+) H- attached to (J, iota)
- `LeftMultiplication` - basis-induced left scalar
  multiplication L_q u = sum_z z q <z|u>, and the diagonal sandwich
  Z diag(q_m) Z* on the basis columns Z
- `extend_complex_operator` - unique right-H-linear, J-commuting extension of
  a complex operator given on an orthonormal basis of H+
- random generators for matrices, Haar unitaries (the polar factor of a
  Gaussian matrix) and normal operators with a prescribed ground-truth
  spectrum
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError
from .quaternion import Quaternion, SpherePoint, _cstar_norm

# -- component arithmetic on (..., 4) float arrays ---------------------------


def _qmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    a1, b1, c1, d1 = np.moveaxis(x, -1, 0)
    a2, b2, c2, d2 = np.moveaxis(y, -1, 0)
    return np.stack(
        [
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        ],
        axis=-1,
    )


def _qconj(x: np.ndarray) -> np.ndarray:
    out = x.copy()
    out[..., 1:] *= -1.0
    return out


# -- H(x)C arithmetic on (..., 2, 4) arrays: row 0 holds q, row 1 p of q + I*p


def _hc_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(q + Ip)(q' + Ip') = qq' - pp' + I(qp' + pq') over the leading axes."""
    (q1, p1), (q2, p2) = np.moveaxis(x, -2, 0), np.moveaxis(y, -2, 0)
    return np.stack([_qmul(q1, q2) - _qmul(p1, p2), _qmul(q1, p2) + _qmul(p1, q2)],
                    axis=-2)


def _hc_star(x: np.ndarray) -> np.ndarray:
    """The *-involution q + Ip -> conj(q) - I conj(p)."""
    return _qconj(x) * [[1.0], [-1.0]]


def _hc_norm(x: np.ndarray) -> np.ndarray:
    """The C*-norm of every element."""
    return _cstar_norm(*np.moveaxis(x, (-2, -1), (0, 1)))


def _as_qarray(q: Quaternion) -> np.ndarray:
    return np.array(q.components(), dtype=float)


def _qmatmul(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Quaternion matrix product via 16 real matmuls (multiplication table)."""
    a = [m[..., i] for i in range(4)]
    b = [n[..., i] for i in range(4)]
    return np.stack(
        [
            a[0] @ b[0] - a[1] @ b[1] - a[2] @ b[2] - a[3] @ b[3],
            a[0] @ b[1] + a[1] @ b[0] + a[2] @ b[3] - a[3] @ b[2],
            a[0] @ b[2] - a[1] @ b[3] + a[2] @ b[0] + a[3] @ b[1],
            a[0] @ b[3] + a[1] @ b[2] - a[2] @ b[1] + a[3] @ b[0],
        ],
        axis=-1,
    )


# -- vectors ------------------------------------------------------------------


class QVector:
    """Vector in H^n with the Hermitean product <u|v> = sum conj(u_k) v_k."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise PreconditionError(f"expected an (n, 4) component array, got {arr.shape}")
        self.data = arr

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @classmethod
    def from_quaternions(cls, entries: Iterable[Quaternion]) -> "QVector":
        return cls(np.array([q.components() for q in entries], dtype=float))

    @classmethod
    def basis_vector(cls, n: int, k: int) -> "QVector":
        data = np.zeros((n, 4))
        data[k, 0] = 1.0
        return cls(data)

    def __getitem__(self, k: int) -> Quaternion:
        return Quaternion(*self.data[k])

    def __add__(self, other: "QVector") -> "QVector":
        return QVector(self.data + other.data)

    def __sub__(self, other: "QVector") -> "QVector":
        return QVector(self.data - other.data)

    def __neg__(self) -> "QVector":
        return QVector(-self.data)

    def __mul__(self, r: float) -> "QVector":
        return QVector(self.data * float(r))

    __rmul__ = __mul__

    def rmul(self, q: Quaternion) -> "QVector":
        """Right scalar multiplication u -> u q."""
        return QVector(_qmul(self.data, _as_qarray(q)))

    def inner(self, other: "QVector") -> Quaternion:
        if other.n != self.n:
            raise PreconditionError("dimension mismatch")
        comps = _qmul(_qconj(self.data), other.data).sum(axis=0)
        return Quaternion(*comps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def to_json(self) -> dict:
        return {"v": self.data.tolist()}

    @classmethod
    def from_json(cls, data) -> "QVector":
        return cls(np.asarray(data["v"], dtype=float))

    def __repr__(self) -> str:
        return f"QVector(n={self.n})"


# -- matrices ------------------------------------------------------------------


class QMatrix:
    """Quaternionic n x n matrix acting on H^n by (Mu)_k = sum_l M_kl u_l."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 4:
            raise PreconditionError(f"expected an (n, n, 4) component array, got {arr.shape}")
        self.data = arr

    @property
    def n(self) -> int:
        return self.data.shape[0]

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "QMatrix":
        return cls(np.zeros((n, n, 4)))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        data = np.zeros((n, n, 4))
        data[np.arange(n), np.arange(n), 0] = 1.0
        return cls(data)

    @classmethod
    def diag(cls, entries: Sequence[Quaternion]) -> "QMatrix":
        n = len(entries)
        data = np.zeros((n, n, 4))
        for k, q in enumerate(entries):
            data[k, k] = q.components()
        return cls(data)

    @classmethod
    def from_entries(cls, rows: Sequence[Sequence[Quaternion]]) -> "QMatrix":
        return cls(np.array([[q.components() for q in row] for row in rows], dtype=float))

    @classmethod
    def from_columns(cls, columns: Sequence[QVector]) -> "QMatrix":
        data = np.stack([v.data for v in columns], axis=1)
        return cls(data)

    def column(self, m: int) -> QVector:
        return QVector(self.data[:, m, :])

    def __getitem__(self, kl) -> Quaternion:
        k, l = kl
        return Quaternion(*self.data[k, l])

    # -- algebra ----------------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_dim(other)
        return QMatrix(self.data + other.data)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._check_dim(other)
        return QMatrix(self.data - other.data)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.data)

    def __mul__(self, r: float) -> "QMatrix":
        if not isinstance(r, (int, float)):
            return NotImplemented
        return QMatrix(self.data * float(r))

    __rmul__ = __mul__

    def __matmul__(self, other: "QMatrix | QVector"):
        if isinstance(other, QMatrix):
            self._check_dim(other)
            return QMatrix(_qmatmul(self.data, other.data))
        if isinstance(other, QVector):
            if other.n != self.n:
                raise PreconditionError("dimension mismatch")
            return QVector(_qmatmul(self.data, other.data))
        return NotImplemented

    def _check_dim(self, other: "QMatrix") -> None:
        if other.n != self.n:
            raise PreconditionError("dimension mismatch")

    def adjoint(self) -> "QMatrix":
        """Entrywise conjugate transpose; satisfies <M* u|v> = <u|M v>."""
        return QMatrix(_qconj(np.swapaxes(self.data, 0, 1)))

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

    def norm(self) -> float:
        return op_norm(self)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.data))

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "rows": self.data.tolist()}

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
        return cls(rows)

    def __repr__(self) -> str:
        return f"QMatrix(n={self.n})"


# -- complex adjoint representation -------------------------------------------


def _blocks(m: QMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Split M = M1 + M2 j with M1, M2 complex (C_i) matrices."""
    d = m.data
    return d[..., 0] + 1j * d[..., 1], d[..., 2] + 1j * d[..., 3]


def chi_embed(m: QMatrix) -> np.ndarray:
    """Complex 2n x 2n image of M; an injective real-algebra *-homomorphism."""
    m1, m2 = _blocks(m)
    return np.block([[m1, m2], [-m2.conj(), m1.conj()]])


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
    scale = max(1.0, float(np.linalg.norm(c)) / np.sqrt(2 * n))
    defect = max(float(np.linalg.norm(c21 + c12.conj())),
                 float(np.linalg.norm(c22 - c11.conj())))
    if defect > tol * scale:
        raise PreconditionError(
            f"matrix is not in the image of the embedding (defect {defect:.3e})")
    m1 = 0.5 * (c11 + c22.conj())
    m2 = 0.5 * (c12 - c21.conj())
    data = np.stack([m1.real, m1.imag, m2.real, m2.imag], axis=-1)
    return QMatrix(data)


def chi_vec(u: QVector) -> np.ndarray:
    """Complex coordinates of u consistent with chi_embed: chi(M)chi(u) = chi(Mu)."""
    u1 = u.data[:, 0] + 1j * u.data[:, 1]
    u2 = u.data[:, 2] + 1j * u.data[:, 3]
    return np.concatenate([u1, -u2.conj()])


def chi_vec_extract(v: np.ndarray) -> QVector:
    v = np.asarray(v, dtype=complex)
    n = v.shape[0] // 2
    u1, u2 = v[:n], -v[n:].conj()
    return QVector(np.stack([u1.real, u1.imag, u2.real, u2.imag], axis=-1))


def op_norm(m: QMatrix) -> float:
    """Operator norm sup ||Mu||/||u||, the largest singular value of chi(M)."""
    return float(np.linalg.norm(chi_embed(m), 2))


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


# -- square root and polar decomposition ----------------------------------------


def sqrt_positive(m: QMatrix, tol: float = 1e-10) -> QMatrix:
    """Unique positive square root of a positive self-adjoint operator.

    Computed by unitary diagonalization of chi(M); eigenvalues are clamped to
    [0, inf) before square-rooting, which tolerates -1e-12-size jitter but
    rejects genuinely negative spectrum.
    """
    if not is_self_adjoint(m, tol):
        raise PreconditionError("operator is not self-adjoint")
    c = chi_embed(m)
    c = 0.5 * (c + c.conj().T)
    w, v = np.linalg.eigh(c)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    if w.min(initial=0.0) < -tol * scale:
        raise PreconditionError(f"operator is not positive (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    # sqrt is not Lipschitz at 0: flush the eigensolver noise floor to exactly
    # zero so near-kernel eigenvectors cannot contribute at sqrt(eps) size
    w[w < 1e-13 * w.max(initial=0.0)] = 0.0
    root = (v * np.sqrt(w)) @ v.conj().T
    return chi_extract(root)


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


def split_plus_minus(u: QVector, j: QMatrix, iota: SpherePoint,
                     tol: float = 1e-10) -> tuple[QVector, QVector]:
    """Orthogonal splitting u = u+ + u- with J u(+-) = (+-) u(+-) iota.

    Uses u(+-) = (u -+ J u iota) / 2.
    """
    if not (is_anti_self_adjoint(j, tol) and is_unitary(j, tol)):
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

    def __init__(self, columns: QMatrix, tol: float = 1e-10):
        gram = columns.adjoint() @ columns
        defect = (gram - QMatrix.identity(columns.n)).frobenius()
        if defect > tol * columns.n:
            raise PreconditionError(
                f"basis is not orthonormal (Gram deviation {defect:.3e})")
        self.columns = columns

    @classmethod
    def standard(cls, n: int) -> "LeftMultiplication":
        return cls(QMatrix.identity(n))

    @property
    def n(self) -> int:
        return self.columns.n

    def vector(self, m: int) -> QVector:
        return self.columns.column(m)

    def diagonal(self, values: np.ndarray) -> QMatrix:
        """Z diag(q_m) Z* for the basis columns Z and an (n, 4) array of
        quaternions q_m: one column scaling and one quaternion matmul."""
        z = self.columns.data
        return QMatrix(_qmatmul(_qmul(z, values), _qconj(np.swapaxes(z, 0, 1))))

    def matrix(self, q: Quaternion) -> QMatrix:
        """The operator L_q as a quaternionic matrix."""
        return self.diagonal(np.tile(_as_qarray(q), (self.n, 1)))


def extend_complex_operator(s: np.ndarray, basis: LeftMultiplication,
                            iota: SpherePoint) -> QMatrix:
    """Extend a complex operator on H+ to a right-H-linear operator on H^n.

    `s` is the n x n complex matrix of the operator in the orthonormal basis
    of H+^{J iota} whose vectors are the columns of `basis` (those vectors
    also form a Hilbert basis of H^n). The result is the unique right-H-linear
    extension commuting with J = L_iota; it satisfies ||extension|| = ||s||
    and respects products and adjoints.
    """
    s = np.asarray(s, dtype=complex)
    n = basis.n
    if s.shape != (n, n):
        raise PreconditionError(f"expected a {n} x {n} complex matrix, got {s.shape}")
    data = np.zeros((n, n, 4))
    data[..., 0] = s.real
    for axis, comp in enumerate((iota.b, iota.c, iota.d), start=1):
        data[..., axis] = s.imag * comp
    z = basis.columns
    return z @ QMatrix(data) @ z.adjoint()


# -- random generators ------------------------------------------------------------


def random_qvector(n: int, rng: np.random.Generator, scale: float = 1.0) -> QVector:
    return QVector(rng.normal(size=(n, 4)) * scale)


def random_qmatrix(n: int, rng: np.random.Generator, scale: float = 1.0) -> QMatrix:
    return QMatrix(rng.normal(size=(n, n, 4)) * scale)


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
