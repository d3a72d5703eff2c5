"""Continuous slice functional calculus for normal quaternionic operators.

Every normal T decomposes as T = A + JB with A = (T+T*)/2 self-adjoint,
B = |T-T*|/2 positive, and J an anti-self-adjoint unitary commuting with
both. J extends to a full left scalar multiplication L commuting with A and
B; fixing iota = i, kappa = j gives the operators J = L_i, K = L_j used by
the calculi. `build_context(T)` is the one entry point: `ctx.j` is J and
L_q is `ctx.basis.matrix(q)`. J, K and B are read off one eigensystem
T u_m = u_m lambda_m, lambda_m = alpha_m + iota beta_m, with Z = [u_m] an
orthonormal basis of H+: J = Z diag(iota) Z*, B = Z diag(beta_m) Z* and
||T|| = max |lambda_m|.
The eigensystem takes one Hermitian eigensolve of H + mu K, H and K the
commuting self-adjoint and skew parts of chi(T), which separates the
eigenvalues by alpha + mu beta; a complex Schur form is taken only of the
blocks of eigenvalues that share alpha + mu beta to within 1e-4 of the
spectrum's scale, and one Cayley step makes the whole a Schur basis of
chi(T) when T is normal only to within rounding of its data. That Schur
form is the one call into scipy, and `scipy.linalg` is imported on the
first such block, not with this module.
The calculi are:

- polynomial:  g(T) = Q1(A,B) + J Q2(A,B)
- intrinsic:   f(T) from the eigendecomposition of T on H+ (isometric
               *-homomorphism with the spectral map property)
- C_iota:      f(T) = f0(T) + f1(T) J
- circular / general: f(T) = f0(T) + f1(T) J + f2(T) K + f3(T) JK

The four eigenvalue calculi (intrinsic, C_iota, circular, general) are one
operator: with Z the eigenbasis of H+ and lambda_m read in C_iota,
f(T) = Z diag(F1(lambda_m) + iota F2(lambda_m)) Z*, since
f_l(T) E_l = Z diag(f_l(lambda_m) e_l) Z* for E_l = L_{e_l}. Each calculus
checks its class of f and keeps the components l it covers. The polynomial
route and the contour realization over a circle in C_iota stay independent
cross-checks. chi(T) is diagonalized once per context, chi(T) U = U diag(d)
with U unitary (`CalculusContext.chi_diag`); the contour certifies that
factorization against T by its own residual and sums the quadrature on its
diagonal: one weight array over all nodes, no solve per node.

The decomposition data is bundled in an immutable `CalculusContext`; all
calculi are pure functions of it and may run concurrently on a shared
context. `CalculusContext.spectrum()` is sigma_S(T) as a
`slicefn.CircularSet`, the lambda_m clustered once at CLUSTER_TOL ||T||;
it is the sup set of the isometry ||f(T)|| = sup |f| and a valid domain.
The same clusters resolve any normal T: `projections()` gives one P_s per
sphere s, T = sum_s (alpha_s P_s + beta_s J P_s), and the spectral measure
at u is ||P_s u||^2 (`spectral_measure_weights`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import NumericalError, PreconditionError
from .qmatrix import (LeftMultiplication, QMatrix, QVector, _as_qarray, _qconj,
                      _qmul, chi_embed, chi_extract, is_normal)
from .quaternion import I as QI
from .quaternion import J as QJ
from .quaternion import REAL_TOL, SpherePoint
from .slicefn import (CircularSet, SliceFunction, _within,
                      cluster_points, is_circular, is_cslice, is_intrinsic)
from .spectral import CLUSTER_TOL

# global slice convention: iota = i, kappa = j, so {1, iota, kappa,
# iota*kappa} is the standard basis {1, i, j, k}
IOTA = QI
KAPPA = QJ

_EIG_CLUSTER_TOL = 1e-11  # eigenvalue clustering for the eigensystem, times ||T||
_SPLIT_MU = math.sqrt(2.0) - 1.0  # weight of K in H + mu K: a fixed irrational
_SPLIT_GAP = 1e-4  # split of the eigh spectrum, times its largest modulus
MIN_CONTOUR_NODES = 16  # fewest quadrature nodes `slice_regular_contour` takes


def _split_schur(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Complex Schur form c = V S V* of a nearly normal c, diagonal up to
    rounding for normal c.

    H = (c + c*)/2 and K = (c - c*)/(2i) commute for normal c, so one `eigh`
    of H + mu K = w c + (w c)*, w = (1 - i mu)/2, separates the eigenvalues
    alpha + i beta of c by alpha + mu beta. The sorted spectrum is split
    where consecutive values lie more than _SPLIT_GAP times its largest
    modulus apart, and c is compressed once, S = V* c V. A block whose
    compression is scalar within tau = _EIG_CLUSTER_TOL max |S_mm|, entry by
    entry (a single eigenvalue, a Kramers pair of a real one), keeps its
    vectors; any other block is replaced by the complex Schur form of its
    compression, its rows and columns of S and its columns of V rotated to
    match. `scipy.linalg` is imported on the first such block, not with the
    module, and `scipy.linalg.schur` is looked up at each call.
    The eigh vectors of a c that is normal only to within E carry
    cross-block mass of about ||E|| ||c|| / gap on both sides of the block
    diagonal, where a Schur form has it above only. When the part L of S
    below the block diagonal exceeds 1e-11 max |S_mm| (a tenth of the 1e-10
    residual gates), one Cayley step removes it to first order:
    A_ij = -S_ij / (S_ii - S_jj) on L, A <- A - A*,
    Q = (I - A/2)^(-1) (I + A/2), V <- V Q, S <- Q* S Q. Cross-block
    eigenvalues lie at least _SPLIT_GAP max |w| / sqrt(1 + mu^2) apart, so A
    stays small. Normal input never takes the step. Returns diag(S), the
    unitary V and the off-diagonal mass ||S - diag(S)||_F.
    """
    wc = (0.5 - 0.5j * _SPLIT_MU) * c
    w, v = np.linalg.eigh(wc + wc.conj().T)
    s = v.conj().T @ c @ v
    gap = _SPLIT_GAP * np.abs(w).max(initial=0.0)
    starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > gap)
    stops = np.append(starts[1:], w.size)
    block = np.repeat(np.arange(starts.size), stops - starts)
    diag = np.diag(s)
    shift = np.diag((np.add.reduceat(diag, starts) / (stops - starts))[block])
    spread = np.abs(np.where(block[:, None] == block, s, 0.0) - shift).max(axis=1, initial=0.0)
    scale = np.abs(diag).max(initial=0.0)
    scalar = np.maximum.reduceat(spread, starts) <= _EIG_CLUSTER_TOL * scale
    for lo, hi in zip(starts[~scalar].tolist(), stops[~scalar].tolist()):
        # about two thirds of a cold CLI import, and most inputs reach no block
        import scipy.linalg
        tri, z = scipy.linalg.schur(s[lo:hi, lo:hi], output="complex")
        v[:, lo:hi] = v[:, lo:hi] @ z
        s[:, lo:hi] = s[:, lo:hi] @ z
        s[lo:hi] = z.conj().T @ s[lo:hi]
        s[lo:hi, lo:hi] = tri
    below = block[:, None] > block
    lower = np.where(below, s, 0.0)
    if np.linalg.norm(lower) > 1e-11 * scale:
        d = np.diag(s)
        a = -lower / np.where(below, d[:, None] - d, 1.0)
        a -= a.conj().T
        eye = np.eye(w.size)
        q = np.linalg.solve(eye - 0.5 * a, eye + 0.5 * a)
        v = v @ q
        s = q.conj().T @ s @ q
    evals = np.diag(s).copy()
    np.fill_diagonal(s, 0.0)
    return evals, v, float(np.linalg.norm(s))


def _normal_eigensystem(t: QMatrix) -> tuple[np.ndarray, np.ndarray, QMatrix, float,
                                             tuple[np.ndarray, np.ndarray]]:
    """Eigenvalues (folded to Im >= 0) and a quaternionic orthonormal
    eigenbasis of a normal operator.

    Returns (lambdas, is_real, columns, tnorm, (d, U)): T u_m = u_m lambda_m
    with lambda_m read as alpha + iota*beta in C_iota, is_real flags the
    eigenvectors of the real eigenspheres (the kernel of T - T*), the u_m are
    the columns of the returned matrix, tnorm = max |lambda_m|, which is
    ||T|| for normal T, and chi(T) U = U diag(d) is the diagonalization of
    chi(T) the eigensystem was read from, U unitary.

    Route: `_split_schur` of chi(T), one Hermitian eigensolve that splits
    the eigenvalues by alpha + mu beta and a complex Schur form only of the
    blocks it cannot separate (its off-diagonal mass must stay below
    1e-7 ||T|| in the Frobenius norm). With tau = 1e-11 ||T||, an eigenvalue
    with Im > tau contributes its eigenvector as it is, and one with
    Im < -tau is its conjugate partner.
    The eigenvalues with |Im| <= tau are clustered on the real line at tau;
    each cluster spans an eigenspace V (2n x 2d) closed under the
    quaternionic structure sigma(x) = Omega conj(x), x -> x j in chi
    coordinates. Half of V is picked by pivoted sigma-orthogonalization:
    each pick is the column of V with the largest norm left after projecting
    off the picks so far and their partners sigma(w), normalized. Since
    x^H Omega conj(x) = 0 for every x, the remaining norms^2 sum to
    2(d - k) after k picks, so every pick has norm >= 1/sqrt(d) and the
    picks with their partners are orthonormal. Eigenvectors of eigenvalues
    a gap g apart are quaternion-orthogonal only to about eps ||T|| / g
    (up to 1e-5 at g = tau); two Newton-Schulz steps Z <- Z (3I - Z*Z) / 2
    square that Gram deviation twice, down to rounding level, while moving
    each u_m only within eigenvalues about g away.
    """
    if not is_normal(t):
        raise PreconditionError("operator is not normal")
    n = t.n
    try:
        evals, q, off = _split_schur(chi_embed(t))
    except (np.linalg.LinAlgError, ValueError) as exc:  # pragma: no cover
        raise NumericalError(f"eigensolver failure: {exc}") from exc
    tnorm = float(np.abs(evals).max(initial=0.0))
    if off > 1e-7 * tnorm:
        raise NumericalError("Schur form is far from diagonal; input not normal enough")
    tau = _EIG_CLUSTER_TOL * tnorm
    upper = np.flatnonzero(evals.imag > tau)
    if upper.size != np.count_nonzero(evals.imag < -tau):
        raise NumericalError("conjugate eigenvalue pairing lost: a gap to the real axis "
                             f"is within rounding of tau = {tau:.3e}")
    real = np.flatnonzero(np.abs(evals.imag) <= tau)
    lambdas, vectors = [evals[upper]], [q[:, upper]]
    for cluster in cluster_points(np.column_stack([evals.real[real], np.zeros(real.size)]),
                                  tau)[1]:
        v = q[:, real[cluster]]
        if v.shape[1] % 2:
            raise NumericalError("real eigenspace has odd complex dimension: a gap between "
                                 f"real eigenvalues is within rounding of tau = {tau:.3e}")
        w = np.empty((2 * n, 0), dtype=complex)
        for _ in range(v.shape[1] // 2):
            pairs = np.hstack([w, np.vstack([w[n:].conj(), -w[:n].conj()])])
            rest = v - pairs @ (pairs.conj().T @ v)
            pick = rest[:, np.argmax(np.linalg.norm(rest, axis=0))]
            w = np.column_stack([w, pick / np.linalg.norm(pick)])
        lambdas.append(np.full(w.shape[1], complex(evals.real[real[cluster]].mean())))
        vectors.append(w)
    lambdas, vectors = np.concatenate(lambdas), np.hstack(vectors)
    is_real = np.arange(n) >= upper.size
    order = np.lexsort((lambdas.imag, lambdas.real))
    vectors = vectors[:, order]
    columns = QMatrix(vectors[:n], -vectors[n:].conj())  # chi(u_m) = [u1; -conj u2]
    for _ in range(2):
        gram = columns.adjoint() @ columns
        columns = columns @ (QMatrix.identity(n) * 3.0 - gram) * 0.5
    return lambdas[order], is_real[order], columns, tnorm, (evals, q)


@dataclass(frozen=True)
class CalculusContext:
    """Immutable bundle (T, eigendecomposition, basis) consumed by every
    calculus, with A, B, J, K computed on first use; safe to share between
    threads."""

    t: QMatrix
    iota: SpherePoint
    kappa: SpherePoint
    lambdas: np.ndarray            # (n,) complex, Im >= 0
    kernel_flags: np.ndarray       # (n,) bool: eigenvector of Ker(T - T*)
    basis: LeftMultiplication      # simultaneous real-diagonalizing basis
    tnorm: float                   # ||T|| = max |lambda_m|
    chi_diag: tuple[np.ndarray, np.ndarray]  # (d, U): Schur basis of chi(T), U unitary

    @property
    def n(self) -> int:
        return self.t.n

    @cached_property
    def a(self) -> QMatrix:
        """A = (T + T*)/2."""
        return (self.t + self.t.adjoint()) * 0.5

    @cached_property
    def b(self) -> QMatrix:
        """B = |T - T*|/2 = Z diag(beta_m) Z*."""
        return self.basis.diagonal(self.lambdas.imag)

    @cached_property
    def j(self) -> QMatrix:
        """J = L_iota = Z diag(iota) Z*."""
        return self.basis.matrix(self.iota)

    @cached_property
    def k(self) -> QMatrix:
        """K = L_kappa."""
        return self.basis.matrix(self.kappa)

    @cached_property
    def _spheres(self) -> tuple[np.ndarray, list[list[int]]]:
        """The lambda_m clustered once at CLUSTER_TOL ||T||: (reps, members)."""
        pts = np.column_stack([self.lambdas.real, self.lambdas.imag])
        return cluster_points(pts, CLUSTER_TOL * self.tnorm)

    def spectrum(self) -> CircularSet:
        """sigma_S(T): one sphere per cluster, each with its multiplicity."""
        reps, members = self._spheres
        return CircularSet(reps, [len(cluster) for cluster in members])

    def projections(self) -> list[QMatrix]:
        """The spectral projections P_s = sum_{m in s} u_m u_m*, one per sphere
        s of `spectrum()` and in its order: the sandwich of a 0/1 indicator."""
        return [self.basis.diagonal(np.isin(np.arange(self.n), cluster) * 1.0)
                for cluster in self._spheres[1]]

    def to_json(self) -> dict:
        return {
            "A": self.a.to_json(),
            "B": self.b.to_json(),
            "J": self.j.to_json(),
            "K": self.k.to_json(),
            "eigs": [[float(l.real), float(l.imag)] for l in self.lambdas],
        }


def build_context(t: QMatrix) -> CalculusContext:
    """Assemble the full decomposition bundle for a normal operator.

    Everything is read off one eigensystem T = Z diag(lambda_m) Z*,
    lambda_m = alpha_m + iota beta_m with Im lambda_m >= 0:
    J = Z diag(iota) Z*, B = |T - T*|/2 = Z diag(beta_m) Z* and
    ||T|| = max |lambda_m|; A = (T + T*)/2 is exact. J is an
    anti-self-adjoint unitary commuting with T and T*. On Ker(T - T*)^perp
    it is the unique J with J |T - T*| = T - T*. On the kernel the paper
    leaves J free among the anti-self-adjoint unitaries completing
    T = A + JB; the half basis that pivoted sigma-orthogonalization picks on
    each real eigensphere fixes a deterministic completion (any valid
    completion yields the same calculi).
    The eigen-residual ||T - Z diag(lambda_m) Z*||_F bounds
    ||T - (A + JB)|| from above and must stay below 1e-10 ||T||. When it
    does not, or the eigenbasis is not orthonormal, the `NumericalError`
    quotes the smallest gap between distinct eigenvalues of chi(T) and the
    clustering tolerance tau = 1e-11 ||T||.
    The context keeps the one diagonalization of chi(T) the eigensystem was
    read from, `chi_diag` = (d, U) with U unitary and chi(T) U = U diag(d)
    up to the Schur form's strictly upper mass, which
    `slice_regular_contour` sums its quadrature on. A, B, J and K are
    computed on first use.
    """
    lambdas, kernel_flags, columns, tnorm, chi_diag = _normal_eigensystem(t)

    def gaps() -> str:
        evals = np.concatenate([lambdas, lambdas.conj()])
        dist = np.abs(evals[:, None] - evals[None, :])
        return (f"smallest eigenvalue gap {dist[dist > 0].min(initial=math.inf):.3e}, "
                f"clustering tolerance tau = {_EIG_CLUSTER_TOL * tnorm:.3e}")

    try:
        basis = LeftMultiplication(columns)
    except PreconditionError as exc:
        raise NumericalError(f"eigenbasis is not orthonormal: {exc}; {gaps()}") from exc
    # lambda_m = alpha_m + iota beta_m lies in C_iota = C_i
    residual = (t - basis.diagonal(lambdas)).frobenius()
    bound = 1e-10 * tnorm
    if residual > bound:
        raise NumericalError(f"eigen-residual ||T - Z diag(lambda) Z*|| = {residual:.3e} "
                             f"exceeds {bound:.3e}; {gaps()}")
    return CalculusContext(t=t, iota=IOTA, kappa=KAPPA, lambdas=lambdas,
                           kernel_flags=kernel_flags, basis=basis, tnorm=tnorm,
                           chi_diag=chi_diag)


def alternate_kernel_J(ctx: CalculusContext) -> QMatrix:
    """A different valid J: the sign of the iota-action is flipped on one
    eigenvector of Ker(T - T*). Everything the theory asserts to be
    J-choice-independent must be unchanged under this swap."""
    kernel = np.flatnonzero(ctx.kernel_flags)
    if kernel.size == 0:
        raise PreconditionError("T - T* has trivial kernel; J is unique")
    values = np.full(ctx.n, 1j)  # iota = i
    values[kernel[0]] = -1j
    return ctx.basis.diagonal(values)


# -- polynomial route ---------------------------------------------------------


def _poly_of_operators(coefs: dict[tuple[int, int], float],
                       a: QMatrix, b: QMatrix) -> QMatrix:
    """sum r A^h B^k, each power by binary powering."""
    out = QMatrix.zeros(a.n)
    for (h, k), r in sorted(coefs.items()):
        out = out + (a.power(h) @ b.power(k)) * r
    return out


def polynomial_calculus(ctx: CalculusContext, q1_terms, q2_terms,
                        j: QMatrix | None = None) -> QMatrix:
    """g(T) = Q1(A, B) + J Q2(A, B) for real bivariate polynomials with Q1
    even and Q2 odd in Y.

    Computed by direct matrix products of A, B and J (no eigendecomposition),
    so it cross-checks the spectral route. The terms are read as a slice
    function (`SliceFunction.polynomial`, with its exponent, finiteness and
    parity checks) whose coefficients must be real. The optional `j`
    substitutes an alternative valid J; the result does not depend on that
    choice.
    """
    poly = SliceFunction.polynomial(q1_terms, q2_terms)
    if not _within(poly.coefs[..., 1:], poly.coefs, REAL_TOL):
        raise PreconditionError("polynomial coefficients must be real")
    parts: tuple[dict, dict] = ({}, {})  # Q1 and Q2, {(h, k): real coefficient}
    for (h, k), c in zip(poly.exps.tolist(), poly.coefs[..., 0].tolist()):
        parts[k % 2][(h, k)] = c[k % 2]
    jmat = ctx.j if j is None else j
    return (_poly_of_operators(parts[0], ctx.a, ctx.b)
            + jmat @ _poly_of_operators(parts[1], ctx.a, ctx.b))


# -- eigenvalue route ----------------------------------------------------------


def _eigen_sandwich(ctx: CalculusContext, f: SliceFunction,
                    components: int) -> QMatrix:
    """Z diag(F1(lambda_m) + iota F2(lambda_m)) Z* on the context eigenbasis Z.

    With iota = i and kappa = j, quaternion component l of F1 and F2 is the
    stem of the intrinsic component f_l of f = f0 + f1 iota + f2 kappa +
    f3 iota kappa; only the first `components` of them are kept. Every
    lambda_m must lie in the domain of f (within CLUSTER_TOL ||T||, the
    tolerance at which the spectrum is clustered), and the kept
    components must be finite there (an overflowing f raises
    `NumericalError`).
    """
    inside = f.accepts(ctx.lambdas.real, ctx.lambdas.imag, CLUSTER_TOL * ctx.tnorm)
    if not inside.all():
        raise PreconditionError(f"spectrum point {ctx.lambdas[np.argmin(inside)]:.6g} "
                                "lies outside the function domain")
    with np.errstate(over="ignore", invalid="ignore"):  # finiteness is checked below
        vals = f.stem_values(ctx.lambdas)
    vals[:, :, components:] = 0.0
    finite = np.isfinite(vals).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError(f"f is not finite at spectrum point "
                             f"{ctx.lambdas[np.argmin(finite)]:.6g}")
    return ctx.basis.diagonal(vals[:, 0] + _qmul(_as_qarray(ctx.iota), vals[:, 1]))


def intrinsic_calculus(ctx: CalculusContext, f: SliceFunction) -> QMatrix:
    """The isometric *-homomorphism on intrinsic slice functions.

    Realized on H+ as the complex functional calculus of the restriction:
    diag(F1(lambda_m) + iota F2(lambda_m)) in the eigenbasis, extended to the
    unique right-H-linear operator commuting with J.
    """
    if not is_intrinsic(f):
        raise PreconditionError("function is not an intrinsic slice function")
    return _eigen_sandwich(ctx, f, 1)


def cslice_calculus(ctx: CalculusContext, f: SliceFunction) -> QMatrix:
    """Calculus for C_iota-slice functions: f(T) = f0(T) + f1(T) J where
    f = f0 + f1*iota with intrinsic components."""
    if not is_cslice(f, ctx.iota):
        raise PreconditionError("function does not take values in the context slice")
    return _eigen_sandwich(ctx, f, 2)


def circular_calculus(ctx: CalculusContext, f: SliceFunction) -> QMatrix:
    """Calculus for circular slice functions (F2 = 0):
    f(T) = f0(T) + f1(T) J + f2(T) K + f3(T) JK, a *-homomorphism."""
    if not is_circular(f):
        raise PreconditionError("function is not a circular slice function")
    return general_calculus(ctx, f)


def general_calculus(ctx: CalculusContext, f: SliceFunction) -> QMatrix:
    """R-linear continuous extension to every continuous slice function:
    f(T) = f0(T) + f1(T) J + f2(T) K + f3(T) JK."""
    return _eigen_sandwich(ctx, f, 4)


def slice_regular_contour(ctx: CalculusContext, f: SliceFunction | Sequence[SliceFunction],
                          radius: float | None = None,
                          nodes: int = 256) -> QMatrix | list[QMatrix]:
    """Contour realization of the calculus over the circle of the given
    radius in C_iota, by the periodic trapezoid rule (spectrally accurate for
    polynomial f). The default radius 2 ||T|| (1 for T = 0) scales with T.

    `f` is one slice function, whose image is returned, or a sequence of
    them, whose images are returned as a list in the same order. A sequence
    shares the factorization and the quadrature weights below. Each function
    is checked on its own (domain, finiteness at the nodes, the symmetry of
    its image); a domain or finiteness error of a sequence names the
    function by its index.

    The kernel at s is -Delta_s(T)^(-1) (T - L_conj(s)); each node
    contributes kernel composed with L_c1, c1 = w f(s), w the quadrature
    weight R e^{iota theta} / nodes. Since q -> L_q is multiplicative, that
    term is -Delta_s(T)^(-1) (T L_c1 - L_c2) with c2 = conj(s) c1. f is read
    at every node in one call of `SliceFunction.values`.

    The route reads T, ||T||, the basis inducing L and the context's
    diagonalization chi(T) U = U diag(d), U unitary (`ctx.chi_diag`, the
    Schur basis of `_split_schur`), and takes no factorization of its own.
    It never reads the lambda_m, their clustering, the
    sigma-orthogonalization, the Newton-Schulz steps or the sandwich, and it
    certifies (d, U) against T by its own residual: with S = U^H chi(T) U,
    ||S - diag(d)||_F = ||chi(T) U - U diag(d)||_F must stay below
    1e-10 ||T|| (the bound of the `build_context` residual gate), else a
    `NumericalError` quotes it. With [P Q] = U^H chi(Z), Z the basis
    columns, chi(L_c) = chi(Z) C(c) chi(Z)^H where
    C(c) = [[z1, z2], [-conj z2, conj z1]] (times I) for c = z1 + z2 j, so
    a node's term is U Delta_s(S)^(-1) (S [P Q] C(c1) - [P Q] C(c2)), whose
    right-hand side is gamma_s [SP; SQ; P; Q] for a 2 x 4 matrix gamma_s,
    real-linear in (z1, z2) of c1 and c2, applied to the fixed blocks. With
    S = diag(d), Delta_s(S) = diag(delta_s(d)) with
    delta_s(d) = d^2 - 2 Re(s) d + |s|^2, and SP = d P. The whole sum is one
    weight array W[r, c, i] = sum_s gamma_s[r, c] / delta_s(d_i), one
    contraction over the nodes, applied entrywise to the rows of d P, d Q,
    P, Q: no solve per node. A node on the spectrum (1/delta_s not finite)
    raises `NumericalError` naming it.
    Matches the algebraic calculus within quadrature error for slice
    functions induced by holomorphic stems.
    """
    single = isinstance(f, SliceFunction)
    fns = [f] if single else list(f)
    if not fns:
        raise PreconditionError("no slice function given")
    tnorm = ctx.tnorm
    if radius is None:
        radius = 2.0 * tnorm if tnorm > 0.0 else 1.0
    if not math.isfinite(radius):
        raise PreconditionError(f"radius {radius} is not finite")
    if radius <= tnorm:
        raise PreconditionError(
            f"radius {radius:.6g} does not enclose the spectrum (||T|| = {tnorm:.6g})")
    if nodes < MIN_CONTOUR_NODES:
        raise PreconditionError(f"at least {MIN_CONTOUR_NODES} quadrature nodes are required")
    # nodes s = alpha + iota beta as a (nodes, 4) array; weights w = s / nodes
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    alpha, beta = radius * np.cos(theta), radius * np.sin(theta)
    s = np.outer(beta, _as_qarray(ctx.iota))
    s[:, 0] = alpha
    weights, s_conj = s / nodes, _qconj(s)
    # c = z1 + z2 j with z1, z2 in C. gamma[m] takes the rows SP, SQ, P, Q to
    # the two halves of node m's right-hand side, two rows per function
    gamma = np.empty((nodes, len(fns), 2, 4), dtype=complex)
    for k, fk in enumerate(fns):
        which = "" if single else f"function {k}: "
        inside = fk.accepts(alpha, beta)
        if not inside.all():
            raise PreconditionError(
                f"{which}quadrature node {np.argmin(inside)} lies outside the function domain")
        with np.errstate(over="ignore", invalid="ignore"):  # finiteness is checked below
            c1 = _qmul(weights, fk.values(s))
        finite = np.isfinite(c1).all(axis=1)
        if not finite.all():
            raise NumericalError(f"{which}f is not finite at quadrature node {np.argmin(finite)}")
        c2 = _qmul(s_conj, c1)
        a1, b1, a2, b2 = np.concatenate([c1.view(complex), c2.view(complex)], axis=1).T
        gamma[:, k] = np.array([[a1, -b1.conj(), -a2, b2.conj()],
                                [b1, a1.conj(), -b2, -a2.conj()]]).transpose(2, 0, 1)
    n = ctx.n
    d, u = ctx.chi_diag
    mass = float(np.linalg.norm(chi_embed(ctx.t) @ u - u * d))
    if mass > 1e-10 * tnorm:
        raise NumericalError(f"chi(T) is not diagonal in the context's basis: residual "
                             f"||chi(T) U - U diag(d)|| = {mass:.3e} exceeds "
                             f"1e-10 ||T|| = {1e-10 * tnorm:.3e}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
        inv = 1.0 / (d * d - 2.0 * alpha[:, None] * d + radius * radius)  # (nodes, 2n)
    finite = np.isfinite(inv).all(axis=1)
    if not finite.all():
        raise NumericalError(f"quadrature node {np.argmin(finite)} hit the spectrum")
    if np.abs(d).max(initial=0.0) >= radius:
        raise PreconditionError(f"radius {radius:.6g} does not enclose the spectrum "
                                f"(max |eigenvalue| of chi(T) = {np.abs(d).max():.6g})")
    # W applied to the rows of d P, d Q, P, Q is two row scalings per half:
    # W_SP d + W_P of P and W_SQ d + W_Q of Q
    # one BLAS contraction over the nodes: (functions, halves, blocks, 2n)
    weight = np.tensordot(gamma, inv, axes=(0, 0))
    rows = weight[:, :, :2] * d + weight[:, :, 2:]  # (functions, halves, [P, Q], 2n)
    zc = chi_embed(ctx.basis.columns)
    pq = u.conj().T @ zc
    p, q = pq[:, :n], pq[:, n:]
    images = []
    for rk in rows:
        halves = [rk[h, 0, :, None] * p + rk[h, 1, :, None] * q for h in (0, 1)]
        images.append(chi_extract(-(u @ np.hstack(halves)) @ zc.conj().T, tol=1e-8))
    return images[0] if single else images


def spectral_measure_weights(ctx: CalculusContext, u: QVector) -> np.ndarray:
    """Atomic spectral measure of the normal T of the context at the vector u:
    the weights ||P_s u||^2 = sum_{m in s} |<u_m|u>|^2, one per sphere s and
    aligned with `ctx.spectrum().reps`. They sum to ||u||^2, and
    ||f(T)u||^2 = sum_s |f(lambda_s)|^2 w_s for intrinsic f."""
    weights = ((ctx.basis.columns.adjoint() @ u).components() ** 2).sum(axis=1)
    return np.array([weights[cluster].sum() for cluster in ctx._spheres[1]])
