"""Spherical spectrum of quaternionic operators.

The spherical spectrum of T is the circular set of quaternions q for which
Delta_q(T) = T^2 - T(q + conj q) + I|q|^2 is not invertible; in finite
dimension it coincides with the set of eigenspheres. Numerically it is read
off the eigenvalues of the complex embedding chi(T), folded into the closed
upper half-plane: every eigensphere contributes a conjugate pair, so the
folded multiplicities halve.

The spectrum is a `slicefn.CircularSet`: its upper-half-plane
representatives with their quaternionic multiplicities (summing to n). Both
routes to it, `spherical_spectrum` here and `CalculusContext.spectrum`,
cluster once at CLUSTER_TOL ||T||, so it scales with T and serves as it is as
a sup set and as a function domain.

Contents:

- `delta_q(T, q)` - the defining quadratic operator
- `spherical_spectrum(T)` - eigenvalues of chi(T) folded and clustered
- `gelfand_check(T, n_max)` - the sequence ||T^(2^k)||^(1/2^k)
- `resolvent_series(T, q, tol)` - power-series inverse of Delta_q(T)
- `verify_spectral_classes(T)` - spectral containments per operator class
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, PreconditionError
from .qmatrix import (QMatrix, chi_embed, is_anti_self_adjoint, is_normal,
                      is_self_adjoint, is_unitary, op_norm)
from .quaternion import Quaternion
from .reporting import VerificationReport
from .slicefn import CircularSet, cluster_points, hausdorff

CLUSTER_TOL = 1e-8  # sphere clustering of the spectrum and the measure atoms, times ||T||
_RESOLVENT_MAX_TERMS = 20000  # term budget of `resolvent_series`


def delta_q(t: QMatrix, q: Quaternion) -> QMatrix:
    """Delta_q(T) = T^2 - T (q + conj q) + I |q|^2; constant on eigenspheres."""
    trace = 2.0 * q.a
    mod2 = q.norm() ** 2
    return t @ t - t * trace + QMatrix.identity(t.n) * mod2


def spherical_spectrum(t: QMatrix) -> CircularSet:
    """Eigenvalues of chi(T), folded into the closed upper half-plane and
    clustered at CLUSTER_TOL ||T||; in finite dimension the whole spectrum is
    point spectrum."""
    try:
        eigs = np.linalg.eigvals(chi_embed(t))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigvals rarely fails
        raise NumericalError(f"eigensolver failure: {exc}") from exc
    folded = np.column_stack([eigs.real, np.abs(eigs.imag)])
    reps, members = cluster_points(folded, CLUSTER_TOL * op_norm(t))
    if any(len(cluster) % 2 for cluster in members):
        raise NumericalError(
            "folded eigenvalues did not pair up; conjugate symmetry lost")
    mult = [len(cluster) // 2 for cluster in members]
    if sum(mult) != t.n:
        raise NumericalError("spectrum multiplicities do not sum to the dimension")
    return CircularSet(reps, mult)


def gelfand_check(t: QMatrix, n_max: int) -> np.ndarray:
    """The sequence ||T^(2^k)||^(1/2^k), k = 0..n_max, converging to the
    spectral radius (constant for normal T).

    The powers are taken of T/||T||, each square divided by its norm m_k, so
    ||T^(2^k)||^(1/2^k) = ||T|| prod_{j<=k} m_j^(1/2^j) and no power
    overflows or underflows at any scale of T; a zero T gives zeros."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    root = op_norm(t)
    out = [root]
    power = t * (1.0 / root) if root > 0.0 else t
    for k in range(1, n_max + 1):
        power = power @ power
        norm = op_norm(power)
        root *= norm ** (1.0 / 2 ** k)
        out.append(root)
        if norm > 0.0:
            power = power * (1.0 / norm)
    return np.array(out)


def resolvent_series(t: QMatrix, q: Quaternion, tol: float) -> QMatrix:
    """Inverse of Delta_q(T) by the series sum_n T^n a_n with real
    coefficients a_n = |q|^(-2n-2) sum_h q^h conj(q)^(n-h).

    Requires a finite q with |q| > ||T|| strictly (1e-6 relative margin) and
    a finite tol > 0. The partial sum is extended until the tail is small
    enough that the returned R satisfies Delta_q(T) R = R Delta_q(T) = I
    within 10*tol.
    """
    if not np.isfinite(q.components()).all():
        raise PreconditionError(f"q = {q} is not finite")
    if not (np.isfinite(tol) and tol > 0):
        raise PreconditionError(f"tol = {tol} is not a finite positive number")
    tnorm = op_norm(t)
    modq = q.norm()
    if modq <= tnorm * (1.0 + 1e-6):
        raise PreconditionError(
            f"|q| = {modq:.6g} is not strictly outside the spectral bound ||T|| = {tnorm:.6g}")
    # Delta_q(T) = |q|^2 Delta_q'(T') for T' = T/|q| and q' = q/|q|: the series
    # is summed for |q'| = 1, so no power of T' grows, and scaled by |q|^-2
    unit = t * (1.0 / modq)
    dnorm = op_norm(delta_q(unit, q * (1.0 / modq)))
    trace = 2.0 * q.a / modq
    ratio = tnorm / modq
    a_prev2, a_prev1 = 0.0, 1.0  # a_(-1), a_0
    total = power = QMatrix.identity(t.n)
    for n in range(1, _RESOLVENT_MAX_TERMS):
        a_n = trace * a_prev1 - a_prev2
        power = power @ unit
        total = total + power * a_n
        a_prev2, a_prev1 = a_prev1, a_n
        # |a_m| <= m+1 gives a closed-form tail bound; stopping on it (not on
        # the term size, which can vanish identically for imaginary q) keeps
        # ||Delta_q'(T') R' - I|| <= ||Delta_q'(T')|| * tail <= tol
        tail = ratio ** (n + 1) * ((n + 2) / (1.0 - ratio) + ratio / (1.0 - ratio) ** 2)
        if tail * dnorm <= tol:
            return total * (1.0 / (modq * modq))
    raise NumericalError("resolvent series did not converge within the term budget")


def verify_spectral_classes(t: QMatrix) -> VerificationReport:
    """Detect the operator class of T and check the corresponding spectral
    containments, plus sigma_S(T) = sigma_S(T*) and the circularity contract.
    The class is read off the `qmatrix` predicates at their default
    tolerances, which are relative to ||T||_F (unitarity fixes the scale), so
    c T has the class of T for every c > 0 except the unitary ones. Every
    tolerance is relative to ||T|| with no floor, so it scales with T.

    In finite dimension the residual and continuous parts of the spectrum are
    empty; the report records this instead of representing them.
    """
    report = VerificationReport()
    tnorm = op_norm(t)
    sa = is_self_adjoint(t)
    asa = is_anti_self_adjoint(t)
    unitary = is_unitary(t)
    normal = is_normal(t)
    if sa:
        detected = "self-adjoint"
    elif asa and unitary:
        detected = "anti-self-adjoint unitary"
    elif asa:
        detected = "anti-self-adjoint"
    elif unitary:
        detected = "unitary"
    elif normal:
        detected = "normal"
    else:
        detected = "generic"
    report.meta["class"] = detected

    spec = spherical_spectrum(t)
    tol = 1e-8 * tnorm
    if sa:
        report.add("spectrum-real", "T = T*  =>  sigma_S(T) subset R",
                   float(spec.reps[:, 1].max(initial=0.0)), tol)
    if asa:
        report.add("spectrum-imaginary", "T = -T*  =>  sigma_S(T) subset Im(H)",
                   float(np.abs(spec.reps[:, 0]).max(initial=0.0)), tol)
    if unitary:
        moduli = np.hypot(spec.reps[:, 0], spec.reps[:, 1])
        report.add("spectrum-unit-modulus", "T unitary  =>  |q| = 1 on sigma_S(T)",
                   float(np.abs(moduli - 1.0).max(initial=0.0)), tol)
    if asa and unitary:
        target = np.array([[0.0, 1.0]])
        report.add("spectrum-is-sphere",
                   "T anti-self-adjoint unitary  =>  sigma_S(T) = S",
                   hausdorff(spec.reps, target), tol)
    if normal:
        report.add("radius-equals-norm", "T normal  =>  r_S(T) = ||T||",
                   abs(spec.radius() - tnorm), 1e-9 * tnorm)
    spec_star = spherical_spectrum(t.adjoint())
    report.add("adjoint-same-spectrum", "sigma_S(T) = sigma_S(T*)",
               hausdorff(spec.reps, spec_star.reps), tol)
    report.add("circularity", "only beta >= 0 representatives stored",
               float(max(0.0, -spec.reps[:, 1].min(initial=0.0))), 0.0)
    report.notes.append(
        "finite dimension: residual and continuous spectral parts are empty "
        "(every spectral point is an eigensphere)")
    return report
