"""Tests for the spherical spectrum, spectral radius, resolvent series and
the spectral-class rows of the `verify` spectral suite."""

import math

import numpy as np
import pytest

from oracles import fold, matrix_of
from quatspec.calculus import build_context, intrinsic_calculus
from quatspec.errors import PreconditionError
from quatspec.qmatrix import (QMatrix, chi_embed, is_anti_self_adjoint,
                              is_normal, is_self_adjoint, is_unitary, op_norm,
                              random_normal, random_qmatrix, random_unitary)
from quatspec.quaternion import I, J, K, Quaternion, random_sphere_point
from quatspec.slicefn import CircularSet, SliceFunction, hausdorff
from quatspec.spectral import (delta_q, gelfand_check, resolvent_series,
                               spherical_spectrum)
from quatspec.verify import run_verification

RNG = np.random.default_rng(9)


def flag_matrix() -> QMatrix:
    return matrix_of([[Quaternion(), I], [-I, Quaternion()]])


# -- delta_q ----------------------------------------------------------------------

def test_delta_q_examples():
    t, _ = random_normal(4, RNG)
    assert op_norm(delta_q(t, Quaternion()) - t @ t) <= 1e-14
    r = 1.7
    shifted = t - QMatrix.identity(4) * r
    assert op_norm(delta_q(t, Quaternion(r)) - shifted @ shifted) <= 1e-12
    assert op_norm(delta_q(QMatrix.identity(3), I) - QMatrix.identity(3) * 2.0) <= 1e-14


def test_delta_q_constant_on_conjugacy_classes():
    t = random_qmatrix(3, RNG)
    alpha, beta = 0.4, 1.1
    d1 = delta_q(t, Quaternion(alpha) + random_sphere_point(RNG) * beta)
    d2 = delta_q(t, Quaternion(alpha) + random_sphere_point(RNG) * beta)
    assert op_norm(d1 - d2) <= 1e-13


# -- spherical spectrum --------------------------------------------------------------

def test_spectrum_of_scalar_matrix():
    spec = spherical_spectrum(QMatrix.identity(4) * 2.0)
    assert spec.size == 1 and spec.mult == (4,)
    assert np.allclose(spec.reps, [[2.0, 0.0]])


def test_spectrum_of_imaginary_unit_is_sphere():
    spec = spherical_spectrum(QMatrix.diag([I]))
    assert spec.size == 1 and spec.mult == (1,)
    assert np.allclose(spec.reps, [[0.0, 1.0]], atol=1e-14)


def test_spectrum_of_flag_matrix():
    spec = spherical_spectrum(flag_matrix())
    assert spec.mult == (1, 1)
    assert hausdorff(spec.reps, np.array([[-1.0, 0.0], [1.0, 0.0]])) <= 1e-12


def test_spectrum_matches_generator():
    for kind in ("normal", "selfadjoint", "antiselfadjoint", "unitary"):
        t, reps = random_normal(6, RNG, kind=kind)
        spec = spherical_spectrum(t)
        assert hausdorff(spec.reps, reps) <= 1e-10
        assert sum(spec.mult) == 6


def test_spectrum_multiplicities_of_degenerate_matrix():
    v = random_unitary(5, RNG)
    lam = Quaternion(1) + I * 2.0
    d = QMatrix.diag([lam, lam, lam, Quaternion(-3), Quaternion(-3)])
    spec = spherical_spectrum(v @ d @ v.adjoint())
    assert spec.size == 2
    assert spec.mult == (2, 3)  # sorted by (alpha, beta): -3 first
    assert hausdorff(spec.reps, np.array([[-3.0, 0.0], [1.0, 2.0]])) <= 1e-10


def test_spectrum_invariant_under_rotating_the_axis():
    """Eigenvalues along different imaginary axes land on the same sphere."""
    for iota in (I, J, K, random_sphere_point(RNG)):
        spec = spherical_spectrum(QMatrix.diag([Quaternion(0.5) + iota * 1.5]))
        assert hausdorff(spec.reps, np.array([[0.5, 1.5]])) <= 1e-12


def test_spectrum_is_a_circular_set_with_multiplicities():
    v = random_unitary(3, RNG)
    spec = spherical_spectrum(v @ QMatrix.diag([Quaternion(2), Quaternion(2), I]) @ v.adjoint())
    assert isinstance(spec, CircularSet)
    assert spec.mult == (1, 2) and abs(spec.radius() - 2.0) <= 1e-12
    assert CircularSet([[0.0, 1.0]]).mult == (1,)
    with pytest.raises(PreconditionError, match="one multiplicity"):
        CircularSet([[0.0, 1.0], [1.0, 0.0]], [1])


def test_spectrum_json_roundtrip():
    t, _ = random_normal(3, RNG)
    spec = spherical_spectrum(t)
    again = CircularSet.from_json(spec.to_json())
    assert np.array_equal(again.reps, spec.reps) and again.mult == spec.mult


# -- spectral radius and the Gelfand sequence -------------------------------------------

def test_spectral_radius_examples():
    assert abs(spherical_spectrum(QMatrix.identity(3)).radius() - 1.0) <= 1e-13
    assert abs(spherical_spectrum(QMatrix.diag([I * 3.0])).radius() - 3.0) <= 1e-13
    t, _ = random_normal(5, RNG)
    assert abs(spherical_spectrum(t).radius() - op_norm(t)) <= 1e-9 * op_norm(t)


def test_spectral_radius_bounded_by_norm():
    m = random_qmatrix(5, RNG)
    assert spherical_spectrum(m).radius() <= op_norm(m) * (1 + 1e-10)


def test_gelfand_sequence():
    t, _ = random_normal(4, RNG)
    seq = gelfand_check(t, 5)
    assert np.abs(seq - op_norm(t)).max() <= 1e-8 * op_norm(t)
    assert np.allclose(gelfand_check(QMatrix.zeros(3), 3), 0.0)
    # nilpotent: sequence decreases toward r_S = 0
    nil = matrix_of([[Quaternion(), Quaternion(1)],
                     [Quaternion(), Quaternion()]])
    seq = gelfand_check(nil, 3)
    assert seq[0] == 1.0 and np.all(seq[1:] <= 1e-12)
    assert spherical_spectrum(nil).radius() <= 1e-12
    with pytest.raises(PreconditionError):
        gelfand_check(t, 0)


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_gelfand_sequence_scales_with_t(c):
    """gelfand_check(c T) = c gelfand_check(T): the powers of c T once
    underflowed to 0 at c = 1e-12 and overflowed at c = 1e12."""
    t, _ = random_normal(6, np.random.default_rng(1))
    base = gelfand_check(t, 5)
    seq = gelfand_check(t * c, 5)
    assert np.all(np.abs(seq - c * base) <= 1e-12 * c * base)


# -- resolvent series ----------------------------------------------------------------------

def test_resolvent_series_against_direct_inverse():
    t, _ = random_normal(4, RNG)
    for _ in range(3):
        q = Quaternion(RNG.normal()) + random_sphere_point(RNG) * RNG.normal()
        q = q * (2.0 * op_norm(t) / q.norm())
        res = resolvent_series(t, q, 1e-10)
        delta = delta_q(t, q)
        # oracle: invert the complex embedding directly
        direct = np.linalg.inv(chi_embed(delta))
        assert np.linalg.norm(chi_embed(res) - direct, 2) <= 1e-8
        eye = QMatrix.identity(4)
        assert op_norm(delta @ res - eye) <= 1e-8
        assert op_norm(res @ delta - eye) <= 1e-8


def test_resolvent_series_trivial_cases():
    res = resolvent_series(QMatrix.zeros(3), Quaternion(1), 1e-12)
    assert op_norm(res - QMatrix.identity(3)) <= 1e-14
    # a_0 = |q|^(-2): for T = 0 the series is exactly I |q|^(-2)
    res = resolvent_series(QMatrix.zeros(2), Quaternion(0, 2, 0, 0), 1e-12)
    assert op_norm(res - QMatrix.identity(2) * 0.25) <= 1e-14


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_resolvent_series_scales_with_t(c):
    """R(cT, cq) = R(T, q) / c^2: the series is summed for T/|q|, so no power
    of T overflows or underflows at any scale."""
    t, _ = random_normal(5, np.random.default_rng(7))
    q = Quaternion(0.3) + I * (2.0 * op_norm(t))
    base = resolvent_series(t, q, 1e-10)
    res = resolvent_series(t * c, q * c, 1e-10)
    assert np.isfinite(chi_embed(res)).all()
    assert op_norm(res * (c * c) - base) <= 1e-12 * op_norm(base)


def test_resolvent_series_rejects_small_q():
    t, _ = random_normal(3, RNG)
    with pytest.raises(PreconditionError):
        resolvent_series(t, Quaternion(0.5 * op_norm(t)), 1e-10)


def test_resolvent_series_pure_imaginary_q():
    """Odd-degree coefficients vanish for imaginary q; the tail bound must
    keep summing through the zero terms."""
    t, _ = random_normal(3, RNG)
    q = random_sphere_point(RNG) * (2.0 * op_norm(t))
    res = resolvent_series(t, q, 1e-10)
    assert op_norm(delta_q(t, q) @ res - QMatrix.identity(3)) <= 1e-8


# -- spectral classes -------------------------------------------------------------------

CLASS_ROWS = ("spectrum-real", "spectrum-imaginary", "spectrum-unit-modulus",
              "spectrum-is-sphere", "radius-equals-norm")


def class_rows(t: QMatrix) -> list[str]:
    """The class rows the spectral suite reports for T alone; it must pass."""
    report = run_verification(matrices=[(t, None)], suite="spectral")
    assert report.ok, report.table()
    names = [c.name for c in report.checks]
    assert {"adjoint-same-spectrum", "circularity"} <= set(names)
    return [name for name in names if name in CLASS_ROWS]


def test_class_report_self_adjoint():
    t, _ = random_normal(5, RNG, kind="selfadjoint")
    assert class_rows(t) == ["spectrum-real", "radius-equals-norm"]


def test_class_report_anti_self_adjoint():
    t, _ = random_normal(5, RNG, kind="antiselfadjoint")
    assert class_rows(t) == ["spectrum-imaginary", "radius-equals-norm"]


def test_class_report_unitary():
    t, _ = random_normal(5, RNG, kind="unitary")
    assert class_rows(t) == ["spectrum-unit-modulus", "radius-equals-norm"]


def test_class_report_imaginary_unit():
    t, _ = random_normal(4, RNG, kind="imaginaryunit")
    assert class_rows(t) == ["spectrum-imaginary", "spectrum-unit-modulus",
                             "spectrum-is-sphere", "radius-equals-norm"]


def test_class_report_is_scale_invariant():
    t, _ = random_normal(6, np.random.default_rng(1))
    s, _ = random_normal(5, RNG, kind="selfadjoint")
    for c in (1e-12, 1.0, 1e12):
        for m, expect in ((t * c, (False, False, False, True)),
                          (s * c, (True, False, False, True))):
            assert (is_self_adjoint(m), is_anti_self_adjoint(m), is_unitary(m),
                    is_normal(m)) == expect


def test_class_report_generic():
    assert class_rows(random_qmatrix(4, RNG)) == []  # sigma_S(T) = sigma_S(T*) still holds


def test_spectrum_keeps_conjugate_pairs_of_close_spheres():
    """n = 8, eigenspheres in pairs whose alpha lie 1e-8 apart, one pair
    real: the folded eigenvalues of chi(exp T) lie 2e-9 to 1.7e-8 apart
    within each pair, some just inside and some just outside the clustering
    tolerance of 1.7e-8. A merge that depends on the visiting order put an
    odd number of them into one cluster and raised "folded eigenvalues did
    not pair up"."""
    rng = np.random.default_rng(1001)
    alpha = rng.uniform(-2.0, 2.0, 8)
    beta = rng.uniform(0.3, 2.0, 8)
    beta[rng.random(8) < 0.25] = 0.0
    alpha[1::2], beta[1::2] = alpha[0::2] + 1e-8, beta[0::2]
    d = QMatrix.diag([Quaternion(a) + random_sphere_point(rng) * b
                      for a, b in zip(alpha, beta)])
    v = random_unitary(8, rng)
    t = v @ d @ v.adjoint()
    spec = spherical_spectrum(intrinsic_calculus(build_context(t), SliceFunction.builtin("exp")))
    assert spec.mult == (2, 2, 2, 2)


# -- spectral maps ---------------------------------------------------------------------

def test_polynomial_spectral_map_self_adjoint():
    t, _ = random_normal(5, RNG, kind="selfadjoint")
    coefs = RNG.normal(size=4)  # degree 3
    pt = QMatrix.zeros(5)
    for h, r in enumerate(coefs):
        pt = pt + t.power(h) * float(r)
    spec = spherical_spectrum(t)
    mapped = np.array([[np.polyval(coefs[::-1], a), 0.0] for a, _ in spec.reps])
    assert hausdorff(spherical_spectrum(pt).reps, mapped) <= \
        1e-7 * (1.0 + op_norm(t)) ** 3


def test_power_spectral_map_normal():
    t, _ = random_normal(5, RNG)
    spec = spherical_spectrum(t)
    for n in (2, 3):
        mapped = np.array([fold((Quaternion(a) + I * b) ** n) for a, b in spec.reps])
        assert hausdorff(spherical_spectrum(t.power(n)).reps, mapped) <= \
            1e-7 * max(1.0, op_norm(t)) ** n


def test_eigensphere_membership():
    t, _ = random_normal(5, RNG)
    for a, b in spherical_spectrum(t).reps:
        d = delta_q(t, Quaternion(a, b, 0, 0))
        smin = np.linalg.svd(chi_embed(d), compute_uv=False).min()
        assert smin <= 1e-8 * max(1.0, op_norm(d))


def test_vanishing_polynomial_annihilates():
    t, _ = random_normal(5, RNG, kind="selfadjoint")
    prod = QMatrix.identity(5)
    for a, _ in spherical_spectrum(t).reps:
        prod = prod @ (t - QMatrix.identity(5) * float(a))
    assert op_norm(prod) <= 1e-7 * (1.0 + op_norm(t)) ** 5


@pytest.mark.parametrize("q, tol", [
    (Quaternion(math.nan, 0.0, 0.0, 0.0), 1e-10),
    (Quaternion(0.0, math.inf, 0.0, 0.0), 1e-10),
    (Quaternion(3.0, 0.0, 0.0, 0.0), math.nan),
    (Quaternion(3.0, 0.0, 0.0, 0.0), math.inf),
    (Quaternion(3.0, 0.0, 0.0, 0.0), 0.0),
    (Quaternion(3.0, 0.0, 0.0, 0.0), -1e-8),
])
def test_resolvent_series_rejects_non_finite_input(q, tol):
    t = QMatrix.diag([Quaternion(1.0), Quaternion(-1.0)])
    with pytest.raises(PreconditionError, match="q = |tol = "):
        resolvent_series(t, q, tol)
