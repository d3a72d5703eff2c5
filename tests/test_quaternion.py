"""Tests for quaternion scalars, the sphere and the complexified algebra."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatspec.errors import PreconditionError
from quatspec.quaternion import (ComplexifiedQuaternion, I, J, K, ONE,
                                 Quaternion, SpherePoint, random_sphere_point,
                                 sphere_decompose, sphere_grid)

finite = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


def quats(scale=finite):
    return st.builds(Quaternion, scale, scale, scale, scale)


def hcs():
    return st.builds(ComplexifiedQuaternion, quats(), quats())


# -- multiplication table ------------------------------------------------------

def test_multiplication_table():
    assert (I * J).isclose(K)
    assert (J * I).isclose(-K)
    assert (K * I).isclose(J)
    assert (I * K).isclose(-J)
    assert (J * K).isclose(I)
    assert (K * J).isclose(-I)
    for unit in (I, J, K):
        assert (unit * unit).isclose(Quaternion(-1))


def test_quat_mul_examples():
    assert (I * J).isclose(K)
    q = Quaternion(0.3, -1.2, 0.7, 2.0)
    assert (ONE * q).isclose(q)
    # (1+i)(1+j) expands to 1 + i + j + ij = 1 + i + j + k
    assert (Quaternion(1, 1, 0, 0) * Quaternion(1, 0, 1, 0)).isclose(
        Quaternion(1, 1, 1, 1))


@settings(max_examples=200, deadline=None)
@given(quats(), quats())
def test_norm_multiplicative(p, q):
    assert abs((p * q).norm() - p.norm() * q.norm()) <= 1e-13 * max(1.0, p.norm() * q.norm())


@settings(max_examples=200, deadline=None)
@given(quats(), quats())
def test_conjugation_reverses_products(p, q):
    assert ((p * q).conjugate() - q.conjugate() * p.conjugate()).norm() <= \
        1e-12 * max(1.0, p.norm() * q.norm())


@settings(max_examples=100, deadline=None)
@given(quats())
@example(Quaternion(0.0, 0.0, 4.89e-13, 4.89e-13))  # real to 1e-12, commutator 1.4e-12
def test_real_iff_central(q):
    # |qu - uq| is twice the imaginary pair of q orthogonal to u (exact up to
    # rounding and the underflow of squares below ~1e-154)
    for u, pair in ((I, (q.c, q.d)), (J, (q.b, q.d)), (K, (q.b, q.c))):
        assert ((q * u) - (u * q)).norm() == pytest.approx(2.0 * math.hypot(*pair),
                                                           rel=1e-14, abs=1e-150)
    # so a real q, |Im q| <= tol |q|, commutes with i, j, k within 2 tol |q|
    tol = 1e-12
    if q.im_norm() <= tol * q.norm():
        assert all(((q * u) - (u * q)).norm() <= 2.0 * tol * q.norm() for u in (I, J, K))


def test_inverse_and_power():
    q = Quaternion(1, 2, -1, 0.5)
    # the inverse of q is conj(q) / |q|^2
    assert (q * q.conjugate() / q.norm() ** 2).isclose(ONE, 1e-12)
    assert (q ** 3).isclose(q * q * q, 1e-10)
    assert (q ** 0).isclose(ONE)


# -- sphere decomposition ---------------------------------------------------------

def test_sphere_decompose_real():
    alpha, beta, iota = sphere_decompose(Quaternion(3))
    assert alpha == 3.0 and beta == 0.0 and iota is None


def test_sphere_decompose_unit():
    alpha, beta, iota = sphere_decompose(I)
    assert alpha == 0.0 and beta == 1.0
    assert iota.isclose(I)


def test_sphere_decompose_generic():
    # 1 + 2i + 2j has |Im| = 2 sqrt(2) along (i + j)/sqrt(2)
    alpha, beta, iota = sphere_decompose(Quaternion(1, 2, 2, 0))
    assert alpha == 1.0
    assert abs(beta - 2.0 * math.sqrt(2.0)) <= 1e-14
    assert iota.isclose(Quaternion(0, 1, 1, 0) / math.sqrt(2.0), 1e-14)


@settings(max_examples=100, deadline=None)
@given(quats())
@example(Quaternion(0.0, 0.0, 0.0, 8.975183968205359e-159))  # |Im q|^2 underflows
def test_sphere_decompose_roundtrip(q):
    alpha, beta, iota = sphere_decompose(q)
    rebuilt = Quaternion(alpha) if iota is None else Quaternion(alpha) + iota * beta
    assert (rebuilt - q).norm() <= 1e-12 * max(1.0, q.norm())
    assert beta >= 0.0


def test_sphere_point_validation():
    with pytest.raises(PreconditionError):
        SpherePoint(1.0, 1.0, 0.0)
    p = SpherePoint(0.6, 0.8, 0.0)
    assert (p * p).isclose(Quaternion(-1), 1e-14)


def test_sphere_grid_is_unit():
    grid = sphere_grid(500)
    assert grid.shape == (500, 3)
    assert np.abs(np.linalg.norm(grid, axis=1) - 1.0).max() <= 1e-12


# -- complexified algebra -----------------------------------------------------------

def test_hc_mul_examples():
    one = ComplexifiedQuaternion(ONE, Quaternion())
    w = ComplexifiedQuaternion(Quaternion(0.5, 1, -2, 0.25), Quaternion(1, 1, 1, 1))
    assert (one * w).isclose(w)
    # (0 + I*1)^2 = -1
    imag = ComplexifiedQuaternion(Quaternion(), ONE)
    assert (imag * imag).isclose(ComplexifiedQuaternion(Quaternion(-1), Quaternion()))
    # (i + I j)(j + I k): q-part ij - jk = k - i, p-part ik + jj = -1 - j
    w = ComplexifiedQuaternion(I, J)
    y = ComplexifiedQuaternion(J, K)
    expected = ComplexifiedQuaternion(K - I, Quaternion(-1) - J)
    assert (w * y).isclose(expected, 1e-15)


def test_hc_star_examples():
    one = ComplexifiedQuaternion(ONE, Quaternion())
    assert one.star().isclose(one)
    # (i + I j)* = -i + I j
    w = ComplexifiedQuaternion(I, J)
    assert w.star().isclose(ComplexifiedQuaternion(-I, J))


@settings(max_examples=200, deadline=None)
@given(hcs(), hcs())
def test_hc_star_antihomomorphism(w, y):
    assert ((w * y).star() - y.star() * w.star()).norm() <= \
        1e-12 * max(1.0, w.norm() * y.norm())


@settings(max_examples=100, deadline=None)
@given(hcs())
def test_hc_star_involution(w):
    assert w.star().star().isclose(w, 1e-12 * max(1.0, w.norm()))


def test_hc_norm_examples():
    q = Quaternion(1, -2, 0.5, 3)
    assert abs(ComplexifiedQuaternion(q, Quaternion()).norm() - q.norm()) <= 1e-14
    # 1 + I j: (1 + 1 + 2|Im(j)|)^(1/2) = 2
    assert abs(ComplexifiedQuaternion(ONE, J).norm() - 2.0) <= 1e-14
    # i + I i: Im(i * conj(i)) = Im(1) = 0, norm sqrt(2)
    assert abs(ComplexifiedQuaternion(I, I).norm() - math.sqrt(2.0)) <= 1e-14


@settings(max_examples=200, deadline=None)
@given(hcs())
def test_hc_cstar_identity(w):
    assert abs((w.star() * w).norm() - w.norm() ** 2) <= 1e-12 * max(1.0, w.norm() ** 2)


@settings(max_examples=200, deadline=None)
@given(hcs(), hcs())
def test_hc_submultiplicative(w, y):
    assert (w * y).norm() <= w.norm() * y.norm() + 1e-10 * max(1.0, w.norm() * y.norm())


@settings(max_examples=100, deadline=None)
@given(hcs())
def test_hc_norm_sandwich(w):
    low = math.hypot(w.q.norm(), w.p.norm())
    high = w.q.norm() + w.p.norm()
    assert low <= w.norm() + 1e-12 * max(1.0, w.norm())
    assert w.norm() <= high + 1e-12 * max(1.0, high)


def test_hc_norm_is_sup_over_sphere():
    """The closed-form norm dominates every sampled |q + iota p| and the
    quasi-uniform sample undershoots by less than 0.1%."""
    rng = np.random.default_rng(42)
    grid = sphere_grid(10_000)
    for _ in range(10):
        w = ComplexifiedQuaternion(Quaternion(*rng.normal(size=4)),
                                   Quaternion(*rng.normal(size=4)))
        sampled = 0.0
        for b, c, d in grid[:: 40]:  # stride keeps the scalar loop fast
            iota = Quaternion(0, b, c, d)
            sampled = max(sampled, (w.q + iota * w.p).norm())
        assert sampled <= w.norm() + 1e-12 * max(1.0, w.norm())
    # full-resolution sharpness on a handful of values
    for _ in range(3):
        w = ComplexifiedQuaternion(Quaternion(*rng.normal(size=4)),
                                   Quaternion(*rng.normal(size=4)))
        q = np.array(w.q.components())
        p = np.array(w.p.components())
        ip = np.empty((grid.shape[0], 4))
        g = grid
        ip[:, 0] = -(g[:, 0] * p[1] + g[:, 1] * p[2] + g[:, 2] * p[3])
        ip[:, 1] = g[:, 0] * p[0] + g[:, 1] * p[3] - g[:, 2] * p[2]
        ip[:, 2] = -g[:, 0] * p[3] + g[:, 1] * p[0] + g[:, 2] * p[1]
        ip[:, 3] = g[:, 0] * p[2] - g[:, 1] * p[1] + g[:, 2] * p[0]
        sampled = float(np.linalg.norm(q[None, :] + ip, axis=1).max())
        assert 0.0 <= w.norm() - sampled <= 1e-3 * w.norm()


def test_random_sphere_point_is_valid():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = random_sphere_point(rng)
        assert (p * p).isclose(Quaternion(-1), 1e-12)


def test_json_roundtrip():
    q = Quaternion(1.25, -2.5, 3.0, -0.125)
    assert Quaternion.from_json(q.to_json()) == q
    w = ComplexifiedQuaternion(q, -q)
    assert ComplexifiedQuaternion.from_json(w.to_json()).isclose(w, 0.0)


def test_cstar_norm_matches_the_scalar_formula():
    """One C*-norm formula serves scalars and arrays; it agrees with the
    defining expression in quaternion arithmetic to rounding."""
    from quatspec.quaternion import _cstar_norm
    rng = np.random.default_rng(8)
    q, p = rng.normal(size=(50, 4)), rng.normal(size=(50, 4))
    norms = _cstar_norm(q.T, p.T)
    for m in range(50):
        w = ComplexifiedQuaternion(Quaternion(*q[m]), Quaternion(*p[m]))
        assert w.norm() == norms[m]
        reference = math.sqrt(w.q.norm() ** 2 + w.p.norm() ** 2
                              + 2.0 * (w.p * w.q.conjugate()).im_norm())
        assert abs(w.norm() - reference) <= 4e-16 * reference
