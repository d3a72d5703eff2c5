"""Tests for the decomposition T = A + JB and the five functional calculi."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from quatspec.calculus import (IOTA, KAPPA, _SPLIT_MU, _split_schur,
                               alternate_kernel_J, build_context,
                               circular_calculus, cslice_calculus,
                               general_calculus, intrinsic_calculus,
                               polynomial_calculus, slice_regular_contour,
                               spectral_measure_weights)
from quatspec.errors import NumericalError, PreconditionError
from quatspec.qmatrix import (QMatrix, QVector, chi_embed,
                              is_anti_self_adjoint, is_self_adjoint,
                              is_unitary, op_norm, polar_decompose,
                              random_normal, random_qmatrix, random_qvector,
                              random_unitary)
from quatspec.quaternion import I, J, Quaternion, fold, random_sphere_point
from quatspec.slicefn import (CircularSet, SliceFunction, decompose_components, hausdorff,
                              one_sided_hausdorff, slice_product, sup_norm)
from quatspec.spectral import spherical_spectrum
from quatspec.reporting import VerificationReport
from quatspec.verify import _KINDS, verify_calculus

RNG = np.random.default_rng(2024)

SQUARE_Q1 = [(2, 0, 1.0), (0, 2, -1.0)]
SQUARE_Q2 = [(1, 1, 2.0)]


def random_intrinsic() -> SliceFunction:
    r = lambda: Quaternion(RNG.normal())
    return SliceFunction.polynomial(
        [(0, 0, r()), (1, 0, r()), (2, 0, r()), (0, 2, r())],
        [(0, 1, r()), (1, 1, r())])


def random_general() -> SliceFunction:
    r = lambda: Quaternion(*(RNG.normal(size=4) * 0.7))
    return SliceFunction.polynomial(
        [(0, 0, r()), (1, 0, r()), (0, 2, r())],
        [(0, 1, r()), (1, 1, r())])


def random_circular() -> SliceFunction:
    r = lambda: Quaternion(*(RNG.normal(size=4) * 0.7))
    return SliceFunction.polynomial([(0, 0, r()), (1, 0, r()), (0, 2, r())], [])


def random_cslice(iota) -> SliceFunction:
    return random_intrinsic() + slice_product(random_intrinsic(),
                                              SliceFunction.constant(iota))


# -- J = build_context(t).j ------------------------------------------------------

def test_context_j_diag_example():
    # T = diag(2i): T - T* = diag(4i) has polar factor diag(i)
    j = build_context(QMatrix.diag([I * 2.0])).j
    assert op_norm(j - QMatrix.diag([I])) <= 1e-13


def test_context_j_properties():
    for kind in ("normal", "selfadjoint", "antiselfadjoint"):
        t, _ = random_normal(5, RNG, kind=kind)
        j = build_context(t).j
        scale = max(1.0, op_norm(t))
        assert is_anti_self_adjoint(j) and is_unitary(j)
        assert op_norm(j @ t - t @ j) <= 1e-10 * scale
        assert op_norm(j @ t.adjoint() - t.adjoint() @ j) <= 1e-10 * scale
        # polar-factor identity pins J on Ker(T - T*)^perp: J |T-T*| = T - T*
        d = t - t.adjoint()
        absd = polar_decompose(d)[1]
        assert op_norm(j @ absd - d) <= 1e-9 * scale


def test_context_j_squares_to_minus_identity():
    t, _ = random_normal(4, RNG, kind="selfadjoint")
    j = build_context(t).j
    assert op_norm(j @ j + QMatrix.identity(4)) <= 1e-11


def test_context_j_rejects_non_normal():
    with pytest.raises(PreconditionError):
        build_context(random_qmatrix(3, RNG))


# -- context ---------------------------------------------------------------------

def test_build_context_invariants():
    for kind in ("normal", "selfadjoint", "antiselfadjoint", "unitary"):
        t, _ = random_normal(6, RNG, kind=kind)
        ctx = build_context(t)
        scale = max(1.0, op_norm(t))
        eye = QMatrix.identity(6)
        assert op_norm(ctx.t - (ctx.a + ctx.j @ ctx.b)) <= 1e-10 * scale
        # B = |T - T*| / 2 and ||T|| as read off the eigensystem
        assert op_norm(ctx.b - polar_decompose(t - t.adjoint())[1] * 0.5) <= 1e-10 * scale
        assert abs(ctx.tnorm - op_norm(t)) <= 1e-12 * op_norm(t)
        # the basis vectors lie in H+: J u_m = u_m i
        for m in range(6):
            u = ctx.basis.vector(m)
            assert (ctx.j @ u - u.rmul(I)).norm() <= 1e-10
        assert is_self_adjoint(ctx.a)
        assert is_self_adjoint(ctx.b)
        assert np.linalg.eigvalsh(chi_embed(ctx.b)).min() >= -1e-10 * scale
        for u in (ctx.j, ctx.k):
            assert op_norm(u + u.adjoint()) <= 1e-10
            assert op_norm(u.adjoint() @ u - eye) <= 1e-10
        assert op_norm(ctx.j @ ctx.k + ctx.k @ ctx.j) <= 1e-9 * scale
        assert op_norm(ctx.j @ ctx.t - ctx.t @ ctx.j) <= 1e-9 * scale
        assert op_norm(ctx.k @ ctx.a - ctx.a @ ctx.k) <= 1e-9 * scale
        assert op_norm(ctx.k @ ctx.b - ctx.b @ ctx.k) <= 1e-9 * scale
        assert ctx.lambdas.imag.min() >= -1e-10


def test_build_context_on_nearly_real_eigenvalues():
    """Two eigenvalues 1e-10 to 1e-6 off the real axis next to four well off
    it: the context holds with residual <= 1e-10 ||T|| in every case."""
    for seed in range(30):
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(-2.0, 2.0, 6)
        beta = rng.uniform(0.3, 2.0, 6)
        beta[:2] = 10.0 ** rng.uniform(-10.0, -6.0)
        d = QMatrix.diag([Quaternion(a) + random_sphere_point(rng) * b
                          for a, b in zip(alpha, beta)])
        v = random_unitary(6, rng)
        t = v @ d @ v.adjoint()
        ctx = build_context(t)
        assert op_norm(t - (ctx.a + ctx.j @ ctx.b)) <= 1e-10 * op_norm(t)


def close_pair(seed: int, kind: str, gap: float) -> QMatrix:
    """A 6x6 normal T = V D V* with two eigenvalues `gap` apart: a close
    real pair ("real"), two spheres at the same beta ("sphere"), or an
    eigenvalue `gap` off the real axis next to a double real one
    ("nearreal")."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-2.0, 2.0, 6)
    beta = rng.uniform(0.3, 2.0, 6)
    if kind == "real":
        beta[:2] = 0.0
        alpha[1] = alpha[0] + gap
    elif kind == "sphere":
        alpha[1], beta[1] = alpha[0] + gap, beta[0]
    else:
        beta[:3] = gap, 0.0, 0.0
        alpha[1:3] = alpha[0]
    d = QMatrix.diag([Quaternion(a) + random_sphere_point(rng) * b
                      for a, b in zip(alpha, beta)])
    v = random_unitary(6, rng)
    return v @ d @ v.adjoint()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["real", "sphere", "nearreal"]),
       st.floats(-12.0, -5.0), st.floats(-12.0, 12.0))
def test_build_context_fuzz_scale_and_gaps(seed, kind, log_gap, log_scale):
    """Scaling T by c scales everything: the context holds with residual
    <= 1e-10 ||T|| or raises a NumericalError naming the eigenvalue gap,
    and both spectrum routes count the spheres of c T as they count those
    of T. The count is pinned unless the gap lies within a factor 2 of the
    1e-8 ||T|| spectrum clustering tolerance."""
    t = close_pair(seed, kind, 10.0 ** log_gap)
    rel_gap = 10.0 ** log_gap / op_norm(t)
    spheres = (5 if kind == "nearreal" else 6) - (rel_gap < 1e-8)
    for c in (1.0, 10.0 ** log_scale):
        ts = t * c
        counts = [spherical_spectrum(ts).size]
        try:
            ctx = build_context(ts)
        except NumericalError as exc:
            assert "gap" in str(exc)
        else:
            assert op_norm(ts - (ctx.a + ctx.j @ ctx.b)) <= 1e-10 * op_norm(ts)
            counts.append(ctx.spectrum().size)
        if not 0.5e-8 <= rel_gap <= 2e-8:
            assert counts == [spheres] * len(counts)


def schur_sizes(monkeypatch) -> list[int]:
    """Record the size of every `scipy.linalg.schur` call from now on."""
    sizes = []
    schur = scipy.linalg.schur

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counted)
    return sizes


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", ["sphere", "real"])
def test_eigensystem_schur_fallback_on_a_shared_split_value(monkeypatch, seed, kind):
    """Two distinct eigenvalues with the same alpha + mu beta cannot be told
    apart by the Hermitian eigensolve: a sphere next to another sphere, or
    next to a real eigenvalue (whose Kramers pair joins the block). Their
    block alone takes the Schur form, the context passes the unchanged
    residual gate and the eigenvalues are the ones T was built from."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-2.0, 2.0, 6)
    beta = rng.uniform(0.3, 2.0, 6)
    beta[1] = 0.0 if kind == "real" else beta[0] + 0.5
    alpha[1] = alpha[0] + _SPLIT_MU * (beta[0] - beta[1])
    d = QMatrix.diag([Quaternion(a) + random_sphere_point(rng) * b
                      for a, b in zip(alpha, beta)])
    v = random_unitary(6, rng)
    t = v @ d @ v.adjoint()
    sizes = schur_sizes(monkeypatch)
    ctx = build_context(t)
    assert sizes == [3 if kind == "real" else 2]
    assert op_norm(t - (ctx.a + ctx.j @ ctx.b)) <= 1e-10 * op_norm(t)
    assert np.abs(np.sort_complex(ctx.lambdas)
                  - np.sort_complex(alpha + 1j * beta)).max() <= 1e-12 * op_norm(t)


COLD_IMPORT_SCRIPT = """
import sys
import numpy as np
import quatspec, quatspec.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy loaded at import"
from quatspec import QMatrix, Quaternion, build_context, op_norm
from quatspec.qmatrix import random_unitary
from quatspec.quaternion import random_sphere_point
rng = np.random.default_rng(6)
alpha = [0.5, 0.5 + 1e-6, -1.0, 1.5, 2.0, -2.0]
beta = [1.0, 1.0, 0.4, 0.7, 1.3, 1.8]
d = QMatrix.diag([Quaternion(a) + random_sphere_point(rng) * b for a, b in zip(alpha, beta)])
v = random_unitary(6, rng)
t = v @ d @ v.adjoint()
ctx = build_context(t)
assert "scipy.linalg" in sys.modules, "the shared split value took no Schur form"
assert op_norm(t - (ctx.a + ctx.j @ ctx.b)) <= 1e-10 * op_norm(t)
"""


def test_scipy_is_loaded_only_for_a_block_that_needs_a_schur_form():
    """A fresh interpreter imports quatspec and its CLI without scipy. Two
    spheres at the same beta whose alpha differ by 1e-6 share one block of
    the Hermitian split, so `build_context` loads `scipy.linalg` for its
    Schur form and passes the 1e-10 ||T|| residual gate."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT_SCRIPT],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_eigensystem_separated_self_adjoint_takes_no_schur_form(monkeypatch):
    """A self-adjoint n = 32 T with well separated eigenvalues: every block
    of the split is the Kramers pair of one real eigenvalue, scalar in its
    compression, so no Schur form is taken."""
    rng = np.random.default_rng(32)
    d = QMatrix.diag([Quaternion(a) for a in rng.permutation(np.linspace(-3.0, 3.0, 32))])
    v = random_unitary(32, rng)
    t = v @ d @ v.adjoint()
    sizes = schur_sizes(monkeypatch)
    ctx = build_context(t)
    assert sizes == []
    assert ctx.kernel_flags.all()
    assert op_norm(t - (ctx.a + ctx.j @ ctx.b)) <= 1e-10 * op_norm(t)
    assert np.abs(ctx.lambdas - np.linspace(-3.0, 3.0, 32)).max() <= 1e-12 * 3.0


def test_context_1x1_example():
    # T = diag(1 + 2i): A = diag(1), B = diag(2), J = diag(i), lambda = 1 + 2i
    t = QMatrix.diag([Quaternion(1) + I * 2.0])
    ctx = build_context(t)
    assert op_norm(ctx.a - QMatrix.diag([Quaternion(1)])) <= 1e-13
    assert op_norm(ctx.b - QMatrix.diag([Quaternion(2)])) <= 1e-13
    assert op_norm(ctx.j - QMatrix.diag([I])) <= 1e-13
    assert abs(ctx.lambdas[0] - (1 + 2j)) <= 1e-13


def test_context_real_diag_is_degenerate_case():
    """Self-adjoint T: a real diagonal, the projection onto (1, j)/sqrt(2)
    and a rotated multiplicity-3 real cluster. The half basis picked on
    each real eigenspace is orthonormal to 1e-14."""
    v = random_unitary(4, np.random.default_rng(3))
    half = Quaternion(0.5)
    for t in (QMatrix.diag([Quaternion(a) for a in (0.5, -1.0, 2.0)]),
              QMatrix.from_entries([[half, -J * 0.5], [J * 0.5, half]]),
              v @ QMatrix.diag([Quaternion(1)] * 3 + [Quaternion(-2)]) @ v.adjoint()):
        ctx = build_context(t)
        assert op_norm(ctx.a - t) <= 1e-13
        assert op_norm(ctx.b) <= 1e-13
        assert ctx.kernel_flags.all()
        assert op_norm(ctx.j @ ctx.k + ctx.k @ ctx.j) <= 1e-12
        z = ctx.basis.columns
        assert (z.adjoint() @ z - QMatrix.identity(t.n)).frobenius() <= 1e-14
        assert op_norm(t - (ctx.a + ctx.j @ ctx.b)) <= 1e-10 * op_norm(t)


def test_context_spectrum_agrees_with_spectral_module():
    t, _ = random_normal(6, RNG)
    ctx = build_context(t)
    spec = spherical_spectrum(t)
    assert hausdorff(ctx.spectrum().reps, spec.reps) <= 1e-9
    assert sorted(ctx.spectrum().mult) == sorted(spec.mult)
    # six distinct spheres stay six at every scale, in both routes, and the
    # context spectrum is the sup set of the isometry ||id(T)|| = sup |id|
    t, _ = random_normal(6, np.random.default_rng(1))
    ident = SliceFunction.builtin("id")
    for c in (1e-12, 1e-9, 1.0, 1e12):
        spec = spherical_spectrum(t * c)
        ctx = build_context(t * c)
        assert spec.size == 6
        assert ctx.spectrum().size == 6
        norm = op_norm(intrinsic_calculus(ctx, ident))
        assert abs(sup_norm(ident, ctx.spectrum()) - norm) <= 1e-12 * norm
        assert ctx.spectrum().mult == spec.mult
        assert np.abs(ctx.spectrum().reps - spec.reps).max() <= 1e-9 * c


def test_domain_test_is_relative_to_the_norm():
    """A spectrum outside the domain {0} is rejected at every scale: the
    domain tolerance is CLUSTER_TOL ||T||, not an absolute 1e-8."""
    t, _ = random_normal(6, np.random.default_rng(1))
    ident = SliceFunction.builtin("id", domain=CircularSet([[0.0, 0.0]]))
    for c in (1e-12, 1.0, 1e12):
        with pytest.raises(PreconditionError, match="outside the function domain"):
            intrinsic_calculus(build_context(t * c), ident)


def test_build_context_rejects_non_normal():
    with pytest.raises(PreconditionError):
        build_context(random_qmatrix(4, RNG))
    # a non-normal T stays non-normal at every scale
    t = QMatrix.from_entries([[Quaternion(1), Quaternion(1)], [Quaternion(), Quaternion(2)]])
    for c in (1.0, 1e-6, 1e-9, 1e-12):
        with pytest.raises(PreconditionError, match="not normal"):
            build_context(t * c)


def test_context_left_multiplication_commutes_with_parts():
    t, _ = random_normal(5, RNG)
    ctx = build_context(t)
    for _ in range(3):
        q = Quaternion(*RNG.normal(size=4))
        lq = ctx.basis.matrix(q)
        assert op_norm(lq @ ctx.a - ctx.a @ lq) <= 1e-10 * max(1.0, q.norm())
        assert op_norm(lq @ ctx.b - ctx.b @ lq) <= 1e-10 * max(1.0, q.norm())


# -- polynomial calculus ------------------------------------------------------------

def test_polynomial_calculus_examples():
    t, _ = random_normal(5, RNG)
    ctx = build_context(t)
    scale = max(1.0, op_norm(t))
    assert op_norm(polynomial_calculus(ctx, [(1, 0, 1.0)], [(0, 1, 1.0)]) - t) <= \
        1e-10 * scale
    assert op_norm(polynomial_calculus(ctx, [(0, 0, 1.0)], []) -
                   QMatrix.identity(5)) <= 1e-13
    assert op_norm(polynomial_calculus(ctx, SQUARE_Q1, SQUARE_Q2) - t @ t) <= \
        1e-9 * scale ** 2


def test_polynomial_calculus_result_is_normal_and_commutes_with_J():
    t, _ = random_normal(4, RNG)
    ctx = build_context(t)
    g = polynomial_calculus(ctx, [(2, 0, 0.5), (0, 2, 1.0), (0, 0, -1.0)],
                            [(1, 1, -2.0), (0, 1, 0.3)])
    assert (g @ g.adjoint() - g.adjoint() @ g).frobenius() <= 1e-9 * g.frobenius() ** 2
    assert op_norm(g @ ctx.j - ctx.j @ g) <= 1e-9 * max(1.0, op_norm(g))


def test_polynomial_calculus_rejects_wrong_parity():
    t, _ = random_normal(3, RNG)
    ctx = build_context(t)
    with pytest.raises(PreconditionError):
        polynomial_calculus(ctx, [(0, 1, 1.0)], [])
    with pytest.raises(PreconditionError):
        polynomial_calculus(ctx, [], [(1, 0, 1.0)])
    with pytest.raises(PreconditionError):
        polynomial_calculus(ctx, [(0, 0, Quaternion(0, 1, 0, 0))], [])


def test_choice_independence_on_kernel():
    t, _ = random_normal(5, RNG, kind="selfadjoint")
    ctx = build_context(t)
    alt = alternate_kernel_J(ctx)
    assert op_norm(alt - ctx.j) > 0.5  # genuinely different completion
    assert is_anti_self_adjoint(alt) and is_unitary(alt)
    assert op_norm(alt @ ctx.a - ctx.a @ alt) <= 1e-10 * max(1.0, op_norm(t))
    g1 = polynomial_calculus(ctx, SQUARE_Q1, SQUARE_Q2)
    g2 = polynomial_calculus(ctx, SQUARE_Q1, SQUARE_Q2, j=alt)
    assert op_norm(g1 - g2) <= 1e-9


def test_alternate_J_requires_kernel():
    t, _ = random_normal(3, RNG, kind="antiselfadjoint")
    ctx = build_context(t)
    if not ctx.kernel_flags.any():
        with pytest.raises(PreconditionError):
            alternate_kernel_J(ctx)


# -- intrinsic calculus ----------------------------------------------------------------

def test_intrinsic_unity_and_id():
    t, _ = random_normal(5, RNG)
    ctx = build_context(t)
    assert op_norm(intrinsic_calculus(ctx, SliceFunction.builtin("one"))
                   - QMatrix.identity(5)) <= 1e-12
    assert op_norm(intrinsic_calculus(ctx, SliceFunction.builtin("id")) - t) <= \
        1e-10 * max(1.0, op_norm(t))


def test_intrinsic_square_cross_check():
    t, _ = random_normal(5, RNG)
    ctx = build_context(t)
    scale = max(1.0, op_norm(t)) ** 2
    via_eig = intrinsic_calculus(ctx, SliceFunction.builtin("square"))
    via_poly = polynomial_calculus(ctx, SQUARE_Q1, SQUARE_Q2)
    assert op_norm(via_eig - t @ t) <= 1e-9 * scale
    assert op_norm(via_eig - via_poly) <= 1e-9 * scale


def test_intrinsic_isometry_and_spectral_map():
    t, _ = random_normal(6, RNG)
    ctx = build_context(t)
    spec_set = ctx.spectrum()
    for name in ("id", "square", "exp"):
        f = SliceFunction.builtin(name)
        ft = intrinsic_calculus(ctx, f)
        nf = sup_norm(f, spec_set)
        assert abs(op_norm(ft) - nf) <= 1e-8 * max(1.0, nf)
        mapped = np.array([fold(f.eval(Quaternion(a) + I * b))
                           for a, b in spec_set.reps])
        assert hausdorff(spherical_spectrum(ft).reps, mapped) <= 1e-7 * max(1.0, nf)


def test_intrinsic_star_homomorphism():
    t, _ = random_normal(5, RNG)
    ctx = build_context(t)
    f, g = random_intrinsic(), random_intrinsic()
    ft, gt = intrinsic_calculus(ctx, f), intrinsic_calculus(ctx, g)
    scale = max(1.0, op_norm(ft) * op_norm(gt))
    assert op_norm(intrinsic_calculus(ctx, slice_product(f, g)) - ft @ gt) <= 1e-8 * scale
    assert op_norm(intrinsic_calculus(ctx, f.star()) - ft.adjoint()) <= \
        1e-8 * max(1.0, op_norm(ft))
    # transport through K: f(T) K = K f*(T)
    assert op_norm(ft @ ctx.k - ctx.k @ intrinsic_calculus(ctx, f.star())) <= \
        1e-8 * max(1.0, op_norm(ft))


def test_intrinsic_rejects_wrong_class_and_domain():
    t, _ = random_normal(3, RNG)
    ctx = build_context(t)
    with pytest.raises(PreconditionError):
        intrinsic_calculus(ctx, SliceFunction.constant(I))
    with pytest.raises(PreconditionError):
        intrinsic_calculus(ctx, SliceFunction.builtin("sqrt"))  # spectrum not real+


def test_sqrt_calculus_on_positive_operator():
    c = random_qmatrix(4, RNG)
    m = c.adjoint() @ c
    ctx = build_context(m)
    root = intrinsic_calculus(ctx, SliceFunction.builtin("sqrt"))
    assert op_norm(root @ root - m) <= 1e-9 * max(1.0, op_norm(m))


# -- C_iota calculus --------------------------------------------------------------------

def test_cslice_constant_maps_to_J():
    t, _ = random_normal(5, RNG)
    ctx = build_context(t)
    assert op_norm(cslice_calculus(ctx, SliceFunction.constant(I)) - ctx.j) <= 1e-12


def test_cslice_extends_intrinsic_and_is_linear():
    t, _ = random_normal(4, RNG)
    ctx = build_context(t)
    f = random_intrinsic()
    assert op_norm(cslice_calculus(ctx, f) - intrinsic_calculus(ctx, f)) <= 1e-10 * \
        max(1.0, op_norm(t)) ** 2
    f_lin = SliceFunction.builtin("id") + SliceFunction.constant(I)
    assert op_norm(cslice_calculus(ctx, f_lin) - (t + ctx.j)) <= \
        1e-10 * max(1.0, op_norm(t))


def test_cslice_norm_and_spectral_map():
    t, _ = random_normal(6, RNG)
    ctx = build_context(t)
    f = random_cslice(I)
    ft = cslice_calculus(ctx, f)
    upper = ctx.spectrum().reps
    nf = max(f.eval(Quaternion(a) + I * b).norm() for a, b in upper)
    assert abs(op_norm(ft) - nf) <= 1e-8 * max(1.0, nf)
    mapped = np.array([fold(f.eval(Quaternion(a) + I * b)) for a, b in upper])
    assert hausdorff(spherical_spectrum(ft).reps, mapped) <= 1e-7 * max(1.0, nf)


def test_cslice_homomorphism():
    t, _ = random_normal(4, RNG)
    ctx = build_context(t)
    f, g = random_cslice(I), random_cslice(I)
    ft, gt = cslice_calculus(ctx, f), cslice_calculus(ctx, g)
    assert op_norm(cslice_calculus(ctx, slice_product(f, g)) - ft @ gt) <= \
        1e-8 * max(1.0, op_norm(ft) * op_norm(gt))
    assert op_norm(cslice_calculus(ctx, f.star()) - ft.adjoint()) <= \
        1e-8 * max(1.0, op_norm(ft))


def test_cslice_kernel_characterization():
    """A slice function vanishing on the upper half of the slice spectrum is
    annihilated, even though it is nonzero below."""
    t, _ = random_normal(5, RNG, kind="antiselfadjoint")
    ctx = build_context(t)

    def stem(z):
        return -I * abs(z.imag), Quaternion(z.imag)

    f = SliceFunction.tabulated(stem)
    ft = cslice_calculus(ctx, f)
    assert op_norm(ft) <= 1e-8 * max(1.0, op_norm(t))
    # the function itself is nonzero away from the chosen slice
    assert f.eval(J * 1.0).norm() > 0.5


def test_cslice_rejects_wrong_class():
    t, _ = random_normal(3, RNG)
    ctx = build_context(t)
    with pytest.raises(PreconditionError):
        cslice_calculus(ctx, SliceFunction.constant(J))


# -- circular calculus --------------------------------------------------------------------

def test_circular_constants():
    t, _ = random_normal(5, RNG)
    ctx = build_context(t)
    assert op_norm(circular_calculus(ctx, SliceFunction.constant(J)) - ctx.k) <= 1e-12
    q = Quaternion(*RNG.normal(size=4))
    assert op_norm(circular_calculus(ctx, SliceFunction.constant(q)) - ctx.basis.matrix(q)) <= \
        1e-10 * max(1.0, q.norm())


def test_circular_homomorphism_and_adjoint():
    t, _ = random_normal(5, RNG)
    ctx = build_context(t)
    f, g = random_circular(), random_circular()
    ft, gt = circular_calculus(ctx, f), circular_calculus(ctx, g)
    assert op_norm(circular_calculus(ctx, slice_product(f, g)) - ft @ gt) <= \
        1e-8 * max(1.0, op_norm(ft) * op_norm(gt))
    assert op_norm(circular_calculus(ctx, f.star()) - ft.adjoint()) <= \
        1e-8 * max(1.0, op_norm(ft))


def test_circular_spectral_containment_and_norm():
    t, _ = random_normal(6, RNG)
    ctx = build_context(t)
    f = random_circular()
    ft = circular_calculus(ctx, f)
    upper = ctx.spectrum().reps
    mapped = np.array([fold(f.eval(Quaternion(a) + I * b)) for a, b in upper])
    assert one_sided_hausdorff(spherical_spectrum(ft).reps, mapped) <= \
        1e-7 * max(1.0, op_norm(ft))
    nf = sup_norm(f, ctx.spectrum())
    assert op_norm(ft) <= nf + 1e-8 * max(1.0, nf)


def test_circular_rejects_non_circular():
    t, _ = random_normal(3, RNG)
    ctx = build_context(t)
    with pytest.raises(PreconditionError):
        circular_calculus(ctx, SliceFunction.builtin("id"))


# -- general calculus ---------------------------------------------------------------------

def test_general_extends_intrinsic():
    t, _ = random_normal(4, RNG)
    ctx = build_context(t)
    f = random_intrinsic()
    assert op_norm(general_calculus(ctx, f) - intrinsic_calculus(ctx, f)) <= \
        1e-10 * max(1.0, op_norm(t)) ** 2


def test_general_right_scalar_compatibility():
    t, _ = random_normal(5, RNG)
    ctx = build_context(t)
    f = random_general()
    ft = general_calculus(ctx, f)
    for _ in range(3):
        q = Quaternion(*RNG.normal(size=4))
        lhs = general_calculus(ctx, slice_product(f, SliceFunction.constant(q)))
        assert op_norm(lhs - ft @ ctx.basis.matrix(q)) <= \
            1e-9 * max(1.0, op_norm(ft) * q.norm())


def test_general_adjoint_rule():
    t, _ = random_normal(5, RNG)
    ctx = build_context(t)
    f = random_general()
    f0, f1, f2, f3 = decompose_components(f, IOTA, KAPPA)
    twisted = f0 + slice_product(f1, SliceFunction.constant(IOTA)) \
        + slice_product(f2.star(), SliceFunction.constant(KAPPA)) \
        + slice_product(f3.star(), SliceFunction.constant(IOTA * KAPPA))
    ft = general_calculus(ctx, f)
    assert op_norm(ft.adjoint() - general_calculus(ctx, twisted.star())) <= \
        1e-9 * max(1.0, op_norm(ft))


def test_general_rejects_spectrum_outside_domain():
    t, _ = random_normal(3, RNG)  # spectrum not inside the nonneg reals
    ctx = build_context(t)
    with pytest.raises(PreconditionError):
        general_calculus(ctx, SliceFunction.builtin("sqrt"))


def test_general_product_rules():
    t, _ = random_normal(4, RNG)
    ctx = build_context(t)
    f_slice = random_cslice(I)
    g = random_general()
    lhs = general_calculus(ctx, slice_product(f_slice, g))
    rhs = general_calculus(ctx, f_slice) @ general_calculus(ctx, g)
    assert op_norm(lhs - rhs) <= 1e-8 * max(1.0, op_norm(rhs))
    g_circ = random_circular()
    f = random_general()
    lhs = general_calculus(ctx, slice_product(f, g_circ))
    rhs = general_calculus(ctx, f) @ general_calculus(ctx, g_circ)
    assert op_norm(lhs - rhs) <= 1e-8 * max(1.0, op_norm(rhs))


# -- adjoint similarity ----------------------------------------------------------------------

def test_adjoint_similarity():
    for kind in ("normal", "selfadjoint"):
        t, _ = random_normal(5, RNG, kind=kind)
        ctx = build_context(t)
        u = ctx.k
        assert is_unitary(u)
        assert op_norm(u @ t @ u.adjoint() - t.adjoint()) <= 1e-9 * max(1.0, op_norm(t))
    # 1x1: conjugation flips the imaginary part
    ctx = build_context(QMatrix.diag([I]))
    u = ctx.k
    assert op_norm(u @ ctx.t @ u.adjoint() - QMatrix.diag([-I])) <= 1e-12


# -- contour calculus ------------------------------------------------------------------------

def test_contour_matches_algebraic_route():
    t, _ = random_normal(5, RNG)
    ctx = build_context(t)
    cubic = SliceFunction.polynomial(
        [(3, 0, 1.0), (1, 2, -3.0), (1, 0, 0.5), (0, 0, -1.0)],
        [(2, 1, 3.0), (0, 3, -1.0), (0, 1, 0.5)])
    for f in (SliceFunction.builtin("one"), SliceFunction.builtin("id"),
              SliceFunction.builtin("square"), cubic):
        alg = general_calculus(ctx, f)
        con = slice_regular_contour(ctx, f, nodes=256)
        assert op_norm(con - alg) <= 1e-7 * max(1.0, op_norm(alg))


def right_coefficient_polynomial() -> SliceFunction:
    """f(q) = q a + b with quaternionic a, b: slice regular, not intrinsic."""
    a, b = Quaternion(0.5, 1, -2, 0.25), Quaternion(1, 0, 1, -1)
    return slice_product(SliceFunction.builtin("id"), SliceFunction.constant(a)) \
        + SliceFunction.constant(b)


def test_contour_non_intrinsic_polynomial():
    """Right quaternionic coefficients: f(q) = q a + b stays slice regular."""
    t, _ = random_normal(4, RNG)
    ctx = build_context(t)
    f = right_coefficient_polynomial()
    alg = general_calculus(ctx, f)
    con = slice_regular_contour(ctx, f, nodes=256)
    assert op_norm(con - alg) <= 1e-7 * max(1.0, op_norm(alg))


def test_contour_matches_algebraic_route_n32():
    """n = 32 with real eigenspheres; f = q a + b has z2 != 0 blocks."""
    t, _ = random_normal(32, np.random.default_rng(32))
    ctx = build_context(t)
    assert ctx.kernel_flags.any()
    for f in (SliceFunction.builtin("exp"), right_coefficient_polynomial()):
        alg = general_calculus(ctx, f)
        con = slice_regular_contour(ctx, f)
        assert op_norm(con - alg) <= 1e-7 * max(1.0, op_norm(alg))


def test_contour_ignores_the_eigenvalue_route():
    """The contour is an independent cross-check: corrupting the context's
    eigendata moves general_calculus but leaves the contour unchanged."""
    t, _ = random_normal(6, np.random.default_rng(6))
    ctx = build_context(t)
    bent = dataclasses.replace(ctx, lambdas=ctx.lambdas + 1.0)
    f = SliceFunction.builtin("exp")
    assert op_norm(slice_regular_contour(bent, f) - slice_regular_contour(ctx, f)) <= 1e-12
    assert op_norm(general_calculus(bent, f) - general_calculus(ctx, f)) > 1e-3


def _per_node_contour(ctx, f, nodes: int) -> np.ndarray:
    """chi of the contour sum with one dense solve of Delta_s(chi T) per
    node: no Schur form, no folding of conjugate nodes."""
    radius = 2.0 * ctx.tnorm  # the default radius
    chi_t = chi_embed(ctx.t)
    eye = np.eye(2 * ctx.n)
    acc = np.zeros_like(chi_t)
    for m in range(nodes):
        theta = 2.0 * math.pi * m / nodes
        s = Quaternion(radius * math.cos(theta)) + I * (radius * math.sin(theta))
        c1 = s * f.eval(s) * (1.0 / nodes)
        c2 = s.conjugate() * c1
        delta = chi_t @ chi_t - 2.0 * s.a * chi_t + radius ** 2 * eye
        acc -= np.linalg.solve(delta, chi_t @ chi_embed(ctx.basis.matrix(c1))
                               - chi_embed(ctx.basis.matrix(c2)))
    return acc


@pytest.mark.parametrize("nodes", [16, 17, 64, 65])
def test_contour_matches_per_node_solves(nodes):
    """Folding node m with its mirror conj(s) changes no sum: the contour
    equals a node-by-node dense solve, for even and odd node counts."""
    ctx = build_context(random_normal(6, np.random.default_rng(66))[0])
    for f in (SliceFunction.builtin("exp"), right_coefficient_polynomial()):
        expect = _per_node_contour(ctx, f, nodes)
        got = chi_embed(slice_regular_contour(ctx, f, nodes=nodes))
        assert np.linalg.norm(got - expect, 2) <= 1e-10 * np.linalg.norm(expect, 2)


@pytest.mark.parametrize("nodes", [16, 17, 64])
def test_contour_takes_no_factorization_and_reads_f_at_every_node(nodes, monkeypatch):
    """The quadrature is summed on the context's diagonalization of chi(T):
    once the context is built, no Schur form, no eigensolve, no linear
    solve, and f read once at all `nodes` points."""
    points = []
    real_values = SliceFunction.values
    monkeypatch.setattr(SliceFunction, "values",
                        lambda self, qs: points.append(len(qs)) or real_values(self, qs))
    ctx = build_context(random_normal(4, np.random.default_rng(67))[0])

    def no_factorization(*args, **kwargs):
        raise AssertionError("the contour takes no factorization and makes no solve")

    for module, name in ((scipy.linalg, "schur"), (np.linalg, "eigh"), (np.linalg, "eig"),
                         (np.linalg, "solve"), (scipy.linalg, "solve"),
                         (scipy.linalg, "solve_triangular"), (scipy.linalg.lapack, "ztrtrs")):
        monkeypatch.setattr(module, name, no_factorization)
    slice_regular_contour(ctx, SliceFunction.builtin("exp"), nodes=nodes)
    assert points == [nodes]


@pytest.mark.parametrize("value, node", [(1.0, 0), (-1.0, 8)])
def test_contour_node_on_the_spectrum_names_the_node(value, node):
    """A node that meets an eigenvalue of chi(T) makes 1/delta_s(d) infinite:
    a `NumericalError` naming the node. The context's ||T|| is understated so
    that the radius check lets the unit circle through."""
    ctx = dataclasses.replace(build_context(QMatrix.identity(2) * value), tnorm=0.5)
    with pytest.raises(NumericalError, match=f"quadrature node {node} hit the spectrum"):
        slice_regular_contour(ctx, SliceFunction.builtin("exp"), radius=1.0, nodes=16)
    with pytest.raises(PreconditionError, match="does not enclose the spectrum"):
        slice_regular_contour(ctx, SliceFunction.builtin("exp"), radius=0.9, nodes=16)


def test_contour_rejects_schur_mass_off_the_diagonal():
    """The contour certifies the context's (d, U) against T: a stored d
    shifted by 2e-10 ||T|| leaves a residual of that size off the
    diagonal, which is refused with an error quoting it."""
    ctx = build_context(random_normal(6, np.random.default_rng(72))[0])
    d, u = ctx.chi_diag
    d = d.copy()
    d[0] += 2e-10 * ctx.tnorm
    bent = dataclasses.replace(ctx, chi_diag=(d, u))
    mass = np.linalg.norm(chi_embed(ctx.t) @ u - u * d)
    assert 1.9e-10 * ctx.tnorm <= mass <= 2.1e-10 * ctx.tnorm
    with pytest.raises(NumericalError, match=f"U diag\\(d\\)\\|\\| = {mass:.3e} exceeds"):
        slice_regular_contour(bent, SliceFunction.builtin("exp"), nodes=16)


def _close_spheres(n: int, seed: int, gap: float) -> QMatrix:
    """A normal n x n T whose eigenspheres come in pairs `gap` apart."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-2.0, 2.0, n)
    beta = rng.uniform(0.3, 2.0, n)
    alpha[1::2], beta[1::2] = alpha[0::2] + gap, beta[0::2]
    d = QMatrix.diag([Quaternion(a) + random_sphere_point(rng) * b
                      for a, b in zip(alpha, beta)])
    v = random_unitary(n, rng)
    return v @ d @ v.adjoint()


def _nearly_normal(n: int, rng, size: float) -> QMatrix:
    """A normal n x n T plus a random E with ||E||_F = size ||T||."""
    t = random_normal(n, rng)[0]
    e = QMatrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return t + e * (size * op_norm(t) / e.frobenius())


@pytest.mark.parametrize("n", [8, 32])
def test_contour_gate_passes_wherever_the_context_is_built(n):
    """The contour reads the context's Schur basis as diagonal. On repeated
    spheres (`imaginaryunit`) and close spheres (gaps 1e-12 to 1e-5), which
    `build_context` accepts, and on T + E with ||E||_F = 3e-11 ||T|| and
    3e-12 ||T|| wherever `build_context` accepts it, the contour passes its
    gate and matches the dense per-node oracle within 1e-8."""
    rng = np.random.default_rng(73 + n)
    exact = [random_normal(n, rng, kind="imaginaryunit")[0]]
    exact += [_close_spheres(n, 74 + n, gap) for gap in (1e-12, 1e-10, 1e-8, 1e-5)]
    perturbed = [_nearly_normal(n, rng, size) for size in (3e-11, 3e-11, 3e-12, 3e-12)]
    f = SliceFunction.builtin("exp")
    built = []
    for t in exact + perturbed:
        try:
            ctx = build_context(t)
        except NumericalError:
            built.append(False)
            continue
        built.append(True)
        expect = _per_node_contour(ctx, f, 64)
        got = chi_embed(slice_regular_contour(ctx, f, nodes=64))
        assert np.linalg.norm(got - expect, 2) <= 1e-8 * np.linalg.norm(expect, 2)
    assert all(built[:len(exact)]) and any(built[len(exact):])


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("size", [3e-12, 3e-11])
def test_split_is_a_schur_form_of_nearly_normal_input(n, size):
    """On T + E, ||E||_F = 3e-11 ||T|| or 3e-12 ||T||, the eigh vectors of
    the split leave cross-block mass below the diagonal; the Cayley step
    removes it, so the split's off mass is that of a Schur form (at most
    twice the strictly upper mass of `scipy.linalg.schur`), `build_context`
    accepts every input (without the step it refused each one at 3e-11),
    and the contour on the shared factorization matches the dense
    per-node oracle within 1e-8."""
    rng = np.random.default_rng(35 + n)
    f = SliceFunction.builtin("exp")
    for _ in range(3):
        t = _nearly_normal(n, rng, size)
        c = chi_embed(t)
        evals, v, off = _split_schur(c)
        upper = np.linalg.norm(np.triu(scipy.linalg.schur(c, output="complex")[0], 1))
        assert off <= 2.0 * upper
        assert np.linalg.norm(np.tril(v.conj().T @ c @ v, -1)) <= 1e-13 * op_norm(t)
        ctx = build_context(t)
        expect = _per_node_contour(ctx, f, 64)
        got = chi_embed(slice_regular_contour(ctx, f, nodes=64))
        assert np.linalg.norm(got - expect, 2) <= 1e-8 * np.linalg.norm(expect, 2)


def test_split_of_normal_input_takes_no_cayley_step(monkeypatch):
    """An exactly normal T leaves no mass below the block diagonal above
    the 1e-11 threshold: `build_context` makes no linear solve."""
    t = random_normal(32, np.random.default_rng(36))[0]

    def no_solve(*args, **kwargs):
        raise AssertionError("normal input takes no Cayley step")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    ctx = build_context(t)
    assert op_norm(t - (ctx.a + ctx.j @ ctx.b)) <= 1e-10 * op_norm(t)


def _cubic() -> SliceFunction:
    return SliceFunction.polynomial(
        [(3, 0, 1.0), (1, 2, -3.0), (1, 0, 0.5), (0, 0, -1.0)],
        [(2, 1, 3.0), (0, 3, -1.0), (0, 1, 0.5)])  # z^3 + 0.5 z - 1


def test_contour_on_a_sequence_equals_the_single_calls():
    """A sequence shares the Schur form and the solves; each image equals
    its single call up to the rounding of the wider triangular solve."""
    ctx = build_context(random_normal(8, np.random.default_rng(69))[0])
    fns = [SliceFunction.builtin("exp"), SliceFunction.builtin("square"), _cubic()]
    batch = slice_regular_contour(ctx, fns, nodes=64)
    assert isinstance(batch, list) and len(batch) == 3
    for f, got in zip(fns, batch):
        alone = slice_regular_contour(ctx, f, nodes=64)
        assert isinstance(alone, QMatrix)
        assert (got - alone).frobenius() <= 1e-14 * alone.frobenius()
    assert (slice_regular_contour(ctx, fns[:1], nodes=64)[0]
            - slice_regular_contour(ctx, fns[0], nodes=64)).frobenius() == 0.0


def test_contour_sequence_errors_name_the_function():
    ctx = build_context(random_normal(3, np.random.default_rng(31))[0])
    ok = SliceFunction.builtin("square")
    with pytest.raises(PreconditionError, match="function 1: quadrature node 1 lies outside"):
        slice_regular_contour(ctx, [ok, SliceFunction.builtin("sqrt")])
    big = build_context(QMatrix.diag([Quaternion(1), Quaternion(800)]))
    with pytest.raises(NumericalError, match="function 2: f is not finite at quadrature node 0"):
        slice_regular_contour(big, [ok, ok, SliceFunction.builtin("exp")])
    with pytest.raises(PreconditionError, match="no slice function"):
        slice_regular_contour(ctx, [])


def test_verified_matrix_takes_one_contour_quadrature(monkeypatch):
    """verify_calculus runs its four contour checks through one call, and
    none takes a Schur form of chi(T): the contour reads the context's. The
    context is built before counting, so a Schur form would be the
    contour's."""
    import quatspec.verify as verify
    t = random_normal(8, np.random.default_rng(70))[0]
    ctx = build_context(t)
    monkeypatch.setattr(verify, "build_context", lambda _: ctx)
    contours, schurs = [], []
    real_contour, real_schur = verify.slice_regular_contour, scipy.linalg.schur
    monkeypatch.setattr(verify, "slice_regular_contour",
                        lambda *a, **k: contours.append(len(a[1])) or real_contour(*a, **k))
    monkeypatch.setattr(scipy.linalg, "schur",
                        lambda *a, **k: schurs.append(1) or real_schur(*a, **k))
    report = VerificationReport()
    verify_calculus(report, t, np.random.default_rng(71))
    assert report.ok, report.table()
    assert contours == [4]
    assert schurs == []


def test_contour_radius_and_node_validation():
    t, _ = random_normal(3, RNG)
    ctx = build_context(t)
    f = SliceFunction.builtin("id")
    with pytest.raises(PreconditionError):
        slice_regular_contour(ctx, f, radius=0.5 * op_norm(t))
    with pytest.raises(PreconditionError):
        slice_regular_contour(ctx, f, nodes=8)


def test_contour_default_radius_converges_fast():
    t, _ = random_normal(3, RNG)
    ctx = build_context(t)
    f = SliceFunction.builtin("square")
    coarse = slice_regular_contour(ctx, f, nodes=32)
    fine = slice_regular_contour(ctx, f, nodes=256)
    assert op_norm(coarse - fine) <= 1e-7 * max(1.0, op_norm(fine))


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_contour_default_radius_scales_with_t(c):
    """The default radius 2 ||T|| scales with T, and a node is read as real
    only relative to |s|, so the contour matches the calculus at any scale."""
    rng = np.random.default_rng(7)
    cubic = SliceFunction.polynomial(
        [(3, 0, 1.0), (1, 2, -3.0), (1, 0, 0.5)], [(2, 1, 3.0), (0, 3, -1.0), (0, 1, 0.5)])
    for kind in _KINDS:
        ctx = build_context(random_normal(8, rng, kind=kind)[0] * c)
        for f in (SliceFunction.builtin("id"), SliceFunction.builtin("square"), cubic):
            alg = general_calculus(ctx, f)
            con = slice_regular_contour(ctx, f, nodes=256)
            assert op_norm(con - alg) <= 1e-10 * op_norm(alg)


def test_contour_kernel_equals_resolvent_series():
    """The node kernel Delta_z(T)^(-1)(T - L_conj(z)) has the power-series
    expansion -sum_n T^n L_{z^(-n-1)} outside the spectral bound."""
    t, _ = random_normal(4, RNG)
    ctx = build_context(t)
    r = 2.5 * op_norm(t)
    zq = Quaternion(r * 0.6) + I * (r * 0.8)
    zc = complex(r * 0.6, r * 0.8)
    from quatspec.spectral import delta_q
    delta_c = chi_embed(delta_q(t, zq))
    psi = np.linalg.solve(delta_c,
                          chi_embed(t) - chi_embed(ctx.basis.matrix(zq.conjugate())))
    series = np.zeros_like(psi)
    power = QMatrix.identity(4)
    for n in range(60):
        c = zc ** (-n - 1)
        series -= chi_embed(power) @ chi_embed(ctx.basis.matrix(Quaternion(c.real) + I * c.imag))
        power = power @ t
    assert np.linalg.norm(psi - series, 2) <= 1e-12


@pytest.mark.parametrize("seed, index", [(0, 11), (5, 1), (20, 6), (81, 11), (206, 6)])
def test_eigenbasis_orthonormal_on_verify_matrices(seed, index):
    """Matrix `index` of `verify --random 8,20,seed` is self-adjoint; its
    symplectic half basis once kept a 1.2e-12 - 3.8e-12 Gram deviation,
    which failed the 1e-12 identities unity-recovered, cslice-constant-J and
    circular-constant-K."""
    rng = np.random.default_rng(seed)
    for m in range(index + 1):
        t, _ = random_normal(8, rng, kind=_KINDS[m % len(_KINDS)])
    ctx = build_context(t)
    eye = QMatrix.identity(8)
    z = ctx.basis.columns
    assert op_norm(z.adjoint() @ z - eye) <= 1e-14
    assert op_norm(intrinsic_calculus(ctx, SliceFunction.builtin("one")) - eye) <= 1e-12
    assert op_norm(cslice_calculus(ctx, SliceFunction.constant(IOTA)) - ctx.j) <= 1e-12
    assert op_norm(circular_calculus(ctx, SliceFunction.constant(KAPPA)) - ctx.k) <= 1e-12


# -- degenerate and tiny inputs ----------------------------------------------------------------


def test_one_sphere_with_mixed_axes():
    """diag(1+2i, 1+2j): a single eigensphere of multiplicity two whose
    eigenvalues point along different imaginary axes."""
    v = random_unitary(2, RNG)
    t = v @ QMatrix.diag([Quaternion(1) + I * 2.0, Quaternion(1) + J * 2.0]) @ v.adjoint()
    spec = spherical_spectrum(t)
    assert spec.size == 1 and spec.mult == (2,)
    ctx = build_context(t)
    assert op_norm(ctx.t - (ctx.a + ctx.j @ ctx.b)) <= 1e-10 * op_norm(t)
    f = SliceFunction.builtin("exp")
    ft = intrinsic_calculus(ctx, f)
    assert abs(op_norm(ft) - sup_norm(f, ctx.spectrum())) <= 1e-8


def test_diag_of_two_imaginary_units():
    t = QMatrix.diag([I, J])
    spec = spherical_spectrum(t)
    assert spec.mult == (2,)
    assert hausdorff(spec.reps, np.array([[0.0, 1.0]])) <= 1e-12
    ctx = build_context(t)
    assert op_norm(ctx.t - (ctx.a + ctx.j @ ctx.b)) <= 1e-10


def test_one_by_one_context_and_contour():
    t = QMatrix.diag([Quaternion(0.5, 1, -2, 0.25)])
    ctx = build_context(t)
    assert op_norm(ctx.t - (ctx.a + ctx.j @ ctx.b)) <= 1e-12
    sq = slice_regular_contour(ctx, SliceFunction.builtin("square"))
    assert op_norm(sq - t @ t) <= 1e-8


def test_zero_operator_context():
    t = QMatrix.zeros(3)
    ctx = build_context(t)
    assert op_norm(ctx.a) == 0.0 and op_norm(ctx.b) == 0.0
    assert ctx.kernel_flags.all()
    spec = spherical_spectrum(t)
    assert spec.mult == (3,) and np.allclose(spec.reps, [[0.0, 0.0]])
    assert op_norm(intrinsic_calculus(ctx, SliceFunction.builtin("exp"))
                   - QMatrix.identity(3)) <= 1e-12


# -- spectral measure --------------------------------------------------------------------------

def test_spectral_measure_diag_example():
    t = QMatrix.diag([Quaternion(1), Quaternion(2)])
    u = QVector.basis_vector(2, 0)
    ctx = build_context(t)
    atoms, weights = ctx.spectrum().reps[:, 0], spectral_measure_weights(ctx, u)
    assert atoms[0] == pytest.approx(1.0) and weights[0] == pytest.approx(1.0)
    assert atoms[1] == pytest.approx(2.0) and abs(weights[1]) <= 1e-14


def test_spectral_measure_total_and_moments():
    t, _ = random_normal(6, RNG, kind="selfadjoint")
    u = random_qvector(6, RNG)
    ctx = build_context(t)
    weights = spectral_measure_weights(ctx, u)
    assert abs(sum(weights) - u.norm() ** 2) <= 1e-9 * u.norm() ** 2
    for name in ("square", "exp"):
        f = SliceFunction.builtin(name)
        val = (intrinsic_calculus(ctx, f) @ u).norm() ** 2
        expect = sum(f.eval(Quaternion(lam)).a ** 2 * w
                     for lam, w in zip(ctx.spectrum().reps[:, 0], weights))
        assert abs(val - expect) <= 1e-9 * max(1.0, expect)


def test_spectral_measure_clusters_degenerate_eigenvalues():
    v = random_unitary(4, RNG)
    t = v @ QMatrix.diag([Quaternion(1)] * 3 + [Quaternion(-2)]) @ v.adjoint()
    u = random_qvector(4, RNG)
    ctx = build_context(t)
    weights = spectral_measure_weights(ctx, u)
    assert len(weights) == 2
    assert abs(sum(weights) - u.norm() ** 2) <= 1e-9 * u.norm() ** 2
    # the atoms of c T are those of T with the eigenvalues scaled by c
    for c in (1e-9, 1.0, 1e9):
        scaled_ctx = build_context(t * c)
        scaled = spectral_measure_weights(scaled_ctx, u)
        assert len(scaled) == 2
        for lam, w, lam0, w0 in zip(scaled_ctx.spectrum().reps[:, 0], scaled,
                                    ctx.spectrum().reps[:, 0], weights):
            assert abs(lam - c * lam0) <= 1e-12 * c
            assert abs(w - w0) <= 1e-12 * u.norm() ** 2


def test_spectral_measure_of_anti_self_adjoint_sums_to_norm():
    """The measure is read off any normal T's context, not only a
    self-adjoint one: one weight per sphere, summing to ||u||^2."""
    t, _ = random_normal(5, RNG, kind="antiselfadjoint")
    u = random_qvector(5, RNG)
    ctx = build_context(t)
    weights = spectral_measure_weights(ctx, u)
    assert weights.shape == (ctx.spectrum().size,)
    assert abs(weights.sum() - u.norm() ** 2) <= 1e-12 * u.norm() ** 2


# -- spectral projections ---------------------------------------------------------------------

def test_projections_resolve_the_identity_and_t():
    """T = V diag(0.7, 0.7, 1 + 2i, 1 + 2j, -0.5 + k) V*: a two-dimensional
    real sphere, a repeated non-real sphere and a simple one."""
    v = random_unitary(5, RNG)
    diag = [Quaternion(0.7), Quaternion(0.7), Quaternion(1, 2, 0, 0), Quaternion(1, 0, 2, 0),
            Quaternion(-0.5, 0, 0, 1)]
    t = v @ QMatrix.diag(diag) @ v.adjoint()
    ctx = build_context(t)
    spec, projections = ctx.spectrum(), ctx.projections()
    assert np.allclose(spec.reps, [[-0.5, 1.0], [0.7, 0.0], [1.0, 2.0]], atol=1e-12)
    assert spec.mult == (1, 2, 2) and len(projections) == 3
    eye, tol = QMatrix.identity(5), 1e-12 * op_norm(t)
    assert op_norm(sum(projections, QMatrix.zeros(5)) - eye) <= 1e-12
    for s, ps in enumerate(projections):
        assert abs(np.trace(ps.x1).real - spec.mult[s]) <= 1e-12  # Re tr P_s = mult_s
        for r, pr in enumerate(projections):
            assert op_norm(ps @ pr - ps * float(r == s)) <= 1e-12
        assert op_norm(ps @ t - t @ ps) <= tol
        assert op_norm(ps @ ctx.j - ctx.j @ ps) <= 1e-12
        assert op_norm(ps @ ctx.k - ctx.k @ ps) <= 1e-12
    resolution = sum((ps * alpha + ctx.j @ ps * beta
                      for ps, (alpha, beta) in zip(projections, spec.reps)), QMatrix.zeros(5))
    assert op_norm(resolution - t) <= tol


def test_verify_calculus_takes_one_eigensystem(monkeypatch):
    """Every check of the calculus suite reads the one context of T."""
    import quatspec.calculus as calculus
    calls = []
    real = calculus._normal_eigensystem
    monkeypatch.setattr(calculus, "_normal_eigensystem",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    report = VerificationReport()
    verify_calculus(report, random_normal(6, RNG)[0], np.random.default_rng(0))
    assert len(calls) == 1 and report.ok


# -- the eigenvalue calculi against their component definitions ---------------------------

def tabulated_general() -> SliceFunction:
    """A continuous, non-polynomial stem with quaternionic values."""
    c, d, e = Quaternion(0.3, -1, 0.5, 2), Quaternion(1, 0.2, -0.4, 0.7), \
        Quaternion(-0.5, 1, 1, -0.3)

    def stem(z: complex):
        ea = math.exp(z.real)
        return (c * (ea * math.cos(z.imag)) + d * abs(z.imag),
                c * (ea * math.sin(z.imag)) + e * z.imag)

    return SliceFunction.tabulated(stem)


def test_eigenvalue_calculi_are_their_component_definitions():
    """The single eigenbasis sandwich equals the paper's definitions
    f(T) = f0(T) + f1(T) J + f2(T) K + f3(T) JK and, for C_iota-slice g,
    g(T) = g0(T) + g1(T) J, with f_l(T) the intrinsic calculus."""
    t, _ = random_normal(6, np.random.default_rng(6))
    ctx = build_context(t)
    assert ctx.kernel_flags.any()
    units = (QMatrix.identity(6), ctx.j, ctx.k, ctx.j @ ctx.k)
    for f in (random_general(), tabulated_general()):
        ft = general_calculus(ctx, f)
        parts = decompose_components(f, IOTA, KAPPA)
        expect = QMatrix.zeros(6)
        for f_l, unit in zip(parts, units):
            expect = expect + intrinsic_calculus(ctx, f_l) @ unit
        assert op_norm(ft - expect) <= 1e-10 * max(1.0, op_norm(ft))
    tabulated_cslice = slice_product(SliceFunction.builtin("exp"),
                                     SliceFunction.constant(I)) + SliceFunction.builtin("square")
    for g in (random_cslice(I), tabulated_cslice):
        gt = cslice_calculus(ctx, g)
        g0, g1, _, _ = decompose_components(g, IOTA, KAPPA)
        expect = intrinsic_calculus(ctx, g0) + intrinsic_calculus(ctx, g1) @ ctx.j
        assert op_norm(gt - expect) <= 1e-10 * max(1.0, op_norm(gt))


def test_contour_rejects_nodes_outside_the_domain():
    t, _ = random_normal(3, np.random.default_rng(31))
    ctx = build_context(t)
    # node 0 is the real point R > 0, where sqrt is defined; node 1 is not real
    with pytest.raises(PreconditionError, match="quadrature node 1 lies outside"):
        slice_regular_contour(ctx, SliceFunction.builtin("sqrt"))
    ranged = SliceFunction.polynomial(SQUARE_Q1, SQUARE_Q2, domain=ctx.spectrum())
    assert op_norm(general_calculus(ctx, ranged) - t @ t) <= 1e-9 * max(1.0, ctx.tnorm) ** 2
    with pytest.raises(PreconditionError, match="quadrature node 0 lies outside"):
        slice_regular_contour(ctx, ranged)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_contour_rejects_non_finite_radius(radius):
    ctx = build_context(random_normal(3, np.random.default_rng(32))[0])
    with pytest.raises(PreconditionError, match="is not finite"):
        slice_regular_contour(ctx, SliceFunction.builtin("square"), radius=radius)


def test_polynomial_calculus_reads_its_terms_as_a_stem():
    """The terms go through the stem parser: equal monomials add up, bad
    exponents and non-finite coefficients are rejected, and the merged
    coefficients must be real to REAL_TOL."""
    t, _ = random_normal(4, np.random.default_rng(106))
    ctx = build_context(t)
    a_sq = ctx.a @ ctx.a
    scale = max(1.0, op_norm(a_sq))
    assert op_norm(polynomial_calculus(ctx, [(2, 0, 0.5), (2, 0, 0.5)], []) - a_sq) <= \
        1e-12 * scale
    assert op_norm(polynomial_calculus(ctx, [(2, 0, Quaternion(1.0, 1e-14, 0.0, 0.0))], [])
                   - a_sq) <= 1e-12 * scale
    with pytest.raises(PreconditionError, match="must be real"):
        polynomial_calculus(ctx, [(2, 0, Quaternion(1.0, 1e-9, 0.0, 0.0))], [])
    for exponent in (1.5, -1, True, "2"):
        with pytest.raises(PreconditionError, match="exponents must be"):
            polynomial_calculus(ctx, [(exponent, 0, 1.0)], [])
    with pytest.raises(PreconditionError, match="non-finite"):
        polynomial_calculus(ctx, [], [(0, 1, math.nan)])


def test_polynomial_calculus_powers_by_squaring():
    """X^1000000 of an orthogonal projection T is T: the powers come from
    binary powering, not from a table of every power up to the exponent. An
    eigenvalue 1 + delta of A becomes 1 + 1e6 delta, hence the 1e-8."""
    rng = np.random.default_rng(107)
    v = random_unitary(4, rng)
    t = v @ QMatrix.diag([Quaternion(1), Quaternion(1), Quaternion(), Quaternion()]) \
        @ v.adjoint()
    ctx = build_context(t)
    assert op_norm(polynomial_calculus(ctx, [(1000000, 0, 1.0)], []) - t) <= 1e-8


def test_overflowing_function_raises_numerical_error():
    """exp(800) and 800^1000000 overflow: every calculus names the first
    spectrum point or quadrature node where f is not finite instead of
    returning NaN entries, and without numpy overflow warnings."""
    ctx = build_context(QMatrix.diag([Quaternion(1), Quaternion(800)]))
    big_power = SliceFunction.polynomial([(10**6, 0, 1.0)], [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no RuntimeWarning on the way
        for f in (SliceFunction.builtin("exp"), big_power):
            for calculus in (intrinsic_calculus, general_calculus):
                with pytest.raises(NumericalError, match="not finite at spectrum point 800"):
                    calculus(ctx, f)
            with pytest.raises(NumericalError, match="not finite at quadrature node 0"):
                slice_regular_contour(ctx, f)
