"""Acceptance suite: every criterion checked at its pinned tolerance on
random desk-scale inputs (n <= 16), one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines; each test is
one criterion.
"""

import numpy as np

from oracles import ComplexifiedQuaternion, evaluate, fold
from quatspec.calculus import (IOTA, KAPPA, alternate_kernel_J, build_context,
                               circular_calculus, cslice_calculus,
                               general_calculus, intrinsic_calculus,
                               polynomial_calculus, slice_regular_contour,
                               spectral_measure_weights)
from quatspec.qmatrix import (QMatrix, chi_embed, op_norm, random_normal,
                              random_qmatrix, random_qvector, random_unitary)
from quatspec.quaternion import I, Quaternion, random_sphere_point, sphere_grid
from quatspec.slicefn import (SliceFunction, decompose_components, hausdorff,
                              one_sided_hausdorff, slice_product, sup_norm)
from quatspec.spectral import (delta_q, gelfand_check, resolvent_series,
                               spherical_spectrum)

RNG = np.random.default_rng(20240131)

SQUARE_Q1 = [(2, 0, 1.0), (0, 2, -1.0)]
SQUARE_Q2 = [(1, 1, 2.0)]


def report(number: int, name: str, residual: float, tolerance: float) -> None:
    status = "PASS" if residual <= tolerance else "FAIL"
    print(f"acceptance {number:02d} {name}: {status} "
          f"(worst residual {residual:.3e}, tolerance {tolerance:.1e})")
    assert residual <= tolerance, \
        f"criterion {number} ({name}): residual {residual:.3e} > {tolerance:.1e}"


def random_quat(scale=2.0) -> Quaternion:
    return Quaternion(*(RNG.normal(size=4) * scale))


def normal_pool(count, kinds=("normal",), nmax=8):
    out = []
    for m in range(count):
        n = int(RNG.integers(2, nmax + 1))
        t, reps = random_normal(n, RNG, kind=kinds[m % len(kinds)])
        out.append((t, reps))
    return out


def random_intrinsic() -> SliceFunction:
    r = lambda: Quaternion(RNG.normal())
    return SliceFunction.polynomial(
        [(0, 0, r()), (1, 0, r()), (2, 0, r()), (0, 2, r())],
        [(0, 1, r()), (1, 1, r())])


def random_circular() -> SliceFunction:
    r = lambda: Quaternion(*(RNG.normal(size=4) * 0.7))
    return SliceFunction.polynomial([(0, 0, r()), (1, 0, r()), (0, 2, r())], [])


def random_cslice() -> SliceFunction:
    return random_intrinsic() + slice_product(random_intrinsic(),
                                              SliceFunction.constant(I))


def random_general() -> SliceFunction:
    r = lambda: Quaternion(*(RNG.normal(size=4) * 0.7))
    return SliceFunction.polynomial(
        [(0, 0, r()), (1, 0, r()), (0, 2, r())], [(0, 1, r()), (1, 1, r())])


def test_criterion_01_hc_cstar_algebra():
    worst_cstar = worst_submult = 0.0
    for _ in range(10_000):
        w = ComplexifiedQuaternion(random_quat(), random_quat())
        y = ComplexifiedQuaternion(random_quat(), random_quat())
        nw, ny = w.norm(), y.norm()
        worst_cstar = max(worst_cstar,
                          abs((w.star() * w).norm() - nw ** 2) / max(1e-30, nw ** 2))
        worst_submult = max(worst_submult,
                            ((w * y).norm() - nw * ny) / max(1e-30, nw * ny))
    report(1, "hc-cstar-identity", worst_cstar, 1e-12)
    report(1, "hc-submultiplicative", max(0.0, worst_submult), 1e-10)

    grid = sphere_grid(10_000)
    worst_under = worst_over = 0.0
    for _ in range(20):
        w = ComplexifiedQuaternion(random_quat(), random_quat())
        q = np.array(w.q.components())
        p = np.array(w.p.components())
        ip = np.empty((grid.shape[0], 4))
        g = grid
        ip[:, 0] = -(g[:, 0] * p[1] + g[:, 1] * p[2] + g[:, 2] * p[3])
        ip[:, 1] = g[:, 0] * p[0] + g[:, 1] * p[3] - g[:, 2] * p[2]
        ip[:, 2] = -g[:, 0] * p[3] + g[:, 1] * p[0] + g[:, 2] * p[1]
        ip[:, 3] = g[:, 0] * p[2] - g[:, 1] * p[1] + g[:, 2] * p[0]
        sampled = float(np.linalg.norm(q[None, :] + ip, axis=1).max())
        worst_over = max(worst_over, (sampled - w.norm()) / max(1e-30, w.norm()))
        worst_under = max(worst_under, (w.norm() - sampled) / max(1e-30, w.norm()))
    report(1, "hc-sup-over-sphere-dominates", max(0.0, worst_over), 1e-12)
    report(1, "hc-sup-over-sphere-sharp", worst_under, 1e-3)


def test_criterion_02_chi_homomorphism():
    worst_prod = worst_adj = 0.0
    for _ in range(100):
        n = int(RNG.integers(2, 17))
        m, k = random_qmatrix(n, RNG), random_qmatrix(n, RNG)
        cm, ck = chi_embed(m), chi_embed(k)
        scale = np.linalg.norm(cm, 2) * np.linalg.norm(ck, 2)
        worst_prod = max(worst_prod,
                         np.linalg.norm(chi_embed(m @ k) - cm @ ck, 2) / scale)
        worst_adj = max(worst_adj,
                        np.linalg.norm(chi_embed(m.adjoint()) - cm.conj().T, 2))
    report(2, "chi-multiplicative", worst_prod, 1e-11)
    report(2, "chi-respects-adjoint", worst_adj, 1e-14)


def test_criterion_03_spectral_classes():
    worst = {"sa": 0.0, "asa": 0.0, "uni": 0.0, "sphere": 0.0, "adj": 0.0}
    for m in range(60):
        kind = ("selfadjoint", "antiselfadjoint", "unitary", "imaginaryunit")[m % 4]
        t, _ = random_normal(int(RNG.integers(2, 9)), RNG, kind=kind)
        spec = spherical_spectrum(t)
        if kind == "selfadjoint":
            worst["sa"] = max(worst["sa"], float(spec.reps[:, 1].max()))
        elif kind == "antiselfadjoint":
            worst["asa"] = max(worst["asa"], float(np.abs(spec.reps[:, 0]).max()))
        elif kind == "unitary":
            moduli = np.hypot(spec.reps[:, 0], spec.reps[:, 1])
            worst["uni"] = max(worst["uni"], float(np.abs(moduli - 1.0).max()))
        else:
            worst["sphere"] = max(worst["sphere"],
                                  hausdorff(spec.reps, np.array([[0.0, 1.0]])))
        worst["adj"] = max(worst["adj"],
                           hausdorff(spec.reps, spherical_spectrum(t.adjoint()).reps))
    report(3, "self-adjoint-real-spectrum", worst["sa"], 1e-8)
    report(3, "anti-self-adjoint-imaginary-spectrum", worst["asa"], 1e-8)
    report(3, "unitary-unit-modulus", worst["uni"], 1e-8)
    report(3, "imaginary-unit-sphere", worst["sphere"], 1e-8)
    report(3, "adjoint-same-spectrum", worst["adj"], 1e-8)


def test_criterion_04_normal_spectral_radius():
    worst_radius = worst_gelfand = 0.0
    for t, _ in normal_pool(50, ("normal", "selfadjoint", "unitary")):
        tnorm = op_norm(t)
        spec = spherical_spectrum(t)
        worst_radius = max(worst_radius, abs(spec.radius() - tnorm) / tnorm)
        seq = gelfand_check(t, 5)
        worst_gelfand = max(worst_gelfand, float(np.abs(seq - tnorm).max()) / tnorm)
    report(4, "radius-equals-norm", worst_radius, 1e-9)
    report(4, "gelfand-sequence-constant", worst_gelfand, 1e-8)


def test_criterion_05_resolvent_series():
    worst = 0.0
    for t, _ in normal_pool(50):
        q = random_quat() + Quaternion(0.1)
        q = q * (2.0 * op_norm(t) / q.norm())
        res = resolvent_series(t, q, 1e-10)
        eye = QMatrix.identity(t.n)
        worst = max(worst, op_norm(delta_q(t, q) @ res - eye),
                    op_norm(res @ delta_q(t, q) - eye))
    report(5, "resolvent-series-inverse", worst, 1e-8)


def test_criterion_06_decomposition():
    worst_dec = worst_unit = worst_comm = 0.0
    for t, _ in normal_pool(50, ("normal", "selfadjoint", "antiselfadjoint", "unitary")):
        ctx = build_context(t)
        scale = max(1.0, op_norm(t))
        eye = QMatrix.identity(t.n)
        worst_dec = max(worst_dec, op_norm(ctx.t - (ctx.a + ctx.j @ ctx.b)) / scale)
        for u in (ctx.j, ctx.k):
            worst_unit = max(worst_unit, op_norm(u + u.adjoint()),
                             op_norm(u.adjoint() @ u - eye))
        worst_comm = max(
            worst_comm,
            op_norm(ctx.j @ ctx.k + ctx.k @ ctx.j) / scale,
            op_norm(ctx.j @ ctx.t - ctx.t @ ctx.j) / scale,
            op_norm(ctx.k @ ctx.a - ctx.a @ ctx.k) / scale,
            op_norm(ctx.k @ ctx.b - ctx.b @ ctx.k) / scale)
    report(6, "T-equals-A-plus-JB", worst_dec, 1e-10)
    report(6, "J-K-anti-self-adjoint-unitary", worst_unit, 1e-9)
    report(6, "commutation-relations", worst_comm, 1e-9)


def test_criterion_07_intrinsic_calculus():
    worst_iso = worst_map = worst_hom = worst_star = 0.0
    for t, _ in normal_pool(50):
        ctx = build_context(t)
        spec_set = ctx.spectrum()
        f = random_intrinsic()
        ft = intrinsic_calculus(ctx, f)
        nf = sup_norm(f, spec_set)
        worst_iso = max(worst_iso, abs(op_norm(ft) - nf) / max(1.0, nf))
        mapped = np.array([fold(evaluate(f, Quaternion(a) + I * b))
                           for a, b in spec_set.reps])
        worst_map = max(worst_map,
                        hausdorff(spherical_spectrum(ft).reps, mapped) / max(1.0, nf))
        g = random_intrinsic()
        gt = intrinsic_calculus(ctx, g)
        scale = max(1.0, op_norm(ft) * op_norm(gt))
        worst_hom = max(worst_hom,
                        op_norm(intrinsic_calculus(ctx, slice_product(f, g)) - ft @ gt)
                        / scale)
        worst_star = max(worst_star,
                         op_norm(intrinsic_calculus(ctx, f.star()) - ft.adjoint())
                         / max(1.0, op_norm(ft)))
    report(7, "intrinsic-isometry", worst_iso, 1e-8)
    report(7, "intrinsic-spectral-map", worst_map, 1e-7)
    report(7, "intrinsic-homomorphism", worst_hom, 1e-8)
    report(7, "intrinsic-star", worst_star, 1e-8)


def test_criterion_08_polynomial_cross_check():
    worst = 0.0
    for t, _ in normal_pool(50):
        ctx = build_context(t)
        scale = max(1.0, op_norm(t)) ** 2
        t_sq = t @ t
        via_eig = intrinsic_calculus(ctx, SliceFunction.builtin("square"))
        via_poly = polynomial_calculus(ctx, SQUARE_Q1, SQUARE_Q2)
        worst = max(worst, op_norm(via_eig - t_sq) / scale,
                    op_norm(via_poly - t_sq) / scale,
                    op_norm(via_eig - via_poly) / scale)
    report(8, "square-both-routes", worst, 1e-9)


def test_criterion_09_cslice_calculus():
    worst_norm = worst_map = worst_kernel = worst_const = 0.0
    for t, _ in normal_pool(50, ("normal", "antiselfadjoint", "unitary")):
        ctx = build_context(t)
        upper = ctx.spectrum().reps
        f = random_cslice()
        ft = cslice_calculus(ctx, f)
        nf = max(evaluate(f, Quaternion(a) + I * b).norm() for a, b in upper)
        worst_norm = max(worst_norm, abs(op_norm(ft) - nf) / max(1.0, nf))
        mapped = np.array([fold(evaluate(f, Quaternion(a) + I * b)) for a, b in upper])
        worst_map = max(worst_map,
                        hausdorff(spherical_spectrum(ft).reps, mapped) / max(1.0, nf))
        worst_const = max(worst_const,
                          op_norm(cslice_calculus(ctx, SliceFunction.constant(I)) - ctx.j))
        if float(upper[:, 1].max()) > 0.1:
            fk = SliceFunction.tabulated(lambda z: (-I * abs(z.imag), Quaternion(z.imag)))
            worst_kernel = max(worst_kernel,
                               op_norm(cslice_calculus(ctx, fk)) / max(1.0, op_norm(t)))
    report(9, "cslice-norm-identity", worst_norm, 1e-8)
    report(9, "cslice-spectral-map", worst_map, 1e-7)
    report(9, "cslice-kernel-characterization", worst_kernel, 1e-8)
    report(9, "cslice-constant-to-J", worst_const, 1e-12)


def test_criterion_10_circular_calculus():
    worst_hom = worst_star = worst_const = worst_contain = worst_bound = 0.0
    worst_isometry = 0.0
    for t, _ in normal_pool(50):
        ctx = build_context(t)
        f, g = random_circular(), random_circular()
        ft, gt = circular_calculus(ctx, f), circular_calculus(ctx, g)
        scale = max(1.0, op_norm(ft) * op_norm(gt))
        worst_hom = max(worst_hom,
                        op_norm(circular_calculus(ctx, slice_product(f, g)) - ft @ gt)
                        / scale)
        worst_star = max(worst_star,
                         op_norm(circular_calculus(ctx, f.star()) - ft.adjoint())
                         / max(1.0, op_norm(ft)))
        worst_const = max(worst_const,
                          op_norm(circular_calculus(ctx, SliceFunction.constant(KAPPA))
                                  - ctx.k))
        upper = ctx.spectrum().reps
        mapped = np.array([fold(evaluate(f, Quaternion(a) + I * b)) for a, b in upper])
        worst_contain = max(worst_contain,
                            one_sided_hausdorff(spherical_spectrum(ft).reps, mapped)
                            / max(1.0, op_norm(ft)))
        nf = sup_norm(f, ctx.spectrum())
        worst_bound = max(worst_bound, (op_norm(ft) - nf) / max(1.0, nf))
        worst_isometry = max(worst_isometry, abs(op_norm(ft) - nf) / max(1.0, nf))
    report(10, "circular-homomorphism", worst_hom, 1e-8)
    report(10, "circular-star", worst_star, 1e-8)
    report(10, "circular-constant-to-K", worst_const, 1e-12)
    report(10, "circular-spectral-containment", worst_contain, 1e-7)
    report(10, "circular-norm-bound", max(0.0, worst_bound), 1e-8)
    report(10, "circular-isometry", worst_isometry, 1e-8)


def test_criterion_11_general_calculus():
    worst_scalar = worst_adjoint = 0.0
    for t, _ in normal_pool(50):
        ctx = build_context(t)
        f = random_general()
        ft = general_calculus(ctx, f)
        q = random_quat()
        lhs = general_calculus(ctx, slice_product(f, SliceFunction.constant(q)))
        worst_scalar = max(worst_scalar,
                           op_norm(lhs - ft @ ctx.basis.matrix(q))
                           / max(1.0, op_norm(ft) * q.norm()))
        f0, f1, f2, f3 = decompose_components(f, IOTA, KAPPA)
        twisted = f0 + slice_product(f1, SliceFunction.constant(IOTA)) \
            + slice_product(f2.star(), SliceFunction.constant(KAPPA)) \
            + slice_product(f3.star(), SliceFunction.constant(IOTA * KAPPA))
        worst_adjoint = max(worst_adjoint,
                            op_norm(ft.adjoint() - general_calculus(ctx, twisted.star()))
                            / max(1.0, op_norm(ft)))
    report(11, "general-right-scalar", worst_scalar, 1e-9)
    report(11, "general-adjoint-rule", worst_adjoint, 1e-9)


def test_criterion_12_contour_calculus():
    cubic = SliceFunction.polynomial(
        [(3, 0, 1.0), (1, 2, -3.0), (1, 0, 0.5), (0, 0, -1.0)],
        [(2, 1, 3.0), (0, 3, -1.0), (0, 1, 0.5)])
    functions = [SliceFunction.builtin("one"), SliceFunction.builtin("id"),
                 SliceFunction.builtin("square"), cubic]
    worst = 0.0
    for t, _ in normal_pool(12):
        ctx = build_context(t)
        radius = 1.25 * op_norm(t) + 1.0
        for f in functions:
            alg = general_calculus(ctx, f)
            con = slice_regular_contour(ctx, f, radius=radius, nodes=256)
            worst = max(worst, op_norm(con - alg) / max(1.0, op_norm(alg)))
    report(12, "contour-matches-calculus", worst, 1e-7)


def test_criterion_13_adjoint_similarity():
    worst = 0.0
    for t, _ in normal_pool(50):
        ctx = build_context(t)
        u = ctx.k
        worst = max(worst, op_norm(u @ t @ u.adjoint() - t.adjoint()) / op_norm(t))
    report(13, "adjoint-similarity", worst, 1e-9)


def test_criterion_14_spectral_measure():
    worst_total = worst_moment = 0.0
    for _ in range(50):
        n = int(RNG.integers(2, 9))
        t, _ = random_normal(n, RNG, kind="selfadjoint")
        u = random_qvector(n, RNG)
        ctx = build_context(t)
        weights = spectral_measure_weights(ctx, u)
        worst_total = max(worst_total,
                          abs(sum(weights) - u.norm() ** 2)
                          / max(1.0, u.norm() ** 2))
        f = SliceFunction.builtin("square")
        val = (intrinsic_calculus(ctx, f) @ u).norm() ** 2
        expect = sum(lam ** 4 * w for lam, w in zip(ctx.spectrum().reps[:, 0], weights))
        worst_moment = max(worst_moment, abs(val - expect) / max(1.0, expect))
    report(14, "measure-total-mass", worst_total, 1e-9)
    report(14, "measure-moment-identity", worst_moment, 1e-9)


def mostly_real_normal(n: int) -> QMatrix:
    """A normal T = V D V* whose eigenvalues are each real with probability
    0.6, drawn in the order of `random_normal`."""
    alpha = RNG.uniform(-2.0, 2.0, size=n)
    beta = RNG.uniform(0.3, 2.0, size=n)
    beta[RNG.uniform(size=n) < 0.6] = 0.0
    d = QMatrix.diag([Quaternion(a) + random_sphere_point(RNG) * b
                      for a, b in zip(alpha, beta)])
    v = random_unitary(n, RNG)
    return v @ d @ v.adjoint()


def test_criterion_15_choice_independence():
    worst = 0.0
    for _ in range(50):
        n = int(RNG.integers(2, 9))
        # a kernel is guaranteed for self-adjoint T and likely for mostly real T
        if RNG.uniform() < 0.5:
            t, _ = random_normal(n, RNG, kind="selfadjoint")
        else:
            t = mostly_real_normal(n)
        ctx = build_context(t)
        if not ctx.kernel_flags.any():
            continue
        alt = alternate_kernel_J(ctx)
        q1 = [(2, 0, 1.0), (0, 2, -1.0), (1, 0, 0.3)]
        q2 = [(1, 1, 2.0), (0, 1, -0.4)]
        worst = max(worst, op_norm(polynomial_calculus(ctx, q1, q2)
                                   - polynomial_calculus(ctx, q1, q2, j=alt)))
    report(15, "kernel-choice-independence", worst, 1e-9)
