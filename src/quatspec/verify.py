"""Property-verification suites: every structural identity of the algebra,
the spectrum and the calculi, checked at pinned tolerances on random inputs.

Checks are aggregated by name across matrices/trials, keeping the call with
the largest residual / tolerance (each call is judged against its own
tolerance), so the resulting `VerificationReport` has one row per identity.
The algebra suite checks each identity at once on arrays of samples: (m, 4)
quaternions, (m, 2, 4) elements of H(x)C (`_hc_mul`, `_hc_star`, `_hc_norm`)
and slice functions at (m, 4) points (`SliceFunction.values`); a bulk draw
takes the same numbers from the generator as one draw per sample would.
Operator residuals are Frobenius norms, which bound the operator norm from
above and need no SVD; `op_norm` is taken only where the operator norm is
the quantity under test and for tolerance scales.

The spectral suite also checks the paper's containments per operator
class, each row only where its class holds: `spectrum-real` (T = T*),
`spectrum-imaginary` (T = -T*), `spectrum-unit-modulus` (T unitary),
`spectrum-is-sphere` (T = -T* unitary), `radius-equals-norm` (T normal),
and for every T `adjoint-same-spectrum` and `circularity`. Each class
predicate and the spectrum of T are taken once per matrix.

Two rows of the calculus suite check the paper's definitions on their own
terms, not through the context's eigensystem. `B-definition`: by uniqueness
of the positive square root, B = |T - T*|/2 exactly when B* = B, chi(B) >= 0
(one `eigvalsh`) and (2B)^2 = (T - T*)*(T - T*), each relative to ||T||
(||T||^2 for the square). `plus-minus-splitting`: `split_plus_minus` of the
measure rows' vector gives u = u+ + u- with J u+- = +-u+- iota and <u+|u->
in span{kappa, iota kappa}, at the 1e-9 of `J-unit`.
"""

from __future__ import annotations

import functools

import numpy as np

from .calculus import (IOTA, KAPPA, alternate_kernel_J, build_context,
                       circular_calculus, cslice_calculus, general_calculus,
                       intrinsic_calculus, polynomial_calculus,
                       slice_regular_contour, spectral_measure_weights)
from .qmatrix import (QMatrix, _as_qarray, _hc_mul, _hc_norm, _hc_star, _pair_product,
                      _qconj, _qmul, chi_embed, is_anti_self_adjoint, is_normal,
                      is_self_adjoint, is_unitary, op_norm, random_normal, random_qvector,
                      split_plus_minus)
from .quaternion import (Quaternion, SpherePoint, fold, random_sphere_point,
                         sphere_grid)
from .reporting import VerificationReport
from .slicefn import (CircularSet, SliceFunction, decompose_components,
                      hausdorff, is_circular, is_cslice, is_intrinsic,
                      one_sided_hausdorff, slice_product, sup_norm)
from .spectral import delta_q, gelfand_check, resolvent_series, spherical_spectrum


# ---------------------------------------------------------------------------
# algebra suite: H, H(x)C and the slice-function C*-algebras
# ---------------------------------------------------------------------------


def verify_algebra(report: VerificationReport, rng: np.random.Generator) -> None:
    p = rng.normal(size=(10000, 4)) * 2.0
    q = rng.normal(size=(10000, 4)) * 2.0
    # vectorized |pq| = |p||q|
    lhs = np.linalg.norm(_qmul(p, q), axis=1)
    rhs = np.linalg.norm(p, axis=1) * np.linalg.norm(q, axis=1)
    report.worst("quat-norm-multiplicative", "|pq| = |p||q|",
                 float(np.max(np.abs(lhs - rhs) / np.maximum(rhs, 1e-30))), 1e-13)

    x, y = np.moveaxis(rng.normal(size=(200, 2, 4)) * 2.0, 1, 0)
    resid = np.linalg.norm(_qconj(_qmul(x, y)) - _qmul(_qconj(y), _qconj(x)), axis=1)
    scale = np.maximum(1.0, np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1))
    report.worst("quat-conj-antihom", "conj(pq) = conj(q) conj(p)", np.max(resid / scale),
                 1e-13)

    # w = q + I p and y as (2000, 2, 4) arrays
    w, y = np.moveaxis(rng.normal(size=(2000, 2, 2, 4)) * 2.0, 1, 0)
    nw, ny = _hc_norm(w), _hc_norm(y)
    wy, scale = _hc_mul(w, y), np.maximum(1.0, nw * ny)
    report.worst("hc-cstar-identity", "||w* w|| = ||w||^2",
                 np.max(np.abs(_hc_norm(_hc_mul(_hc_star(w), w)) - nw ** 2)
                        / np.maximum(1.0, nw ** 2)), 1e-12)
    report.worst("hc-submultiplicative", "||w y|| <= ||w|| ||y||",
                 np.max(np.maximum(0.0, _hc_norm(wy) - nw * ny) / scale), 1e-10)
    report.worst("hc-star-antihom", "(w y)* = y* w*",
                 np.max(_hc_norm(_hc_star(wy) - _hc_mul(_hc_star(y), _hc_star(w))) / scale),
                 1e-13)
    q_norm, p_norm = np.linalg.norm(w, axis=2).T
    low, high = np.hypot(q_norm, p_norm), q_norm + p_norm
    report.worst("hc-norm-sandwich",
                 "sqrt(|q|^2+|p|^2) <= ||w|| <= |q| + |p|",
                 np.max(np.maximum(0.0, np.maximum(low - nw, nw - high)) / np.maximum(1.0, nw)),
                 1e-12)

    # |q + iota p| for the unit imaginary quaternions iota = (0, g)
    iotas = np.column_stack([np.zeros(10000), sphere_grid(10000)])
    ws = rng.normal(size=(20, 2, 4)) * 2.0
    for w, nw in zip(ws, _hc_norm(ws)):
        sampled = float(np.linalg.norm(w[0] + _qmul(iotas, w[1]), axis=1).max())
        report.worst("hc-sup-dominates", "||w|| >= |q + iota p| on S",
                     max(0.0, sampled - nw) / max(1.0, nw), 1e-12)
        report.worst("hc-sup-sharp", "||w|| = sup over S of |q + iota p|",
                     (nw - sampled) / max(1e-30, nw), 1e-3)

    _verify_slice_algebra(report, rng)


# the monomials (h, k, part) of a random stem of degree 2, in drawing order;
# part 0 is F1 (even in Y), part 1 is F2 (odd in Y)
_RANDOM_MONOMIALS = ((0, 0, 0), (0, 2, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1), (2, 0, 0))


def _random_poly_slice(rng, quaternionic=True, circular=False) -> SliceFunction:
    """A random stem of degree 2, with quaternion coefficients of scale 0.7 or
    real standard normal ones, and F2 = 0 if circular."""
    monomials = [m for m in _RANDOM_MONOMIALS if not (circular and m[2])]
    if quaternionic:
        coefs = rng.normal(size=(len(monomials), 4)) * 0.7
    else:
        coefs = rng.normal(size=(len(monomials), 1)) * [1.0, 0.0, 0.0, 0.0]
    terms: tuple[list, list] = ([], [])
    for (h, k, part), coef in zip(monomials, coefs):
        terms[part].append((h, k, coef))
    return SliceFunction.polynomial(*terms)


def _random_cslice_poly(rng, iota: SpherePoint) -> SliceFunction:
    f0, f1 = (_random_poly_slice(rng, quaternionic=False) for _ in range(2))
    return f0 + slice_product(f1, SliceFunction.constant(iota))


def _abs(f: SliceFunction, qs: np.ndarray) -> np.ndarray:
    """|f(q)| for each row q of qs."""
    return np.linalg.norm(f.values(qs), axis=1)


def _gap(f: SliceFunction, g: SliceFunction, qs: np.ndarray) -> float:
    """max over the rows q of qs of |f(q) - g(q)|."""
    return float(np.linalg.norm(f.values(qs) - g.values(qs), axis=1).max())


def _verify_slice_algebra(report: VerificationReport, rng: np.random.Generator) -> None:
    qs = rng.normal(size=(12, 4)) * 2.0

    for _ in range(25):
        f, g, h = (_random_poly_slice(rng) for _ in range(3))
        fg_h = slice_product(slice_product(f, g), h)
        f_gh = slice_product(f, slice_product(g, h))
        scale = max(1.0, float(np.max(_abs(f, qs) * _abs(g, qs) * _abs(h, qs))))
        report.worst("slice-product-assoc", "(f g) h = f (g h)",
                     _gap(fg_h, f_gh, qs) / scale, 1e-9)
        report.worst("slice-star-antihom", "(f g)* = g* f*",
                     _gap(slice_product(f, g).star(), slice_product(g.star(), f.star()), qs)
                     / scale, 1e-10)

    # representation formula: q = alpha + iota beta, q' = alpha + iota' beta
    f = _random_poly_slice(rng)
    draws = rng.normal(size=(50, 8))  # alpha, beta, iota, iota'
    alpha, beta = draws[:, 0], np.abs(draws[:, 1]) + 0.05
    iota, iotap = (np.column_stack([np.zeros(50), v / np.linalg.norm(v, axis=1, keepdims=True)])
                   for v in (draws[:, 2:5], draws[:, 5:8]))
    q, qp = iota * beta[:, None], iotap * beta[:, None]
    q[:, 0] = qp[:, 0] = alpha
    lhs, fq, fqc = f.values(qp), f.values(q), f.values(_qconj(q))
    rhs = (fq + fqc) * 0.5 - _qmul(iotap, _qmul(iota, (fq - fqc) * 0.5))
    report.worst("slice-representation",
                 "f on a sphere is determined by two slice values",
                 float(np.max(np.linalg.norm(lhs - rhs, axis=1)
                              / np.maximum(1.0, np.linalg.norm(lhs, axis=1)))), 1e-10)

    # commutativity on a common slice
    iota = random_sphere_point(rng)
    for _ in range(10):
        f, g = _random_cslice_poly(rng, iota), _random_cslice_poly(rng, iota)
        report.worst("slice-cslice-commute", "f g = g f for a common slice",
                     _gap(slice_product(f, g), slice_product(g, f), qs)
                     / max(1.0, float(np.max(_abs(f, qs) * _abs(g, qs)))), 1e-9)

    # closure of the classes under the product
    fi, gi = _random_poly_slice(rng, quaternionic=False), _random_poly_slice(rng, quaternionic=False)
    fc, gc = _random_poly_slice(rng, circular=True), _random_poly_slice(rng, circular=True)
    fs, gs = _random_cslice_poly(rng, iota), _random_cslice_poly(rng, iota)
    closed = (is_intrinsic(slice_product(fi, gi)) and is_circular(slice_product(fc, gc))
              and is_cslice(slice_product(fs, gs), iota))
    report.worst("slice-class-closure",
                 "products stay intrinsic / circular / slice-valued", 0.0 if closed else 1.0, 0.0)

    # C*-norm identities over a finite circular set
    points = CircularSet(np.column_stack([rng.uniform(-2, 2, 6), rng.uniform(0, 2, 6)]))
    for _ in range(10):
        f, g = _random_poly_slice(rng), _random_poly_slice(rng)
        nf, ng = sup_norm(f, points), sup_norm(g, points)
        nfg = sup_norm(slice_product(f, g), points)
        report.worst("slice-norm-submult", "||f g|| <= ||f|| ||g||",
                     max(0.0, nfg - nf * ng) / max(1.0, nf * ng), 1e-10)
        nstar = sup_norm(slice_product(f.star(), f), points)
        report.worst("slice-norm-cstar", "||f* f|| = ||f||^2",
                     abs(nstar - nf ** 2) / max(1.0, nf ** 2), 1e-10)


# ---------------------------------------------------------------------------
# spectral suite
# ---------------------------------------------------------------------------


def verify_spectral(report: VerificationReport, t: QMatrix,
                    rng: np.random.Generator,
                    truth_reps: np.ndarray | None = None) -> None:
    tnorm = op_norm(t)
    scale = max(1.0, tnorm)
    spec = spherical_spectrum(t)
    if truth_reps is not None:
        report.worst("spectrum-ground-truth",
                     "computed representatives match the generator",
                     hausdorff(spec.reps, truth_reps), 1e-8 * scale)

    # the class predicates are relative to ||T||_F, so c T has the class of T
    # for every c > 0 bar unitarity; the containments are relative to ||T||
    sa, asa = is_self_adjoint(t), is_anti_self_adjoint(t)
    unitary, normal = is_unitary(t), is_normal(t)
    tol = 1e-8 * tnorm
    if sa:
        report.worst("spectrum-real", "T = T*  =>  sigma_S(T) subset R",
                     float(spec.reps[:, 1].max(initial=0.0)), tol)
    if asa:
        report.worst("spectrum-imaginary", "T = -T*  =>  sigma_S(T) subset Im(H)",
                     float(np.abs(spec.reps[:, 0]).max(initial=0.0)), tol)
    if unitary:
        moduli = np.hypot(spec.reps[:, 0], spec.reps[:, 1])
        report.worst("spectrum-unit-modulus", "T unitary  =>  |q| = 1 on sigma_S(T)",
                     float(np.abs(moduli - 1.0).max(initial=0.0)), tol)
    if asa and unitary:
        report.worst("spectrum-is-sphere", "T anti-self-adjoint unitary  =>  sigma_S(T) = S",
                     hausdorff(spec.reps, np.array([[0.0, 1.0]])), tol)
    if normal:
        report.worst("radius-equals-norm", "T normal  =>  r_S(T) = ||T||",
                     abs(spec.radius() - tnorm), 1e-9 * tnorm)
    report.worst("adjoint-same-spectrum", "sigma_S(T) = sigma_S(T*)",
                 hausdorff(spec.reps, spherical_spectrum(t.adjoint()).reps), tol)
    report.worst("circularity", "only beta >= 0 representatives stored",
                 float(max(0.0, -spec.reps[:, 1].min(initial=0.0))), 0.0)

    if normal:
        seq = gelfand_check(t, 5)
        report.worst("gelfand-constant",
                     "||T^(2^k)||^(1/2^k) is constant for normal T",
                     float(np.max(np.abs(seq - tnorm))) / max(1.0, tnorm), 1e-8)

        # power spectral map
        for n_pow in (2, 3):
            power_spec = spherical_spectrum(t.power(n_pow))
            mapped = np.array([fold((Quaternion(a) + Quaternion(0, 1, 0, 0) * b) ** n_pow)
                               for a, b in spec.reps])
            report.worst(f"spectral-map-power-{n_pow}",
                         "sigma_S(T^n) = sigma_S(T)^n",
                         hausdorff(power_spec.reps, mapped),
                         1e-7 * max(1.0, tnorm) ** n_pow)

    # resolvent series against the direct inverse
    qv = random_sphere_point(rng) * rng.normal() + Quaternion(rng.normal())
    qv = qv * ((2.0 * tnorm if tnorm > 0.0 else 1.0) / qv.norm())
    res = resolvent_series(t, qv, 1e-10)
    eye = QMatrix.identity(t.n)
    report.worst("resolvent-series", "series sums to the inverse of Delta_q(T)",
                 max((delta_q(t, qv) @ res - eye).frobenius(),
                     (res @ delta_q(t, qv) - eye).frobenius()), 1e-8)

    # eigensphere membership: Delta at a representative is singular
    worst = 0.0
    for a, b in spec.reps:
        dq = delta_q(t, Quaternion(a, b, 0.0, 0.0))
        sv = np.linalg.svd(chi_embed(dq), compute_uv=False)  # descending
        worst = max(worst, float(sv[-1]) / max(1.0, float(sv[0])))
    report.worst("eigensphere-membership",
                 "Delta_q(T) is singular at spectrum points", worst, 1e-8)

    if sa:
        # real-polynomial spectral map, degree <= 5
        coefs = rng.normal(size=rng.integers(2, 6))
        pt = QMatrix.zeros(t.n)
        for h, r in enumerate(coefs):
            pt = pt + t.power(h) * float(r)
        p_spec = spherical_spectrum(pt)
        mapped = np.array([[np.polyval(coefs[::-1], a), 0.0] for a, _ in spec.reps])
        report.worst("spectral-map-polynomial",
                     "sigma_S(P(T)) = P(sigma_S(T)) for real P, T = T*",
                     hausdorff(p_spec.reps, mapped),
                     1e-7 * (1.0 + tnorm) ** max(1, len(coefs) - 1))

        # a polynomial vanishing on the spectrum annihilates T
        prod = QMatrix.identity(t.n)
        scale_prod = 1.0
        for a, _ in spec.reps:
            prod = prod @ (t - QMatrix.identity(t.n) * float(a))
            scale_prod *= (tnorm + abs(a) + 1.0)
        report.worst("vanishing-polynomial",
                     "P = 0 on sigma_S(T) implies P(T) = 0",
                     prod.frobenius() / scale_prod, 1e-7)


# ---------------------------------------------------------------------------
# calculus suite
# ---------------------------------------------------------------------------


def verify_calculus(report: VerificationReport, t: QMatrix,
                    rng: np.random.Generator) -> None:
    ctx = build_context(t)
    scale = max(1.0, ctx.tnorm)
    rel = 1.0 / (ctx.tnorm or 1.0)  # residuals that scale with T; T = 0 is exact
    eye = QMatrix.identity(t.n)

    report.worst("decomposition", "T = A + JB",
                 (ctx.t - (ctx.a + ctx.j @ ctx.b)).frobenius(), 1e-10 * scale)
    # B = |T - T*|/2 by uniqueness of the positive square root: B is the one
    # self-adjoint B >= 0 with (2B)^2 = (T - T*)*(T - T*)
    d, b2 = t - t.adjoint(), ctx.b * 2.0
    report.worst("B-definition", "B* = B >= 0, (2B)^2 = (T - T*)*(T - T*)",
                 max((ctx.b - ctx.b.adjoint()).frobenius() * rel,
                     max(0.0, -float(np.linalg.eigvalsh(chi_embed(ctx.b))[0])) * rel,
                     (b2 @ b2 - d.adjoint() @ d).frobenius() * rel ** 2), 1e-10)
    for name, u in (("J", ctx.j), ("K", ctx.k)):
        report.worst(f"{name}-unit", f"{name}* = -{name}, {name}*{name} = I",
                     max((u + u.adjoint()).frobenius(), (u.adjoint() @ u - eye).frobenius()),
                     1e-9)
    report.worst("JK-anticommute", "JK = -KJ",
                 (ctx.j @ ctx.k + ctx.k @ ctx.j).frobenius(), 1e-9 * scale)
    report.worst("J-commutes-T", "JT = TJ",
                 (ctx.j @ ctx.t - ctx.t @ ctx.j).frobenius(), 1e-9 * scale)
    for name, m in (("A", ctx.a), ("B", ctx.b)):
        report.worst(f"K-commutes-{name}", f"K{name} = {name}K",
                     (ctx.k @ m - m @ ctx.k).frobenius(), 1e-9 * scale)
    report.worst("upper-eigenvalues", "restricted spectrum in the closed upper half-plane",
                 max(0.0, -float(ctx.lambdas.imag.min(initial=0.0))), 1e-10)

    spec_set = ctx.spectrum()
    sq_scale = scale ** 2

    # polynomial cross-check: two routes to T^2
    f_sq = SliceFunction.builtin("square")
    t_sq = t @ t
    report.worst("square-intrinsic", "intrinsic route reproduces T^2",
                 (intrinsic_calculus(ctx, f_sq) - t_sq).frobenius(), 1e-9 * sq_scale)
    report.worst("square-polynomial", "polynomial route reproduces T^2",
                 (polynomial_calculus(ctx, [(2, 0, 1.0), (0, 2, -1.0)], [(1, 1, 2.0)])
                  - t_sq).frobenius(), 1e-9 * sq_scale)
    report.worst("identity-recovered", "g = id recovers A + JB",
                 (polynomial_calculus(ctx, [(1, 0, 1.0)], [(0, 1, 1.0)]) - t).frobenius(),
                 1e-9 * scale)
    report.worst("unity-recovered", "constant 1 maps to the identity",
                 (intrinsic_calculus(ctx, SliceFunction.builtin("one")) - eye).frobenius(),
                 1e-12)
    report.worst("id-recovered", "id maps to T",
                 (intrinsic_calculus(ctx, SliceFunction.builtin("id")) - t).frobenius(),
                 1e-10 * scale)

    # intrinsic calculus: isometry, spectral map, homomorphism, star
    for name in ("id", "square", "exp"):
        f = SliceFunction.builtin(name)
        ft = intrinsic_calculus(ctx, f)
        nf = sup_norm(f, spec_set)
        report.worst("intrinsic-isometry", "||f(T)|| = sup |f| on sigma_S(T)",
                     abs(op_norm(ft) - nf) / max(1.0, nf), 1e-8)
        mapped = _folded(_slice_image(f, spec_set.reps, IOTA))
        report.worst("intrinsic-spectral-map", "sigma_S(f(T)) = f(sigma_S(T))",
                     hausdorff(spherical_spectrum(ft).reps, mapped),
                     1e-7 * max(1.0, nf))

    fi, gi = _random_poly_slice(rng, quaternionic=False), _random_poly_slice(rng, quaternionic=False)
    fti, gti = intrinsic_calculus(ctx, fi), intrinsic_calculus(ctx, gi)
    nfti = op_norm(fti)
    hom_scale = max(1.0, nfti * op_norm(gti))
    report.worst("intrinsic-homomorphism", "(f g)(T) = f(T) g(T)",
                 (intrinsic_calculus(ctx, slice_product(fi, gi)) - fti @ gti).frobenius(),
                 1e-8 * hom_scale)
    report.worst("intrinsic-star", "f*(T) = f(T)*",
                 (intrinsic_calculus(ctx, fi.star()) - fti.adjoint()).frobenius(),
                 1e-8 * max(1.0, nfti))
    report.worst("K-transport", "f(T) K = K f*(T)",
                 (fti @ ctx.k - ctx.k @ intrinsic_calculus(ctx, fi.star())).frobenius(),
                 1e-8 * max(1.0, nfti))

    # restriction to H+: matrix elements in the eigenbasis are the stem values
    worst = 0.0
    for m, (f1, f2) in enumerate(fi.stem_values(ctx.lambdas)):
        mu = Quaternion(f1[0]) + IOTA * f2[0]
        um = ctx.basis.vector(m)
        worst = max(worst, (um.inner(fti @ um) - mu).norm())
    report.worst("restriction-identity",
                 "f(T) acts on H+ by the complex functional calculus",
                 worst, 1e-9 * max(1.0, nfti))

    # C_iota-slice calculus
    report.worst("cslice-constant-J", "constant iota maps to J",
                 (cslice_calculus(ctx, SliceFunction.constant(IOTA)) - ctx.j).frobenius(),
                 1e-12)
    report.worst("cslice-extends-intrinsic", "slice calculus extends the intrinsic one",
                 (cslice_calculus(ctx, fi) - fti).frobenius(), 1e-10 * max(1.0, nfti))
    f_lin = SliceFunction.builtin("id") + SliceFunction.constant(IOTA)
    report.worst("cslice-linearity", "(id + c_iota)(T) = T + J",
                 (cslice_calculus(ctx, f_lin) - (t + ctx.j)).frobenius(), 1e-10 * scale)

    fcs = _random_cslice_poly(rng, IOTA)
    fcs_t = cslice_calculus(ctx, fcs)
    upper = spec_set.reps
    image = _slice_image(fcs, upper, IOTA)
    nf_plus = float(np.linalg.norm(image, axis=1).max())
    report.worst("cslice-norm", "||f(T)|| = sup |f| on the upper slice spectrum",
                 abs(op_norm(fcs_t) - nf_plus) / max(1.0, nf_plus), 1e-8)
    mapped = _folded(image)
    report.worst("cslice-spectral-map",
                 "sigma_S(f(T)) is the circularization of f on the upper slice",
                 hausdorff(spherical_spectrum(fcs_t).reps, mapped),
                 1e-7 * max(1.0, nf_plus))

    if float(upper[:, 1].max(initial=0.0)) > 0.1:
        fk = _upper_vanishing_function()
        report.worst("cslice-kernel",
                     "functions vanishing on the upper slice spectrum map to 0",
                     cslice_calculus(ctx, fk).frobenius(), 1e-8 * scale)

    # circular calculus
    report.worst("circular-constant-K", "constant kappa maps to K",
                 (circular_calculus(ctx, SliceFunction.constant(KAPPA))
                  - ctx.k).frobenius(),
                 1e-12)
    qv = Quaternion(*(rng.normal(size=4) * 2.0))
    report.worst("circular-constant-L", "constant q maps to L_q",
                 (circular_calculus(ctx, SliceFunction.constant(qv))
                  - ctx.basis.matrix(qv)).frobenius(),
                 1e-10 * max(1.0, qv.norm()))
    fc, gc = _random_poly_slice(rng, circular=True), _random_poly_slice(rng, circular=True)
    fct, gct = circular_calculus(ctx, fc), circular_calculus(ctx, gc)
    nfct = op_norm(fct)
    report.worst("circular-homomorphism", "(f g)(T) = f(T) g(T) for circular f, g",
                 (circular_calculus(ctx, slice_product(fc, gc)) - fct @ gct).frobenius(),
                 1e-8 * max(1.0, nfct * op_norm(gct)))
    report.worst("circular-star", "f*(T) = f(T)* for circular f",
                 (circular_calculus(ctx, fc.star()) - fct.adjoint()).frobenius(),
                 1e-8 * max(1.0, nfct))
    mapped = _folded(_slice_image(fc, upper, IOTA))
    report.worst("circular-spectral-containment",
                 "sigma_S(f(T)) inside the circularized image",
                 one_sided_hausdorff(spherical_spectrum(fct).reps, mapped),
                 1e-7 * max(1.0, nfct))
    nfc = sup_norm(fc, spec_set)
    report.worst("circular-norm-bound", "||f(T)|| <= sup |f| for circular f",
                 max(0.0, nfct - nfc) / max(1.0, nfc), 1e-8)
    report.worst("circular-isometry", "||f(T)|| = sup |f| for circular f",
                 abs(nfct - nfc) / max(1.0, nfc), 1e-8, soft=True)

    # general calculus
    fg = _random_poly_slice(rng)
    fgt = general_calculus(ctx, fg)
    nfgt = op_norm(fgt)
    report.worst("general-right-scalar", "(f q)(T) = f(T) q",
                 (general_calculus(ctx, slice_product(fg, SliceFunction.constant(qv)))
                  - fgt @ ctx.basis.matrix(qv)).frobenius(),
                 1e-9 * max(1.0, nfgt * qv.norm()))
    f0, f1, f2, f3 = decompose_components(fg, IOTA, KAPPA)
    twisted = f0 + slice_product(f1, SliceFunction.constant(IOTA)) \
        + slice_product(f2.star(), SliceFunction.constant(KAPPA)) \
        + slice_product(f3.star(), SliceFunction.constant(IOTA * KAPPA))
    report.worst("general-adjoint-rule", "f(T)* equals the twisted star image",
                 (fgt.adjoint() - general_calculus(ctx, twisted.star())).frobenius(),
                 1e-9 * max(1.0, nfgt))

    # contour realization
    cubic = SliceFunction.polynomial(
        [(3, 0, 1.0), (1, 2, -3.0), (1, 0, 0.5), (0, 0, -1.0)],
        [(2, 1, 3.0), (0, 3, -1.0), (0, 1, 0.5)])  # z^3 + 0.5 z - 1
    contour_fns = (("one", SliceFunction.builtin("one")),
                   ("id", SliceFunction.builtin("id")),
                   ("square", SliceFunction.builtin("square")),
                   ("cubic", cubic))
    images = slice_regular_contour(ctx, [f for _, f in contour_fns], nodes=256)
    for (name, f), con in zip(contour_fns, images):
        alg = general_calculus(ctx, f)
        report.worst(f"contour-{name}", "contour integral matches the calculus",
                     (con - alg).frobenius(), 1e-7 * max(1.0, op_norm(alg)))

    report.worst("adjoint-similarity", "L_kappa T L_kappa* = T*",
                 (ctx.k @ t @ ctx.k.adjoint() - t.adjoint()).frobenius(), 1e-9 * scale)

    # spectral resolution: the projections P_s = P1 + P2 j of the spheres of
    # sigma_S(T), checked at once in the Frobenius norm of (S, n, n) stacks of
    # P1 and P2
    projections = ctx.projections()
    p1, p2 = np.stack([p.x1 for p in projections]), np.stack([p.x2 for p in projections])
    report.worst("projection-sum", "sum_s P_s = I",
                 (QMatrix(p1.sum(axis=0), p2.sum(axis=0)) - eye).frobenius(), 1e-12)
    delta = np.eye(len(p1))[:, :, None, None]
    pp1, pp2 = _pair_product(p1[:, None], p2[:, None], p1, p2)  # [s, r] = P_s P_r
    report.worst("projection-orthogonal", "P_s P_r = delta_sr P_s",
                 np.hypot(np.linalg.norm(pp1 - delta * p1[:, None]),
                          np.linalg.norm(pp2 - delta * p2[:, None])), 1e-12)
    for m, weight in ((t, rel), (ctx.j, 1.0), (ctx.k, 1.0)):
        (a1, a2), (b1, b2) = _pair_product(p1, p2, m.x1, m.x2), _pair_product(m.x1, m.x2, p1, p2)
        report.worst("projection-commutes", "P_s commutes with T, J and K",
                     weight * np.hypot(np.linalg.norm(a1 - b1), np.linalg.norm(a2 - b2)), 1e-9)
    (a1, b1), (a2, b2) = (np.tensordot(spec_set.reps.T, p, 1) for p in (p1, p2))
    resolution = QMatrix(a1, a2) + ctx.j @ QMatrix(b1, b2)  # sum alpha_s P_s + J beta_s P_s
    report.worst("spectral-decomposition", "T = sum_s (alpha_s P_s + beta_s J P_s)",
                 (resolution - t).frobenius() * rel, 1e-10)

    # spectral measure of T at a random vector
    vec = random_qvector(t.n, rng)
    weights = spectral_measure_weights(ctx, vec)
    report.worst("measure-total", "weights sum to ||u||^2",
                 abs(weights.sum() - vec.norm() ** 2) / vec.norm() ** 2, 1e-9)
    expect = float(weights @ (_slice_image(f_sq, spec_set.reps, IOTA) ** 2).sum(axis=1))
    report.worst("measure-moment", "||f(T)u||^2 = sum |f(lambda)|^2 w",
                 abs((intrinsic_calculus(ctx, f_sq) @ vec).norm() ** 2 - expect)
                 / (expect or 1.0), 1e-9)
    # the splitting H = H+ (+) H- of the same vector; <u+|u-> itself is not
    # zero, but its C_iota part is: it lies in span{kappa, iota kappa}
    u_plus, u_minus = split_plus_minus(vec, ctx.j, IOTA)
    inner = u_plus.inner(u_minus).components()
    size = vec.norm()
    report.worst("plus-minus-splitting",
                 "u = u+ + u-, J u+- = +-u+- iota, <u+|u-> in span{kappa, iota kappa}",
                 max(max((u_plus + u_minus - vec).norm(),
                         (ctx.j @ u_plus - u_plus.rmul(IOTA)).norm(),
                         (ctx.j @ u_minus + u_minus.rmul(IOTA)).norm()) / size,
                     np.hypot(inner[0], inner[1:] @ _as_qarray(IOTA)[1:]) / size ** 2),
                 1e-9)

    # choice independence of the polynomial calculus
    if ctx.kernel_flags.any():
        alt = alternate_kernel_J(ctx)
        q1, q2 = [(2, 0, 1.0), (0, 2, -1.0), (1, 0, 0.3)], [(1, 1, 2.0), (0, 1, -0.4)]
        report.worst("kernel-choice-independence",
                     "polynomial calculus is independent of the J completion",
                     (polynomial_calculus(ctx, q1, q2)
                      - polynomial_calculus(ctx, q1, q2, j=alt)).frobenius(), 1e-9)


def _slice_image(f: SliceFunction, reps: np.ndarray, iota: SpherePoint) -> np.ndarray:
    """f(alpha + iota beta) for the representatives (alpha, beta), as rows."""
    qs = np.outer(reps[:, 1], _as_qarray(iota))
    qs[:, 0] = reps[:, 0]
    return f.values(qs)


def _folded(values: np.ndarray) -> np.ndarray:
    """The representatives (Re q, |Im q|) of the spheres of the rows q."""
    return np.column_stack([values[:, 0], np.linalg.norm(values[:, 1:], axis=1)])


@functools.cache
def _upper_vanishing_function() -> SliceFunction:
    """A nonzero C_IOTA-slice function, built and validated once, with
    F1 + IOTA F2 = 0 above the real axis: 0 on the upper slice spectrum."""

    def stem(z: complex):
        return -IOTA * abs(z.imag), Quaternion(z.imag)

    return SliceFunction.tabulated(stem)


# ---------------------------------------------------------------------------
# entry point used by the CLI
# ---------------------------------------------------------------------------

_KINDS = ("normal", "selfadjoint", "antiselfadjoint", "unitary", "imaginaryunit")


def run_verification(matrices: list[tuple[QMatrix, np.ndarray | None]] | None = None,
                     random_spec: tuple[int, int, int] | None = None,
                     suite: str = "all") -> VerificationReport:
    """Run the requested suites and aggregate one row per identity.

    `matrices` supplies explicit operators (with optional ground-truth
    representatives); `random_spec = (n, count, seed)` generates `count`
    random operators of size n, cycling through the operator classes.
    """
    if suite not in ("all", "algebra", "spectral", "calculus"):
        raise ValueError(f"unknown suite {suite!r}")
    report = VerificationReport()
    seed = random_spec[2] if random_spec is not None else 0
    rng = np.random.default_rng(seed)

    pool: list[tuple[QMatrix, np.ndarray | None]] = list(matrices or [])
    if random_spec is not None:
        n, count, _ = random_spec
        for m in range(count):
            kind = _KINDS[m % len(_KINDS)]
            t, reps = random_normal(n, rng, kind=kind)
            pool.append((t, reps))
    report.meta["matrices"] = len(pool)
    report.meta["suite"] = suite

    if suite in ("all", "algebra"):
        verify_algebra(report, rng)
    if suite in ("all", "spectral"):
        for t, reps in pool:
            verify_spectral(report, t, rng, reps)
    if suite in ("all", "calculus"):
        for t, _ in pool:
            if is_normal(t):
                verify_calculus(report, t, rng)
            else:
                report.notes.append("calculus suite skipped for a non-normal input")
    return report
