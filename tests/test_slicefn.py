"""Tests for circular sets, slice functions with their stems, and the
slice-function algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import evaluate, fold, function_json, isclose, sphere_decompose
from quatspec.errors import PreconditionError
from quatspec.qmatrix import _hc_mul, _hc_star
from quatspec.quaternion import (I, J, K, ONE, Quaternion, SpherePoint,
                                 random_sphere_point)
from quatspec.slicefn import (CircularSet, SliceFunction, _poly_stem,
                              cluster_points,
                              decompose_components, hausdorff,
                              is_circular, is_cslice, is_intrinsic,
                              one_sided_hausdorff, slice_add, slice_product,
                              slice_star, sup_norm)

RNG = np.random.default_rng(77)


def random_quat(scale=1.0) -> Quaternion:
    return Quaternion(*(RNG.normal(size=4) * scale))


def stem_at(f: SliceFunction, z: complex) -> tuple[Quaternion, Quaternion]:
    """(F1(z), F2(z)) of the stem of f at one point, the scalar oracle."""
    (v1, v2), = f.stem_values(z)
    return Quaternion(*v1), Quaternion(*v2)


def random_poly(quaternionic=True) -> SliceFunction:
    coef = (lambda: random_quat(0.8)) if quaternionic else (lambda: Quaternion(RNG.normal()))
    return SliceFunction.polynomial(
        [(0, 0, coef()), (1, 0, coef()), (2, 0, coef()), (0, 2, coef())],
        [(0, 1, coef()), (1, 1, coef())])


# -- circular sets ------------------------------------------------------------

def test_circular_set_merges_and_sorts():
    k = CircularSet([[1.0, 0.5], [1.0 + 1e-10, 0.5], [-1.0, 0.0]])
    assert k.size == 3  # the input is not merged; clustering is the caller's
    assert k.reps[0].tolist() == [-1.0, 0.0]
    assert k.contains(1.0, 0.5)
    assert k.contains(1.0, -0.5)  # folded
    assert not k.contains(0.0, 0.0)


def test_cluster_points_reports_members():
    pts = [[1.0, 0.5], [-1.0, 0.0], [1.0 + 1e-10, 0.5], [1.0 - 2e-10, 0.5]]
    centroids, members = cluster_points(pts, 1e-8)
    assert members == [[1], [3, 0, 2]]
    assert centroids[0].tolist() == [-1.0, 0.0]
    assert abs(centroids[1, 0] - (1.0 - 1e-10 / 3)) <= 1e-15
    assert cluster_points(np.empty((0, 2)), 1e-8)[0].shape == (0, 2)


def components_reference(points, tol):
    """Connected components of the within-`tol` graph by depth-first search,
    each as its member indices in lexicographic order of the points."""
    points = np.asarray(points, dtype=float)
    rank = np.empty(len(points), dtype=int)
    rank[np.lexsort((points[:, 1], points[:, 0]))] = np.arange(len(points))
    seen, clusters = set(), []
    for start in range(len(points)):
        if start in seen:
            continue
        stack, cluster = [start], []
        seen.add(start)
        while stack:
            i = stack.pop()
            cluster.append(i)
            for j in range(len(points)):
                if j not in seen and math.hypot(*(points[i] - points[j])) <= tol:
                    seen.add(j)
                    stack.append(j)
        clusters.append(sorted(cluster, key=lambda i: rank[i]))
    return clusters


def test_cluster_points_finds_the_connected_components():
    """Every pair within `tol` shares a cluster and each cluster is
    connected; the centroid is the running mean of the members in order."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        sites = rng.normal(size=(rng.integers(1, 20), 2))
        pts = sites[rng.integers(0, len(sites), size=rng.integers(1, 60))]
        pts = pts + rng.normal(scale=10.0 ** rng.uniform(-12, -7), size=pts.shape)
        tol = 10.0 ** rng.uniform(-11, -6)
        centroids, members = cluster_points(pts, tol)
        assert sorted(members) == sorted(components_reference(pts, tol))
        for centroid, cluster in zip(centroids, members):
            mean = pts[cluster[0]].copy()
            for k, i in enumerate(cluster[1:], start=2):
                mean += (pts[i] - mean) / k
            assert np.array_equal(centroid, mean)
        assert np.array_equal(np.lexsort((centroids[:, 1], centroids[:, 0])),
                              np.arange(len(centroids)))


def test_cluster_points_keeps_a_chain_together():
    """(0, 0), (0.9, 0) and (1.8, 0) at tol 1 are one cluster, though the
    mean of the first two lies 1.35 from the third."""
    centroids, members = cluster_points([[1.8, 0.0], [0.0, 0.0], [0.9, 0.0]], 1.0)
    assert members == [[1, 2, 0]]
    assert np.allclose(centroids, [[0.9, 0.0]], rtol=0.0, atol=1e-15)


def test_circular_set_rejects_negative_beta():
    with pytest.raises(PreconditionError):
        CircularSet([[0.0, -1.0]])


def test_circular_set_json_roundtrip():
    k = CircularSet([[0.5, 1.5], [-2.0, 0.0]])
    again = CircularSet.from_json(k.to_json())
    assert np.array_equal(again.reps, k.reps)


def test_hausdorff_helpers():
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([[0.0, 0.1], [1.0, 1.0]])
    assert abs(hausdorff(a, b) - 0.1) <= 1e-15
    assert one_sided_hausdorff(np.array([[0.0, 0.0]]), a) == 0.0
    assert one_sided_hausdorff(a, np.array([[0.0, 0.0]])) > 1.0


# -- stems ---------------------------------------------------------------------

def test_poly_stem_symmetry_enforced():
    # Q1 odd-in-Y monomial rejected
    with pytest.raises(PreconditionError):
        SliceFunction.polynomial([(0, 1, 1.0)], [])
    with pytest.raises(PreconditionError):
        SliceFunction.polynomial([], [(0, 2, 1.0)])
    # tiny violations are symmetrized away
    stem = SliceFunction.polynomial([(0, 0, 1.0), (0, 1, 1e-14)], [])
    assert isclose(stem_at(stem, 1 + 1j)[0], ONE)


def test_tabulated_stem_validation():
    with pytest.raises(PreconditionError):
        SliceFunction.tabulated(lambda z: (Quaternion(z.imag), Quaternion()))
    stem = SliceFunction.tabulated(
        lambda z: (Quaternion(z.real ** 2), Quaternion(z.imag ** 3)))
    f1, f2 = stem_at(stem, 2 + 1j)
    assert isclose(f1, Quaternion(4)) and isclose(f2, ONE)


def test_builtin_stems():
    for name in ("id", "conj", "re", "im", "square", "exp", "sqrt", "one"):
        SliceFunction.builtin(name)
    with pytest.raises(PreconditionError):
        SliceFunction.builtin("nope")


def test_stem_json_roundtrip():
    stem = SliceFunction.polynomial([(2, 0, Quaternion(1, 2, 3, 4))], [(1, 1, 0.5)],
                                   domain=CircularSet([[0.0, 1.0]]))
    again = SliceFunction.from_json(function_json(stem))
    assert isclose(stem_at(again, 0.3 + 0.7j)[0], stem_at(stem, 0.3 + 0.7j)[0])
    assert again.domain.size == 1
    b = SliceFunction.builtin("exp")
    assert SliceFunction.from_json(function_json(b)).name == "exp"
    with pytest.raises(PreconditionError):
        function_json(SliceFunction.tabulated(lambda z: (ONE, Quaternion())))


# -- evaluation --------------------------------------------------------------------

def test_slice_eval_examples():
    fid = SliceFunction.builtin("id")
    q = Quaternion(0.5, 1, -1, 2)
    assert isclose(evaluate(fid, q), q, 1e-13)
    # square at j equals quaternion multiplication j*j = -1
    fsq = SliceFunction.builtin("square")
    assert isclose(evaluate(fsq, J), Quaternion(-1))
    assert (evaluate(fsq, q) - q * q).norm() <= 1e-12
    # constants
    p = random_quat()
    assert isclose(evaluate(SliceFunction.constant(p), q), p)


def test_slice_eval_well_defined_on_both_representations():
    f = random_poly()
    alpha, beta = 0.7, 1.3
    iota = random_sphere_point(RNG)
    a = evaluate(f, Quaternion(alpha) + iota * beta)
    b = evaluate(f, Quaternion(alpha) + (-iota) * (-beta))
    assert (a - b).norm() <= 1e-12


def test_slice_eval_real_uses_f1_only():
    f = SliceFunction.builtin("id")
    assert isclose(evaluate(f, Quaternion(2.5)), Quaternion(2.5))


def test_domain_enforcement():
    dom = CircularSet([[1.0, 0.0]])
    f = SliceFunction.builtin("id", domain=dom)
    assert isclose(evaluate(f, Quaternion(1.0)), Quaternion(1.0))
    with pytest.raises(PreconditionError):
        evaluate(f, Quaternion(2.0))
    # sqrt only lives on the nonnegative reals
    fs = SliceFunction.builtin("sqrt")
    assert isclose(evaluate(fs, Quaternion(4.0)), Quaternion(2.0))
    with pytest.raises(PreconditionError):
        evaluate(fs, Quaternion(-1.0))
    with pytest.raises(PreconditionError):
        evaluate(fs, I)


def test_exp_matches_quaternion_series():
    f = SliceFunction.builtin("exp")
    q = Quaternion(0.3, 0.5, -0.2, 0.1)
    total, term = Quaternion(1), Quaternion(1)
    for n in range(1, 30):
        term = term * q / n
        total = total + term
    assert (evaluate(f, q) - total).norm() <= 1e-12


# -- product, star, sum ---------------------------------------------------------------

def test_slice_product_examples():
    fid = SliceFunction.builtin("id")
    assert isclose(evaluate(slice_product(fid, fid), J), Quaternion(-1))
    # unity
    f = random_poly()
    one = SliceFunction.builtin("one")
    q = random_quat()
    assert (evaluate(slice_product(one, f), q) - evaluate(f, q)).norm() <= 1e-13
    # constants multiply as quaternions, non-commutatively
    ci, cj = SliceFunction.constant(I), SliceFunction.constant(J)
    assert isclose(evaluate(slice_product(ci, cj), q), K)
    assert isclose(evaluate(slice_product(cj, ci), q), -K)


def test_slice_product_matches_pointwise_for_intrinsic():
    f, g = random_poly(quaternionic=False), random_poly(quaternionic=False)
    for _ in range(8):
        q = random_quat()
        fg = evaluate(slice_product(f, g), q)
        assert (fg - evaluate(f, q) * evaluate(g, q)).norm() <= 1e-12
        assert (fg - evaluate(slice_product(g, f), q)).norm() <= 1e-12


def test_slice_product_domain_mismatch():
    f = SliceFunction.builtin("id", domain=CircularSet([[0.0, 1.0]]))
    g = SliceFunction.builtin("id", domain=CircularSet([[5.0, 0.0]]))
    with pytest.raises(PreconditionError):
        slice_product(f, g)


def test_slice_star_examples():
    fid = SliceFunction.builtin("id")
    q = random_quat()
    assert (evaluate(slice_star(fid), q) - q.conjugate()).norm() <= 1e-13
    f = random_poly()
    assert (evaluate(slice_star(slice_star(f)), q) - evaluate(f, q)).norm() <= 1e-13
    p = random_quat()
    assert isclose(evaluate(slice_star(SliceFunction.constant(p)), q), p.conjugate())
    # (f g)* = g* f*
    g = random_poly()
    lhs = slice_star(slice_product(f, g))
    rhs = slice_product(slice_star(g), slice_star(f))
    assert (evaluate(lhs, q) - evaluate(rhs, q)).norm() <= 1e-12


def test_slice_add_and_sub():
    f, g = random_poly(), random_poly()
    q = random_quat()
    assert (evaluate(slice_add(f, g), q) - (evaluate(f, q) + evaluate(g, q))).norm() <= 1e-13
    assert (evaluate(f - g, q) - (evaluate(f, q) - evaluate(g, q))).norm() <= 1e-13


# -- classification ---------------------------------------------------------------------

def test_classify_examples():
    assert is_intrinsic(SliceFunction.builtin("id"))
    assert is_circular(SliceFunction.constant(J))
    assert not is_intrinsic(SliceFunction.constant(J))
    # F1 = alpha + j beta^2, F2 = beta: slice-valued in C_j, not intrinsic/circular
    f = SliceFunction.polynomial([(1, 0, ONE), (0, 2, J)], [(0, 1, ONE)])
    assert is_cslice(f, J) and not is_intrinsic(f) and not is_circular(f)
    assert not is_cslice(f, I)
    # fully generic: imaginary parts along i and along (j + k)/sqrt(2)
    g = SliceFunction.polynomial([(1, 0, Quaternion(1, 1, 0, 0))],
                                 [(0, 1, Quaternion(0, 0, 1, 1))])
    assert not (is_intrinsic(g) or is_circular(g))
    assert not any(is_cslice(g, iota)
                   for iota in (I, SpherePoint(0.0, math.sqrt(0.5), math.sqrt(0.5))))


def test_intrinsic_subsets_every_slice():
    f = random_poly(quaternionic=False)
    assert is_intrinsic(f)
    for _ in range(3):
        assert is_cslice(f, random_sphere_point(RNG))


def test_circular_iff_conjugation_invariant():
    f = SliceFunction.polynomial([(1, 0, random_quat()), (0, 2, random_quat())], [])
    assert is_circular(f)
    for _ in range(5):
        q = random_quat()
        assert (evaluate(f, q) - evaluate(f, q.conjugate())).norm() <= 1e-12


def test_intrinsic_iff_conjugation_equivariant():
    f = random_poly(quaternionic=False)
    for _ in range(5):
        q = random_quat()
        assert (evaluate(f, q.conjugate()) - evaluate(f, q).conjugate()).norm() <= 1e-12


# -- component decomposition ----------------------------------------------------------------

def test_decompose_constant():
    f = SliceFunction.constant(Quaternion(1, 2, 3, 4))
    comps = decompose_components(f, I, J)
    probe = Quaternion(0.3, 0.1, 0, 0)
    assert [evaluate(c, probe).a for c in comps] == [1.0, 2.0, 3.0, 4.0]
    assert all(is_intrinsic(c) for c in comps)


def test_decompose_reconstructs():
    f = random_poly()
    for iota, kappa in [(I, J), (J, K), (random_sphere_point(RNG), None)]:
        if kappa is None:  # an axis orthogonal to iota's
            v = np.cross([iota.b, iota.c, iota.d], RNG.normal(size=3))
            kappa = SpherePoint(*v / np.linalg.norm(v))
        f0, f1, f2, f3 = decompose_components(f, iota, kappa)
        for _ in range(5):
            q = random_quat()
            rebuilt = evaluate(f0, q) + evaluate(f1, q) * iota + evaluate(f2, q) * kappa \
                + evaluate(f3, q) * (iota * kappa)
            assert (rebuilt - evaluate(f, q)).norm() <= 1e-10


def test_decompose_intrinsic_is_trivial():
    f = random_poly(quaternionic=False)
    f0, f1, f2, f3 = decompose_components(f, I, J)
    q = random_quat()
    assert (evaluate(f0, q) - evaluate(f, q)).norm() <= 1e-12
    for c in (f1, f2, f3):
        assert evaluate(c, q).norm() <= 1e-12


def test_decompose_cslice_kills_kappa_components():
    intr = random_poly(quaternionic=False)
    f = slice_add(random_poly(quaternionic=False),
                  slice_product(intr, SliceFunction.constant(I)))
    _, _, f2, f3 = decompose_components(f, I, J)
    q = random_quat()
    assert evaluate(f2, q).norm() <= 1e-12 and evaluate(f3, q).norm() <= 1e-12


def test_decompose_rejects_degenerate_basis():
    with pytest.raises(PreconditionError):
        decompose_components(random_poly(), I, I)


# -- sup norm -----------------------------------------------------------------------------

def test_sup_norm_examples():
    k = CircularSet([[1.0, 0.0], [-1.0, 0.0]])
    p = random_quat()
    assert abs(sup_norm(SliceFunction.constant(p), k) - p.norm()) <= 1e-14
    assert abs(sup_norm(SliceFunction.builtin("id"), k) - 1.0) <= 1e-14
    # the stem 1 + I*j at z = i has the C*-norm 2; its F2 = sign(Im z) j is
    # odd, so 0 on the real axis
    f = SliceFunction.tabulated(lambda z: (ONE, J * float(np.sign(z.imag))))
    assert abs(sup_norm(f, CircularSet([[0.0, 1.0]])) - 2.0) <= 1e-14
    with pytest.raises(PreconditionError):
        sup_norm(SliceFunction.builtin("id"), CircularSet([]))


def test_sup_norm_is_sup_of_values():
    """The stem-level norm dominates |f| over the whole circularization."""
    f = random_poly()
    k = CircularSet([[0.5, 1.0]])
    bound = sup_norm(f, k)
    worst = 0.0
    for _ in range(200):
        iota = random_sphere_point(RNG)
        worst = max(worst, evaluate(f, Quaternion(0.5) + iota * 1.0).norm())
    assert worst <= bound + 1e-12
    assert bound - worst <= 1e-2 * max(1.0, bound)


# -- the array evaluator ----------------------------------------------------------------

# points above, below and on the real axis
EVAL_POINTS = np.array([0.3 + 0.7j, -1.2 - 0.4j, 2.0 + 0.0j, -0.5 + 0.0j, 0.0 + 1.5j,
                        1.1 - 2.2j, 0.0 + 0.0j])


def tabulated_stems():
    """Tabulated stems with one of each class (F1 even, F2 odd in Im z)."""
    q = Quaternion(0.4, -1.0, 0.3, 0.8)
    return {
        "intrinsic": SliceFunction.tabulated(
            lambda z: (Quaternion(z.real ** 2 - z.imag ** 2), Quaternion(2 * z.real * z.imag))),
        "cslice": SliceFunction.tabulated(
            lambda z: (Quaternion(z.real) + J * z.imag ** 2, Quaternion(z.imag))),
        "circular": SliceFunction.tabulated(
            lambda z: (q * (z.real + z.imag ** 2), Quaternion())),
        "general": SliceFunction.tabulated(
            lambda z: (Quaternion(1, 1, 0, 0) * z.real, Quaternion(0, 0, 1, 1) * z.imag)),
    }


def test_values_rows_are_the_scalar_eval():
    rng = np.random.default_rng(101)
    coef = lambda: Quaternion(*rng.normal(size=4))
    poly = SliceFunction.polynomial([(0, 0, coef()), (2, 0, coef()), (1, 2, coef())],
                                    [(0, 1, coef()), (3, 1, coef())])
    tab = tabulated_stems()["general"]
    functions = [SliceFunction.builtin(name)
                 for name in ("id", "conj", "re", "im", "square", "exp", "sqrt", "one")]
    functions += [poly, tab, slice_product(tab, poly), slice_add(poly, tab), slice_star(tab),
                  *decompose_components(tab, I, J)]
    for f in functions:
        vals = f.stem_values(EVAL_POINTS)
        assert vals.shape == (len(EVAL_POINTS), 2, 4)
        for row, z in zip(vals, EVAL_POINTS):
            f1, f2 = stem_at(f, z)
            np.testing.assert_allclose(row, [f1.components(), f2.components()],
                                       rtol=1e-15, atol=1e-15)
    # the polynomial against its monomial sum in quaternion arithmetic
    terms = function_json(poly)
    for row, z in zip(poly.stem_values(EVAL_POINTS), EVAL_POINTS):
        for part, key in zip(row, ("Q1", "Q2")):
            expect = Quaternion()
            for h, k, c in terms[key]:
                expect = expect + Quaternion(*c) * (z.real ** h * z.imag ** k)
            np.testing.assert_allclose(part, expect.components(), rtol=1e-14, atol=1e-14)


def test_derived_stems_match_their_pointwise_definitions():
    rng = np.random.default_rng(102)
    f = tabulated_stems()["general"]
    g = SliceFunction.polynomial([(1, 0, Quaternion(*rng.normal(size=4)))],
                                 [(0, 1, Quaternion(*rng.normal(size=4)))])
    for z in EVAL_POINTS:
        f1, f2 = stem_at(f, z)
        g1, g2 = stem_at(g, z)
        p1, p2 = stem_at(slice_product(f, g), z)
        assert (p1 - (f1 * g1 - f2 * g2)).norm() <= 1e-14
        assert (p2 - (f1 * g2 + f2 * g1)).norm() <= 1e-14
        s1, s2 = stem_at(slice_star(f), z)
        assert isclose(s1, f1.conjugate()) and isclose(s2, -f2.conjugate())
        a1, a2 = stem_at(slice_add(f, g), z)
        assert isclose(a1, f1 + g1) and isclose(a2, f2 + g2)


def test_accepts_and_distance_on_arrays():
    alpha = np.array([1.0, -1.0, 4.0, 4.0, 0.0])
    beta = np.array([0.0, 0.0, 0.0, 1e-12, -0.5])
    sqrt = SliceFunction.builtin("sqrt")
    assert sqrt.accepts(alpha, beta).tolist() == [True, False, True, True, False]
    k = CircularSet([[1.0, 0.5], [4.0, 0.0]])
    ranged = SliceFunction.builtin("id", domain=k)
    mask = ranged.accepts(alpha, beta)
    assert mask.tolist() == [bool(ranged.accepts(a, b)) for a, b in zip(alpha, beta)]
    assert mask.tolist() == [False, False, True, True, False]
    dist = k.distance(alpha, beta)
    assert dist.tolist() == [float(k.distance(a, b)) for a, b in zip(alpha, beta)]
    assert k.distance(1.0, -0.5) == 0.0
    assert CircularSet([]).distance(alpha, beta).tolist() == [math.inf] * 5


# The grid-sampled class tests as they were before the array evaluator,
# kept as a reference for the coefficient/array forms.

BUILTIN_CIRCULAR_REFERENCE = {"re", "im", "sqrt", "one"}


def reference_sample_zs(f):
    if f.domain is not None and f.domain.size:
        return [complex(a, b) for a, b in f.domain.reps]
    zs = [complex(a, b) for a in np.linspace(-1.5, 1.5, 8) for b in np.linspace(0.15, 1.6, 8)]
    return zs + [complex(a, 0.0) for a in (-1.0, -0.25, 0.5, 1.25)]


def reference_sampled_values(f):
    vals = []
    for z in reference_sample_zs(f):
        vals.extend(stem_at(f, z))
    return vals


def is_intrinsic_reference(f, tol=1e-9):
    if f.kind == "builtin":
        return True
    return all(fold(v)[1] <= tol * max(1.0, v.norm()) for v in reference_sampled_values(f))


def is_circular_reference(f, tol=1e-9):
    if f.kind == "builtin":
        return f.name in BUILTIN_CIRCULAR_REFERENCE
    if f.kind == "poly":
        return all(Quaternion(*c).norm() <= tol for _, _, c in function_json(f)["Q2"])
    return all(stem_at(f, z)[1].norm() <= tol * max(1.0, stem_at(f, z)[0].norm())
               for z in reference_sample_zs(f))


def is_cslice_reference(f, iota, tol=1e-9):
    axis = np.array([iota.b, iota.c, iota.d])
    for v in reference_sampled_values(f):
        im = np.array([v.b, v.c, v.d])
        resid = im - axis * float(np.dot(axis, im))
        if np.linalg.norm(resid) > tol * max(1.0, v.norm()):
            return False
    return True


def classify_reference(f, tol=1e-9):
    if is_intrinsic_reference(f, tol):
        return "intrinsic", None
    if is_circular_reference(f, tol):
        return "circular", None
    ims = np.array([[v.b, v.c, v.d] for v in reference_sampled_values(f)])
    lead = ims[int(np.argmax(np.linalg.norm(ims, axis=1)))]
    axis = lead / np.linalg.norm(lead)
    if is_cslice_reference(f, SpherePoint(*axis), tol):
        return "cslice", axis
    return "general", None


def test_class_tests_agree_with_the_grid_reference():
    rng = np.random.default_rng(103)
    real = lambda: Quaternion(rng.normal())
    quat = lambda: Quaternion(*rng.normal(size=4))

    def poly(coef, odd=True):
        return SliceFunction.polynomial([(0, 0, coef()), (1, 0, coef()), (0, 2, coef())],
                                        [(0, 1, coef()), (1, 1, coef())] if odd else [])

    iotas = [random_sphere_point(rng) for _ in range(3)]
    functions = [SliceFunction.builtin(name)
                 for name in ("id", "conj", "re", "im", "square", "exp", "sqrt", "one")]
    functions += list(tabulated_stems().values())
    for iota in iotas:
        functions += [poly(real), poly(quat), poly(quat, odd=False),
                      poly(real) + slice_product(poly(real), SliceFunction.constant(iota))]
    kinds = set()
    for f in functions:
        assert is_intrinsic(f) == is_intrinsic_reference(f)
        assert is_circular(f) == is_circular_reference(f)
        for iota in iotas + [I, J]:
            assert is_cslice(f, iota) == is_cslice_reference(f, iota)
        kind, axis = classify_reference(f)
        if kind == "cslice":
            assert is_cslice(f, SpherePoint(*axis))
        kinds.add(kind)
    assert kinds == {"intrinsic", "circular", "cslice", "general"}


def test_poly_stem_rejects_non_finite_coefficients():
    with pytest.raises(PreconditionError, match=r"X\^1 Y\^2 has a non-finite"):
        SliceFunction.polynomial([(0, 0, 1.0), (1, 2, [0.0, math.nan, 0.0, 0.0])], [])
    with pytest.raises(PreconditionError, match=r"X\^0 Y\^1 has a non-finite"):
        SliceFunction.polynomial([], [(0, 1, math.inf)])
    # a non-finite coefficient of the wrong parity is named as non-finite too
    with pytest.raises(PreconditionError, match="non-finite"):
        SliceFunction.polynomial([(0, 1, -math.inf)], [])


# -- polynomial stems as coefficient arrays --------------------------------------

def relative_gap(got, expect):
    return float(np.max(np.abs(got - expect)) / max(1.0, np.max(np.abs(expect))))


def test_poly_operations_on_coefficients_match_the_value_maps():
    """Product, sum, star and components of polynomials, built from their
    coefficients, equal the same H(x)C maps applied to the values."""
    rng = np.random.default_rng(104)
    zs = rng.normal(size=20) + 1j * rng.normal(size=20)
    zs[:3] = [0.4, -1.3, 0.0]
    for _ in range(5):
        f, g = random_poly(), random_poly()
        fv, gv = f.stem_values(zs), g.stem_values(zs)
        results = {
            "product": (slice_product(f, g), _hc_mul(fv, gv)),
            "sum": (slice_add(f, g), fv + gv),
            "star": (slice_star(f), _hc_star(fv)),
        }
        basis = np.array([ONE.components(), I.components(), J.components(), K.components()])
        for ell, comp in enumerate(decompose_components(f, I, J)):
            expect = np.zeros_like(fv)
            expect[..., 0] = fv @ basis[ell]
            results[f"component {ell}"] = (comp, expect)
        for name, (h, expect) in results.items():
            assert h.kind == "poly", name
            assert relative_gap(h.stem_values(zs), expect) <= 1e-12, name


def test_poly_stem_merges_equal_monomials():
    q = Quaternion(0.5, -1.0, 2.0, 0.25)
    stem = SliceFunction.polynomial([(2, 0, 1.0), (0, 0, 2.0), (2, 0, -1.0), (0, 1, 1e-14)],
                                   [(1, 1, q), (1, 1, q)])
    assert stem.exps.tolist() == [[0, 0], [1, 1]]
    assert stem.coefs.shape == (2, 2, 4)
    assert function_json(stem) == {"kind": "poly", "Q1": [[0, 0, [2.0, 0.0, 0.0, 0.0]]],
                                   "Q2": [[1, 1, list((q * 2.0).components())]]}
    again = SliceFunction.from_json(function_json(stem))
    assert again.exps.tolist() == stem.exps.tolist()
    assert np.array_equal(again.coefs, stem.coefs)
    # a tiny part of the wrong parity is dropped from a row that is kept
    mixed = SliceFunction.polynomial([(0, 1, 1e-14)], [(0, 1, 1.0)])
    assert mixed.coefs.tolist() == [[[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]]


def wrong_parity_entries(f: SliceFunction) -> np.ndarray:
    """The coefficient entries of a polynomial stem in the part of the wrong
    parity: F1 on rows odd in Y, F2 on rows even in Y."""
    odd = f.exps[:, 1] % 2 == 1
    return np.concatenate([f.coefs[odd, 0].ravel(), f.coefs[~odd, 1].ravel()])


COEF = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
# monomials (h, k, coefficient), each in the part of its parity: F1 if k is
# even, F2 if k is odd; constants are the rows h = k = 0
MONOMIALS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                               st.lists(COEF, min_size=4, max_size=4)),
                     min_size=1, max_size=6)


def polynomial_of(monomials) -> SliceFunction:
    return SliceFunction.polynomial([(h, k, c) for h, k, c in monomials if k % 2 == 0],
                                    [(h, k, c) for h, k, c in monomials if k % 2 == 1])


@settings(max_examples=60, deadline=None)
@given(MONOMIALS, MONOMIALS, COEF)
def test_derived_polynomials_have_exact_parity(f_terms, g_terms, constant):
    """Products, sums, stars, components and the JSON round trip of valid
    polynomial stems are exactly 0.0 in the part of the wrong parity, so the
    parity needs checking only where terms enter (`SliceFunction.polynomial`)."""
    f, g = polynomial_of(f_terms), polynomial_of(g_terms)
    c = SliceFunction.constant(Quaternion(constant, -constant, 0.5 * constant, 0.0))
    derived = [f * g, g * f, f * f, c * f, f * c, f + g, f - g, c + f,
               slice_star(f), slice_star(f * g),
               *decompose_components(f, I, J), *decompose_components(f * g, J, K),
               SliceFunction.from_json(function_json(f)),
               SliceFunction.from_json(function_json(f * g))]
    for h in derived:
        assert h.kind == "poly"
        assert (wrong_parity_entries(h) == 0.0).all()


@pytest.mark.parametrize("seed", range(5))
def test_poly_stem_merge_matches_unique_bit_for_bit(seed):
    """The lexsort merge equals an np.unique merge, exponents near 2^63 - 1
    and rows that differ only in k included; F1 rows have even k and F2 rows
    odd k, so every merged row is kept as it is."""
    rng = np.random.default_rng(seed)
    top = 2 ** 63 - 1
    pool = np.array([0, 1, 2, 3, top - 2, top - 1, top], dtype=np.int64)
    exps = np.vstack([pool[rng.integers(0, pool.size, (36, 2))],
                      [[top, top], [top, top - 1], [top, top], [0, top]]])
    coefs = rng.normal(size=(len(exps), 2, 4))
    coefs[:, 1][exps[:, 1] % 2 == 0] = 0.0
    coefs[:, 0][exps[:, 1] % 2 == 1] = 0.0
    expect_exps, inverse = np.unique(exps, axis=0, return_inverse=True)
    expect = np.zeros((len(expect_exps), 2, 4))
    np.add.at(expect, inverse.reshape(-1), coefs)
    stem = _poly_stem(exps, coefs)
    assert stem.exps.dtype == np.int64
    assert stem.exps.tolist() == expect_exps.tolist()
    assert stem.coefs.tobytes() == expect.tobytes()


def test_sparse_monomial_of_high_degree():
    f = SliceFunction.polynomial([(10 ** 6, 0, 1.0)], [])
    vals = f.stem_values([1.0, 0.5, -1.0])
    assert vals[:, 0, 0].tolist() == [1.0, 0.0, 1.0]
    assert isclose(evaluate(f, Quaternion(-1.0)), ONE)
    square = f * f
    assert square.exps.tolist() == [[2 * 10 ** 6, 0]]
    assert square.coefs.shape == (1, 2, 4)


@pytest.mark.parametrize("exponent", [1.5, -1, True, "2", 2 ** 63])
def test_poly_exponents_must_be_non_negative_integers(exponent):
    with pytest.raises(PreconditionError, match=r"monomial X\^.* Y\^0: exponents must be"):
        SliceFunction.polynomial([(exponent, 0, 1.0)], [])
    with pytest.raises(PreconditionError, match=r"monomial X\^0 Y\^.*: exponents must be"):
        SliceFunction.polynomial([], [(0, exponent, 1.0)])
    assert SliceFunction.polynomial([(np.int64(2), 0, 1.0)], []).exps.tolist() == [[2, 0]]


def test_slice_values_rows_are_the_pointwise_definition():
    """f at an array of quaternions equals f at each point and the
    definition F1 + iota F2 through `sphere_decompose`, real points included."""
    rng = np.random.default_rng(105)
    qs = rng.normal(size=(12, 4))
    qs[0] = [0.7, 0.0, 0.0, 0.0]
    qs[1] = [-1.3, 1e-14, 0.0, 0.0]
    qs[2] = [0.0, 0.0, 0.0, 0.0]
    qs[3] = [0.2, 0.0, -0.9, 0.0]
    tab = tabulated_stems()["general"]
    functions = [random_poly(), random_poly(quaternionic=False), SliceFunction.builtin("exp"),
                 SliceFunction.builtin("im"), tab, slice_product(tab, random_poly())]
    for f in functions:
        vals = f.values(qs)
        assert vals.shape == (len(qs), 4)
        for row, comps in zip(vals, qs):
            q = Quaternion(*comps)
            assert np.array_equal(row, evaluate(f, q).components())
            alpha, beta, iota = sphere_decompose(q)
            f1, f2 = stem_at(f, complex(alpha, beta))
            expect = f1 if iota is None else f1 + iota * f2
            assert (Quaternion(*row) - expect).norm() <= 1e-13 * max(1.0, expect.norm())


def test_slice_values_name_the_point_outside_the_domain():
    f = SliceFunction.builtin("sqrt")
    with pytest.raises(PreconditionError, match=r"point Quaternion\(-1.0, 0.0, 0.0, 0.0\)"):
        f.values([[4.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])


def test_poly_product_rejects_exponent_overflow():
    below = SliceFunction.polynomial([(2 ** 62 - 1, 0, 1.0)], [])
    assert (below * below).exps.tolist() == [[2 ** 63 - 2, 0]]
    f = SliceFunction.polynomial([(2 ** 62, 0, 1.0)], [(0, 1, 1.0)])
    with pytest.raises(PreconditionError, match=r"exceeds 2\^63 - 1"):
        f * f
