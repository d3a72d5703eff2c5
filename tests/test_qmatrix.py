"""Tests for quaternionic matrices, the complex embedding and the operator
machinery (polar, splitting, left multiplications)."""

import json

import numpy as np
import pytest

from oracles import ComplexifiedQuaternion, basis_vector, matrix_of
from quatspec.calculus import build_context
from quatspec.errors import PreconditionError
from quatspec.qmatrix import (LeftMultiplication, QMatrix, QVector, _hc_mul,
                              _hc_norm, _hc_star, _qmul, chi_embed,
                              chi_extract, is_anti_self_adjoint, is_normal,
                              is_self_adjoint, is_unitary, op_norm,
                              polar_decompose, random_normal,
                              random_qmatrix, random_qvector, random_unitary,
                              split_plus_minus)
from quatspec.quaternion import I, J, K, ONE, Quaternion

RNG = np.random.default_rng(1234)


def flag_matrix() -> QMatrix:
    """The 2x2 self-adjoint matrix [[0, i], [-i, 0]] with T^2 = I."""
    return matrix_of([[Quaternion(), I], [-I, Quaternion()]])


# -- vectors -----------------------------------------------------------------

def test_vector_inner_product_axioms():
    u = random_qvector(5, RNG)
    v = random_qvector(5, RNG)
    q = Quaternion(0.5, -1, 2, 0.25)
    # right linearity and Hermitian symmetry
    assert (u.inner(v.rmul(q)) - u.inner(v) * q).norm() <= 1e-12
    assert (u.inner(v) - v.inner(u).conjugate()).norm() <= 1e-14
    assert abs(u.rmul(q).norm() - u.norm() * q.norm()) <= 1e-12


def test_matrix_right_linearity():
    m = random_qmatrix(4, RNG)
    u = random_qvector(4, RNG)
    q = Quaternion(1, -2, 0.5, 3)
    assert ((m @ u.rmul(q)) - (m @ u).rmul(q)).norm() <= 1e-12 * m.frobenius() * u.norm()


def test_adjoint_defining_identity():
    m = random_qmatrix(4, RNG)
    u, v = random_qvector(4, RNG), random_qvector(4, RNG)
    assert ((m.adjoint() @ u).inner(v) - u.inner(m @ v)).norm() <= 1e-12 * \
        m.frobenius() * u.norm() * v.norm()


# -- products ------------------------------------------------------------------

def test_qmat_mul_examples():
    m = random_qmatrix(3, RNG)
    assert (QMatrix.identity(3) @ m - m).frobenius() <= 1e-15
    t = flag_matrix()
    assert (t @ t - QMatrix.identity(2)).frobenius() <= 1e-15
    for _ in range(10):
        a, b = random_qmatrix(4, RNG), random_qmatrix(4, RNG)
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) * (1 + 1e-12)


def test_qmat_mul_associative():
    a, b, c = (random_qmatrix(4, RNG) for _ in range(3))
    assert ((a @ b) @ c - a @ (b @ c)).frobenius() <= \
        1e-12 * a.frobenius() * b.frobenius() * c.frobenius()


def test_adjoint_examples():
    assert (QMatrix.identity(3).adjoint() - QMatrix.identity(3)).frobenius() == 0.0
    t = flag_matrix()
    assert (t.adjoint() - t).frobenius() == 0.0  # self-adjoint
    d = QMatrix.diag([J])
    assert (d.adjoint() - QMatrix.diag([-J])).frobenius() == 0.0
    m, n = random_qmatrix(3, RNG), random_qmatrix(3, RNG)
    assert ((m @ n).adjoint() - n.adjoint() @ m.adjoint()).frobenius() <= 1e-12
    assert (m.adjoint().adjoint() - m).frobenius() == 0.0


def test_dimension_mismatch():
    with pytest.raises(PreconditionError):
        random_qmatrix(3, RNG) @ random_qmatrix(4, RNG)
    with pytest.raises(PreconditionError):
        random_qmatrix(3, RNG) @ random_qvector(4, RNG)


# -- complex embedding -----------------------------------------------------------

def test_chi_identity_and_diag_j():
    assert np.linalg.norm(chi_embed(QMatrix.identity(2)) - np.eye(4)) == 0.0
    c = chi_embed(QMatrix.diag([J]))
    assert np.allclose(c, np.array([[0, 1], [-1, 0]], dtype=complex))


def test_chi_homomorphism():
    for n in (2, 5, 16):
        m, k = random_qmatrix(n, RNG), random_qmatrix(n, RNG)
        cm, ck = chi_embed(m), chi_embed(k)
        resid = np.linalg.norm(chi_embed(m @ k) - cm @ ck, 2)
        assert resid <= 1e-11 * np.linalg.norm(cm, 2) * np.linalg.norm(ck, 2)
        assert np.linalg.norm(chi_embed(m + k) - (cm + ck)) == 0.0


def test_chi_respects_adjoint():
    m = random_qmatrix(6, RNG)
    assert np.linalg.norm(chi_embed(m.adjoint()) - chi_embed(m).conj().T) == 0.0


def test_chi_roundtrip_and_rejection():
    m = random_qmatrix(5, RNG)
    assert (chi_extract(chi_embed(m)) - m).frobenius() == 0.0
    bad = RNG.normal(size=(6, 6)) + 1j * RNG.normal(size=(6, 6))
    with pytest.raises(PreconditionError):
        chi_extract(bad)


def test_chi_extract_rejects_non_symplectic_at_every_scale():
    bad = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    for c in (1e-12, 1.0, 1e12):
        with pytest.raises(PreconditionError, match="not in the image"):
            chi_extract(bad * c)


# -- operator norm -----------------------------------------------------------------

def test_op_norm_examples():
    assert abs(op_norm(QMatrix.identity(4)) - 1.0) <= 1e-14
    q = Quaternion(1, 2, -2, 0.5)
    assert abs(op_norm(QMatrix.diag([q, q * 0.5])) - q.norm()) <= 1e-13
    assert abs(op_norm(flag_matrix()) - 1.0) <= 1e-14


def test_op_norm_is_sup_ratio():
    m = random_qmatrix(5, RNG)
    bound = op_norm(m)
    worst = 0.0
    for _ in range(50):
        u = random_qvector(5, RNG)
        worst = max(worst, (m @ u).norm() / u.norm())
    assert worst <= bound * (1 + 1e-12)
    assert worst >= 0.2 * bound  # crude attainment sanity check


def test_cstar_norm_identity():
    m = random_qmatrix(6, RNG)
    assert abs(op_norm(m.adjoint() @ m) - op_norm(m) ** 2) <= 1e-11 * op_norm(m) ** 2
    assert abs(op_norm(m.adjoint()) - op_norm(m)) <= 1e-12 * op_norm(m)


# -- polar decomposition ---------------------------------------------------------------

def assert_is_modulus(p: QMatrix, m: QMatrix, tol: float) -> None:
    """P = |M| by its defining equations, relative to ||M||: P* = P, P >= 0
    (the smallest eigenvalue of chi(P) is at least -tol ||M||) and P^2 = M*M."""
    scale = op_norm(m)
    assert (p - p.adjoint()).frobenius() <= tol * scale
    assert np.linalg.eigvalsh(chi_embed(p))[0] >= -tol * scale
    assert (p @ p - m.adjoint() @ m).frobenius() <= tol * scale ** 2


def test_polar_unitary_and_zero():
    v = random_unitary(4, RNG)
    w, p = polar_decompose(v)
    assert op_norm(w - v) <= 1e-12
    assert op_norm(p - QMatrix.identity(4)) <= 1e-12
    w, p = polar_decompose(QMatrix.zeros(3))
    assert w.frobenius() == 0.0 and p.frobenius() == 0.0


def test_polar_diag_example():
    #  diag(2i) = diag(i) diag(2), with anti-self-adjoint isometric factor
    w, p = polar_decompose(QMatrix.diag([I * 2.0]))
    assert op_norm(w - QMatrix.diag([I])) <= 1e-13
    assert op_norm(p - QMatrix.diag([Quaternion(2)])) <= 1e-13
    assert is_anti_self_adjoint(w)


def test_polar_reconstruction_and_kernel():
    for _ in range(5):
        m = random_qmatrix(5, RNG)
        w, p = polar_decompose(m)
        assert op_norm(w @ p - m) <= 1e-9 * max(1.0, op_norm(m))
        assert is_self_adjoint(p)
        assert_is_modulus(p, m, 1e-9)
    # rank-deficient: W vanishes on Ker(P)
    m = QMatrix.diag([Quaternion(2, 1, 0, 0), Quaternion()])
    w, p = polar_decompose(m)
    e1 = basis_vector(2, 1)
    assert (w @ e1).norm() <= 1e-12


def test_polar_inherits_symmetry():
    m = random_qmatrix(4, RNG)
    sa = (m + m.adjoint()) * 0.5
    w, _ = polar_decompose(sa)
    assert (w - w.adjoint()).frobenius() <= 1e-9 * w.frobenius()
    asa = (m - m.adjoint()) * 0.5
    w, _ = polar_decompose(asa)
    assert (w + w.adjoint()).frobenius() <= 1e-9 * w.frobenius()


def test_normal_kernel_coincidences():
    """For normal M the kernels of M, M* and |M| agree (checked by ranks of
    the complex embedding)."""
    t, _ = random_normal(5, RNG)
    e1 = basis_vector(5, 0)
    # force a kernel: multiply by a projector built from eigendata is overkill;
    # use T - lambda I for an exact eigen-sphere instead
    from quatspec.spectral import spherical_spectrum
    rep = spherical_spectrum(t).reps[0]
    shifted = t @ t - t * (2 * rep[0]) + QMatrix.identity(5) * (rep[0] ** 2 + rep[1] ** 2)
    _, p = polar_decompose(shifted)

    def rank(mat):
        s = np.linalg.svd(chi_embed(mat), compute_uv=False)
        return int((s > 1e-8 * max(s.max(), 1.0)).sum())

    assert rank(shifted) == rank(shifted.adjoint()) == rank(p)
    assert rank(shifted) < 10


# -- splitting and extension ---------------------------------------------------------

def make_j(n, rng) -> tuple[QMatrix, LeftMultiplication]:
    basis = LeftMultiplication(random_unitary(n, rng))
    return basis.matrix(I), basis


def test_split_plus_minus_properties():
    j, _ = make_j(5, RNG)
    u = random_qvector(5, RNG)
    up, um = split_plus_minus(u, j, I)
    assert (up + um - u).norm() <= 1e-13 * u.norm()
    assert (j @ up - up.rmul(I)).norm() <= 1e-11 * u.norm()
    assert (j @ um + um.rmul(I)).norm() <= 1e-11 * u.norm()
    assert abs(up.norm() ** 2 + um.norm() ** 2 - u.norm() ** 2) <= 1e-11 * u.norm() ** 2
    # vector already in H+ stays there
    up2, um2 = split_plus_minus(up, j, I)
    assert (up2 - up).norm() <= 1e-11 * max(1.0, up.norm())
    assert um2.norm() <= 1e-11 * max(1.0, up.norm())


def test_split_diag_example():
    # J = diag(i), u = (j): J j = ij = j(-i), so u lies in the minus subspace
    jd = QMatrix.diag([I])
    u = QVector.from_components([J.components()])
    up, um = split_plus_minus(u, jd, I)
    assert up.norm() == 0.0
    assert (um - u).norm() == 0.0


def test_split_rejects_bad_j():
    with pytest.raises(PreconditionError):
        split_plus_minus(random_qvector(3, RNG), random_qmatrix(3, RNG), I)


def test_extend_rejects_bad_basis():
    cols = QMatrix.from_components(
        np.stack([random_qvector(3, RNG).components() for _ in range(3)], axis=1))
    with pytest.raises(PreconditionError):
        LeftMultiplication(cols)


# -- left scalar multiplication ---------------------------------------------------------

def test_left_mult_identities():
    basis = LeftMultiplication(random_unitary(5, RNG))
    assert op_norm(basis.matrix(ONE) - QMatrix.identity(5)) <= 1e-12
    # L_r acts as right multiplication for real r
    u = random_qvector(5, RNG)
    assert (basis.matrix(Quaternion(1.5)) @ u - u * 1.5).norm() <= 1e-12 * u.norm()
    # homomorphism: L_i L_j = L_k, norm preservation, adjoint
    assert op_norm(basis.matrix(I) @ basis.matrix(J) - basis.matrix(K)) <= 1e-11
    q = Quaternion(1, -2, 3, 0.5)
    assert abs(op_norm(basis.matrix(q)) - q.norm()) <= 1e-11 * q.norm()
    assert op_norm(basis.matrix(q).adjoint() - basis.matrix(q.conjugate())) <= 1e-11
    # additivity in q
    p = Quaternion(0.25, 1, 1, -1)
    assert op_norm(basis.matrix(q) + basis.matrix(p) - basis.matrix(q + p)) <= 1e-11


def test_standard_left_mult_is_diagonal():
    std = LeftMultiplication(QMatrix.identity(3))
    q = Quaternion(1, 2, 3, 4)
    assert (std.matrix(q) - QMatrix.diag([q, q, q])).frobenius() <= 1e-14


def test_left_mult_diagonal_is_the_basis_sandwich():
    rng = np.random.default_rng(5)
    basis = LeftMultiplication(random_unitary(5, rng))
    values = rng.normal(size=(5, 4))
    z = basis.columns
    expect = z @ QMatrix.diag([Quaternion(*v) for v in values]) @ z.adjoint()
    assert op_norm(basis.diagonal(values) - expect) <= 1e-12 * np.abs(values).max()


def test_plus_subspace_basis_recovers_j():
    # the H+ basis of a normal T (J u_m = u_m i) induces L_i = J
    t, _ = random_normal(4, np.random.default_rng(5))
    ctx = build_context(t)
    j, basis = ctx.j, ctx.basis
    for m in range(4):
        u = basis.vector(m)
        assert (j @ u - u.rmul(I)).norm() <= 1e-10
    assert op_norm(basis.matrix(I) - j) <= 1e-10


# -- random generators ----------------------------------------------------

def test_random_unitary_and_normal():
    v = random_unitary(5, RNG)
    assert is_unitary(v)
    t, reps = random_normal(6, RNG)
    assert is_normal(t)
    assert reps.shape == (6, 2)
    t, _ = random_normal(4, RNG, kind="selfadjoint")
    assert is_self_adjoint(t)
    t, _ = random_normal(4, RNG, kind="antiselfadjoint")
    assert is_anti_self_adjoint(t)
    t, _ = random_normal(4, RNG, kind="unitary")
    assert is_unitary(t)
    t, _ = random_normal(4, RNG, kind="imaginaryunit")
    assert is_unitary(t) and is_anti_self_adjoint(t)


def test_random_unitary_is_the_polar_factor_of_its_gaussian_draw():
    """The Haar generator draws exactly one Gaussian matrix M and returns
    the unitary W of M = W |M|, so later draws of the stream are unchanged."""
    rng, ref = np.random.default_rng(77), np.random.default_rng(77)
    v = random_unitary(6, rng)
    m = random_qmatrix(6, ref)
    assert rng.normal() == ref.normal()
    assert is_unitary(v)
    assert_is_modulus(v.adjoint() @ m, m, 1e-10)


# -- scalar-loop oracle for the complex-pair arithmetic ------------------------------------

def test_product_against_scalar_loops():
    rng = np.random.default_rng(17)
    m, k = random_qmatrix(3, rng), random_qmatrix(3, rng)
    u = random_qvector(3, rng)
    prod, mu = m @ k, m @ u
    for a in range(3):
        expect = sum((m[a, l] * u[l] for l in range(3)), Quaternion())
        np.testing.assert_allclose(mu[a].components(), expect.components(),
                                   rtol=1e-14, atol=1e-14)
        for b in range(3):
            expect = sum((m[a, l] * k[l, b] for l in range(3)), Quaternion())
            np.testing.assert_allclose(prod[a, b].components(), expect.components(),
                                       rtol=1e-14, atol=1e-14)


def test_adjoint_against_scalar_loops():
    m = random_qmatrix(3, np.random.default_rng(18))
    adj = m.adjoint()
    for a in range(3):
        for b in range(3):
            assert adj[a, b] == m[b, a].conjugate()


def test_vector_ops_against_scalar_loops():
    rng = np.random.default_rng(19)
    u, v = random_qvector(3, rng), random_qvector(3, rng)
    q = Quaternion(*rng.normal(size=4))
    uq = u.rmul(q)
    for a in range(3):
        np.testing.assert_allclose(uq[a].components(), (u[a] * q).components(),
                                   rtol=1e-14, atol=1e-14)
    expect = sum((u[a].conjugate() * v[a] for a in range(3)), Quaternion())
    np.testing.assert_allclose(u.inner(v).components(), expect.components(),
                               rtol=1e-14, atol=1e-14)


def test_components_roundtrip_is_bit_exact():
    x = np.random.default_rng(20).normal(size=(3, 3, 4))
    x[0, 0] = [-0.0, 1e-310, -1e-310, 1.0 / 3.0]
    x[2, 1] = [0.0, -0.0, 2.0 ** 60, -0.0]
    back = QMatrix.from_components(x).components()
    assert back.shape == x.shape
    assert np.array_equal(back, x) and np.array_equal(np.signbit(back), np.signbit(x))
    y = x[0]
    back = QVector.from_components(y).components()
    assert np.array_equal(back, y) and np.array_equal(np.signbit(back), np.signbit(y))


# -- independent real-representation oracle ----------------------------------------------

def real_rep(m: QMatrix) -> np.ndarray:
    """4n x 4n real matrix of the operator: each entry q acts on H = R^4 by
    left multiplication. Fully independent of the complex embedding."""
    def left4(a, b, c, d):
        return np.array([[a, -b, -c, -d],
                         [b, a, -d, c],
                         [c, d, a, -b],
                         [d, -c, b, a]])

    n = m.n
    out = np.zeros((4 * n, 4 * n))
    for k in range(n):
        for l in range(n):
            out[4 * k:4 * k + 4, 4 * l:4 * l + 4] = left4(*m[k, l].components())
    return out


def test_product_against_real_representation():
    for _ in range(5):
        a, b = random_qmatrix(4, RNG), random_qmatrix(4, RNG)
        resid = np.linalg.norm(real_rep(a @ b) - real_rep(a) @ real_rep(b), 2)
        assert resid <= 1e-12 * np.linalg.norm(real_rep(a), 2) * \
            np.linalg.norm(real_rep(b), 2)


def test_op_norm_against_real_representation():
    for _ in range(5):
        m = random_qmatrix(4, RNG)
        assert abs(op_norm(m) - np.linalg.norm(real_rep(m), 2)) <= 1e-11 * op_norm(m)


def test_scalar_product_against_real_representation():
    for _ in range(20):
        p = Quaternion(*RNG.normal(size=4))
        q = Quaternion(*RNG.normal(size=4))
        via_rep = real_rep(QMatrix.diag([p]))[:4, :4] @ np.array(q.components())
        assert np.linalg.norm(np.array((p * q).components()) - via_rep) <= 1e-13


# -- serialization ----------------------------------------------------------------------

def test_matrix_json_roundtrip():
    m = random_qmatrix(3, RNG)
    again = QMatrix.from_json(m.to_json())
    assert (again - m).frobenius() == 0.0


def test_matrix_json_matches_entrywise_floats():
    """to_json, and the components of a vector, give the same floats, hence
    the same JSON text, as converting entry by entry."""
    rng = np.random.default_rng(11)
    comps = random_qmatrix(3, rng).components()
    comps[0, 0] = [-0.0, 1e-310, 1.0 / 3.0, 2.0 ** 60]
    m = QMatrix.from_components(comps)
    entrywise = {"n": 3, "rows": [[[float(x) for x in m[k, l].components()] for l in range(3)]
                                  for k in range(3)]}
    assert m.to_json() == entrywise
    assert json.dumps(m.to_json()) == json.dumps(entrywise)
    u = random_qvector(3, rng)
    entrywise = [[float(x) for x in u[k].components()] for k in range(3)]
    assert json.dumps(u.components().tolist()) == json.dumps(entrywise)


def test_hc_array_ops_are_the_complexified_quaternion_ops():
    rng = np.random.default_rng(1235)
    w, y = np.moveaxis(rng.normal(size=(50, 2, 2, 4)) * 2.0, 1, 0)
    prod, star, norm = _hc_mul(w, y), _hc_star(w), _hc_norm(w)
    assert prod.shape == star.shape == (50, 2, 4) and norm.shape == (50,)
    for m in range(50):
        cw, cy = (ComplexifiedQuaternion(Quaternion(*x[0]), Quaternion(*x[1]))
                  for x in (w[m], y[m]))
        expect = cw * cy
        np.testing.assert_allclose(prod[m], [expect.q.components(), expect.p.components()],
                                   rtol=1e-14, atol=1e-14)
        expect = cw.star()
        assert np.array_equal(star[m], [expect.q.components(), expect.p.components()])
        assert abs(norm[m] - cw.norm()) <= 1e-14 * cw.norm()
    # the product broadcasts over leading axes
    assert np.array_equal(_hc_mul(w[:, None], y[None])[3, 7], _hc_mul(w[3], y[7]))


# -- the kernels against their plain numpy formulas, bit for bit --------------------------

def _stack_qmul(x, y):
    """The quaternion product as four component arrays and one `np.stack`."""
    a1, b1, c1, d1 = np.moveaxis(x, -1, 0)
    a2, b2, c2, d2 = np.moveaxis(y, -1, 0)
    return np.stack([a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                     a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                     a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                     a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2], axis=-1)


def _stack_hc_mul(x, y):
    (q1, p1), (q2, p2) = np.moveaxis(x, -2, 0), np.moveaxis(y, -2, 0)
    return np.stack([_stack_qmul(q1, q2) - _stack_qmul(p1, p2),
                     _stack_qmul(q1, p2) + _stack_qmul(p1, q2)], axis=-2)


def _odd_floats(rng, shape):
    """Normal draws with -0.0, +0.0 and subnormals of both signs mixed in."""
    x = rng.normal(size=shape)
    flat = x.reshape(-1)
    picks = rng.choice(flat.size, size=min(flat.size, 12), replace=False)
    flat[picks] = np.resize([-0.0, 0.0, 5e-324, -5e-324, 2.2e-310, -1e-315], picks.size)
    return x


def _same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("xs, ys", [((13, 4), (13, 4)), ((13, 4), (4,)), ((4,), (13, 4)),
                                    ((4,), (4,)), ((5, 1, 4), (1, 6, 4))])
def test_qmul_is_the_stacked_formula_bit_for_bit(xs, ys):
    rng = np.random.default_rng(150)
    x, y = _odd_floats(rng, xs), _odd_floats(rng, ys)
    assert _same_bits(_qmul(x, y), _stack_qmul(x, y))


@pytest.mark.parametrize("xs, ys", [((13, 2, 4), (13, 2, 4)), ((13, 2, 4), (2, 4)),
                                    ((5, 1, 2, 4), (1, 6, 2, 4))])
def test_hc_mul_is_the_stacked_formula_bit_for_bit(xs, ys):
    rng = np.random.default_rng(151)
    x, y = _odd_floats(rng, xs), _odd_floats(rng, ys)
    assert _same_bits(_hc_mul(x, y), _stack_hc_mul(x, y))


@pytest.mark.parametrize("n", [1, 3, 8])
def test_chi_embed_and_op_norm_are_the_block_formulas_bit_for_bit(n):
    rng = np.random.default_rng(152 + n)
    m = QMatrix.from_components(_odd_floats(rng, (n, n, 4)))
    want = np.block([[m.x1, m.x2], [-m.x2.conj(), m.x1.conj()]])
    assert _same_bits(chi_embed(m), want)
    assert chi_embed(m).flags.c_contiguous
    assert _same_bits(np.float64(op_norm(m)), np.float64(np.linalg.norm(want, 2)))
