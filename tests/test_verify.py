"""Tests for the check/report plumbing and the aggregated verification runs."""

import numpy as np
import pytest

from quatspec import cli
from quatspec.qmatrix import (QMatrix, is_normal, is_self_adjoint, random_normal,
                              random_unitary)
from quatspec.quaternion import Quaternion, random_sphere_point
from quatspec.reporting import Check, VerificationReport
from quatspec.spectral import gelfand_check
from quatspec.verify import _KINDS, run_verification, verify_calculus, verify_spectral

# every row of `verify --random 8,20,<seed>`, whatever the seed
VERIFY_ROWS = frozenset("""
    B-definition J-commutes-T J-unit JK-anticommute K-commutes-A K-commutes-B
    K-transport K-unit adjoint-same-spectrum adjoint-similarity
    circular-constant-K circular-constant-L circular-homomorphism
    circular-isometry circular-norm-bound circular-spectral-containment
    circular-star circularity contour-cubic contour-id contour-one
    contour-square cslice-constant-J cslice-extends-intrinsic cslice-kernel
    cslice-linearity cslice-norm cslice-spectral-map decomposition
    eigensphere-membership gelfand-constant general-adjoint-rule
    general-right-scalar hc-cstar-identity hc-norm-sandwich hc-star-antihom
    hc-submultiplicative hc-sup-dominates hc-sup-sharp id-recovered
    identity-recovered intrinsic-homomorphism intrinsic-isometry
    intrinsic-spectral-map intrinsic-star kernel-choice-independence
    measure-moment measure-total plus-minus-splitting projection-commutes
    projection-orthogonal projection-sum quat-conj-antihom
    quat-norm-multiplicative radius-equals-norm resolvent-series
    restriction-identity slice-class-closure slice-cslice-commute
    slice-norm-cstar slice-norm-submult slice-product-assoc
    slice-representation slice-star-antihom spectral-decomposition
    spectral-map-polynomial spectral-map-power-2 spectral-map-power-3
    spectrum-ground-truth spectrum-imaginary spectrum-is-sphere spectrum-real
    spectrum-unit-modulus square-intrinsic square-polynomial unity-recovered
    upper-eigenvalues vanishing-polynomial
""".split())
DEFINITION_ROWS = ("B-definition", "plus-minus-splitting")


def test_check_status():
    assert Check("a", "x = y", 1e-12, 1e-10).status == "pass"
    assert Check("a", "x = y", 1e-8, 1e-10).status == "fail"


def test_report_aggregation_and_exit_code(monkeypatch):
    """`verify` exits 0 on a report that is ok and 1 on one that is not."""
    report = VerificationReport()
    monkeypatch.setattr(cli, "run_verification", lambda **kwargs: report)
    report.worst("c", "x = y", 1e-12, 1e-10)
    report.worst("c", "x = y", 5e-11, 1e-10)
    assert len(report.checks) == 1
    assert report.checks[0].residual == 5e-11
    assert report.ok and cli.main(["verify", "--random", "1,1,0"]) == 0
    report.worst("d", "u = v", 1.0, 1e-10)
    assert not report.ok and cli.main(["verify", "--random", "1,1,0"]) == 1
    assert report.counts() == {"pass": 1, "fail": 1}


def test_worst_judges_each_call_against_its_own_tolerance():
    """The row keeps the call with the largest residual / tolerance: a later
    call over its own smaller tolerance fails, though its residual is the
    smaller one, and a zero tolerance fails on any positive residual."""
    report = VerificationReport()
    report.worst("c", "x = y", 1e-3, 1e-2)
    report.worst("c", "x = y", 1e-5, 1e-6)
    report.worst("c", "x = y", 1e-4, 1e-1)
    (check,) = report.checks
    assert (check.residual, check.tolerance, check.status) == (1e-5, 1e-6, "fail")
    report.worst("z", "closed", 0.0, 0.0)
    assert report.checks[1].status == "pass"
    report.worst("z", "closed", 1e-300, 0.0)
    report.worst("z", "closed", 0.0, 0.0)
    assert (report.checks[1].residual, report.checks[1].status) == (1e-300, "fail")
    report.worst("n", "finite", 1.0, 2.0)
    report.worst("n", "finite", float("nan"), 2.0)
    assert report.checks[2].status == "fail"


def test_scaled_pool_passes_with_tolerances_per_call():
    """T x 100 alone used to fail intrinsic-spectral-map against the
    tolerance of its first call (the id image, not the exp one), and the
    pool [T, 100 T] intrinsic-homomorphism and circular-homomorphism."""
    t = random_normal(8, np.random.default_rng(7))[0]
    for pool in ([t * 100.0], [t, t * 100.0]):
        report = run_verification(matrices=[(m, None) for m in pool])
        assert report.ok, report.table()


def test_report_table_and_json():
    report = VerificationReport()
    report.worst("alpha", "x = y", 1e-12, 1e-10)
    report.notes.append("a note")
    text = report.table()
    assert "alpha" in text and "pass" in text and "a note" in text
    data = report.to_json()
    assert data["ok"] is True
    assert data["checks"][0]["name"] == "alpha"
    assert data["checks"][0]["residual"] == 1e-12


def test_run_verification_random_all_suites():
    report = run_verification(random_spec=(4, 5, 11), suite="all")
    assert report.ok, report.table()
    names = {c.name for c in report.checks}
    # one representative per suite
    assert "hc-cstar-identity" in names
    assert "resolvent-series" in names
    assert "decomposition" in names
    assert report.meta["matrices"] == 5


def test_run_verification_explicit_matrix():
    rng = np.random.default_rng(3)
    t, reps = random_normal(4, rng)
    report = run_verification(matrices=[(t, reps)], suite="spectral")
    assert report.ok
    assert "spectrum-ground-truth" in {c.name for c in report.checks}


def test_run_verification_skips_calculus_for_non_normal():
    rng = np.random.default_rng(3)
    from quatspec.qmatrix import random_qmatrix
    m = random_qmatrix(3, rng)
    report = run_verification(matrices=[(m, None)], suite="calculus")
    assert any("skipped" in note for note in report.notes)


def test_run_verification_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_verification(random_spec=(3, 1, 0), suite="everything")


def test_gelfand_high_power_does_not_overflow():
    """3^(2^12) overflows a float; the normalized powers do not."""
    seq = gelfand_check(QMatrix.identity(2) * 3.0, 12)
    assert np.all(np.abs(seq - 3.0) <= 1e-12 * 3.0)


@pytest.mark.parametrize("seed", [0, 5, 7, 10, 20, 42, 81, 206])
def test_random_run_has_every_row(seed):
    """The seeds of the CI `verify --random 8,20,<seed>` runs."""
    report = run_verification(random_spec=(8, 20, seed))
    names = [c.name for c in report.checks]
    assert len(names) == len(VERIFY_ROWS) == 78
    assert set(names) == VERIFY_ROWS
    assert report.ok, report.table()


def _definition_rows(t: QMatrix) -> list[Check]:
    report = VerificationReport()
    verify_calculus(report, t, np.random.default_rng(0))
    return [c for c in report.checks if c.name in DEFINITION_ROWS]


@pytest.mark.parametrize("c", [1e-12, 1.0])
def test_definition_rows_pass_at_every_scale(c):
    """B = |T - T*|/2 and H = H+ (+) H- hold on every kind of the random
    pool, their residuals relative to ||T||."""
    rng = np.random.default_rng(7)
    for kind in _KINDS:
        rows = _definition_rows(random_normal(8, rng, kind=kind)[0] * c)
        assert [r.name for r in rows] == list(DEFINITION_ROWS)
        assert all(r.passed for r in rows), [r.to_json() for r in rows]


def test_definition_rows_pass_on_nearly_real_eigenvalues():
    """The inputs of `test_build_context_on_nearly_real_eigenvalues`: two
    eigenvalues 1e-10 to 1e-6 off the real axis next to four well off it.
    Only the two definition rows are read here."""
    for seed in range(30):
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(-2.0, 2.0, 6)
        beta = rng.uniform(0.3, 2.0, 6)
        beta[:2] = 10.0 ** rng.uniform(-10.0, -6.0)
        d = QMatrix.diag([Quaternion(a) + random_sphere_point(rng) * b
                          for a, b in zip(alpha, beta)])
        v = random_unitary(6, rng)
        rows = _definition_rows(v @ d @ v.adjoint())
        assert len(rows) == 2 and all(r.passed for r in rows), (seed, [r.to_json() for r in rows])


CLASS_ROWS = ("spectrum-real", "spectrum-imaginary", "spectrum-unit-modulus",
              "spectrum-is-sphere", "radius-equals-norm", "adjoint-same-spectrum",
              "circularity")


def _class_rows(t: QMatrix) -> list[Check]:
    report = VerificationReport()
    verify_spectral(report, t, np.random.default_rng(0))
    return [c for c in report.checks if c.name in CLASS_ROWS]


@pytest.mark.parametrize("kind", ["normal", "selfadjoint", "antiselfadjoint"])
def test_spectral_class_tolerances_scale_with_t(kind):
    """No max(1, ||T||) floor: each class row's tolerance for 1e-12 T is
    1e-12 times its tolerance for T, and the rows are the same."""
    t = random_normal(6, np.random.default_rng(3), kind=kind)[0]
    rows, small = _class_rows(t), _class_rows(t * 1e-12)
    assert [r.name for r in small] == [r.name for r in rows]
    assert {"adjoint-same-spectrum", "circularity", "radius-equals-norm"} <= {r.name for r in rows}
    for r, r_small in zip(rows, small):
        assert r_small.tolerance == pytest.approx(1e-12 * r.tolerance, rel=1e-12, abs=0.0)
        assert r_small.passed


def test_verify_spectral_takes_one_spectrum_of_t(monkeypatch):
    """The spectral suite reads sigma_S(T) once per matrix; the spectra of
    T*, T^2, T^3 and the other operators it builds do not count."""
    import quatspec.spectral
    import quatspec.verify
    t = random_normal(6, np.random.default_rng(5))[0]
    assert is_normal(t) and not is_self_adjoint(t)
    calls = []
    real = quatspec.spectral.spherical_spectrum

    def counted(m):
        calls.append(m is t)
        return real(m)

    for module in (quatspec.spectral, quatspec.verify):
        monkeypatch.setattr(module, "spherical_spectrum", counted)
    report = VerificationReport()
    verify_spectral(report, t, np.random.default_rng(0))
    assert report.ok, report.table()
    assert calls.count(True) == 1
