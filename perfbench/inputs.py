"""Benchmark inputs and reference checks, written with numpy only.

The generator and the references are the benchmark's own, so the inputs and
the expected outputs stay bit-identical across commits even when the
library's own random generators change.

A quaternionic matrix is an (n, n, 4) float array of components; `chi` maps
it to its complex 2n x 2n image [[M1, M2], [-conj M2, conj M1]] with
M = M1 + M2 j.
"""

from __future__ import annotations

import json

import numpy as np

REAL_SHARE = 0.25  # share of eigenspheres placed on the real axis

# Tolerances: no looser than the `verify` suite's for the same identity.
SPECTRUM_TOL = 1e-8     # Hausdorff distance, times max(1, ||T||)
ALGEBRAIC_TOL = 1e-9    # relative operator-norm error of the four calculi
CONTOUR_TOL = 1e-7      # relative operator-norm error of the contour route


def chi(data: np.ndarray) -> np.ndarray:
    m1 = data[..., 0] + 1j * data[..., 1]
    m2 = data[..., 2] + 1j * data[..., 3]
    return np.block([[m1, m2], [-m2.conj(), m1.conj()]])


def unchi(c: np.ndarray) -> np.ndarray:
    n = c.shape[0] // 2
    m1 = 0.5 * (c[:n, :n] + c[n:, n:].conj())
    m2 = 0.5 * (c[:n, n:] - c[n:, :n].conj())
    return np.stack([m1.real, m1.imag, m2.real, m2.imag], axis=-1)


class NormalCase:
    """T = V D V* with V the polar factor of chi of a Gaussian quaternionic
    matrix and D = diag(alpha_m + iota_m beta_m), iota_m random unit
    imaginary quaternions; exactly round(REAL_SHARE * n) of the beta_m are 0,
    so the real-eigenvalue (symplectic kernel) path runs."""

    def __init__(self, n: int, seed: int):
        rng = np.random.default_rng(seed)
        g = chi(rng.normal(size=(n, n, 4)))
        u, _, vh = np.linalg.svd(g)
        v = u @ vh
        alpha = rng.uniform(-2.0, 2.0, size=n)
        beta = rng.uniform(0.3, 2.0, size=n)
        beta[rng.permutation(n)[:round(REAL_SHARE * n)]] = 0.0
        axes = rng.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        self.n = n
        self.v = v
        self.alpha = alpha
        self.beta = beta
        self.axes = axes
        self.t = unchi(self._sandwich(alpha, beta))
        self.reps = np.column_stack([alpha, beta])
        self.norm = float(np.hypot(alpha, beta).max())

    def _sandwich(self, re: np.ndarray, im: np.ndarray) -> np.ndarray:
        """chi(V diag(re_m + iota_m im_m) V*)."""
        d = np.zeros((self.n, self.n, 4))
        idx = np.arange(self.n)
        d[idx, idx, 0] = re
        d[idx, idx, 1:] = self.axes * im[:, None]
        return self.v @ chi(d) @ self.v.conj().T

    def reference(self, fn: str) -> np.ndarray:
        """chi of f(T) for the builtins the workloads apply."""
        c = chi(self.t)
        if fn == "square":
            return c @ c
        if fn == "re":
            return 0.5 * (c + c.conj().T)
        if fn == "exp":
            scale = np.exp(self.alpha)
            return self._sandwich(scale * np.cos(self.beta), scale * np.sin(self.beta))
        raise ValueError(f"no reference for {fn!r}")

    def to_json(self) -> dict:
        return {"n": self.n, "rows": self.t.tolist()}


def write_matrix(case: NormalCase, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(case.to_json(), fh)


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def spectrum_error(out: dict, case: NormalCase, reps: np.ndarray) -> str | None:
    """None if the `spectrum` output matches `reps`, else the reason."""
    got = np.asarray(out["reps"], dtype=float).reshape(-1, 2)
    if list(out["mult"]) != [1] * case.n:
        return f"multiplicities {out['mult']}, want {case.n} simple eigenspheres"
    dist = _hausdorff(got, reps)
    tol = SPECTRUM_TOL * max(1.0, case.norm)
    if not dist <= tol:
        return f"spectrum Hausdorff distance {dist:.3e} > {tol:.3e}"
    return None


def matrix_error(out: dict, ref: np.ndarray, tol: float) -> str | None:
    """None if the matrix JSON `out` matches chi-image `ref` to a relative
    operator-norm error `tol`, else the reason."""
    rows = np.asarray(out["rows"], dtype=float)
    if rows.shape != (ref.shape[0] // 2, ref.shape[0] // 2, 4):
        return f"result has shape {rows.shape}"
    err = float(np.linalg.norm(chi(rows) - ref, 2))
    scale = float(np.linalg.norm(ref, 2))
    if not err <= tol * scale:
        return f"relative error {err / scale:.3e} > {tol:.0e}"
    return None

