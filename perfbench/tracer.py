"""Per-layer tracing from outside the program.

`Tracer.install()` rebinds the library's functions to timing wrappers. A
function is rebound under every name it is bound to: in each `quatspec`
module's globals and in dicts held there (such as the CLI's mode table), so
calls through any import path, including a module's own globals, are seen.
LAPACK entry points of numpy and scipy are rebound the same way across
`numpy.linalg*` and `scipy.linalg*`, which also catches the SVD that
`np.linalg.norm(x, 2)` runs inside `numpy.linalg._linalg`.

Wrappers record only while `active` is set, so the benchmark's own reference
checks stay out of the numbers.

A span's total time counts only its outermost active call; its self time is
its duration minus the time of the spans it called.
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> (module, attribute path) of the function it wraps
SPANS = {
    "cli.load_matrix": ("quatspec.cli", "_load_matrix"),
    "cli.emit": ("quatspec.cli", "_emit"),
    "calculus.build_context": ("quatspec.calculus", "build_context"),
    "calculus.normal_eigensystem": ("quatspec.calculus", "_normal_eigensystem"),
    "calculus.assign_clusters": ("quatspec.calculus", "_assign_clusters"),
    "calculus.symplectic_half_basis": ("quatspec.calculus", "_symplectic_half_basis"),
    "calculus.slice_regular_contour": ("quatspec.calculus", "slice_regular_contour"),
    "calculus.intrinsic_calculus": ("quatspec.calculus", "intrinsic_calculus"),
    "calculus.cslice_calculus": ("quatspec.calculus", "cslice_calculus"),
    "calculus.circular_calculus": ("quatspec.calculus", "circular_calculus"),
    "calculus.general_calculus": ("quatspec.calculus", "general_calculus"),
    "qmatrix.op_norm": ("quatspec.qmatrix", "op_norm"),
    "qmatrix.polar_decompose": ("quatspec.qmatrix", "polar_decompose"),
    "qmatrix.chi_extract": ("quatspec.qmatrix", "chi_extract"),
    "qmatrix.chi_embed": ("quatspec.qmatrix", "chi_embed"),
    "qmatrix.is_normal": ("quatspec.qmatrix", "is_normal"),
    "qmatrix.extend_complex_operator": ("quatspec.qmatrix", "extend_complex_operator"),
    "qmatrix.matmul": ("quatspec.qmatrix", "QMatrix.__matmul__"),
    "qmatrix.random_normal": ("quatspec.qmatrix", "random_normal"),
    "qmatrix.random_unitary": ("quatspec.qmatrix", "random_unitary"),
    "spectral.spherical_spectrum": ("quatspec.spectral", "spherical_spectrum"),
    "spectral.cluster_points": ("quatspec.spectral", "cluster_points"),
    "spectral.gelfand_check": ("quatspec.spectral", "gelfand_check"),
    "spectral.resolvent_series": ("quatspec.spectral", "resolvent_series"),
    "slicefn.decompose_components": ("quatspec.slicefn", "decompose_components"),
    "slicefn.is_intrinsic": ("quatspec.slicefn", "is_intrinsic"),
    "slicefn.is_circular": ("quatspec.slicefn", "is_circular"),
    "slicefn.is_cslice": ("quatspec.slicefn", "is_cslice"),
    "slicefn.sup_norm": ("quatspec.slicefn", "sup_norm"),
    "slicefn.slice_product": ("quatspec.slicefn", "slice_product"),
    "verify.verify_algebra": ("quatspec.verify", "verify_algebra"),
    "verify.verify_spectral": ("quatspec.verify", "verify_spectral"),
    "verify.verify_calculus": ("quatspec.verify", "verify_calculus"),
}

# counter name -> entry points it counts. Functions that reach another
# listed entry point internally (scipy's eigvals calls eig, eigvalsh calls
# eigh, svdvals calls svd) are counted through that inner call only.
LAPACK_COUNTS = {
    "count.lapack_svd": [("numpy.linalg", "svd"), ("scipy.linalg", "svd")],
    "count.lapack_schur": [("scipy.linalg", "schur")],
    "count.lapack_eigvals": [("numpy.linalg", "eigvals"), ("numpy.linalg", "eig"),
                             ("scipy.linalg", "eig")],
    "count.lapack_eigh": [("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
                          ("scipy.linalg", "eigh")],
    "count.lapack_solve": [("numpy.linalg", "solve"), ("scipy.linalg", "solve"),
                           ("scipy.linalg", "solve_triangular"),
                           ("scipy.linalg", "lu_solve")],
}

COUNTS = ["count.stem_eval", "count.quaternion_new", *LAPACK_COUNTS]


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    *owners, attr = path.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


def _rebind(original, wrapper, prefixes: tuple[str, ...]) -> None:
    """Replace every module-global binding of `original`, and every value in
    a module-global dict, in the modules under the given name prefixes."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith(prefixes):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper


class Tracer:
    def __init__(self):
        self.active = False
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._depth = dict.fromkeys(SPANS, 0)
        self.reset()

    def reset(self) -> None:
        """Start a new op: zero every span and counter."""
        self.spans = {name: [0, 0.0, 0.0] for name in SPANS}
        self.counts = dict.fromkeys(COUNTS, 0)

    def snapshot(self) -> dict:
        """Per-op record: span calls, total and self time (ms), counts."""
        out = {}
        for name, (calls, total, self_time) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_ms"] = total * 1e3
            out[f"{name}.self_ms"] = self_time * 1e3
        out.update(self.counts)
        return out

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                rec = self.spans[name]
                rec[0] += 1
                if depth[name] == 0:
                    rec[1] += dt
                rec[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function; call after `quatspec` is imported."""
        for name, (module, path) in SPANS.items():
            try:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
            except (KeyError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._span(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper, ("quatspec",))

        for name, entries in LAPACK_COUNTS.items():
            for module, attr in entries:
                original = getattr(sys.modules.get(module), attr, None)
                if original is not None:
                    _rebind(original, self._counter(name, original),
                            ("numpy.linalg", "scipy.linalg", "quatspec"))

        try:
            stem = sys.modules["quatspec.slicefn"].StemFunction
            stem.eval = self._counter("count.stem_eval", stem.eval)
        except (KeyError, AttributeError):
            self.missing.append("count.stem_eval")

        def counting_new(cls, *args, **kwargs):
            if self.active:
                self.counts["count.quaternion_new"] += 1
            return object.__new__(cls)

        quaternion = getattr(sys.modules.get("quatspec.quaternion"), "Quaternion", None)
        if quaternion is None or quaternion.__new__ is not object.__new__:
            self.missing.append("count.quaternion_new")
        else:
            quaternion.__new__ = staticmethod(counting_new)
