"""Slice functions on circular subsets of H, each induced by its stem
function on a conjugation-invariant subset of C.

A stem function F = F1 + I*F2 has H-valued components with F1 even and F2 odd
in Im(z); it induces the slice function f(alpha + iota*beta) =
F1(alpha + i beta) + iota F2(alpha + i beta). One class, `SliceFunction`,
holds both: f is determined by its stem, so the stem's kind, coefficients and
domain are f's. The slice product is the product of stems in H(x)C, which
differs from the pointwise product in general.

The stem has one evaluator, `SliceFunction.stem_values(zs)`: the components
of F1 and F2 at m points as one (m, 2, 4) array, the layout of H(x)C arrays
in `qmatrix`. A polynomial stem stores its monomials X^h Y^k sparsely, as
(T, 2) exponents and (T, 2, 4) coefficients in that layout, so the stem
algebra is written once on such arrays: the product (`_hc_mul`), the star
(`_hc_star`), the sum and the component projection act on the coefficients
when every operand is a polynomial (the product on every pair, exponents
added) and on the values otherwise. The even/odd parity of a polynomial is
checked once, in `SliceFunction.polynomial`, where terms enter; the algebra
keeps it exactly; a tabulated stem is always checked for it when built.
`SliceFunction.values(qs)` gives f at (m, 4) arrays of quaternions.

Contents:

- `CircularSet` - finite circular set: upper-half-plane representatives
  (alpha, beta) with multiplicities; the spherical spectrum is one
- `cluster_points` - the connected-components merge behind every spectrum
  clustering
- `SliceFunction` - poly / builtin / tabulated / derived function with its
  domain, its stem evaluator, evaluation and the algebra
- `slice_product`, `slice_add`, `slice_star`, `decompose_components`,
  `sup_norm`
- the class predicates `is_intrinsic`, `is_circular`, `is_cslice`, each
  the gate of one calculus
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError, _check_keys
from .qmatrix import _hc_mul, _hc_norm, _hc_star, _qmul
from .quaternion import REAL_TOL, Quaternion, SpherePoint

DOMAIN_TOL = 1e-8  # accept a point as inside a finite domain within this


class CircularSet:
    """Finite circular subset of H, stored as its closed-upper-half-plane
    representatives (alpha, beta >= 0), sorted by (alpha, beta), each with an
    integer multiplicity (1 unless given). The input is not merged: callers
    that know the scale cluster first (`cluster_points`)."""

    __slots__ = ("reps", "mult")

    def __init__(self, reps, mult=None):
        arr = np.array(reps, dtype=float).reshape(-1, 2)
        if arr.size and arr[:, 1].min() < -DOMAIN_TOL:
            raise PreconditionError("representatives must have beta >= 0")
        arr[:, 1] = np.maximum(arr[:, 1], 0.0)
        mult = (1,) * len(arr) if mult is None else tuple(int(m) for m in mult)
        if len(mult) != len(arr):
            raise PreconditionError("one multiplicity per representative required")
        order = np.lexsort((arr[:, 1], arr[:, 0]))
        self.reps = arr[order]
        self.mult = tuple(mult[i] for i in order)

    @property
    def size(self) -> int:
        return self.reps.shape[0]

    def radius(self) -> float:
        return float(np.hypot(self.reps[:, 0], self.reps[:, 1]).max(initial=0.0))

    def as_complex(self) -> np.ndarray:
        return self.reps[:, 0] + 1j * self.reps[:, 1]

    def distance(self, alpha, beta) -> np.ndarray:
        """Distance from each folded point (alpha, |beta|) to the set;
        alpha and beta are scalars or arrays of one shape."""
        d = np.hypot(self.reps[:, 0] - np.expand_dims(alpha, -1),
                     self.reps[:, 1] - np.abs(np.expand_dims(beta, -1)))
        return d.min(axis=-1, initial=math.inf)

    def contains(self, alpha, beta, tol: float = DOMAIN_TOL) -> np.ndarray:
        return self.distance(alpha, beta) <= tol

    def matches(self, other: "CircularSet") -> bool:
        return hausdorff(self.reps, other.reps) <= DOMAIN_TOL

    def to_json(self) -> dict:
        return {
            "reps": [[float(a), float(b)] for a, b in self.reps],
            "mult": list(self.mult),
            "radius": self.radius(),
        }

    @classmethod
    def from_json(cls, data) -> "CircularSet":
        # `radius`, which `to_json` writes, is derived and not read
        _check_keys(data, "domain", {"reps"}, {"mult", "radius"})
        reps = np.asarray(data["reps"], dtype=float).reshape(-1, 2)
        bad = ~np.isfinite(reps).all(axis=1)
        if bad.any():
            raise PreconditionError(f"representative {reps[bad][0].tolist()} is not finite")
        mult = data.get("mult")
        if mult is not None and not all(type(m) is int and m >= 1 for m in mult):
            raise PreconditionError(f"multiplicities must be positive integers, got {mult}")
        return cls(reps, mult)

    def __repr__(self) -> str:
        pts = ", ".join(f"({a:.6g}, {b:.6g})x{m}" for (a, b), m in zip(self.reps, self.mult))
        return f"CircularSet[{pts}]"


def cluster_points(points, tol: float) -> tuple[np.ndarray, list[list[int]]]:
    """Connected components of the graph joining 2D points within `tol`.

    Two points within `tol` of each other always share a cluster, whatever
    their order, so a point and its conjugate partner are never split. The
    points are ranked in lexicographic order and each takes the smallest
    rank among its neighbours until no label moves, on one distance matrix.
    A centroid is the running mean of its members in rank order, taken rank
    by rank across all clusters at once. Returns the lexicographically
    sorted centroids and, in the same order, the indices of the points each
    centroid merged, in rank order.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    ranked = np.lexsort((points[:, 1], points[:, 0]))
    p = points[ranked]
    near = np.hypot(p[:, None, 0] - p[None, :, 0], p[:, None, 1] - p[None, :, 1]) <= tol
    label = np.arange(len(p))
    while True:
        moved = np.where(near, label, label[:, None]).min(axis=1, initial=len(p))
        if np.array_equal(moved, label):
            break
        label = moved
    roots = np.flatnonzero(label == np.arange(len(p)))  # one per cluster, by first rank
    by_cluster = np.argsort(np.searchsorted(roots, label), kind="stable")
    sizes = np.bincount(label, minlength=len(p))[roots]
    starts = np.cumsum(sizes) - sizes
    cent = p[by_cluster[starts]]
    for k in range(1, sizes.max(initial=0)):
        grow = sizes > k
        cent[grow] += (p[by_cluster[starts[grow] + k]] - cent[grow]) / (k + 1)
    members = [ranked[by_cluster[lo:lo + size]].tolist() for lo, size in zip(starts, sizes)]
    order = np.lexsort((cent[:, 1], cent[:, 0]))
    return cent[order], [members[i] for i in order]


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two finite sets of (alpha, beta) points."""
    return max(one_sided_hausdorff(a, b), one_sided_hausdorff(b, a))


def one_sided_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """sup over a of the distance to b (0 if a is empty, inf if only b is)."""
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    d = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    return float(d.min(axis=1, initial=math.inf).max(initial=0.0))


# -- stems --------------------------------------------------------------------

_POLY_SYM_TOL = 1e-12  # wrong-parity part of a polynomial, relative to its part

# builtin stems: name -> (F1(alpha, beta), F2(alpha, beta), domain predicate),
# each evaluated on arrays. All builtins have real-valued components, hence
# induce intrinsic functions.
_BUILTINS = {
    "id": (lambda a, b: a, lambda a, b: b, None),
    "conj": (lambda a, b: a, lambda a, b: -b, None),
    "re": (lambda a, b: a, lambda a, b: 0.0, None),
    "im": (lambda a, b: np.abs(b), lambda a, b: 0.0, None),
    "square": (lambda a, b: a * a - b * b, lambda a, b: 2.0 * a * b, None),
    "exp": (lambda a, b: np.exp(a) * np.cos(b),
            lambda a, b: np.exp(a) * np.sin(b), None),
    "sqrt": (lambda a, b: np.sqrt(np.maximum(a, 0.0)), lambda a, b: 0.0,
             lambda a, b, tol: (np.abs(b) <= tol) & (a >= -tol)),
    "one": (lambda a, b: 1.0, lambda a, b: 0.0, None),
}

# the required and the optional keys of a function's JSON document, by kind
_JSON_KEYS = {"poly": ({"kind"}, {"Q1", "Q2", "domain"}),
              "builtin": ({"kind", "name"}, {"domain"})}

# builtins whose star is again a named builtin
_BUILTIN_STAR = {"id": "conj", "conj": "id", "re": "re", "im": "im",
                 "sqrt": "sqrt", "one": "one"}


def _as_quat_coef(c) -> Quaternion:
    if isinstance(c, Quaternion):
        return c
    if isinstance(c, (int, float)):
        return Quaternion(float(c))
    return Quaternion.from_json(c)


def _poly_stem(exps, coefs, domain: CircularSet | None = None) -> "SliceFunction":
    """The polynomial stem sum of c X^h Y^k over the rows of the exponents
    (..., 2) and the coefficients (..., 2, 4): equal exponents summed into
    one row (rows sorted by (h, k)), a non-finite sum rejected, and rows of
    norm <= 1e-30 dropped. Exponents below 0 can only come from a product
    that passed 2^63 and wrapped around; they are rejected. The even/odd
    parity is checked where terms enter (`SliceFunction.polynomial`); the
    sums, products, stars and components of valid stems keep it exactly."""
    if np.min(exps, initial=0) < 0:
        raise PreconditionError("a monomial exponent of the product exceeds 2^63 - 1")
    # merge by a lexsort on (h, k): exact for every int64, unlike a 1-D key
    rows = np.reshape(exps, (-1, 2))
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    exps = rows[new]
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    merged = np.zeros((len(exps), 2, 4))
    np.add.at(merged, inverse, np.reshape(coefs, (-1, 2, 4)))
    infinite = ~np.isfinite(merged).all(axis=2)
    if infinite.any():
        t, part = np.argwhere(infinite)[0]
        raise PreconditionError(f"monomial X^{exps[t, 0]} Y^{exps[t, 1]} has a non-finite "
                                f"coefficient {merged[t, part].tolist()}")
    keep = np.linalg.norm(merged, axis=2).max(axis=1) > 1e-30
    return SliceFunction("poly", exps=exps[keep], coefs=merged[keep], domain=domain)


class SliceFunction:
    """Slice function f = I(F) induced by its stem F = F1 + I F2, with F1
    even and F2 odd in Im z: f(alpha + iota beta) = F1 + iota F2 at
    alpha + i beta.

    kind is one of "poly" (sparse quaternion-coefficient monomials in the real
    variables X = Re z, Y = Im z), "builtin" (named evaluator), "tabulated"
    (opaque callable of one point, validated by sampling conjugate pairs) or
    "derived" (`fn` maps the points to their (m, 2, 4) values, computed from
    the values of other stems). A polynomial stores one row per monomial:
    `exps` (T, 2) holds (h, k) of X^h Y^k and `coefs` (T, 2, 4) its F1 and F2
    coefficients, the layout of `stem_values`. Evaluators must be pure;
    instances are immutable and safe to share.
    """

    __slots__ = ("kind", "exps", "coefs", "name", "fn", "domain", "_operands")

    def __init__(self, kind, *, exps=None, coefs=None, name=None, fn=None, domain=None):
        self.kind = kind
        self.exps = exps
        self.coefs = coefs
        self.name = name
        self.fn = fn
        self.domain = domain
        self._operands = ()  # the stems a derived stem is computed from (`_derived`)

    # -- constructors -------------------------------------------------------------

    @classmethod
    def polynomial(cls, q1_terms, q2_terms, domain: CircularSet | None = None) -> "SliceFunction":
        """Q1 + I Q2 from the (h, k, coefficient) monomials of each part.

        Terms enter from outside only here (`constant`, `from_json` and
        `polynomial_calculus` come through), so the parity is checked here:
        on the merged sums, a part of the wrong parity in Y (odd in F1, even
        in F2) is rejected above the 1e-12 structural tolerance, relative to
        max(1, the largest row norm of its part), and dropped below it,
        together with a row that held nothing else. The merged rows are
        sorted, unique and finite, with no -0.0, so a mask on their norms
        drops the emptied rows; no second merge is needed."""
        exps, coefs = [], []
        for part, terms in enumerate((q1_terms, q2_terms)):
            for h, k, c in terms:
                # exponents are non-negative int64 values, and a bool is not one
                if not all(isinstance(e, (int, np.integer)) and not isinstance(e, bool)
                           and 0 <= e < 2 ** 63 for e in (h, k)):
                    raise PreconditionError(f"monomial X^{h!r} Y^{k!r}: exponents must be "
                                            "non-negative integers below 2^63")
                exps.append((h, k))
                coefs.append(np.zeros((2, 4)))
                coefs[-1][part] = _as_quat_coef(c).components()
        f = _poly_stem(np.array(exps, dtype=np.int64), np.array(coefs), domain)
        norms = np.linalg.norm(f.coefs, axis=2)
        odd = f.exps[:, 1] % 2 == 1
        wrong = np.column_stack([odd, ~odd])
        scale = np.maximum(1.0, norms.max(axis=0, initial=0.0))
        violates = wrong & (norms > _POLY_SYM_TOL * scale)
        if violates.any():
            h, k = f.exps[np.argwhere(violates)[0, 0]]
            raise PreconditionError(f"monomial X^{h} Y^{k} violates the even/odd stem symmetry")
        f.coefs[wrong] = 0.0
        keep = np.where(wrong, 0.0, norms).max(axis=1) > 1e-30
        return cls("poly", exps=f.exps[keep], coefs=f.coefs[keep], domain=domain)

    @classmethod
    def builtin(cls, name: str, domain: CircularSet | None = None) -> "SliceFunction":
        if name not in _BUILTINS:
            raise PreconditionError(
                f"unknown builtin {name!r}; available: {sorted(_BUILTINS)}")
        return cls("builtin", name=name, domain=domain)

    @classmethod
    def constant(cls, value) -> "SliceFunction":
        return cls.polynomial([(0, 0, value)], [])

    @classmethod
    def tabulated(cls, fn) -> "SliceFunction":
        """The stem z -> fn(z) = (F1, F2) on C, always checked to be an
        even/odd pair: F1(conj z) = F1(z) and F2(conj z) = -F2(z) on the
        sample points, within 1e-10 of max(1, the norm of the values)."""
        f = cls("tabulated", fn=fn)
        zs = f._sample_zs()
        plus, minus = f.stem_values(zs), f.stem_values(zs.conj())
        scale = 1e-10 * np.maximum(1.0, np.linalg.norm(plus, axis=2).max(axis=1))
        bad = ((np.linalg.norm(plus[:, 0] - minus[:, 0], axis=1) > scale)
               | (np.linalg.norm(plus[:, 1] + minus[:, 1], axis=1) > scale))
        if bad.any():
            raise PreconditionError(
                f"stem components are not an even/odd pair at z = {zs[np.argmax(bad)]}")
        return f

    # -- evaluation -------------------------------------------------------------

    def stem_values(self, zs) -> np.ndarray:
        """(m, 2, 4) array: row m holds the quaternion components of F1 and
        F2 at the m-th of the points zs (complex, any shape)."""
        zs = np.asarray(zs, dtype=complex).reshape(-1)
        if self.kind == "derived":
            return self.fn(zs)
        a, b = zs.real, zs.imag
        if self.kind == "poly":
            powers = a[:, None] ** self.exps[:, 0] * b[:, None] ** self.exps[:, 1]
            return np.einsum("mt,tpc->mpc", powers, self.coefs)
        out = np.zeros((zs.size, 2, 4))
        if self.kind == "builtin":
            f1, f2, _ = _BUILTINS[self.name]
            out[:, 0, 0] = f1(a, b)
            out[:, 1, 0] = f2(a, b)
        else:
            for m, z in enumerate(zs.tolist()):
                v1, v2 = self.fn(z)
                out[m] = _as_quat_coef(v1).components(), _as_quat_coef(v2).components()
        return out

    def values(self, qs) -> np.ndarray:
        """(m, 4) array: f at each of the quaternions qs, given as rows of
        components. With q = alpha + iota beta (beta >= 0), f(q) = F1 + iota
        F2 at alpha + i beta; at a real q (|Im q| <= REAL_TOL |q|) it is
        F1(alpha)."""
        qs = np.asarray(qs, dtype=float).reshape(-1, 4)
        alpha, beta = qs[:, 0], np.linalg.norm(qs[:, 1:], axis=1)
        beta[beta <= REAL_TOL * np.linalg.norm(qs, axis=1)] = 0.0
        inside = self.accepts(alpha, beta)
        if not inside.all():
            raise PreconditionError(
                f"point {Quaternion(*qs[np.argmin(inside)])} is outside the function domain")
        iota = np.zeros_like(qs)  # 0 at the real points, where f = F1
        iota[beta > 0, 1:] = qs[beta > 0, 1:] / beta[beta > 0, None]
        vals = self.stem_values(alpha + 1j * beta)
        return vals[:, 0] + _qmul(iota, vals[:, 1])

    def accepts(self, alpha, beta, tol: float = DOMAIN_TOL) -> np.ndarray:
        """Mask of the points (alpha, beta), scalars or arrays of one shape,
        that lie in the domain (of every operand, for a derived stem)."""
        ok = np.ones(np.broadcast(alpha, beta).shape, dtype=bool)
        pred = _BUILTINS[self.name][2] if self.kind == "builtin" else None
        if pred is not None:
            ok &= pred(alpha, beta, tol)
        for f in self._operands:
            ok &= f.accepts(alpha, beta, tol)
        if self.domain is not None:
            ok &= self.domain.contains(alpha, beta, tol)
        return ok

    def _sample_zs(self) -> np.ndarray:
        """The domain points, else 64 points with beta > 0 (classification
        pairs them with their conjugates) and four real points."""
        if self.domain is not None and self.domain.size:
            return self.domain.as_complex()
        grid = np.linspace(-1.5, 1.5, 8)[:, None] + 1j * np.linspace(0.15, 1.6, 8)
        return np.concatenate([grid.ravel(), [-1.0, -0.25, 0.5, 1.25]])

    # -- algebra ------------------------------------------------------------------

    def star(self) -> "SliceFunction":
        return slice_star(self)

    def __mul__(self, other: "SliceFunction") -> "SliceFunction":
        return slice_product(self, other)

    def __add__(self, other: "SliceFunction") -> "SliceFunction":
        return slice_add(self, other)

    def __neg__(self) -> "SliceFunction":
        return slice_product(SliceFunction.constant(-1.0), self)

    def __sub__(self, other: "SliceFunction") -> "SliceFunction":
        return slice_add(self, -other)

    # -- serialization ------------------------------------------------------------

    @classmethod
    def from_json(cls, data) -> "SliceFunction":
        """The function of a JSON document: an object with a known `kind` and
        that kind's keys (`_JSON_KEYS`), no other."""
        if not (isinstance(data, dict) and "kind" in data):
            _check_keys(data, "function", {"kind"}, set())  # names what is missing
        kind = data["kind"]
        if not (isinstance(kind, str) and kind in _JSON_KEYS):
            raise PreconditionError(f"unknown stem kind {kind!r}")
        _check_keys(data, f"{kind} function", *_JSON_KEYS[kind])
        domain = CircularSet.from_json(data["domain"]) if "domain" in data else None
        if kind == "poly":
            terms1 = [(h, k, Quaternion.from_json(c)) for h, k, c in data.get("Q1", [])]
            terms2 = [(h, k, Quaternion.from_json(c)) for h, k, c in data.get("Q2", [])]
            return cls.polynomial(terms1, terms2, domain=domain)
        return cls.builtin(data["name"], domain=domain)


def _merged_domain(f: SliceFunction, g: SliceFunction) -> CircularSet | None:
    a, b = f.domain, g.domain
    if a is None:
        return b
    if b is None:
        return a
    if not a.matches(b):
        raise PreconditionError("slice functions live on different domains")
    return a


def _derived(op, domain: CircularSet | None, *fs: SliceFunction) -> SliceFunction:
    """The slice function of the stem z -> op(F(z), G(z), ...) of the
    operands' stems, op a map on (m, 2, 4) value arrays, defined where every
    operand is."""
    g = SliceFunction("derived", fn=lambda zs: op(*(f.stem_values(zs) for f in fs)),
                      domain=domain)
    g._operands = fs
    return g


def slice_product(f: SliceFunction, g: SliceFunction) -> SliceFunction:
    """Slice product induced by the stem product in H(x)C,
    FG = (F1 G1 - F2 G2) + I (F1 G2 + F2 G1): on two polynomials the product
    of every coefficient pair with the exponents added, else of the values."""
    domain = _merged_domain(f, g)
    if f.kind == "poly" and g.kind == "poly":
        return _poly_stem(f.exps[:, None] + g.exps[None],
                          _hc_mul(f.coefs[:, None], g.coefs[None]), domain)
    return _derived(_hc_mul, domain, f, g)


def slice_add(f: SliceFunction, g: SliceFunction) -> SliceFunction:
    """Pointwise sum, realized on stems."""
    domain = _merged_domain(f, g)
    if f.kind == "poly" and g.kind == "poly":
        return _poly_stem(np.concatenate([f.exps, g.exps]),
                          np.concatenate([f.coefs, g.coefs]), domain)
    return _derived(np.add, domain, f, g)


def slice_star(f: SliceFunction) -> SliceFunction:
    """The *-involution f* induced by F* = conj(F1) - I conj(F2)."""
    if f.kind == "poly":
        return _poly_stem(f.exps, _hc_star(f.coefs), f.domain)
    if f.kind == "builtin" and f.name in _BUILTIN_STAR:
        return SliceFunction.builtin(_BUILTIN_STAR[f.name], f.domain)
    return _derived(_hc_star, f.domain, f)


# -- classification ---------------------------------------------------------------

_CLASS_TOL = 1e-9  # tolerance of the class predicates


def _class_values(f: SliceFunction) -> tuple[np.ndarray, np.ndarray]:
    """The (m, 4) arrays of F1 and F2 values that decide the class of f: the
    coefficients of a polynomial stem (which decide it exactly), else the
    values on the stem's sample points."""
    vals = f.coefs if f.kind == "poly" else f.stem_values(f._sample_zs())
    return vals[:, 0], vals[:, 1]


def _within(resid: np.ndarray, values: np.ndarray, tol: float) -> bool:
    """Every row of resid is below tol relative to max(1, |its value|)."""
    scale = np.maximum(1.0, np.linalg.norm(values, axis=-1))
    return bool((np.linalg.norm(resid, axis=-1) <= tol * scale).all())


def is_intrinsic(f: SliceFunction) -> bool:
    """F1 and F2 real-valued; equivalently f(conj q) = conj(f(q))."""
    vals = np.concatenate(_class_values(f))
    return _within(vals[:, 1:], vals, _CLASS_TOL)


def is_circular(f: SliceFunction) -> bool:
    """F2 identically zero; equivalently f(conj q) = f(q), each F2 row within
    _CLASS_TOL * max(1, |F1|) of its row (F1 = 0 where F2 != 0 in a polynomial)."""
    f1, f2 = _class_values(f)
    return _within(f2, f1, _CLASS_TOL)


def is_cslice(f: SliceFunction, iota: SpherePoint) -> bool:
    """F1 and F2 take values in the slice C_iota."""
    vals = np.concatenate(_class_values(f))
    axis = np.array([iota.b, iota.c, iota.d])
    ims = vals[:, 1:]
    return _within(ims - np.outer(ims @ axis, axis), vals, _CLASS_TOL)


def decompose_components(f: SliceFunction, iota: SpherePoint, kappa: SpherePoint,
                         ) -> tuple[SliceFunction, SliceFunction, SliceFunction, SliceFunction]:
    """Split f = f0 + f1*iota + f2*kappa + f3*(iota kappa) with every
    component an intrinsic slice function.

    Requires {1, iota, kappa, iota*kappa} to be an orthonormal basis of H,
    i.e. iota*kappa = -kappa*iota.
    """
    if (iota * kappa + kappa * iota).norm() > 1e-10:
        raise PreconditionError("iota and kappa do not anticommute; basis is degenerate")
    basis = np.array([(1.0, 0.0, 0.0, 0.0), iota.components(), kappa.components(),
                      (iota * kappa).components()])

    def component(e: np.ndarray) -> SliceFunction:
        project = np.outer(e, [1.0, 0.0, 0.0, 0.0])  # x @ project = <x, e> + 0 i + 0 j + 0 k
        if f.kind == "poly":
            return _poly_stem(f.exps, f.coefs @ project, f.domain)
        return _derived(lambda x: x @ project, f.domain, f)

    return tuple(component(e) for e in basis)


def sup_norm(f: SliceFunction, points: CircularSet) -> float:
    """Sup norm over the circular set: max over K of the C*-norm of F(z)."""
    if points.size == 0:
        raise PreconditionError("cannot take a sup over an empty set")
    return float(_hc_norm(f.stem_values(points.as_complex())).max())
