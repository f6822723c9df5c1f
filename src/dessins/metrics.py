"""Conformal metrics on the Riemann sphere.

A metric is one stored representation: a stack of 2x2 matrices ``M`` and
an optional 2x2 Hermitian form ``H``.  Its density is the mean over the
stack of a closed-form density pulled back along each ``M``.  Points are
homogeneous pairs ``(P, R)``: the finite chart is ``(z, 1)`` and the chart
``u = 1/z`` is ``(1, u)``.  With ``(p, r) = M (P, R)`` the term of ``M`` is

    4 |det M|^2 [h11 (|p|^4 + |r|^4) + 2 h22 |p|^2 |r|^2
                 + 2 Re(h12 conj(p) r) (|r|^2 - |p|^2)] / (|p|^2 + |r|^2)^4,

and without a form (``H = I``) it is the round-metric pullback
``4 |det M|^2 / (|p|^2 + |r|^2)^2``.  Each term is homogeneous of degree
-4 and smooth on the whole sphere, so both charts come from the same
kernel and ``rho(z) = rho_at_infinity(1/z) / |z|^4`` holds by
construction.  Pulling a metric back along ``g`` right-multiplies its
stack.

``|p|^2``, ``|r|^2`` and ``Re(h12 conj(p) r)`` are Hermitian forms in
``(P, R)``, derived once per metric, so evaluation is real arithmetic on
the per-point monomials ``|P|^2``, ``|R|^2`` and ``conj(P) R``.

Constructions:

* the round sphere of radius 1, ``4 |dz|^2 / (1 + |z|^2)^2`` (stack ``[I]``);
* pullbacks along Moebius transformations;
* the group average of round-metric pullbacks (invariant for any finite
  group, curvature not constant in general);
* the pullback of the round metric through the unitarizing conjugator
  (non-cyclic groups only; constant curvature 1 and conjugator-independent);
* the group-symmetrized restriction of the averaged Hermitian form to the
  embedded sphere (the only construction that carries a form);
* the average of round-metric pullbacks over Moebius maps anchored at
  triples drawn from the three orbits of the fixed-point set.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import CyclicGroupUnsupported, StencilOutOfDomain, UnsupportedType
from .finite_groups import (FiniteMoebiusGroup, averaged_hermitian_form,
                            orbit_analysis, unitarize)
from .moebius import MoebiusTransform, as_sphere_point, from_triple

DEFAULT_CURVATURE_STEP = 1e-3
DEFAULT_SAMPLES = 200
_CHUNK_BUDGET = 4_000_000  # max form-point pairs per vectorized block


def _form_coefficients(forms: np.ndarray) -> np.ndarray:
    """Real coefficients of v^H E v on the monomials (|P|^2, |R|^2, Re w, Im w), w = conj(P) R."""
    return np.stack([forms[:, 0, 0].real, forms[:, 1, 1].real,
                     2.0 * forms[:, 0, 1].real, -2.0 * forms[:, 0, 1].imag], axis=1)


class ConformalMetric:
    """Mean over a (K, 2, 2) matrix stack of the density pulled back along each matrix."""

    def __init__(self, stack, form=None, provenance: str = "custom"):
        self.stack = np.asarray(stack, dtype=complex).reshape(-1, 2, 2)
        self.form = None if form is None else np.asarray(form, dtype=complex)
        self.provenance = provenance
        m = self.stack
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        self._weights = 4.0 * np.abs(det) ** 2 / len(m)
        row1, row2 = m[:, 0, :], m[:, 1, :]
        if self.form is None:
            forms = [np.conj(np.transpose(m, (0, 2, 1))) @ m]  # |p|^2 + |r|^2
        else:
            cross = np.conj(row1)[:, :, None] * row2[:, None, :]  # conj(p) r
            h12 = self.form[0, 1]
            forms = [np.conj(row1)[:, :, None] * row1[:, None, :],  # |p|^2
                     np.conj(row2)[:, :, None] * row2[:, None, :],  # |r|^2
                     (h12 * cross + np.conj(h12 * np.transpose(cross, (0, 2, 1)))) / 2.0]
        self._coef = np.concatenate([_form_coefficients(f) for f in forms])

    def rho(self, z):
        """Conformal factor in the finite chart: the kernel at (z, 1)."""
        return self._chart(z, finite=True)

    def rho_at_infinity(self, u):
        """Conformal factor in the chart u = 1/z: the kernel at (1, u)."""
        return self._chart(u, finite=False)

    def _chart(self, coords, finite: bool):
        arr = np.asarray(coords, dtype=complex)
        vals = self._density(*_homogeneous(arr.ravel(), finite))
        return float(vals[0]) if arr.shape == () else vals.reshape(arr.shape)

    def _density(self, p: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Mean stack density at the homogeneous points (p, r), 1-d arrays.

        Overflow, division by zero and invalid operations raise
        FloatingPointError: a term that leaves the floats is not a density.
        """
        out = np.empty(p.shape[0])
        chunk = max(1, _CHUNK_BUDGET // self._coef.shape[0])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for s in range(0, out.shape[0], chunk):
                pc, rc = p[s:s + chunk], r[s:s + chunk]
                w = np.conj(pc) * rc
                mono = np.stack([pc.real ** 2 + pc.imag ** 2, rc.real ** 2 + rc.imag ** 2,
                                 w.real, w.imag])
                q = self._coef @ mono
                if self.form is None:
                    q *= q
                    terms = np.reciprocal(q, out=q)
                else:
                    h11, h22 = self.form[0, 0].real, self.form[1, 1].real
                    pp, rr, cross = q.reshape(3, len(self.stack), -1)
                    n2 = (pp + rr) ** 2
                    terms = ((h11 * (pp * pp + rr * rr) + 2.0 * h22 * pp * rr
                              + 2.0 * cross * (rr - pp)) / (n2 * n2))
                out[s:s + chunk] = self._weights @ terms
        return out


def _homogeneous(coords: np.ndarray, finite: bool):
    """Homogeneous points of chart coordinates: (z, 1) in the finite chart, (1, u) in the other."""
    one = np.ones_like(coords)
    return (coords, one) if finite else (one, coords)


def round_metric() -> ConformalMetric:
    """The radius-1 round sphere: 4 / (1 + |.|^2)^2 in both charts."""
    return ConformalMetric(np.eye(2), provenance="round")


def pullback(m: MoebiusTransform, g: ConformalMetric) -> ConformalMetric:
    """The metric h with h = g pulled back along m: rho_h = (rho_g ∘ m) |m'|^2."""
    return ConformalMetric(g.stack @ m.matrix, g.form, f"pullback[{g.provenance}]")


# ---------------------------------------------------------------------------
# the four group constructions

def averaged_metric(g: FiniteMoebiusGroup) -> ConformalMetric:
    """Group average of round-metric pullbacks; defined for every finite group.

    Invariant under g by construction and equal to the round metric when
    the group is already made of rotations.
    """
    return ConformalMetric(g.stack, provenance=f"average[{g.type_tag}]")


def conjugated_metric(g: FiniteMoebiusGroup) -> ConformalMetric:
    """Round metric pulled back through the unitarizing conjugator.

    Constant Gaussian curvature 1, invariant under g, and independent of
    the conjugator choice; cyclic groups are rejected because their
    normalizer leaves the conjugator essentially free.
    """
    if g.type_tag.is_cyclic:
        raise CyclicGroupUnsupported(
            f"{g.type_tag} is cyclic; the conjugated metric is not canonical")
    return ConformalMetric(unitarize(g).matrix, provenance=f"conjugate[{g.type_tag}]")


def hermitian_metric(g: FiniteMoebiusGroup) -> ConformalMetric:
    """Sphere metric from the averaged invariant Hermitian form.

    The sphere sits in C^2 as (z, t) with t real; the averaged form,
    restricted to its tangent planes and averaged over the two chart
    directions, is the kernel's form term.  That restriction is not
    preserved by non-rotation group elements, so the stack is the group
    itself: the mean of its pullbacks is exactly invariant and still
    reduces to the round metric whenever the group lies in the rotations.
    """
    return ConformalMetric(g.stack, averaged_hermitian_form(g),
                           f"hermitian[{g.type_tag}]")


def orbit_triple_matrices(g: FiniteMoebiusGroup) -> np.ndarray:
    """Matrices sending (0, 1, infinity) to the orbit triples of g.

    Orbits are sorted by decreasing size; triples run over the product of
    the three orbits, once per size-preserving reassignment of the orbit
    roles (orbits of equal size cannot be told apart).
    """
    data = orbit_analysis(g)
    sizes = data.sizes
    assignments = [p for p in itertools.permutations(range(3))
                   if all(sizes[p[i]] == sizes[i] for i in range(3))]
    mats = []
    for assign in assignments:
        triples = itertools.product(data.orbits[assign[0]].points,
                                    data.orbits[assign[1]].points,
                                    data.orbits[assign[2]].points)
        for p0, p1, p2 in triples:
            mats.append(from_triple(p0, p1, p2).matrix)
    return np.array(mats)


def orbit_triple_metric(g: FiniteMoebiusGroup) -> ConformalMetric:
    """Average of round-metric pullbacks over orbit-anchored transformations.

    Cyclic groups have no orbit triple and fall back to the round metric.
    A group classified as none of the finite sphere groups has no three
    orbits to anchor at and raises UnsupportedType.
    """
    if g.type_tag.is_cyclic:
        return ConformalMetric(np.eye(2), provenance=f"orbit-round-fallback[{g.type_tag}]")
    if g.type_tag.kind == "other":
        raise UnsupportedType("the orbit construction needs a dihedral, A4, S4 or A5 group, "
                              f"got a group of order {g.order} of none of these types")
    return ConformalMetric(orbit_triple_matrices(g), provenance=f"orbit[{g.type_tag}]")


# ---------------------------------------------------------------------------
# curvature (finite differences; works on any object with rho and rho_at_infinity)

def _stencil_values(g, chart: str, coords, h):
    """rho at the chart coordinates (row 0) and at their four neighbours at distance h."""
    rho = g.rho if chart == "finite" else g.rho_at_infinity
    coords = np.atleast_1d(np.asarray(coords, dtype=complex))
    offsets = np.array([0.0, h, -h, 1j * h, -1j * h])
    try:
        with np.errstate(all="ignore"):  # overflow is reported below, as the domain error
            stencil = coords[None, :] + offsets[:, None]
            vals = np.asarray(rho(stencil), dtype=float)
    except FloatingPointError:  # the kernel raises on its own overflow
        vals = np.array([np.nan])
    if np.any(stencil[1:] == coords):  # a Laplacian over a zero step reads as a silent 0
        raise StencilOutOfDomain(f"step {h!r} too small: a stencil point equals its centre")
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise StencilOutOfDomain("conformal factor undefined or non-positive "
                                 "on the finite-difference stencil")
    return vals


def _laplacian_curvature(vals, h):
    with np.errstate(all="ignore"):  # h * h underflows for tiny steps; reported below
        u = 0.5 * np.log(vals)
        lap = (u[1] + u[2] + u[3] + u[4] - 4.0 * u[0]) / (h * h)
        curv = -lap / vals[0]
    if not np.all(np.isfinite(curv)):
        raise StencilOutOfDomain("curvature not finite on the finite-difference stencil "
                                 "(step too small?)")
    return curv


def curvature_samples(g, chart: str, coords, step: float = DEFAULT_CURVATURE_STEP):
    """Gaussian curvature at an array of chart coordinates."""
    return _laplacian_curvature(_stencil_values(g, chart, coords, step), step)


def curvature(g, z, step: float = DEFAULT_CURVATURE_STEP) -> float:
    """Gaussian curvature at a point, by the 5-point Laplacian of log(rho)/2.

    Points with |z| > 1 (and infinity itself) are evaluated in the
    u = 1/z chart, where the stencil stays on the unit disc.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    p = as_sphere_point(z)
    if p.is_infinity:
        chart, w = "infinity", 0j
    elif abs(p.z) > 1.0:
        chart, w = "infinity", 1.0 / p.z
    else:
        chart, w = "finite", p.z
    return float(curvature_samples(g, chart, w, step)[0])


# ---------------------------------------------------------------------------
# sampling and diagnostics

def sphere_samples(n: int = DEFAULT_SAMPLES):
    """Deterministic spiral covering of the sphere, split by chart.

    Returns (finite-chart coordinates with |z| <= 1, infinity-chart
    coordinates with |u| < 1).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    i = np.arange(n)
    t = (2.0 * i + 1.0) / n - 1.0
    golden_angle = np.pi * (3.0 - np.sqrt(5.0))
    zc = np.sqrt(1.0 - t * t) * np.exp(1j * golden_angle * i)
    south = t <= 0.0
    finite = zc[south] / (1.0 - t[south])
    inf = (1.0 - t[~south]) / zc[~south]
    return finite, inf


def _sample_points(samples: int):
    """The spiral samples of both charts as one array of homogeneous points."""
    zf, uf = sphere_samples(samples)
    (p1, r1), (p2, r2) = _homogeneous(zf, True), _homogeneous(uf, False)
    return np.concatenate([p1, p2]), np.concatenate([r1, r2])


def invariance_defect(g: ConformalMetric, grp: FiniteMoebiusGroup,
                      samples: int = DEFAULT_SAMPLES) -> float:
    """sup over samples and the group's generators h of |rho(h(z)) |h'|^2 - rho(z)| / rho(z).

    Invariance under the generators gives invariance under the group.  The
    pulled-back density is the kernel of the stack ``S @ h`` at the samples
    themselves, so no sample is moved out to where its digits cancel.
    """
    p, r = _sample_points(samples)
    base = g._density(p, r)
    worst = 0.0
    for h in grp.generators:
        moved = ConformalMetric(g.stack @ h, g.form)._density(p, r)
        worst = max(worst, float(np.max(np.abs(moved - base) / base)))
    return worst


def metric_distance(g1: ConformalMetric, g2: ConformalMetric,
                    samples: int = DEFAULT_SAMPLES) -> float:
    """sup over samples of |rho1 - rho2| / rho2, over both charts."""
    p, r = _sample_points(samples)
    a = g1._density(p, r)
    b = g2._density(p, r)
    return float(np.max(np.abs(a - b) / b))


# ---------------------------------------------------------------------------
# report grid

def grid_points(n: int = 40) -> np.ndarray:
    """Tensor grid on [-1, 1]^2 clipped to the closed unit disc."""
    xs = np.linspace(-1.0, 1.0, n)
    z = (xs[:, None] + 1j * xs[None, :]).ravel()
    return z[np.abs(z) <= 1.0]


def metric_grid_columns(g: ConformalMetric, n: int = 40,
                        step: float = DEFAULT_CURVATURE_STEP):
    """Grid columns (re, im, chart, rho, curvature) over both charts, as numpy arrays.

    rho is the centre of the curvature stencil, so each point is evaluated once per offset.
    """
    pts = grid_points(n)
    charts = np.array(["finite", "infinity"], dtype=object)
    rho, curv = [], []
    for chart in charts:
        vals = _stencil_values(g, chart, pts, step)
        curv.append(_laplacian_curvature(vals, step))
        rho.append(vals[0])
    return (np.tile(pts.real, 2), np.tile(pts.imag, 2), np.repeat(charts, len(pts)),
            np.concatenate(rho), np.concatenate(curv))


def metric_grid_rows(g: ConformalMetric, n: int = 40,
                     step: float = DEFAULT_CURVATURE_STEP):
    """The grid columns as rows (re, im, chart, rho, curvature) of Python values."""
    return list(zip(*(col.tolist() for col in metric_grid_columns(g, n, step))))


GRID_HEADER = "re,im,chart,rho,curvature"
_JSON_ROW = ' {\n  "chart": %s,\n  "curvature": %s,\n  "im": %s,\n  "re": %s,\n  "rho": %s\n }'


def _json_float(x) -> str:
    """A non-finite float as json.dumps writes it."""
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _column_texts(col, json: bool = False) -> list[str]:
    """The floats of a column as CSV (17 digits) or JSON text (``%r`` is float.__repr__).

    Each distinct 64-bit pattern is formatted once; keying on bits keeps 0.0 and -0.0 apart.
    """
    bits, inverse = np.unique(np.asarray(col, dtype=float).view(np.int64), return_inverse=True)
    values = bits.view(float)
    texts = ("%r," if json else "%.17g,") * len(values) % tuple(values.tolist())
    texts = np.array(texts.split(",")[:-1], dtype=object)
    if json:
        odd = ~np.isfinite(values)
        texts[odd] = [_json_float(x) for x in values[odd].tolist()]
    return texts[inverse].tolist()


def format_columns_csv(columns) -> str:
    """Grid columns (re, im, chart, rho, curvature) as CSV, floats with 17 significant digits."""
    re_, im_, chart, rho, curv = columns
    return "\n".join([GRID_HEADER, *map(",".join, zip(
        _column_texts(re_), _column_texts(im_), chart, _column_texts(rho), _column_texts(curv))), ""])


def format_columns_json(columns) -> str:
    """Grid columns as json.dumps of their rows as objects (sort_keys=True, indent=1) + newline."""
    re_, im_, chart, rho, curv = columns
    if not len(chart):
        return "[]\n"
    names = {name: encode_basestring_ascii(name) for name in set(chart)}
    texts = [_column_texts(col, json=True) for col in (curv, im_, re_, rho)]  # sorted keys
    rows = map(_JSON_ROW.__mod__, zip(map(names.__getitem__, chart), *texts))
    return "[\n" + ",\n".join(rows) + "\n]\n"


def format_grid_csv(rows) -> str:
    """Grid rows (re, im, chart, rho, curvature) as CSV: format_columns_csv of their columns."""
    return format_columns_csv(list(zip(*rows)) or [()] * 5)


def format_grid_json(rows) -> str:
    """Grid rows as json.dumps(grid_rows_as_json(rows), sort_keys=True, indent=1) + newline."""
    return format_columns_json(list(zip(*rows)) or [()] * 5)


def grid_rows_as_json(rows) -> list[dict]:
    return [{"re": r, "im": i, "chart": c, "rho": rho, "curvature": k}
            for r, i, c, rho, k in rows]
