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
the per-point monomials ``|P|^2``, ``|R|^2`` and ``conj(P) R``.  Each form
has a derivative linear in the conjugate chart coordinate and a constant
``d dbar``, so the same pass gives the Gaussian curvature
``K = -(2/rho) d dbar log rho`` in closed form.

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
from .moebius import MoebiusTransform, as_sphere_point, homogeneous, triple_stack

DEFAULT_CURVATURE_STEP = 1e-3
DEFAULT_SAMPLES = 200
_CHUNK_BUDGET = 4_000_000  # max form-point pairs per vectorized block
_CURVATURE_ARRAYS = 6  # a curvature block holds about this many arrays the size of q
# chart i holds the points whose entry i of (P, R) is the coordinate: (z, 1), then (1, u)
CHARTS = ("finite", "infinity")


def _form_coefficients(forms: np.ndarray) -> np.ndarray:
    """Real coefficients of v^H E v on the monomials (|P|^2, |R|^2, Re w, Im w), w = conj(P) R."""
    return np.stack([forms[:, 0, 0].real, forms[:, 1, 1].real,
                     2.0 * forms[:, 0, 1].real, -2.0 * forms[:, 0, 1].imag], axis=1)


class ConformalMetric:
    """Mean over a (K, 2, 2) matrix stack of the density pulled back along each matrix."""

    def __init__(self, stack, form=None):
        self.stack = np.asarray(stack, dtype=complex).reshape(-1, 2, 2)
        self.form = None if form is None else np.asarray(form, dtype=complex)
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
                     _cross_form(cross, h12)]
        self._forms = np.concatenate(forms)
        self._coef = _form_coefficients(self._forms)

    def rho(self, z):
        """Conformal factor in the finite chart: the kernel at (z, 1)."""
        return self._chart(z, 0)

    def rho_at_infinity(self, u):
        """Conformal factor in the chart u = 1/z: the kernel at (1, u)."""
        return self._chart(u, 1)

    def _chart(self, coords, chart: int):
        arr = np.asarray(coords, dtype=complex)
        vals = self._density(*_homogeneous(arr.ravel(), chart))
        return float(vals[0]) if arr.shape == () else vals.reshape(arr.shape)

    def _density(self, p: np.ndarray, r: np.ndarray, chart: int | None = None):
        """Mean stack density at the homogeneous points (p, r), 1-d arrays.

        With a ``chart`` index (see CHARTS) returns (rho, K): K = -(2/rho)
        d dbar log rho is the Gaussian curvature in that chart's coordinate,
        in closed form from the derivatives of each term's Hermitian forms,
        which are linear in the coordinate's conjugate with constant d dbar.

        Overflow, division by zero and invalid operations raise
        FloatingPointError: a term that leaves the floats is not a density.
        """
        out = np.empty(p.shape[0])
        curv = None if chart is None else np.empty(p.shape[0])
        if curv is not None:
            rows, extra = self._chart_rows(chart)
            coord = (p, r)[chart]
        arrays = 1 if curv is None else _CURVATURE_ARRAYS
        chunk = max(1, _CHUNK_BUDGET // (arrays * self._coef.shape[0]))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for s in range(0, out.shape[0], chunk):
                mono, q, terms = self._terms(p[s:s + chunk], r[s:s + chunk], curv is None)
                out[s:s + chunk] = rho = self._weights @ terms
                if curv is None:
                    continue
                if self.form is None:
                    d_rho, dd_rho = _free_derivatives(rows, extra, q, terms)
                else:
                    d_rho, dd_rho = self._form_derivatives(rows, extra, q, terms, mono)
                curv[s:s + chunk] = _liouville(rho, coord[s:s + chunk], d_rho, dd_rho)
        return out if curv is None else (out, curv)

    def _terms(self, p: np.ndarray, r: np.ndarray, reuse: bool = False):
        """Each stack entry's density at the homogeneous points (p, r), before its weight.

        Returns (monomials, form values q, terms), row k of terms for entry k.
        With ``reuse`` a metric without a form writes its terms over q.
        """
        w = np.conj(p) * r
        mono = np.stack([p.real ** 2 + p.imag ** 2, r.real ** 2 + r.imag ** 2, w.real, w.imag])
        q = self._coef @ mono
        if self.form is None:
            terms = np.multiply(q, q, out=q if reuse else None)
            np.reciprocal(terms, out=terms)
        else:
            h11, h22 = self.form[0, 0].real, self.form[1, 1].real
            pp, rr, cross = q.reshape(3, len(self.stack), -1)
            n2 = (pp + rr) ** 2
            terms = ((h11 * (pp * pp + rr * rr) + 2.0 * h22 * pp * rr
                      + 2.0 * cross * (rr - pp)) / (n2 * n2))
        return mono, q, terms

    def _chart_rows(self, i: int):
        """Per-metric rows of the curvature in chart i, whose coordinate is entry i of (P, R).

        A form E reads d(v^H E v) = E_ii conj(coordinate) + E_ji (j = 1 - i)
        and d dbar(v^H E v) = E_ii; the rows are w E_ii, w Re E_ji and
        w Im E_ji over the stacked forms.  The form-free stack adds w det E;
        the form stack adds |p'|^2, |r'|^2, Re(h12 conj(p' conj r')) per
        matrix and the coefficients of Re(p' conj(r') conj(p) r), where
        ' is the derivative along the coordinate.
        """
        j = 1 - i
        e = self._forms
        weights = np.tile(self._weights, len(e) // len(self.stack))
        rows = weights * np.stack([e[:, i, i].real, e[:, j, i].real, e[:, j, i].imag])
        if self.form is None:
            return rows, self._weights * (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]).real
        dp, dr = self.stack[:, 0, i], self.stack[:, 1, i]
        lam = dp * np.conj(dr)
        cross = np.conj(self.stack[:, 0, :])[:, :, None] * self.stack[:, 1, None, :]
        return rows, ((dp.real ** 2 + dp.imag ** 2)[:, None], (dr.real ** 2 + dr.imag ** 2)[:, None],
                      (self.form[0, 1] * np.conj(lam)).real[:, None],
                      _form_coefficients(_cross_form(cross, lam[:, None, None])))

    def _form_derivatives(self, rows, extra, q, terms, mono):
        """d and d dbar of the form stack's density, by the chain rule through its three forms.

        With a = |p|^2, b = |r|^2, c = Re(h12 conj(p) r) and
        T = N / (a + b)^4, N = h11 (a^2 + b^2) + 2 h22 a b + 2 c (b - a):
        d T = sum_x T_x dx and d dbar T = sum_xy T_xy Re(dx conj dy) + sum_x T_x d dbar x,
        where |da|^2 = |p'|^2 a, |db|^2 = |r'|^2 b, Re(da conj db) = g and
        2 Re(da conj dc) = |p'|^2 c + mu a, 2 Re(db conj dc) = |r'|^2 c + mu b.
        """
        h11, h22 = self.form[0, 0].real, self.form[1, 1].real
        al_a, al_b, mu, g_coef = extra
        a, b, c = q.reshape(3, len(self.stack), -1)
        g = g_coef @ mono
        sig = np.reciprocal(a + b)
        s4 = sig ** 4
        t_sig = terms * sig
        na = 2.0 * (h11 * a + h22 * b - c)  # N_a and N_b
        nb = 2.0 * (h11 * b + h22 * a + c)
        diff = b - a
        first = rows @ np.concatenate([na * s4 - 4.0 * t_sig, nb * s4 - 4.0 * t_sig,
                                       2.0 * diff * s4])
        aa, bb = al_a * a, al_b * b
        second = (s4 * (2.0 * h11 * (aa + bb) - 4.0 * (4.0 * h11 + 3.0 * h22) * g
                        + 2.0 * (al_b - al_a) * c + 2.0 * mu * diff
                        - 8.0 * sig * (na * aa + nb * bb + diff * ((al_a + al_b) * c + mu * (a + b))))
                  + t_sig * sig * (20.0 * (aa + bb) + 40.0 * g))
        return first, first[0] + self._weights @ second


def _free_derivatives(rows, w_det, q, s2):
    """d and d dbar of sum w q^-2: d rho = -2 sum w s3 dq, d dbar rho = sum w (4 E_ii s3 - 6 det s4).

    Overwrites q with s3 and s2 with s4.
    """
    first = rows @ np.divide(s2, q, out=q)
    return -2.0 * first, 4.0 * first[0] - 6.0 * (w_det @ np.multiply(s2, s2, out=s2))


def _liouville(rho, coord, d_rho, dd_rho):
    """K = -(2/rho) (d dbar rho / rho - |d rho / rho|^2), d rho = conj(coord) d0 + d1 + i d2.

    Scaled by rho before squaring, so a small positive rho does not underflow as rho^3 would.
    """
    d0, d1, d2 = d_rho
    gx = (coord.real * d0 + d1) / rho
    gy = (d2 - coord.imag * d0) / rho
    return -2.0 * (dd_rho / rho - (gx * gx + gy * gy)) / rho


def _cross_form(cross, h12):
    """The Hermitian form of Re(h12 conj(p) r) from the stack of conj(p) r forms."""
    return (h12 * cross + np.conj(h12 * np.transpose(cross, (0, 2, 1)))) / 2.0


def _homogeneous(coords: np.ndarray, chart: int):
    """Homogeneous points of chart coordinates: (z, 1) in chart 0, (1, u) in chart 1."""
    one = np.ones_like(coords)
    return (coords, one) if chart == 0 else (one, coords)


def curvature(g: ConformalMetric, z) -> float:
    """Gaussian curvature of g at a point, exact from the kernel.

    Points with |z| > 1 (and infinity itself) are evaluated in the
    u = 1/z chart, as the grid's second chart is.
    """
    p = as_sphere_point(z)
    if p.is_infinity:
        chart, w = 1, 0j
    elif abs(p.z) > 1.0:
        chart, w = 1, 1.0 / p.z
    else:
        chart, w = 0, p.z
    return float(g._density(*_homogeneous(np.array([w]), chart), chart=chart)[1][0])


def round_metric() -> ConformalMetric:
    """The radius-1 round sphere: 4 / (1 + |.|^2)^2 in both charts."""
    return ConformalMetric(np.eye(2))


def pullback(m: MoebiusTransform, g: ConformalMetric) -> ConformalMetric:
    """The metric h with h = g pulled back along m: rho_h = (rho_g ∘ m) |m'|^2."""
    return ConformalMetric(g.stack @ m.matrix, g.form)


# ---------------------------------------------------------------------------
# the four group constructions

def averaged_metric(g: FiniteMoebiusGroup) -> ConformalMetric:
    """Group average of round-metric pullbacks; defined for every finite group.

    Invariant under g by construction and equal to the round metric when
    the group is already made of rotations.
    """
    return ConformalMetric(g.stack)


def conjugated_metric(g: FiniteMoebiusGroup) -> ConformalMetric:
    """Round metric pulled back through the unitarizing conjugator.

    Constant Gaussian curvature 1, invariant under g, and independent of
    the conjugator choice; cyclic groups are rejected because their
    normalizer leaves the conjugator essentially free.
    """
    if g.type_tag.is_cyclic:
        raise CyclicGroupUnsupported(
            f"{g.type_tag} is cyclic; the conjugated metric is not canonical")
    return ConformalMetric(unitarize(g).matrix)


def hermitian_metric(g: FiniteMoebiusGroup) -> ConformalMetric:
    """Sphere metric from the averaged invariant Hermitian form.

    The sphere sits in C^2 as (z, t) with t real; the averaged form,
    restricted to its tangent planes and averaged over the two chart
    directions, is the kernel's form term.  That restriction is not
    preserved by non-rotation group elements, so the stack is the group
    itself: the mean of its pullbacks is exactly invariant and still
    reduces to the round metric whenever the group lies in the rotations.
    """
    return ConformalMetric(g.stack, averaged_hermitian_form(g))


def orbit_triple_matrices(g: FiniteMoebiusGroup) -> np.ndarray:
    """Matrices sending (0, 1, infinity) to the orbit triples of g.

    Orbits are sorted by decreasing size; triples run over the product of
    the three orbits, once per size-preserving reassignment of the orbit
    roles (orbits of equal size cannot be told apart).  Each matrix is
    ``from_triple``'s, read from homogeneous coordinates taken once per point.
    """
    data = orbit_analysis(g)
    sizes = data.sizes
    assignments = [p for p in itertools.permutations(range(3))
                   if all(sizes[p[i]] == sizes[i] for i in range(3))]
    coords = [[homogeneous(p) for p in orbit.points] for orbit in data.orbits]
    return triple_stack(itertools.chain.from_iterable(
        itertools.product(*(coords[k] for k in assign)) for assign in assignments))


def orbit_triple_metric(g: FiniteMoebiusGroup) -> ConformalMetric:
    """Average of round-metric pullbacks over orbit-anchored transformations.

    Cyclic groups have no orbit triple and fall back to the round metric.
    A group classified as none of the finite sphere groups has no three
    orbits to anchor at and raises UnsupportedType.
    """
    if g.type_tag.is_cyclic:
        return ConformalMetric(np.eye(2))
    if g.type_tag.kind == "other":
        raise UnsupportedType("the orbit construction needs a dihedral, A4, S4 or A5 group, "
                              f"got a group of order {g.order} of none of these types")
    return ConformalMetric(orbit_triple_matrices(g))


# ---------------------------------------------------------------------------
# finite-difference curvature by the 5-point stencil: the tests' oracle of the
# kernel's closed form, timed by the benchmark's probe.  Works on any object with
# rho and rho_at_infinity; no command calls it, nor does curvature().

def _stencil_values(g, chart: str, coords, h):
    """rho at coordinates of the named chart (row 0) and at their four neighbours at distance h."""
    rho = (g.rho, g.rho_at_infinity)[CHARTS.index(chart)]
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
    """Gaussian curvature at an array of chart coordinates, by the 5-point stencil.

    An oracle for tests: the report grid takes the kernel's exact curvature.
    """
    return _laplacian_curvature(_stencil_values(g, chart, coords, step), step)


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
    (p1, r1), (p2, r2) = _homogeneous(zf, 0), _homogeneous(uf, 1)
    return np.concatenate([p1, p2]), np.concatenate([r1, r2])


def invariance_defect(g: ConformalMetric, grp: FiniteMoebiusGroup,
                      samples: int = DEFAULT_SAMPLES) -> float:
    """sup over samples and the group's generators h of |rho(h(z)) |h'|^2 - rho(z)| / rho(z).

    Invariance under the generators gives invariance under the group.  The
    pulled-back density is the kernel of the stack ``S @ h`` at the samples
    themselves, so no sample is moved out to where its digits cancel.  A
    generator listed again with the same bytes gives the same defect and is
    read once.
    """
    p, r = _sample_points(samples)
    base = g._density(p, r)
    worst = 0.0
    for h in {h.tobytes(): h for h in grp.generators}.values():
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


def metric_grid_columns(g: ConformalMetric, n: int = 40):
    """Grid columns (re, im, chart, rho, curvature) over both charts, as numpy arrays.

    One kernel pass per chart gives rho and the exact curvature together.
    """
    pts = grid_points(n)
    rho, curv = zip(*(g._density(*_homogeneous(pts, i), chart=i) for i in range(2)))
    return (np.tile(pts.real, 2), np.tile(pts.imag, 2),
            np.repeat(np.array(CHARTS, dtype=object), len(pts)),
            np.concatenate(rho), np.concatenate(curv))


def metric_grid_rows(g: ConformalMetric, n: int = 40, step=None):
    """The grid columns as rows (re, im, chart, rho, curvature) of Python values."""
    # step is ignored: the benchmark's replay still passes the parser's default args.step
    return list(zip(*(col.tolist() for col in metric_grid_columns(g, n))))


GRID_HEADER = "re,im,chart,rho,curvature"


def json_float(x) -> str:
    """A non-finite float as json.dumps writes it."""
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _column_texts(col, json: bool = False, key: str = "") -> list[str]:
    """The floats of a column as CSV (17 digits) or JSON text (``%r`` is float.__repr__), led by key.

    Each distinct 64-bit pattern is formatted once; keying on bits keeps 0.0 and -0.0 apart.
    """
    bits, inverse = np.unique(np.asarray(col, dtype=float).view(np.int64), return_inverse=True)
    values = bits.view(float)
    texts = (key + ("%r\0" if json else "%.17g\0")) * len(values) % tuple(values.tolist())
    texts = np.array(texts.split("\0")[:-1], dtype=object)
    if json:
        odd = ~np.isfinite(values)
        texts[odd] = [key + json_float(x) for x in values[odd].tolist()]
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
    names = {name: ' {\n  "chart": ' + encode_basestring_ascii(name) for name in set(chart)}
    keyed = zip(("curvature", "im", "re", "rho"), (curv, im_, re_, rho))  # sorted keys
    texts = [_column_texts(col, json=True, key=f',\n  "{key}": ') for key, col in keyed]
    return "[\n" + "\n },\n".join(map("".join, zip(map(names.__getitem__, chart), *texts))) + "\n }\n]\n"


def format_grid_csv(rows) -> str:
    """Grid rows (re, im, chart, rho, curvature) as CSV: format_columns_csv of their columns."""
    return format_columns_csv(list(zip(*rows)) or [()] * 5)


def grid_rows_as_json(rows) -> list[dict]:
    return [{"re": r, "im": i, "chart": c, "rho": rho, "curvature": k}
            for r, i, c, rho, k in rows]
