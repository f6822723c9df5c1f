"""Conformal map between the upper half-plane and a 30-60-90 triangle.

The map is the primitive of ``t^(-1/2) (t+1)^(-2/3)`` with prevertices
0, -1 and infinity carrying interior angles pi/2, pi/3 and pi/6.  The
normalization constant scales the image of [-1, 0] onto the unit segment
[0, 1], which places the third vertex at -i*sqrt(3).

Endpoint singularities are removed exactly by power substitutions
(t = z s^2 at 0, t = -1 + (z+1) s^3 at -1, t = z / u^6 at infinity);
each substituted integrand is analytic beyond [0, 1], so a fixed set of
24-point Gauss-Legendre panels per region integrates it to rounding.  A
segment from i takes one panel when it is short for its distance from 0 and
-1, and four otherwise, as every segment to a real point does.  One point
and a column of many points go through the same rule.  All
fractional powers are principal-branch, which is continuous on the closed
upper half-plane.

The inverse is Newton with full steps from one start: the two-term
inverse of the vertex series whose local variable (|z|, |z+1| or |1/z|)
is smallest.  The residual F(z) - w is carried along each step: a short
Gauss-Legendre rule on the step's segment, of 2 to 12 nodes chosen by the
ratio of its length to its distance from 0 and -1, gives F(cand) - F(z),
and a forward call is made only for a step too long for those rules.
Every decision that ends the iteration is taken on the forward map: a
carried residual below the tolerance is confirmed by one forward call,
and a step that does not lower the residual raises NoConvergence only
once the map shows it.  A target off the triangle by more than the side
test's tolerance raises NoConvergence before Newton starts.
Within about 7e-3 of the pi/3 vertex the vertex series is itself the
preimage to rounding, closer than any Newton residual test can reach.

Doubling the triangle across its hypotenuse and following the inverse map
with z -> z/(z+1) produces the degree-1 covering of the sphere by one
butterfly: the right-angle vertex goes to 0, the pi/6 vertex to 1, the
pi/3 vertex to infinity, and the mirror triangle fills the lower
hemisphere by reflection.
"""

from __future__ import annotations

import cmath
import functools

import numpy as np

from .errors import BranchViolation, NoConvergence, OutsideButterfly
from .moebius import INFINITY, MoebiusTransform, SpherePoint

NEWTON_TOL = 1e-12  # residual of the inverse, relative to max(1, |w|)
NEWTON_MAX_ITER = 100  # Newton steps per point
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_BLOCK = 64  # points per array call; bounds the temporaries of a batch


def _rule(panels: int):
    """Nodes and weights of ``panels`` equal 24-point Gauss-Legendre panels on [0, 1]."""
    half = 0.5 / panels
    mids = half * (2.0 * np.arange(panels) + 1.0)
    return (mids[:, None] + half * _GL_X).ravel(), np.tile(half * _GL_W, panels)


def _integrand(t):
    t = np.asarray(t, dtype=complex)
    return np.exp(-0.5 * np.log(t) - (2.0 / 3.0) * np.log(t + 1.0))


# Substituted integrands f(q, p) on s in [0, 1], where p holds the power of
# the nodes s that the substitution needs (_REGIONS keeps it).  The parameter
# q is a scalar or a column of per-point values broadcast against the nodes.

def _from_zero(z, s):
    # t = z s^2 on [0, z]; used while |z| <= 0.5
    return np.exp(-(2.0 / 3.0) * np.log(1.0 + z * s * s))


def _from_minus_one(w, s3):
    # t = -1 + w s^3 on [-1, z] with w = z + 1; used while |w| <= 0.5
    return np.exp(-0.5 * np.log(-1.0 + w * s3))


def _from_infinity(z, u6):
    # t = z / u^6 on the ray [z, inf); for |z| > 2 the ray misses both
    # finite prevertices.  At z = 1 this is the tail along [1, +inf), where
    # t = 1/u^6 removes both the decay and the u^(-5/6) endpoint power.
    return np.exp(-(2.0 / 3.0) * np.log(z + u6))


def _segment(a, span, s):
    # t = a + span s on the segment [a, a + span]
    return _integrand(a + span * s) * span


# The quadrature that reaches z from 0, -1, infinity and i (four panels, then
# one), in the order _region numbers them, as (integrand, node powers,
# weights); their parameters are z, z + 1, z, z - i and z - i.  Every
# integrand is analytic on a neighbourhood of [0, 1] whose size sets the
# number of panels: the singularities lie at |s| >= sqrt(2) from 0,
# |s| >= 2^(1/3) from -1 and |u| >= 2^(1/6) from infinity.  A segment from i
# can pass within 1/sqrt(13) of a prevertex, at a length of 6.5 times that
# distance (see _region); four panels hold each panel to a ratio of
# 6.5 / 4 = _PANEL_RATIO, and a segment within that ratio takes one panel.
_REGIONS = tuple((f, nodes ** power, weights) for f, (nodes, weights), power in (
    (_from_zero, _rule(1), 1), (_from_minus_one, _rule(1), 3), (_from_infinity, _rule(2), 6),
    (functools.partial(_segment, 1j), _rule(4), 1), (functools.partial(_segment, 1j), _rule(1), 1)))
_PANEL_RATIO = 6.5 / 4  # length over distance from 0 and -1, per panel of a segment from i


def _integral(region: int, q):
    """Integral of the region's integrand over [0, 1], for a scalar q or a column of points.

    Each point's value is the sum of one row, so a batch gives the values
    of its points one at a time, bit for bit.
    """
    f, nodes, weights = _REGIONS[region]
    return (f(q, nodes) * weights).sum(axis=-1).tolist()


def _clearance(a: complex, span: complex, p: float) -> float:
    """Distance from p to the segment from a to a + span (span nonzero)."""
    s = min(max(((p - a) / span).real, 0.0), 1.0)
    return abs(a + span * s - p)


def _segment_clearance(a: complex, span: complex) -> float:
    """Distance of the segment from a to a + span (span nonzero) from the prevertices 0 and -1."""
    return min(_clearance(a, span, 0.0), _clearance(a, span, -1.0))


def _region(z: complex):
    """(index into _REGIONS, parameter) of the quadrature that reaches z."""
    if abs(z) <= 0.5:
        return 0, z
    if abs(z + 1.0) <= 0.5:
        return 1, z + 1.0
    if abs(z) > 2.0:
        return 2, z
    # segments from i stay farther than 1/sqrt(13) = 0.2774 from both finite
    # prevertices; the bound is approached as z -> -1.5 along |z + 1| = 0.5,
    # where the segment is sqrt(3.25) = 6.5/sqrt(13) long.  A real x has a
    # ratio of (1 + x^2)/|x| >= 2 on (0.5, 2] and at least 5 on [-2, -1.5),
    # so the real axis keeps four panels without the ratio test
    span = z - 1j
    if z.imag and (not span or abs(span) <= _PANEL_RATIO * _segment_clearance(1j, span)):
        return 4, span
    return 3, span


def _piece(region: int, q, integral) -> complex:
    """Raw integral between the region's base point (0, -1, infinity, i) and z."""
    if region >= 3:
        return integral
    if region == 2:
        return 6.0 * cmath.sqrt(q) * integral
    if q == 0:
        return 0j
    if region == 0:
        return 2.0 * cmath.sqrt(q) * integral
    return 3.0 * cmath.exp(cmath.log(q) / 3.0) * integral


# (ratio bound, nodes) of the short Gauss-Legendre rules for F(b) - F(a)
# along a segment, by the ratio of its length to its distance from the
# prevertices 0 and -1.  A rule of n nodes converges like rho^(-2n), where
# rho is about 4 / ratio, so at each bound it is below 1e-26: far under
# rounding, with room for the size of the integrand near the prevertices.
_SHORT_RULES = ((1e-6, 2), (1e-3, 4), (5e-2, 8), (0.25, 12))


def _short_rule(nodes: int):
    """Nodes and weights of the ``nodes``-point Gauss-Legendre rule on [0, 1], as lists."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return (0.5 * x + 0.5).tolist(), (0.5 * w).tolist()


class TriangleMap:
    """The normalized forward map, with the raw integrals from 0 to -1, i and infinity."""
    prevertices = (0.0, -1.0, float("inf"))  # on the real axis
    angles = (np.pi / 2, np.pi / 3, np.pi / 6)  # interior angles at their images
    __slots__ = ("raw_c1", "raw_ci", "raw_vinf", "constant", "vertices", "short_rules")

    def __init__(self):
        def reach(region, q):
            return _piece(region, q, _integral(region, q))

        self.raw_c1 = reach(0, -0.5 + 0j) - reach(1, 0.5 + 0j)
        # to i/2 from 0, then back along the segment from i to i/2, on four panels
        self.raw_ci = reach(0, 0.5j) - reach(3, -0.5j)
        self.constant = 1.0 / self.raw_c1  # normalization A
        tail = 6.0 * _integral(2, 1.0)
        self.raw_vinf = self.raw_ci + reach(3, 1.0 - 1j) + tail
        self.vertices = (0j, 1.0 + 0j, self.constant * self.raw_vinf)
        # (ratio bound, nodes, weights) of each short rule, for difference
        self.short_rules = tuple((bound, *_short_rule(n)) for bound, n in _SHORT_RULES)

    def _raw(self, region: int, q, integral) -> complex:
        piece = _piece(region, q, integral)
        if region == 0:
            return piece
        if region == 1:
            return self.raw_c1 + piece
        if region == 2:
            return self.raw_vinf - piece
        return self.raw_ci + piece

    def forward(self, z: complex) -> complex:
        region, q = _region(z)
        return self.constant * self._raw(region, q, _integral(region, q))

    def difference(self, a: complex, b: complex):
        """F(b) - F(a) by a short rule on the segment from a to b, or None if it is too long.

        The rule is the first of _SHORT_RULES whose ratio bound the segment's
        length meets, relative to the segment's distance from 0 and -1.  The
        nodes lie on the segment, so a segment on the real axis with +0.0
        imaginary parts keeps the upper branch.
        """
        span = b - a
        length = abs(span)
        if not length:
            return 0j
        reach = _segment_clearance(a, span)
        for bound, nodes, weights in self.short_rules:
            if length <= bound * reach:
                return self.constant * span * sum(
                    [wt * _integrand_at(a + span * s) for s, wt in zip(nodes, weights)])
        return None

    def forward_many(self, zs) -> list:
        """forward(z) for each point of zs, with each region's points in array calls."""
        parts = [_region(z) for z in zs]
        integrals = [None] * len(parts)
        for region in range(len(_REGIONS)):
            idx = [i for i, (r, _) in enumerate(parts) if r == region]
            for start in range(0, len(idx), _BLOCK):
                block = idx[start:start + _BLOCK]
                column = np.array([parts[i][1] for i in block])[:, None]
                for i, integral in zip(block, _integral(region, column)):
                    integrals[i] = integral
        return [self.constant * self._raw(r, q, integral)
                for (r, q), integral in zip(parts, integrals)]


@functools.cache
def triangle_map() -> TriangleMap:
    return TriangleMap()


def sc_forward(z) -> complex:
    """Image of a closed-upper-half-plane point in the triangle."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"{z} is not a finite point")
    if z.imag < 0:
        raise BranchViolation(f"{z} lies in the open lower half-plane")
    # -0.0 would put the principal powers on the lower branch of the real axis
    return triangle_map().forward(complex(z.real, z.imag + 0.0))


def _integrand_at(t: complex) -> complex:
    """``_integrand`` at one point, in closed form with cmath."""
    return cmath.exp(-0.5 * cmath.log(t) - (2.0 / 3.0) * cmath.log(t + 1.0))


def _upper(z: complex) -> complex:
    # max(-0.0, 0.0) is -0.0; adding +0.0 lands on the upper branch
    return complex(z.real, max(z.imag, 0.0) + 0.0)


def _pi3_sigma(w: complex, tm: TriangleMap) -> complex:
    """sigma = (z+1)^(1/3) from w, inverting w = 1 - 3iA sigma (1 + sigma^3/8 + ...)."""
    r1 = (w - 1.0) / (-3j * tm.constant)
    return r1 * (1.0 - r1 * r1 * r1 / 8.0)


# Below this |sigma| the pi/3 vertex series is the preimage to rounding: the
# next term of sigma is sigma^7/112, so -1 + sigma^3 moves by about
# sigma^9/37, under 3e-20 and far below half an ulp of -1.  Newton cannot do
# as well there, because |F'| ~ |z+1|^(-2/3) turns one ulp of z into
# residuals above NEWTON_TOL once |sigma| < 3e-3.
_PI3_SERIES_RADIUS = 1e-2


def _newton_start(w: complex, tm: TriangleMap) -> complex:
    # The two-term inverse of the vertex series whose local variable (|z|,
    # |z+1|, |1/z|) is smallest; each series converges while it is below 1:
    #   F(z) = 2 A s (1 - (2/9) s^2 + ...),          s = z^(1/2),
    #   F(z) = 1 - 3 i A sigma (1 + sigma^3/8 + ...),  sigma = (z+1)^(1/3),
    #   F(z) = v_inf - 6 A zeta (1 - (2/21) zeta^6 + ...),  zeta = z^(-1/6).
    # Plain powers would overflow; products give inf or nan, which are dropped.
    a = tm.constant
    r0 = w / (2.0 * a)
    s = r0 * (1.0 + (2.0 / 9.0) * r0 * r0)
    z0 = s * s
    sigma = _pi3_sigma(w, tm)
    sigma3 = sigma * sigma * sigma
    ri = (tm.vertices[2] - w) / (6.0 * a)
    ri3 = ri * ri * ri
    zeta = ri * (1.0 + (2.0 / 21.0) * ri3 * ri3)
    zeta3 = zeta * zeta * zeta
    zeta6 = zeta3 * zeta3
    series = [(abs(z0), z0), (abs(sigma3), -1.0 + sigma3)]
    if zeta6 != 0:
        series.append((abs(zeta6), 1.0 / zeta6))
    series = [pair for pair in series if cmath.isfinite(pair[1])]
    if not series:
        raise NoConvergence(f"every vertex series overflows at w = {w}")
    return _upper(min(series, key=lambda pair: pair[0])[1])


def sc_inverse(w) -> complex:
    """Newton inversion of the forward map onto the closed half-plane.

    Full steps from one vertex-series start.  Each step carries the residual
    F(z) - w along by TriangleMap.difference where a short rule reaches, and
    evaluates the forward map where it does not.  Every decision that ends
    the iteration is taken on the forward map: a carried residual below the
    tolerance is confirmed before z is returned, and a step that does not
    lower the residual raises NoConvergence only after the map itself shows
    it.  A target that fails the triangle's side test (``_in_triangle`` at
    its 1e-9 tolerance) raises NoConvergence before the first step.
    Within about 7e-3 of the pi/3 vertex w = 1 the preimage is the vertex
    series -1 + sigma^3, which is exact to rounding there.
    """
    w = complex(w)
    if not cmath.isfinite(w):
        raise ValueError(f"{w} is not a finite point")
    tm = triangle_map()
    if w == tm.vertices[2]:
        raise ValueError(f"{w} is the pi/6 vertex, the image of the point at infinity")
    if not _in_triangle(w, tm.vertices):
        raise NoConvergence(f"{w} fails the side test of the triangle, so Newton cannot invert it")
    sigma = _pi3_sigma(w, tm)
    if abs(sigma) <= _PI3_SERIES_RADIUS:
        return _upper(-1.0 + sigma * sigma * sigma)
    tol = NEWTON_TOL * max(1.0, abs(w))
    z = _newton_start(w, tm)
    # err is F(z) - w, from the forward map when exact and carried otherwise;
    # once the map overrules a carried residual, no later step is carried
    err, exact, carry = tm.forward(z) - w, True, True
    for _ in range(NEWTON_MAX_ITER):
        if abs(err) < tol:
            if exact:
                return z
        else:
            slope = tm.constant * _integrand_at(z)
            cand = _upper(z - err / slope) if slope else complex("inf")
            # far off the triangle the step can leave the floats
            if cmath.isfinite(cand):
                step = tm.difference(z, cand) if carry else None
                if step is not None and abs(err + step) < abs(err):
                    z, err, exact = cand, err + step, False
                    continue
                cand_err = tm.forward(cand) - w
                if abs(cand_err) < abs(err):
                    z, err, exact = cand, cand_err, True
                    continue
                if not exact:
                    # the step came from a residual the map has not checked:
                    # go on from the better of z and cand on the map
                    err, exact, carry = tm.forward(z) - w, True, False
                    if abs(cand_err) < abs(err):
                        z, err = cand, cand_err
                    continue
        if exact:
            break
        # a carried residual below the tolerance, or one whose step overflows,
        # is checked on the map, and after that no step is carried
        err, exact, carry = tm.forward(z) - w, True, False
    raise NoConvergence(f"Newton failed to invert at w = {w}")


# ---------------------------------------------------------------------------
# the butterfly covering

# ζ -> ζ/(ζ+1) carries the prevertices (0, inf, -1) to (0, 1, inf)
_HALFPLANE_NORMALIZATION = MoebiusTransform([[1, 0], [1, 1]])


def _in_triangle(p: complex, tri, tol: float = 1e-9) -> bool:
    a, b, c = tri
    s1 = ((b - a).conjugate() * (p - a)).imag
    s2 = ((c - b).conjugate() * (p - b)).imag
    s3 = ((a - c).conjugate() * (p - c)).imag
    return (s1 >= -tol and s2 >= -tol and s3 >= -tol) or (s1 <= tol and s2 <= tol and s3 <= tol)


def _reflect(p: complex, q1: complex, q2: complex) -> complex:
    u = (q2 - q1) / abs(q2 - q1)
    return q1 + u * ((p - q1) / u).conjugate()


def _conj_point(p: SpherePoint) -> SpherePoint:
    if p.is_infinity:
        return INFINITY
    return SpherePoint(p.z.conjugate())


def butterfly_belyi(p) -> SpherePoint:
    """Covering map of the doubled triangle onto the sphere.

    The positively oriented triangle maps to the closed upper hemisphere
    with (right-angle vertex, pi/6 vertex, pi/3 vertex) -> (0, 1, inf);
    its mirror image across their common hypotenuse maps to the lower
    hemisphere by reflection, and the two maps agree on the shared edge.
    """
    p = complex(p)
    tm = triangle_map()
    v_white, v_center, v_black = tm.vertices

    def map_plus(point: complex) -> SpherePoint:
        for vertex, target in ((v_white, SpherePoint(0j)),
                               (v_black, SpherePoint(1 + 0j)),
                               (v_center, INFINITY)):
            if abs(point - vertex) < 1e-12:
                return target
        return _HALFPLANE_NORMALIZATION.apply(sc_inverse(point))

    tri = (v_white, v_center, v_black)
    if _in_triangle(p, tri):
        return map_plus(p)
    mirrored = _reflect(p, v_center, v_black)
    if _in_triangle(mirrored, tri):
        return _conj_point(map_plus(mirrored))
    raise OutsideButterfly(f"{p} is outside both triangles")


def boundary_correspondence(samples_per_side: int = 30):
    """Sampled boundary arcs of the half-plane with their triangle-side images.

    Returns a list of dicts, one per real-axis arc, each holding the
    sampled abscissas and image points.
    """
    tm = triangle_map()
    arcs = {
        "segment(-1,0) -> side(1,0)": np.linspace(-0.97, -0.03, samples_per_side),
        "ray(0,+inf) -> side(0,v_inf)": np.geomspace(0.03, 30.0, samples_per_side),
        "ray(-inf,-1) -> side(1,v_inf)": -1.0 - np.geomspace(0.03, 30.0, samples_per_side),
    }
    return [{"arc": name,
             "samples": [{"x": float(x), "re": im.real, "im": im.imag}
                         for x, im in zip(xs, tm.forward_many([complex(x, 0.0) for x in xs]))]}
            for name, xs in arcs.items()]
