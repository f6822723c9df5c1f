import cmath
import math
from collections import Counter

import numpy as np
import pytest

from dessins import schwarz_christoffel as sc
from dessins.errors import BranchViolation, NoConvergence, OutsideButterfly
from dessins.moebius import SpherePoint, chordal_distance


def beta(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def test_normalization_constant_against_beta_integral():
    # the image of [-1, 0] is the unit segment, so A = 1 / (i B(1/2, 1/3))
    tm = sc.triangle_map()
    assert abs(tm.constant - (-1j / beta(0.5, 1.0 / 3.0))) < 1e-15


def test_vertices():
    tm = sc.triangle_map()
    v0, v1, v2 = tm.vertices
    assert v0 == 0j
    assert abs(v1 - 1.0) < 1e-15
    # third vertex from the tail integral B(1/2, 1/6) / B(1/2, 1/3) = sqrt(3)
    assert abs(v2 - (-1j * math.sqrt(3))) < 1e-15
    assert abs(beta(0.5, 1.0 / 6.0) / beta(0.5, 1.0 / 3.0) - math.sqrt(3)) < 1e-15


def test_interior_angles_from_boundary_tangents():
    tm = sc.triangle_map()
    f = sc.sc_forward
    eps = 1e-6
    assert abs(abs(np.angle((f(eps) - f(0)) / (f(-eps) - f(0)))) - math.pi / 2) < 1e-6
    assert abs(abs(np.angle((f(-1 + eps) - f(-1)) / (f(-1 - eps) - f(-1)))) - math.pi / 3) < 1e-6
    big = 1e7
    got = abs(np.angle((f(big) - tm.vertices[2]) / (f(-big) - tm.vertices[2])))
    assert abs(got - math.pi / 6) < 1e-6


def test_angle_sum():
    assert abs(sum(sc.triangle_map().angles) - math.pi) < 1e-15


def test_forward_rejects_lower_half_plane():
    with pytest.raises(BranchViolation):
        sc.sc_forward(0.5 - 0.1j)


def test_round_trips_interior():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.02, 2.5))
        w = sc.sc_forward(z)
        z2 = sc.sc_inverse(w)
        assert abs(sc.sc_forward(z2) - w) < 1e-9
        assert abs(z2 - z) < 1e-8


def test_inverse_round_trips_from_triangle_side():
    tm = sc.triangle_map()
    v0, v1, v2 = tm.vertices
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rng.uniform(0.05, 0.9, 2)
        if a + b >= 0.95:
            continue
        w = v0 + a * (v1 - v0) + b * (v2 - v0)
        z = sc.sc_inverse(w)
        assert z.imag >= 0
        assert abs(sc.sc_forward(z) - w) < 1e-9


def test_inverse_of_centroid_is_interior():
    tm = sc.triangle_map()
    z = sc.sc_inverse(sum(tm.vertices) / 3)
    assert z.imag > 0


def test_boundary_midpoint_maps_to_real_axis():
    tm = sc.triangle_map()
    mid = (tm.vertices[0] + tm.vertices[1]) / 2
    assert abs(sc.sc_inverse(mid).imag) < 1e-6


def test_conformality_of_small_squares():
    # centered sides of an h-square; secant bias is O(h^2)
    h = 1e-4
    for z in (0.5 + 0.8j, -0.4 + 1.2j, 1.5 + 0.3j, -1.8 + 0.6j):
        d1 = sc.sc_forward(z + h) - sc.sc_forward(z - h)
        d2 = sc.sc_forward(z + 1j * h) - sc.sc_forward(z - 1j * h)
        assert abs(abs(np.angle(d2 / d1)) - math.pi / 2) < 1e-5
        assert abs(abs(d2) / abs(d1) - 1.0) < 1e-5


def test_monotone_boundary_correspondence():
    tm = sc.triangle_map()
    v0, v1, v2 = tm.vertices
    arcs = [
        (np.linspace(-0.98, -0.02, 30), v1, v0),   # (-1, 0) -> side from 1 to 0
        (np.geomspace(0.02, 50.0, 30), v0, v2),    # (0, inf) -> side from 0 to v2
        (-1.0 - np.geomspace(0.02, 50.0, 30)[::-1], v2, v1),  # (-inf,-1) -> v2 to 1
    ]
    for xs, start, end in arcs:
        side = end - start
        params = []
        for x in xs:
            w = sc.sc_forward(complex(x, 0.0))
            # image lies on the side: decompose in the side direction
            t = ((w - start) / side).real
            off = abs(w - (start + t * side))
            assert off < 1e-9
            params.append(t)
        assert all(b > a for a, b in zip(params, params[1:]))
        assert params[0] > -1e-9 and params[-1] < 1 + 1e-9


def test_butterfly_vertices_exact():
    tm = sc.triangle_map()
    v_white, v_center, v_black = tm.vertices
    assert sc.butterfly_belyi(v_white) == SpherePoint(0j)
    assert sc.butterfly_belyi(v_black) == SpherePoint(1 + 0j)
    assert sc.butterfly_belyi(v_center).is_infinity
    # mirrored vertices too: reflection fixes the shared edge's endpoints
    mirrored_white = sc._reflect(v_white, v_center, v_black)
    assert sc.butterfly_belyi(mirrored_white) == SpherePoint(0j)


def test_butterfly_hemispheres():
    tm = sc.triangle_map()
    v_white, v_center, v_black = tm.vertices
    interior = 0.4 * v_white + 0.3 * v_center + 0.3 * v_black
    plus = sc.butterfly_belyi(interior)
    assert not plus.is_infinity and plus.z.imag > 0
    minus = sc.butterfly_belyi(sc._reflect(interior, v_center, v_black))
    assert not minus.is_infinity and minus.z.imag < 0
    assert abs(minus.z - plus.z.conjugate()) < 1e-9


def test_butterfly_gluing_continuity():
    tm = sc.triangle_map()
    _, v_center, v_black = tm.vertices
    normal = 1j * (v_black - v_center) / abs(v_black - v_center)
    for s in np.linspace(0.05, 0.95, 20):
        base = v_center + s * (v_black - v_center)
        gap = chordal_distance(sc.butterfly_belyi(base + 1e-4 * normal),
                               sc.butterfly_belyi(base - 1e-4 * normal))
        assert gap < 1e-3


def test_butterfly_rejects_outside_points():
    with pytest.raises(OutsideButterfly):
        sc.butterfly_belyi(10 + 10j)
    with pytest.raises(OutsideButterfly):
        sc.butterfly_belyi(-0.5 - 0.1j)


def test_boundary_correspondence_table():
    table = sc.boundary_correspondence(5)
    assert len(table) == 3
    for arc in table:
        assert len(arc["samples"]) == 5


# ---------------------------------------------------------------------------
# closed forms, with no quadrature: near 0 the substitution t = z s^2 turns
# the map into Euler's integral, F(z) = 2 A sqrt(z) 2F1(1/2, 2/3; 3/2; -z),
# and near infinity F(z) = v_inf - 6 A z^(-1/6) (1 + O(1/z)).

_A = -1j / beta(0.5, 1.0 / 3.0)
_V_INF = -1j * math.sqrt(3)


def _hyp2f1(a, b, c, x, terms=80):
    term = total = 1.0 + 0j
    for n in range(terms - 1):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        total += term
    return total


def _max_relative_gap(fast, exact):
    return max(abs(f - e) / abs(e) for f, e in zip(fast, exact))


def test_forward_near_zero_against_series():
    rng = np.random.default_rng(29)
    radii, angles = rng.uniform(0.0, 0.5, 200).tolist(), rng.uniform(0.0, math.pi, 200).tolist()
    points = [r * cmath.exp(1j * t) for r, t in zip(radii, angles)]
    points += [0.5, -0.5, 0.5j, 1e-300, -1e-300, complex(-1e-300, 0.0)]
    exact = [2.0 * _A * cmath.sqrt(z) * _hyp2f1(0.5, 2.0 / 3.0, 1.5, -z) for z in points]
    # |z| <= 0.5 keeps the 80th term below 1e-24; measured maximum 1.6e-15,
    # most of it the rounding of the series itself
    assert _max_relative_gap([sc.sc_forward(z) for z in points], exact) < 2e-15
    assert sc.sc_forward(0.0) == 0


def test_forward_near_infinity_against_power_law():
    points = [r * cmath.exp(1j * t) for r in (1e15, 1e40, 1e200)
              for t in np.linspace(0.0, math.pi, 19)]
    points += [1e300, 1e300j, complex(-1e300, 0.0)]
    exact = [_V_INF - 6.0 * _A * cmath.exp(-cmath.log(z) / 6.0) for z in points]
    # the O(1/z) term is below 1e-17 from |z| = 1e15; measured maximum 2.6e-16
    assert _max_relative_gap([sc.sc_forward(z) for z in points], exact) < 2e-15


# ---------------------------------------------------------------------------
# slow oracle: adaptive per-point quadrature, three rule calls per panel and
# one closure per point, converged to 1e-12 on every panel.  The module's
# fixed panels evaluate other nodes, so values agree to a relative 1e-14
# (measured maximum 1.3e-15); a batch and one point share their nodes, so
# those agree bit for bit.

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_ORACLE_TOL = 1e-12
_REL_TOL = 1e-14


def _gl_fixed(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * complex(np.sum(_GL_W * f(mid + half * _GL_X)))


def _adaptive(f, a, b, tol=_ORACLE_TOL, depth=0):
    whole = _gl_fixed(f, a, b)
    mid = 0.5 * (a + b)
    left = _gl_fixed(f, a, mid)
    right = _gl_fixed(f, mid, b)
    if abs(left + right - whole) <= tol or depth >= 40:
        return left + right
    return _adaptive(f, a, mid, tol / 2, depth + 1) + _adaptive(f, mid, b, tol / 2, depth + 1)


def _integrand(t):
    t = np.asarray(t, dtype=complex)
    return np.exp(-0.5 * np.log(t) - (2.0 / 3.0) * np.log(t + 1.0))


def _raw_from_zero(z):
    if z == 0:
        return 0j
    return 2.0 * cmath.sqrt(z) * _adaptive(
        lambda s: np.exp(-(2.0 / 3.0) * np.log(1.0 + z * s * s)), 0.0, 1.0)


def _raw_from_minus_one(z):
    w = z + 1.0
    if w == 0:
        return 0j
    return 3.0 * cmath.exp(cmath.log(w) / 3.0) * _adaptive(
        lambda s: np.exp(-0.5 * np.log(-1.0 + w * s ** 3)), 0.0, 1.0)


def _raw_segment(a, b):
    span = b - a
    return _adaptive(lambda s: _integrand(a + span * s) * span, 0.0, 1.0)


class _Oracle:
    def __init__(self):
        self.raw_c1 = _raw_from_zero(-0.5 + 0j) - _raw_from_minus_one(-0.5 + 0j)
        self.raw_ci = _raw_from_zero(0.5j) + _raw_segment(0.5j, 1j)
        self.constant = 1.0 / self.raw_c1
        tail = 6.0 * _adaptive(lambda s: np.exp(-(2.0 / 3.0) * np.log(1.0 + s ** 6)), 0.0, 1.0)
        self.raw_vinf = self.raw_ci + _raw_segment(1j, 1.0 + 0j) + tail

    def forward(self, z):
        z = complex(z)  # a float below -1 would take the log of a negative float
        if abs(z) <= 0.5:
            raw = _raw_from_zero(z)
        elif abs(z + 1.0) <= 0.5:
            raw = self.raw_c1 + _raw_from_minus_one(z)
        elif abs(z) > 2.0:
            raw = self.raw_vinf - 6.0 * cmath.sqrt(z) * _adaptive(
                lambda u: np.exp(-(2.0 / 3.0) * np.log(z + u ** 6)), 0.0, 1.0)
        else:
            raw = self.raw_ci + _raw_segment(1j, z)
        return self.constant * raw


_ORACLE = _Oracle()


def _assert_close_to_oracle(fast, points):
    slow = [_ORACLE.forward(z) for z in points]
    assert all(abs(f - s) <= _REL_TOL * abs(s) for f, s in zip(fast, slow))


def _assert_forward_matches_oracle(points):
    points = [complex(z) for z in points]
    fast = [sc.sc_forward(z) for z in points]
    _assert_close_to_oracle(fast, points)
    # the batch over all points at once is the same map, bit for bit
    assert [repr(w) for w in sc.triangle_map().forward_many(points)] == [repr(w) for w in fast]


def test_map_data_matches_oracle():
    tm = sc.triangle_map()
    for name in ("raw_c1", "raw_ci", "raw_vinf", "constant"):
        slow = getattr(_ORACLE, name)
        assert abs(getattr(tm, name) - slow) <= _REL_TOL * abs(slow)


def test_forward_matches_oracle_in_every_region():
    rng = np.random.default_rng(17)
    points = [complex(rng.uniform(-r, r), rng.uniform(0.0, r))
              for r in (0.6, 1.6, 3.0, 40.0) for _ in range(60)]
    assert {sc._region(z)[0] for z in points} == {0, 1, 2, 3}
    _assert_forward_matches_oracle(points)


def test_forward_matches_oracle_on_region_edges():
    angles = np.linspace(0.0, math.pi, 37)
    points = [c + r * cmath.exp(1j * t) for c, r in ((0.0, 0.5), (-1.0, 0.5), (0.0, 2.0))
              for t in angles]
    points += [0.5, -0.5, 0.5j, -1.5, -1.0 + 0.5j, 2.0, -2.0, 2j, 1.2 + 1.6j]
    _assert_forward_matches_oracle(points)


def test_forward_matches_oracle_on_real_axis():
    points = [0.0, -1.0, complex(0.0, -0.0), complex(-1.0, -0.0), 1e7, -1e7]
    points += list(np.linspace(-3.0, 3.0, 61))
    points += list(np.geomspace(1e-6, 1e6, 25)) + list(-np.geomspace(1e-6, 1e6, 25))
    _assert_forward_matches_oracle(points)


def test_segments_from_i_clear_the_prevertices():
    # the four panels of the segment rule are sized on this clearance; a grid
    # over region 3 and its boundary circles, just outside the other regions
    xs, ys = np.meshgrid(np.linspace(-2.0, 2.0, 401), np.linspace(0.0, 2.0, 201))
    rim = np.exp(1j * np.linspace(0.0, math.pi, 20001))
    zs = [z for z in np.concatenate(((xs + 1j * ys).ravel(), (0.5 + 1e-12) * rim,
                                     -1.0 + (0.5 + 1e-12) * rim, 2.0 * rim)).tolist()
          if z != 1j and sc._region(z)[0] == 3]
    spans = np.array(zs) - 1j
    clearance = np.inf
    for prevertex in (0.0, -1.0):
        t = np.clip(((prevertex - 1j) * spans.conjugate()).real / abs(spans) ** 2, 0.0, 1.0)
        clearance = np.minimum(clearance, abs(1j + t * spans - prevertex))
    # the infimum 1/sqrt(13), on the segment to -1.5, is approached but not reached
    assert 1.0 / math.sqrt(13.0) < clearance.min() < 1.0 / math.sqrt(13.0) + 1e-6


def _boundary_points(table):
    return [complex(s["x"], 0.0) for arc in table for s in arc["samples"]]


def _boundary_values(table):
    return [complex(s["re"], s["im"]) for arc in table for s in arc["samples"]]


@pytest.mark.parametrize("samples", [1, 2, 30, 300])
def test_boundary_correspondence_matches_oracle(samples):
    table = sc.boundary_correspondence(samples)
    assert [len(arc["samples"]) for arc in table] == [samples] * 3
    points, values = _boundary_points(table), _boundary_values(table)
    _assert_close_to_oracle(values, points)
    assert [repr(w) for w in values] == [repr(sc.sc_forward(z)) for z in points]


def test_boundary_correspondence_across_blocks_matches_oracle():
    table = sc.boundary_correspondence(3 * sc._BLOCK + 1)
    # more points per arc than one block, and an arc whose points in one region fill more
    per_arc = [Counter(sc._region(complex(s["x"], 0.0))[0] for s in arc["samples"])
               for arc in table]
    assert max(max(counts.values()) for counts in per_arc) > sc._BLOCK
    points, values = _boundary_points(table), _boundary_values(table)
    _assert_close_to_oracle(values, points)
    assert [repr(w) for w in values] == [repr(sc.sc_forward(z)) for z in points]


def _triangle_points(rng, count):
    v0, v1, v2 = sc.triangle_map().vertices
    points = []
    while len(points) < count:
        a, b = rng.uniform(0.02, 0.96, 2)
        if a + b <= 0.98:
            points.append(v0 + a * (v1 - v0) + b * (v2 - v0))
    return points


def test_inverse_and_butterfly_match_oracle():
    # the oracle's forward map carries each preimage back onto its target;
    # measured maximum 9.9e-13 for both
    _, v_center, v_black = sc.triangle_map().vertices
    rng = np.random.default_rng(23)
    targets = _triangle_points(rng, 25)
    preimages = [sc.sc_inverse(w) for w in targets]
    # the butterfly's preimage is zeta / (1 - zeta), and the mirror side is conjugate
    zetas = [sc.butterfly_belyi(w).z for w in targets[:10]]
    zetas += [sc.butterfly_belyi(sc._reflect(w, v_center, v_black)).z.conjugate()
              for w in targets[10:20]]
    preimages += [zeta / (1.0 - zeta) for zeta in zetas]
    for z, w in zip(preimages, targets + targets[:20]):
        z = complex(z.real, max(z.imag, 0.0))
        assert abs(_ORACLE.forward(z) - w) <= 2 * sc.NEWTON_TOL * max(1.0, abs(w))


@pytest.mark.parametrize("call, point", [
    (sc.sc_forward, complex("nan")), (sc.sc_forward, complex("inf")),
    (sc.sc_forward, complex(0.0, float("inf"))),
    (sc.sc_inverse, complex("nan")), (sc.sc_inverse, complex("inf")),
])
def test_non_finite_points_rejected(call, point):
    with pytest.raises(ValueError, match="not a finite point"):
        call(point)


def test_inverse_rejects_the_pi6_vertex_without_a_forward_call(monkeypatch):
    # the preimage of v_inf is the point at infinity; one ulp away it is huge but finite
    v_inf = sc.triangle_map().vertices[2]

    def forward(self, z):
        raise AssertionError("forward map evaluated")

    with monkeypatch.context() as patch:
        patch.setattr(sc.TriangleMap, "forward", forward)
        with pytest.raises(ValueError, match="pi/6 vertex"):
            sc.sc_inverse(v_inf)
    z = sc.sc_inverse(complex(v_inf.real, math.nextafter(v_inf.imag, 0.0)))
    assert 1e94 < abs(z) < 1e95
    assert sc.butterfly_belyi(v_inf) == SpherePoint(1 + 0j)


# ---------------------------------------------------------------------------
# the Newton inverse: vertex-series seeds, the pi/3 vertex and its cost

def _hard_targets():
    """Uniform triangle points with no margin, points along each side, and
    points 1e-1 to 1e-12 from each vertex on the line to the centroid."""
    vertices = sc.triangle_map().vertices
    v0, v1, v2 = vertices
    rng = np.random.default_rng(31)
    targets = []
    while len(targets) < 2000:
        a, b = rng.uniform(0.0, 1.0, 2)
        if a + b <= 1.0:
            targets.append(v0 + a * (v1 - v0) + b * (v2 - v0))
    # the ends of each side are vertices, and v_inf has no finite preimage
    for start, end in ((v0, v1), (v1, v2), (v2, v0)):
        targets += [start + t * (end - start) for t in np.linspace(0.0, 1.0, 202)[1:-1]]
    centroid = sum(vertices) / 3
    for v in vertices:
        toward = (centroid - v) / abs(centroid - v)
        targets += [v + d * toward for d in np.geomspace(1e-1, 1e-12, 12)]
    return targets


def _pi3_sigma(w):
    # three terms of the inverse of (w - 1) / (-3iA) = sigma + sigma^4/8 + 3 sigma^7/56
    r1 = (w - 1.0) / (-3j * _A)
    return r1 - r1 ** 4 / 8.0 + r1 ** 7 / 112.0


def test_inverse_and_butterfly_succeed_on_hard_targets():
    targets = _hard_targets()
    assert len(targets) == 2636
    # Newton alone failed on these, within 2e-3 of the pi/3 vertex
    targets += [0.999 + 0j, 0.9999 - 5e-05j]
    _, v_center, v_black = sc.triangle_map().vertices
    near_pi3 = 0
    for w in targets:
        z = sc.sc_inverse(w)
        zeta = sc.butterfly_belyi(w)
        assert not zeta.is_infinity or abs(w - v_center) < 1e-12
        assert math.copysign(1.0, z.imag) == 1.0
        sigma = _pi3_sigma(w)
        if abs(sigma) <= sc._PI3_SERIES_RADIUS:
            # no double reaches a residual of 1e-12 here; the preimage is
            # -1 + sigma^3 rounded: half an ulp of z near -1, and the
            # rounding of sigma^3
            near_pi3 += 1
            assert abs((z + 1.0) - sigma ** 3) <= 2.0 ** -53 + 1e-15 * abs(sigma) ** 3
        else:
            assert abs(_ORACLE.forward(z) - w) <= 2 * sc.NEWTON_TOL * max(1.0, abs(w))
    assert near_pi3 >= 12  # the centroid line from 1e-3 inward, and the two above


@pytest.mark.parametrize("x", [-3.0, -1.2, -0.3, 0.4, 3.0])
def test_forward_ignores_the_sign_of_a_zero_imaginary_part(x):
    assert repr(sc.sc_forward(complex(x, -0.0))) == repr(sc.sc_forward(complex(x, 0.0)))
    # the clamp on Newton's starts and steps lands on +0.0 too
    assert math.copysign(1.0, sc._upper(complex(x, -0.0)).imag) == 1.0


def _count_forward_calls(monkeypatch):
    calls = [0]
    forward = sc.TriangleMap.forward

    def counted(self, z):
        calls[0] += 1
        return forward(self, z)

    monkeypatch.setattr(sc.TriangleMap, "forward", counted)
    return calls


def test_newton_cost_per_point(monkeypatch):
    calls = _count_forward_calls(monkeypatch)
    targets = _triangle_points(np.random.default_rng(37), 200)
    for w in targets:
        sc.sc_inverse(w)
    # measured mean 3.4; from the fixed start at i it was 10.5
    assert calls[0] / len(targets) <= 4.0


@pytest.mark.parametrize("w", [2, -1 + 1j, 0.5 + 0.5j, 10 + 10j, 0.5 - 2j, -0.1, 1.1 - 0.1j,
                               0.5 - 0.9j, 1e200, -3.56e39 - 6.57e38j, -1.04e45 - 1.64e46j])
def test_inverse_off_the_triangle_fails_fast(w, monkeypatch):
    # the first step that does not lower the residual ends the iteration;
    # measured at most 16 forward calls, and none where every series overflows
    calls = _count_forward_calls(monkeypatch)
    with pytest.raises(NoConvergence):
        sc.sc_inverse(w)
    assert calls[0] <= 20


def test_closed_form_integrand_matches_array_integrand():
    rng = np.random.default_rng(41)
    points = [complex(rng.uniform(-r, r), rng.uniform(0.0, r))
              for r in (0.6, 1.6, 3.0, 40.0) for _ in range(50)]
    assert {sc._region(z)[0] for z in points} == {0, 1, 2, 3}
    points += [complex(x, 0.0) for x in np.linspace(-0.99, -0.01, 50).tolist()]
    angles = np.linspace(0.0, math.pi, 37)
    points += [c + r * cmath.exp(1j * t) for c, r in ((0.0, 0.5), (-1.0, 0.5), (0.0, 2.0))
               for t in angles]
    for z in points:
        exact = complex(sc._integrand(z))
        assert abs(sc._integrand_at(z) - exact) <= 1e-15 * abs(exact)
