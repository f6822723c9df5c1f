"""Conformal map between the upper half-plane and a 30-60-90 triangle.

The map is the primitive of ``t^(-1/2) (t+1)^(-2/3)`` with prevertices
0, -1 and infinity carrying interior angles pi/2, pi/3 and pi/6.  The
normalization constant scales the image of [-1, 0] onto the unit segment
[0, 1], which places the third vertex at -i*sqrt(3).

Endpoint singularities are removed exactly by power substitutions
(t = z s^2 at 0, t = -1 + (z+1) s^3 at -1); everything else is adaptive
Gauss-Legendre quadrature on singularity-free segments.  All fractional
powers are principal-branch, which is continuous on the closed upper
half-plane.

Doubling the triangle across its hypotenuse and following the inverse map
with z -> z/(z+1) produces the degree-1 covering of the sphere by one
butterfly: the right-angle vertex goes to 0, the pi/6 vertex to 1, the
pi/3 vertex to infinity, and the mirror triangle fills the lower
hemisphere by reflection.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import BranchViolation, NoConvergence, OutsideButterfly
from .moebius import INFINITY, MoebiusTransform, SpherePoint

QUAD_TOL = 1e-12
NEWTON_TOL = 1e-12  # residual of the inverse, relative to max(1, |w|)
NEWTON_MAX_ITER = 100  # Newton steps per starting point
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)

_ANGLES = (np.pi / 2, np.pi / 3, np.pi / 6)


@dataclass(frozen=True)
class TriangleMap:
    prevertices: tuple  # (0, -1, inf) on the real axis
    vertices: tuple     # images of the prevertices
    constant: complex   # normalization A

    @property
    def angles(self):
        return _ANGLES


def _gl_fixed(f, a: float, b: float) -> complex:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * complex(np.sum(_GL_W * f(mid + half * _GL_X)))


def _adaptive(f, a: float, b: float, tol: float = QUAD_TOL, depth: int = 0) -> complex:
    whole = _gl_fixed(f, a, b)
    mid = 0.5 * (a + b)
    left = _gl_fixed(f, a, mid)
    right = _gl_fixed(f, mid, b)
    if abs(left + right - whole) <= tol or depth >= 40:
        return left + right
    return (_adaptive(f, a, mid, tol / 2, depth + 1)
            + _adaptive(f, mid, b, tol / 2, depth + 1))


def _integrand(t):
    t = np.asarray(t, dtype=complex)
    return np.exp(-0.5 * np.log(t) - (2.0 / 3.0) * np.log(t + 1.0))


def _raw_from_zero(z: complex) -> complex:
    # integral over [0, z] with t = z s^2; valid while |z| <= 0.5
    if z == 0:
        return 0j
    integral = _adaptive(lambda s: np.exp(-(2.0 / 3.0) * np.log(1.0 + z * s * s)), 0.0, 1.0)
    return 2.0 * cmath.sqrt(z) * integral


def _raw_from_minus_one(z: complex) -> complex:
    # integral over [-1, z] with t = -1 + (z+1) s^3; valid while |z+1| <= 0.5
    w = z + 1.0
    if w == 0:
        return 0j
    integral = _adaptive(lambda s: np.exp(-0.5 * np.log(-1.0 + w * s ** 3)), 0.0, 1.0)
    return 3.0 * cmath.exp(cmath.log(w) / 3.0) * integral


def _raw_segment(a: complex, b: complex) -> complex:
    span = b - a
    return _adaptive(lambda s: _integrand(a + span * s) * span, 0.0, 1.0)


class _MapData:
    __slots__ = ("raw_c1", "raw_ci", "raw_vinf", "constant", "v_inf")

    def __init__(self):
        self.raw_c1 = _raw_from_zero(-0.5 + 0j) - _raw_from_minus_one(-0.5 + 0j)
        self.raw_ci = _raw_from_zero(0.5j) + _raw_segment(0.5j, 1j)
        self.constant = 1.0 / self.raw_c1
        # tail along [1, +inf), with t = 1/s^6 removing both the decay and
        # the s^(-5/6) endpoint power
        tail = 6.0 * _adaptive(
            lambda s: np.exp(-(2.0 / 3.0) * np.log(1.0 + s ** 6)), 0.0, 1.0)
        self.raw_vinf = self.raw_ci + _raw_segment(1j, 1.0 + 0j) + tail
        self.v_inf = self.constant * self.raw_vinf

    def _raw_from_infinity(self, z: complex) -> complex:
        # integral over the ray [z, inf) with t = z / u^6; the ray through a
        # half-plane point at |z| > 2 misses both finite prevertices
        integral = _adaptive(
            lambda u: np.exp(-(2.0 / 3.0) * np.log(z + u ** 6)), 0.0, 1.0)
        return 6.0 * cmath.sqrt(z) * integral

    def _raw(self, z: complex) -> complex:
        if abs(z) <= 0.5:
            return _raw_from_zero(z)
        if abs(z + 1.0) <= 0.5:
            return self.raw_c1 + _raw_from_minus_one(z)
        if abs(z) > 2.0:
            return self.raw_vinf - self._raw_from_infinity(z)
        # segments from i stay at distance > 0.4 from both finite prevertices
        return self.raw_ci + _raw_segment(1j, z)

    def forward(self, z: complex) -> complex:
        return self.constant * self._raw(z)


_DATA: _MapData | None = None


def _data() -> _MapData:
    global _DATA
    if _DATA is None:
        _DATA = _MapData()
    return _DATA


def triangle_map() -> TriangleMap:
    d = _data()
    return TriangleMap(prevertices=(0.0, -1.0, float("inf")),
                       vertices=(0j, 1.0 + 0j, d.v_inf),
                       constant=d.constant)


def sc_forward(z) -> complex:
    """Image of a closed-upper-half-plane point in the triangle."""
    z = complex(z)
    if z.imag < 0:
        raise BranchViolation(f"{z} lies in the open lower half-plane")
    return _data().forward(z)


def _newton_starts(w: complex, d: "_MapData"):
    # Local power expansions at the three vertices seed targets that land
    # near a prevertex, where plain Newton oscillates on fractional powers:
    #   F(z) ~ 2 A z^(1/2) near 0,  1 - 3 i A (z+1)^(1/3) near -1,
    #   F(z) ~ v_inf - 6 A z^(-1/6) near infinity.
    a = d.constant
    seeds = [1j]
    with np.errstate(all="ignore"):
        near_zero = (w / (2.0 * a)) ** 2
        near_minus_one = -1.0 + (w - 1.0) ** 3 / (-3j * a) ** 3
        ratio = (d.v_inf - w) / (6.0 * a)
        near_inf = ratio ** -6 if ratio != 0 else None
    for cand in (near_minus_one, near_zero, near_inf):
        if cand is not None and cmath.isfinite(cand):
            seeds.append(complex(cand.real, max(cand.imag, 0.0)))
    seeds += [0.5j, 2j, -0.5 + 0.5j, 0.5 + 0.5j]
    return seeds


def sc_inverse(w) -> complex:
    """Damped-Newton inversion of the forward map onto the closed half-plane."""
    w = complex(w)
    d = _data()
    scale = max(1.0, abs(w))
    for start in _newton_starts(w, d):
        z = start
        err = d.forward(z) - w
        for _ in range(NEWTON_MAX_ITER):
            if abs(err) < NEWTON_TOL * scale:
                return z
            if abs(z) < 1e-12 or abs(z + 1.0) < 1e-12:
                z += 1e-9 * (1 + 1j)  # step off the integrand singularity
                err = d.forward(z) - w
            deriv = d.constant * complex(_integrand(z))
            step = err / deriv
            limit = max(0.5, 0.5 * abs(z))
            if abs(step) > limit:
                step *= limit / abs(step)
            # damp until the residual actually drops
            improved = False
            damping = 1.0
            while damping >= 1.0 / 64.0:
                cand = z - damping * step
                if cand.imag < 0:
                    cand = complex(cand.real, 0.0)
                cand_err = d.forward(cand) - w
                if abs(cand_err) < abs(err):
                    z, err = cand, cand_err
                    improved = True
                    break
                damping /= 2.0
            if not improved:
                break  # stuck; try the next start
    raise NoConvergence(f"Newton failed to invert at w = {w}")


# ---------------------------------------------------------------------------
# the butterfly covering

# ζ -> ζ/(ζ+1) carries the prevertices (0, inf, -1) to (0, 1, inf)
_HALFPLANE_NORMALIZATION = MoebiusTransform([[1, 0], [1, 1]])


def _in_triangle(p: complex, tri, tol: float = 1e-9) -> bool:
    signs = []
    for a, b in zip(tri, tri[1:] + tri[:1]):
        signs.append(((b - a).conjugate() * (p - a)).imag)
    return all(s >= -tol for s in signs) or all(s <= tol for s in signs)


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
    d = _data()
    arcs = {
        "segment(-1,0) -> side(1,0)": np.linspace(-0.97, -0.03, samples_per_side),
        "ray(0,+inf) -> side(0,v_inf)": np.geomspace(0.03, 30.0, samples_per_side),
        "ray(-inf,-1) -> side(1,v_inf)": -1.0 - np.geomspace(0.03, 30.0, samples_per_side),
    }
    out = []
    for name, xs in arcs.items():
        images = [d.forward(complex(x, 0.0)) for x in xs]
        out.append({
            "arc": name,
            "samples": [{"x": float(x), "re": im.real, "im": im.imag}
                        for x, im in zip(xs, images)],
        })
    return out
