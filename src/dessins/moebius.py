"""Moebius transformations of the Riemann sphere as normalized 2x2 matrices.

Every transformation is stored as a complex matrix of determinant 1; a
matrix and its negative act identically, so equality is always projective:
``min(|M - N|, |M + N|) < 1e-9`` in max-entry norm.  On construction the
matrix is divided by the square root of its determinant whose real part is
non-negative (ties broken toward non-negative imaginary part), which makes
representatives deterministic.

The point at infinity is a first-class value (`INFINITY`), never a large
float.  `homogeneous` is the one place a point becomes coordinates: ``(z, 1)``,
or ``(1, 0)`` for infinity.  The action, the chordal distance and the map
through three points are single formulas on those pairs.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriple, PoleEvaluation, UnsupportedType
from .grouptypes import GroupType

PROJECTIVE_TOL = 1e-9
DEFAULT_ORDER_CAP = 120  # twice the largest finite subgroup order
_EYE = np.eye(2)
_EYE.setflags(write=False)
# element_orders: eps, the bound in turns on n log(l1/l2) modulo 2 pi i, from PROJECTIVE_TOL,
# and the largest cap for which every candidate is a multiple of the first
_ORDER_TURNS = -math.log1p(-8 * PROJECTIVE_TOL / (1 - 4 * PROJECTIVE_TOL)) / (2 * math.pi)
_MAX_ORDER_CAP = int(0.5 / math.sqrt(_ORDER_TURNS))


# ---------------------------------------------------------------------------
# points

@dataclass(frozen=True)
class SpherePoint:
    """A point of the sphere: a finite complex number, or None for infinity."""
    z: complex | None

    @property
    def is_infinity(self) -> bool:
        return self.z is None

    def __str__(self) -> str:
        return "inf" if self.is_infinity else str(self.z)


INFINITY = SpherePoint(None)


def as_sphere_point(value) -> SpherePoint:
    if isinstance(value, SpherePoint):
        return value
    return SpherePoint(complex(value))


def homogeneous(point) -> tuple[complex, complex]:
    """Homogeneous coordinates of a sphere point: (z, 1), or (1, 0) for infinity."""
    p = as_sphere_point(point)
    return (1.0 + 0j, 0j) if p.is_infinity else (p.z, 1.0 + 0j)


def chordal_gap(a, b) -> np.ndarray:
    """Chordal distance 2|det(a, b)| / (|a| |b|) of homogeneous points.

    Broadcast over leading axes; the pairs lie along the last one.  Each
    pair is first divided by its largest real or imaginary part, so no
    square overflows whatever the size of the coordinates.
    """
    a, b = (v / np.maximum(np.abs(v.real), np.abs(v.imag)).max(axis=-1, keepdims=True)
            for v in (np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))
    det = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    norms = (a.real ** 2 + a.imag ** 2).sum(axis=-1) * (b.real ** 2 + b.imag ** 2).sum(axis=-1)
    return 2.0 * np.abs(det) / np.sqrt(norms)


def chordal_distance(p: SpherePoint, q: SpherePoint) -> float:
    """Straight-line distance between the points on the embedded unit sphere."""
    return float(chordal_gap(homogeneous(p), homogeneous(q)))


# ---------------------------------------------------------------------------
# transformations

def normalizing_root(a: complex, b: complex, c: complex, d: complex) -> complex:
    """The root of a d - b c with real part >= 0 (ties: imaginary part >= 0);
    ValueError if the determinant overflows or is singular."""
    det = a * d - b * c  # Python complex: overflows to inf or nan without a warning
    if not abs(det.real) + abs(det.imag) <= sys.float_info.max:  # also false for nan
        raise ValueError("matrix determinant overflows")
    if abs(det) < 1e-14:
        raise ValueError("matrix is singular")
    r = cmath.sqrt(det)
    if r.real < 0 or (r.real == 0 and r.imag < 0):
        r = -r
    return r


def normalizing_roots(rows: np.ndarray) -> tuple[np.ndarray, ValueError | None]:
    """``normalizing_root`` of each row of an (N, 4) complex array, bit for bit, up to the
    first row it rejects, and that row's ValueError (None if every row passes).

    The determinant repeats Python's complex arithmetic on the real and
    imaginary parts, and the root is cmath.sqrt's formula for a finite
    determinant that is neither zero nor subnormal, with the real square root
    (numpy's complex one differs from cmath on the imaginary axis).
    """
    a, b, c, d = rows.T
    with np.errstate(all="ignore"):  # Python complex arithmetic overflows without a warning
        re = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
        im = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
        bad = ~(np.abs(re) + np.abs(im) <= sys.float_info.max) | (np.hypot(re, im) < 1e-14)
    error = None
    if bad.any():
        first = int(bad.argmax())
        try:
            normalizing_root(*rows[first].tolist())
        except ValueError as exc:
            error = exc
        re, im = re[:first], im[:first]
    eighth = np.abs(re) / 8.0
    s = 2.0 * np.sqrt(eighth + np.hypot(eighth, np.abs(im) / 8.0))
    t = np.abs(im) / (2.0 * s)
    right = re >= 0  # cmath.sqrt: (s, +-t) on the right half-plane, (t, +-s) on the left
    roots = np.empty(len(re), dtype=complex)
    roots.real = np.where(right, s, t)
    roots.imag = np.copysign(np.where(right, t, s), im)
    np.negative(roots, out=roots, where=(roots.real == 0) & (roots.imag < 0))  # real part >= 0
    return roots, error


class MoebiusTransform:
    """z -> (a z + b) / (c z + d) with a d - b c = 1."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        m = m / normalizing_root(*m.ravel().tolist())
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def from_normalized(matrix: np.ndarray) -> "MoebiusTransform":
        """Wrap a read-only matrix of determinant 1 as it is, without normalizing it again."""
        t = object.__new__(MoebiusTransform)
        object.__setattr__(t, "matrix", matrix)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("MoebiusTransform is immutable")

    # entries of the normalized representative
    @property
    def a(self) -> complex:
        return complex(self.matrix[0, 0])

    @property
    def b(self) -> complex:
        return complex(self.matrix[0, 1])

    @property
    def c(self) -> complex:
        return complex(self.matrix[1, 0])

    @property
    def d(self) -> complex:
        return complex(self.matrix[1, 1])

    @staticmethod
    def identity() -> "MoebiusTransform":
        return MoebiusTransform([[1, 0], [0, 1]])

    @staticmethod
    def scaling(factor: complex) -> "MoebiusTransform":
        """z -> factor * z."""
        if factor == 0:
            raise ValueError("scaling factor must be nonzero")
        return MoebiusTransform([[factor, 0], [0, 1]])

    @staticmethod
    def translation(offset: complex) -> "MoebiusTransform":
        """z -> z + offset."""
        return MoebiusTransform([[1, offset], [0, 1]])

    @staticmethod
    def inversion() -> "MoebiusTransform":
        """z -> 1/z."""
        return MoebiusTransform([[0, 1], [1, 0]])

    def apply(self, point) -> SpherePoint:
        """Total action on the sphere; poles go to infinity."""
        p, r = homogeneous(point)
        den = self.c * p + self.d * r
        if den == 0:
            return INFINITY
        w = (self.a * p + self.b * r) / den
        return SpherePoint(w) if cmath.isfinite(w) else INFINITY

    def __call__(self, point) -> SpherePoint:
        return self.apply(point)

    def compose(self, other: "MoebiusTransform") -> "MoebiusTransform":
        """self ∘ other: apply ``other`` first."""
        return MoebiusTransform(self.matrix @ other.matrix)

    def inverse(self) -> "MoebiusTransform":
        a, b, c, d = self.a, self.b, self.c, self.d
        return MoebiusTransform([[d, -b], [-c, a]])

    def derivative(self, z: complex) -> complex:
        """(d/dz)(az+b)/(cz+d) = 1/(cz+d)^2; sign of the representative cancels."""
        den = self.c * complex(z) + self.d
        if den == 0:
            raise PoleEvaluation(f"derivative at the pole z = {z}")
        return 1.0 / (den * den)

    def projectively_equal(self, other: "MoebiusTransform",
                           tol: float = PROJECTIVE_TOL) -> bool:
        return projective_distance(self, other) < tol

    def is_identity(self, tol: float = PROJECTIVE_TOL) -> bool:
        return self.projectively_equal(MoebiusTransform.identity(), tol)

    def unitarity_defect(self) -> float:
        """Max-entry norm of U^H U - I; phase representatives all agree."""
        u = self.matrix
        return float(np.abs(u.conj().T @ u - np.eye(2)).max())

    def to_entries(self) -> list[list[float]]:
        """Serialize as [[re, im], ...] for (a, b, c, d) of the normalized matrix."""
        return [[float(w.real), float(w.imag)] for w in (self.a, self.b, self.c, self.d)]

    @staticmethod
    def from_entries(entries) -> "MoebiusTransform":
        """Inverse of to_entries; anything but four [re, im] pairs of finite reals raises."""
        if not (isinstance(entries, (list, tuple)) and len(entries) == 4
                and all(isinstance(e, (list, tuple)) and len(e) == 2
                        and all(_finite_real(x) for x in e) for e in entries)):
            raise ValueError("expected four [re, im] pairs of finite real numbers")
        a, b, c, d = (complex(e[0], e[1]) for e in entries)
        return MoebiusTransform([[a, b], [c, d]])

    def __repr__(self) -> str:
        return (f"MoebiusTransform([[{self.a:.6g}, {self.b:.6g}], "
                f"[{self.c:.6g}, {self.d:.6g}]])")


def _finite_real(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)  # exact for ints; False for nan


def projective_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min(max|a - b|, max|a + b|) over the last two axes, broadcast over the rest."""
    return np.minimum(np.abs(a - b).max(axis=(-2, -1)), np.abs(a + b).max(axis=(-2, -1)))


def projective_distance(m: MoebiusTransform, n: MoebiusTransform) -> float:
    return float(projective_gap(m.matrix, n.matrix))


def element_orders(stack: np.ndarray, cap: int = DEFAULT_ORDER_CAP) -> np.ndarray:
    """Per determinant-1 matrix M of an (N, 2, 2) stack, the smallest n <= cap with
    M^n ~ +-I, else 0.

    The eigenvalues of M are l1, l2 = s e^h, s e^-h with s^2 = det M and
    s cosh h = tr(M)/2.  If M^n is within tau' = 2 tau of s'I entrywise (tau =
    PROJECTIVE_TOL, s' = +-1; the second tau covers the rounding of a product
    walk), then l1^n and l2^n lie within 2 tau' of s', as the 2-norm of a 2x2
    matrix is at most twice its largest entry; so |(l1/l2)^n - 1| <= delta =
    4 tau'/(1 - 2 tau') and n L, with L = log(l1/l2) = 2h, lies within
    -log(1 - delta) of 2 pi i Z.  Every n at which M^n passes the test is
    therefore a candidate: n f lies within eps = -log(1 - delta)/(2 pi) of an
    integer, f = Im L/(2 pi).

    The smallest candidate q is a best approximation of f (every m < q is
    farther from Z), hence a continued-fraction denominator of f, and the
    next one exceeds 1/eps - q > cap; so it is the last denominator up to
    cap.  Only that power is formed, by Cayley-Hamilton, and tested against
    +-I at PROJECTIVE_TOL, like n = 1, which is M itself.

    No later candidate passes where q fails.  The gcd g of q and a candidate n
    has ||g f|| <= 2 cap eps, at most 1/(2 cap) for cap <= 1/(2 sqrt(eps)),
    while every m < q has ||m f|| > 1/(2q); so g = q and n = kq.  With P the
    eigenprojector of l2 and L_n = n L reduced mod 2 pi i,
    M^n = +-e^(-L_n/2) (I + (e^(L_n) - 1) P), so M^n -+ I is about
    +-L_n (P - I/2) and the gap at kq is about k times the gap at q.
    Coincident eigenvalues (h = 0) have no denominator up to cap, so only
    n = 1 is tested for them.
    """
    if not 1 <= cap <= _MAX_ORDER_CAP:
        raise ValueError(f"cap must be from 1 to {_MAX_ORDER_CAP}, got {cap}")
    stack = np.asarray(stack, dtype=complex)
    rows = len(stack)
    with np.errstate(all="ignore"):  # an overflowing or singular row is no identity
        a, b, c, d = stack[:, 0, 0], stack[:, 0, 1], stack[:, 1, 0], stack[:, 1, 1]
        half_trace = (a + d) * 0.5
        s = np.sqrt(a * d - b * c)
        h = np.arccosh(half_trace / s)
        turns = h.imag * (1 / np.pi)  # f of L = 2h, up to sign and a whole turn
        f = np.abs(turns)
        f = np.minimum(f, 1 - f)
        # nearest-integer continued fraction: its denominators are those of the regular
        # one that are not followed by a partial quotient 1, so they keep the candidate
        cand, q, q_prev, rest = np.full(rows, np.inf), 1.0, 0.0, f
        while True:
            reciprocal = np.reciprocal(rest)
            quotient = np.rint(reciprocal)
            rest = reciprocal - quotient
            q, q_prev = quotient * q + q_prev, q
            size = np.abs(q)
            inside = size <= cap
            if not np.count_nonzero(inside):
                break
            np.copyto(cand, size, where=inside)
        # M^cand = a_n M + (s^n cosh(nh) - a_n tr(M)/2) I by Cayley-Hamilton, with
        # a_n = (l1^n - l2^n)/(l1 - l2) = s^(n-1) sinh(nh)/sinh(h).  Taking the whole
        # half turns off nh first flips the sign of both terms and leaves no rounding,
        # so a trace-0 involution squares to exactly -I, as its product does.
        nh = cand * h
        nh.imag -= np.pi * np.rint(cand * turns)
        s_n = s ** cand
        a_n = np.sinh(nh) * s_n / (s * np.sinh(h))
        shift = s_n * np.cosh(nh) - a_n * half_trace
        powers = stack * a_n[:, None, None]
        powers[:, 0, 0] += shift
        powers[:, 1, 1] += shift
        hit = projective_gap(np.concatenate([stack, powers]), _EYE) < PROJECTIVE_TOL
    return np.where(hit[:rows], 1, np.where(hit[rows:], cand, 0)).astype(int)


def element_order(m: MoebiusTransform, cap: int = DEFAULT_ORDER_CAP) -> int | None:
    """Smallest n <= cap with m^n projectively the identity, else None."""
    return int(element_orders(m.matrix[None], cap)[0]) or None


class _AllPoints:
    def __repr__(self):
        return "ALL_POINTS"


ALL_POINTS = _AllPoints()  # fixed-point set of the identity


def fixed_points(m: MoebiusTransform):
    """Fixed points on the sphere: ALL_POINTS for the identity, else 1 or 2 points.

    Finite solutions solve c z^2 + (d - a) z - b = 0; infinity is fixed
    exactly when c = 0.
    """
    if projective_gap(m.matrix, _EYE) < PROJECTIVE_TOL:
        return ALL_POINTS
    return _fixed_points(*m.matrix.ravel().tolist())


def _fixed_points(a: complex, b: complex, c: complex, d: complex) -> tuple[SpherePoint, ...]:
    """``fixed_points`` of the non-identity matrix with entries a, b, c, d."""
    if c == 0:
        if abs(d - a) < 1e-14:
            return (INFINITY,)  # translation: single parabolic point
        return (SpherePoint(b / (d - a)), INFINITY)
    # stable complex quadratic
    bb = d - a
    disc = bb * bb + 4.0 * c * b
    root = cmath.sqrt(disc)
    if abs(bb + root) < abs(bb - root):
        root = -root
    s = -0.5 * (bb + root)
    if abs(s) < 1e-300:
        return (SpherePoint(0j),)
    z1 = s / c
    z2 = -b / s
    if abs(disc) < 1e-14 * max(1.0, abs(bb) ** 2):
        return (SpherePoint((z1 + z2) / 2.0),)
    return (SpherePoint(z1), SpherePoint(z2))


def _det(v, w) -> complex:
    return v[0] * w[1] - v[1] * w[0]


def from_triple(p0, p1, p_inf) -> MoebiusTransform:
    """The unique transformation sending 0, 1, infinity to the given points.

    With homogeneous targets a, b, c its columns are det(b, a) c and
    det(c, b) a: the first column is the image of infinity, the second that
    of 0, and their sum is -det(a, c) b, the image of 1.
    """
    a, b, c = (homogeneous(p) for p in (p0, p1, p_inf))
    u, v = _det(b, a), _det(c, b)
    m = [[u * c[0], v * a[0]], [u * c[1], v * a[1]]]
    if abs(_det(*m)) < 1e-14:  # det(b, a) det(c, b) det(c, a): zero when two targets coincide
        raise DegenerateTriple("target points coincide or are numerically indistinct")
    return MoebiusTransform(m)


def triple_stack(triples) -> np.ndarray:
    """``from_triple``'s matrices for triples of homogeneous targets, as one (N, 2, 2) stack.

    The columns and the DegenerateTriple test are ``from_triple``'s Python
    arithmetic and one ``normalizing_roots`` call normalizes the stack, so
    every matrix and the first error, in triple order, are ``from_triple``'s.
    """
    rows, degenerate = [], False
    for a, b, c in triples:
        u, v = b[0] * a[1] - b[1] * a[0], c[0] * b[1] - c[1] * b[0]
        row = (u * c[0], v * a[0], u * c[1], v * a[1])
        if abs(row[0] * row[3] - row[1] * row[2]) < 1e-14:
            degenerate = True
            break
        rows.append(row)
    stack = np.array(rows, dtype=complex).reshape(-1, 4)
    roots, error = normalizing_roots(stack)
    if error is not None:  # a determinant that overflows before the degenerate triple
        raise error
    if degenerate:
        raise DegenerateTriple("target points coincide or are numerically indistinct")
    return (stack / roots[:, None]).reshape(-1, 2, 2)


def standard_generators(t: GroupType) -> list[MoebiusTransform]:
    """Rotation-group generators for each type, all projectively unitary.

    The rotation factor is exp(2*pi*i/n) for C_n and D_n.  The icosahedral pair uses
    the primitive fifth root delta = exp(2*pi*i/5) together with
    (z + q)/(q z - 1) for q = sqrt(1 - delta - 1/delta), taken on the
    principal branch; its closure has exactly 60 elements (test-verified,
    as are the closures of the other families).
    """
    if t.kind == "cyclic":
        return [MoebiusTransform.scaling(cmath.exp(2j * cmath.pi / t.n))]
    if t.kind == "dihedral":
        return [MoebiusTransform.scaling(cmath.exp(2j * cmath.pi / t.n)),
                MoebiusTransform.inversion()]
    if t.kind == "A4":
        j = cmath.exp(2j * cmath.pi / 3)
        s2 = cmath.sqrt(2)
        return [MoebiusTransform.scaling(j),
                MoebiusTransform([[1, s2], [s2, -1]])]
    if t.kind == "S4":
        return [MoebiusTransform.scaling(1j),
                MoebiusTransform([[1, 1], [1, -1]])]
    if t.kind == "A5":
        delta = cmath.exp(2j * cmath.pi / 5)
        q = cmath.sqrt(1 - delta - 1 / delta)
        return [MoebiusTransform.scaling(delta),
                MoebiusTransform([[1, q], [q, -1]])]
    raise UnsupportedType(f"no standard generators for type {t}")
