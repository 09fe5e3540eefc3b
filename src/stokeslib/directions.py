"""Stokes directions on the circle and certified exact comparison.

A direction is the angle theta(c, m, k) = (arg(c) - pi/2 + k*pi)/m reduced
into [0, 2*pi), with c a nonzero Gaussian rational, m >= 1 and 0 <= k < 2m.
These are the zeros of theta -> Re(c * exp(-i*m*theta)).

Angles are never stored as floats.  The reduction offset and the order of a
pair's own 2m directions are read exactly off k and the quadrant of c, and
the sign of Re(c * exp(-i*m*theta)) off the parity of k.  On an axis or a
diagonal, theta is an exact rational multiple of pi; elsewhere theta/pi is
irrational, and equality is decided through w = c1^m2 * conj(c2)^m1 and a
congruence on (k1, k2).  Intervals decide only the strict order of two
angles, that congruence's lattice index, and rational samples inside arcs,
each through one refinement loop, which ends because unequal angles are
separated.  The intervals live in private mpmath contexts, one per
precision, and their endpoints are compared and floored exactly; nothing
here reads or writes mpmath's global precision (``mpmath.mp``, ``mpmath.iv``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from mpmath import libmp
from mpmath.ctx_iv import MPIntervalContext

from .exactmath import GaussianRational, rat

_MAX_PREC = 1 << 14


@cache
def _iv(prec: int) -> MPIntervalContext:
    """The interval context fixed at ``prec`` bits (64, 128, ..., 2**14)."""
    ctx = MPIntervalContext()
    ctx.prec = prec
    return ctx


@dataclass(frozen=True)
class StokesDirection:
    """theta = (arg(c) - pi/2 + k*pi)/m in [0, 2*pi), arg in [0, 2*pi)."""

    c: GaussianRational
    m: int
    k: int

    def __post_init__(self):
        if self.c.is_zero():
            raise ValueError("direction coefficient must be nonzero")
        if self.m < 1:
            raise ValueError("order m must be positive")
        if not 0 <= self.k < 2 * self.m:
            raise ValueError("k must satisfy 0 <= k < 2m")

    def shifted(self, j: int) -> "StokesDirection":
        """The direction rotated by exactly j*pi/m."""
        return StokesDirection(self.c, self.m, (self.k + j) % (2 * self.m))


@dataclass(frozen=True)
class ExactAngle:
    """theta = t*pi with t an exact rational in [0, 2)."""

    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "t", rat(self.t) % 2)


Angle = StokesDirection | ExactAngle


def _octant(c: GaussianRational) -> int | None:
    """Index j with arg(c) = j*pi/4 when c lies on an axis or diagonal."""
    re, im = c.re, c.im
    if im == 0:
        return 0 if re > 0 else 4
    if re == 0:
        return 2 if im > 0 else 6
    if re == im:
        return 1 if re > 0 else 5
    if re == -im:
        return 3 if im > 0 else 7
    return None


def as_exact(angle: Angle) -> ExactAngle | None:
    """Exact rational-multiple-of-pi form, when one exists."""
    if isinstance(angle, ExactAngle):
        return angle
    j = _octant(angle.c)
    if j is None:
        return None
    t = (Fraction(j, 4) - Fraction(1, 2) + angle.k) / angle.m
    return ExactAngle(t % 2)


def _frac_iv(q: Fraction, prec: int):
    lo = libmp.from_rational(q.numerator, q.denominator, prec, "f")
    hi = libmp.from_rational(q.numerator, q.denominator, prec, "c")
    return _iv(prec).make_mpf((lo, hi))


def _arg_iv(c: GaussianRational, prec: int):
    """Enclosure of arg(c) in [0, 2*pi); c must lie off the real axis."""
    if c.im == 0:
        raise ValueError("axis arguments are handled exactly, not by intervals")
    ctx = _iv(prec)
    a = ctx.atan2(_frac_iv(c.im, prec), _frac_iv(c.re, prec))
    if c.im < 0:
        a = a + 2 * ctx.pi
    return a


def _unreduced_iv(d: StokesDirection, prec: int):
    pi = _iv(prec).pi
    return (_arg_iv(d.c, prec) - pi / 2 + d.k * pi) / d.m


def _refine(decide, what: str):
    """The first answer other than None that ``decide(prec)`` gives at 64, 128,
    ..., 2**14 bits; RuntimeError when none comes."""
    prec = 64
    while prec <= _MAX_PREC:
        answer = decide(prec)
        if answer is not None:
            return answer
        prec *= 2
    raise RuntimeError(f"interval refinement failed to {what}")


def _turns(d: StokesDirection) -> int:
    """floor(theta/(2*pi)) of the unreduced angle: with a = arg(c)/pi in [0, 2)
    and 0 <= k < 2m, theta/(2*pi) = (a - 1/2 + k)/(2m) lies in [-1/(4m), 1 + 1/(4m)),
    so it is -1 when k = 0 and a < 1/2 (c.re > 0, c.im >= 0), 1 when k = 2m - 1
    and a >= 3/2 (c.re >= 0, c.im < 0), and 0 otherwise."""
    c = d.c
    if d.k == 0 and c.re > 0 and c.im >= 0:
        return -1
    if d.k == 2 * d.m - 1 and c.re >= 0 and c.im < 0:
        return 1
    return 0


def angle_iv(angle: Angle, prec: int):
    """Enclosure of the reduced angle in [0, 2*pi)."""
    pi = _iv(prec).pi
    exact = as_exact(angle)
    if exact is not None:
        return _frac_iv(exact.t, prec) * pi
    n = _turns(angle)
    return _unreduced_iv(angle, prec) - 2 * n * pi


def _equal_directions(d1: StokesDirection, d2: StokesDirection) -> bool:
    """Exact equality for directions with irrational angle/pi ratio.

    theta1 = theta2 forces E = m2*arg(c1) - m1*arg(c2) onto the lattice
    (pi/2)*Z, i.e. w = c1^m2 * conj(c2)^m1 onto the real or imaginary
    axis; the residual bookkeeping is the congruence
    q = 2E/pi == (m2 - m1) + 2*(k2*m1 - k1*m2)  (mod 4*m1*m2).
    """
    w = d1.c.power(d2.m) * d2.c.conj().power(d1.m)
    if w.re != 0 and w.im != 0:
        return False
    if w.im == 0:
        rho = 0 if w.re > 0 else 2
    else:
        rho = 1 if w.im > 0 else 3

    def pin_s(prec):
        e = d2.m * _arg_iv(d1.c, prec) - d1.m * _arg_iv(d2.c, prec)
        lo, hi = ((2 * e / _iv(prec).pi - rho) / 4)._mpi_
        s = libmp.to_int(lo, "c")
        return s if s == libmp.to_int(hi, "f") else None

    q = rho + 4 * _refine(pin_s, "pin an integer")
    mod = 4 * d1.m * d2.m
    target = (d2.m - d1.m) + 2 * (d2.k * d1.m - d1.k * d2.m)
    return (q - target) % mod == 0


def compare_angles(a1: Angle, a2: Angle) -> int:
    """Total order on circle angles in [0, 2*pi): -1, 0 or 1."""
    e1, e2 = as_exact(a1), as_exact(a2)
    if e1 is not None and e2 is not None:
        return (e1.t > e2.t) - (e1.t < e2.t)
    if e1 is None and e2 is None and _equal_directions(a1, a2):
        return 0
    # The angles differ here (a rational and an irrational multiple of pi never
    # coincide), so refine until disjoint: x1 < x2 is True only when all of x1
    # lies below x2, and None while they overlap.
    def separate(prec):
        x1, x2 = angle_iv(a1, prec), angle_iv(a2, prec)
        if x1 < x2:
            return -1
        return 1 if x2 < x1 else None

    return _refine(separate, "separate angles")


def compare_directions(d1: StokesDirection, d2: StokesDirection) -> str:
    """'LT', 'EQ' or 'GT' by the represented angles in [0, 2*pi)."""
    return ("LT", "EQ", "GT")[compare_angles(d1, d2) + 1]


def angles_equal(a1: Angle, a2: Angle) -> bool:
    return compare_angles(a1, a2) == 0


def locate_angle(angle: Angle, points) -> tuple[int, bool]:
    """Binary search in circle-sorted ``points``: ``(i, True)`` when the angle
    equals points[i], else ``(i, False)`` with i the number of points below it."""
    lo, hi = 0, len(points)
    while lo < hi:
        mid = (lo + hi) // 2
        c = compare_angles(angle, points[mid])
        if c == 0:
            return mid, True
        if c < 0:
            hi = mid
        else:
            lo = mid + 1
    return lo, False


def sort_angles(angles: list) -> list:
    """Sort by the circle order, deduplicating exact coincidences."""
    out: list = []
    for a in angles:
        i, dup = locate_angle(a, out)
        if not dup:
            out.insert(i, a)
    return out


def sorted_directions(c: GaussianRational, m: int) -> list[StokesDirection]:
    """The 2m directions theta(c, m, k) in circle order, with no comparison: the
    unreduced angles rise by pi/m with each k, and reducing subtracts 2*pi*_turns."""
    if m < 1:
        raise ValueError("order m must be positive")
    return sorted((StokesDirection(c, m, k) for k in range(2 * m)), key=lambda d: d.k - 2 * m * _turns(d))


def pair_sign_at(c: GaussianRational, m: int, angle: Angle) -> int:
    """Exact sign of Re(c * exp(-i*m*theta)): 0 at the directions theta(c, m, k),
    else (-1)^k for the last one before theta, as just past it the sign is
    that of sin(k*pi + m*eps)."""
    if c.is_zero():
        raise ValueError("sign of a zero coefficient is undefined")
    dirs = sorted_directions(c, m)
    i, on_direction = locate_angle(angle, dirs)
    return 0 if on_direction else (-1) ** dirs[i - 1].k


def cyclically_between(a: Angle, x: Angle, b: Angle) -> bool:
    """True when x lies strictly inside the ccw open arc from a to b."""
    ca_b = compare_angles(a, b)
    if ca_b == 0:
        return False
    inside = (compare_angles(a, x) < 0, compare_angles(x, b) < 0)
    return all(inside) if ca_b < 0 else any(inside)


def _t_endpoints(angle: Angle, prec: int) -> tuple[Fraction, Fraction]:
    """Endpoints of an enclosure of theta/pi, each rounded to nearest at
    prec - 11 bits: 53 at the first precision, so the arc samples stay those
    that 53-bit endpoint reads gave, and the circle JSON keeps its bytes."""
    x = angle_iv(angle, prec) / _iv(prec).pi
    return tuple(Fraction(*libmp.to_rational(libmp.mpf_pos(t, prec - 11, "n"))) for t in x._mpi_)


def rational_angle_between(a: Angle, b: Angle) -> ExactAngle:
    """Some exact rational-multiple-of-pi angle strictly inside ccw (a, b),
    certified: candidates come from rounded interval endpoints, which get
    finer as the precision doubles, and are verified exactly."""
    if compare_angles(a, b) == 0:
        raise ValueError("empty open arc")

    def sample(prec):
        hi_a, lo_b = _t_endpoints(a, prec)[1], _t_endpoints(b, prec)[0]
        for t in ((hi_a + lo_b) / 2, (hi_a + 2) / 2, lo_b / 2):
            cand = ExactAngle(t % 2)
            if cyclically_between(a, cand, b):
                return cand
        return None

    return _refine(sample, "find a rational angle inside the arc")
