"""Stokes directions on the circle and certified exact comparison.

A direction is the angle theta(c, m, k) = (arg(c) - pi/2 + k*pi)/m reduced
into [0, 2*pi), with c a nonzero Gaussian rational, m >= 1 and 0 <= k < 2m.
These are the zeros of theta -> Re(c * exp(-i*m*theta)).

Angles are never stored as floats.  When arg(c) is an exact multiple of
pi/4 (c on an axis or a diagonal) the angle is handled as an exact
rational multiple of pi; otherwise theta/pi is irrational (tan of a
rational multiple of pi is rational only at 0 and +-1), so equality is
decided algebraically through w = c1^m2 * conj(c2)^m1 and an integer
congruence on (k1, k2), and strict order by adaptive-precision interval
refinement, which terminates because unequal angles are separated.

Interval enclosures are computed in private mpmath interval contexts, one
per working precision, which are fixed when created and never written
again; their endpoints are compared and floored exactly, never rounded
through a float or an ``mpmath.mpf``.  No function here reads or writes
mpmath's global precision (``mpmath.mp`` or ``mpmath.iv``).
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


def _pin_int(value_iv_fn, rnd_lo: str = "c", prec: int = 64) -> int:
    """The integer that an interval family pins down as it shrinks.

    Each endpoint is rounded exactly: the lower one by ``rnd_lo`` ("c" for
    the unique integer inside, "f" for the common floor), the upper one by
    floor.
    """
    while prec <= _MAX_PREC:
        lo, hi = value_iv_fn(prec)._mpi_
        n = libmp.to_int(lo, rnd_lo)
        if n == libmp.to_int(hi, "f"):
            return n
        prec *= 2
    raise RuntimeError("interval refinement failed to pin an integer")


def angle_iv(angle: Angle, prec: int):
    """Enclosure of the reduced angle in [0, 2*pi)."""
    pi = _iv(prec).pi
    exact = as_exact(angle)
    if exact is not None:
        return _frac_iv(exact.t, prec) * pi
    # theta/(2*pi) is irrational here, so the reduction offset gets pinned.
    n = _pin_int(lambda p: _unreduced_iv(angle, p) / (2 * _iv(p).pi), "f")
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

    def s_iv(prec):
        e = d2.m * _arg_iv(d1.c, prec) - d1.m * _arg_iv(d2.c, prec)
        return (2 * e / _iv(prec).pi - rho) / 4

    s = _pin_int(s_iv)
    q = rho + 4 * s
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
    # A rational and an irrational multiple of pi are never equal, and two
    # inequivalent directions are separated; refine until disjoint.  x1 < x2
    # is True only when all of x1 lies below x2 (None while they overlap).
    prec = 64
    while prec <= _MAX_PREC:
        x1 = angle_iv(a1, prec)
        x2 = angle_iv(a2, prec)
        if x1 < x2:
            return -1
        if x2 < x1:
            return 1
        prec *= 2
    raise RuntimeError("interval refinement failed to separate angles")


def compare_directions(d1: StokesDirection, d2: StokesDirection) -> str:
    """'LT', 'EQ' or 'GT' by the represented angles in [0, 2*pi)."""
    c = compare_angles(d1, d2)
    return "EQ" if c == 0 else ("LT" if c < 0 else "GT")


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


def pair_sign_at(c: GaussianRational, m: int, angle: Angle) -> int:
    """Exact sign of Re(c * exp(-i*m*theta)): -1, 0 or +1.

    Zero exactly at the directions theta(c, m, k).
    """
    if c.is_zero():
        raise ValueError("sign of a zero coefficient is undefined")
    for k in range(2 * m):
        if angles_equal(angle, StokesDirection(c, m, k)):
            return 0
    prec = 64
    while prec <= _MAX_PREC:
        ctx = _iv(prec)
        th = angle_iv(angle, prec)
        val = _frac_iv(c.re, prec) * ctx.cos(m * th) + _frac_iv(c.im, prec) * ctx.sin(m * th)
        if val > 0:
            return 1
        if val < 0:
            return -1
        prec *= 2
    raise RuntimeError("interval refinement failed to determine a sign")


def cyclically_between(a: Angle, x: Angle, b: Angle) -> bool:
    """True when x lies strictly inside the ccw open arc from a to b."""
    ca_b = compare_angles(a, b)
    ca_x = compare_angles(a, x)
    cx_b = compare_angles(x, b)
    if ca_b < 0:
        return ca_x < 0 and cx_b < 0
    if ca_b > 0:
        return ca_x < 0 or cx_b < 0
    return False


def _t_endpoints(angle: Angle, prec: int) -> tuple[Fraction, Fraction]:
    """Endpoints of an enclosure of theta/pi, each rounded to nearest at
    prec - 11 bits: 53 at the first precision, so the arc samples stay those
    that 53-bit endpoint reads gave, and the circle JSON keeps its bytes."""
    x = angle_iv(angle, prec) / _iv(prec).pi
    return tuple(Fraction(*libmp.to_rational(libmp.mpf_pos(t, prec - 11, "n"))) for t in x._mpi_)


def rational_angle_between(a: Angle, b: Angle) -> ExactAngle:
    """Some exact rational-multiple-of-pi angle strictly inside ccw (a, b).

    Candidates come from rounded interval endpoints, which get finer as the
    precision doubles, and are verified exactly, so the returned angle is
    certified.
    """
    if compare_angles(a, b) == 0:
        raise ValueError("empty open arc")
    prec = 64
    while prec <= _MAX_PREC:
        hi_a = _t_endpoints(a, prec)[1]
        lo_b = _t_endpoints(b, prec)[0]
        candidates = [(hi_a + lo_b) / 2, (hi_a + 2) / 2, lo_b / 2]
        for t in candidates:
            cand = ExactAngle(t % 2)
            if cyclically_between(a, cand, b):
                return cand
        prec *= 2
    raise RuntimeError("failed to find a rational angle inside the arc")
