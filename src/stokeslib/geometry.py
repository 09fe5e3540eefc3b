"""Stokes stratified circles from irregular values, and polyhedral spaces.

An irregular value is a truncated Laurent tail sum c * z^(-q) with exact
Gaussian-rational coefficients and positive rational pole orders.  The
order between two values at a circle direction theta is the sign of
Re(c * exp(-i*m*theta)) for the leading term (m, c) of their difference;
the directions where the sign vanishes are the Stokes directions of the
pair, and the circle stratified by all of them carries the fibration of
pointwise orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .bases import BaseFunctor, make_circle_base, make_poset_base, sub_interval_functor
from .directions import (
    Angle,
    ExactAngle,
    StokesDirection,
    compare_angles,
    cyclically_between,
    locate_angle,
    pair_sign_at,
    rational_angle_between,
    sorted_directions,
)
from .exactmath import GaussianRational, rat
from .fibrations import (
    FibrationMorphism,
    LevelStructure,
    StokesFibration,
    pullback_fibration,
    validate_fibration,
)
from .posets import FinPoset, MonotoneMap
from .functors import StokesFunctor, pullback_functor


@dataclass(frozen=True)
class IrregularValue:
    """A truncated Laurent tail: terms (q, c) with strictly decreasing q > 0."""

    terms: tuple  # tuple of (Fraction q, GaussianRational c)

    def __post_init__(self):
        qs = [q for q, _ in self.terms]
        if any(q <= 0 for q in qs):
            raise ValueError("pole orders must be positive")
        if any(qs[i] <= qs[i + 1] for i in range(len(qs) - 1)):
            raise ValueError("terms must have strictly decreasing orders")
        if any(c.is_zero() for _, c in self.terms):
            raise ValueError("zero coefficients are not stored")

    @staticmethod
    def of(*terms) -> "IrregularValue":
        out = tuple((rat(q), c) for q, c in terms)
        return IrregularValue(out)

    @staticmethod
    def zero() -> "IrregularValue":
        return IrregularValue(())


def _difference_terms(a: IrregularValue, b: IrregularValue) -> list:
    acc: dict[Fraction, GaussianRational] = {}
    for q, c in a.terms:
        acc[q] = acc.get(q, GaussianRational.of(0)) + c
    for q, c in b.terms:
        acc[q] = acc.get(q, GaussianRational.of(0)) - c
    out = [(q, c) for q, c in acc.items() if not c.is_zero()]
    out.sort(key=lambda t: t[0], reverse=True)
    return out


def leading_data(a: IrregularValue, b: IrregularValue):
    """Leading (order, coefficient) of a - b, or None when a = b."""
    diff = _difference_terms(a, b)
    if not diff:
        return None
    return diff[0]


@dataclass(frozen=True)
class ExponentialData:
    """A finite set of named, pairwise distinct irregular values."""

    values: dict  # name -> IrregularValue

    def __post_init__(self):
        names = sorted(self.values)
        for i, na in enumerate(names):
            for nb in names[i + 1 :]:
                if leading_data(self.values[na], self.values[nb]) is None:
                    raise ValueError(f"values {na} and {nb} coincide")

    @property
    def names(self) -> list[str]:
        return sorted(self.values)

    @property
    def ramification(self) -> int:
        d = 1
        for v in self.values.values():
            for q, _ in v.terms:
                d = lcm(d, q.denominator)
        return d

    def pairs(self) -> list[tuple[str, str]]:
        names = self.names
        return [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]


def order_at(a: IrregularValue, b: IrregularValue, where: Angle) -> str:
    """'LT', 'GT', 'EQ' or 'INCOMPARABLE' for the moderate-growth order at a direction.

    a is below b when the leading term (m, c) of a - b satisfies
    Re(c * exp(-i*m*theta)) < 0; the zeros are exactly the pair's Stokes
    directions, where the two values cannot be compared.
    """
    lead = leading_data(a, b)
    if lead is None:
        return "EQ"
    q, c = lead
    if q.denominator != 1:
        raise ValueError("ramified pair; pass through a Kummer cover first")
    sign = pair_sign_at(c, int(q), where)
    if sign == 0:
        return "INCOMPARABLE"
    return "LT" if sign < 0 else "GT"


def stokes_directions(a: IrregularValue, b: IrregularValue) -> list[StokesDirection]:
    """The 2m directions of an unequal pair, sorted by the circle order."""
    lead = leading_data(a, b)
    if lead is None:
        raise ValueError("equal values have no Stokes directions")
    q, c = lead
    if q.denominator != 1:
        raise ValueError("ramified pair; pass through a Kummer cover first")
    return sorted_directions(c, int(q))


def kummer_pullback(e: ExponentialData, d: int) -> ExponentialData:
    """Substitute z -> z^d, multiplying every pole order by d."""
    if d < 1 or d % e.ramification != 0:
        raise ValueError("cover degree must be a positive multiple of the ramification")
    values = {
        name: IrregularValue(tuple((q * d, c) for q, c in v.terms))
        for name, v in e.values.items()
    }
    return ExponentialData(values)


@dataclass(frozen=True)
class CircleSpace:
    """The stratified circle adapted to an ExponentialData set.

    ``points[i]`` is the angle of point stratum p{i}; ``arc_samples[i]`` is
    a certified rational angle strictly inside arc s{i} (from points[i]
    counterclockwise to points[i+1]); ``provenance[i]`` lists the pairs
    whose Stokes directions produced points[i].

    The strata orders come from the sorted directions by the parity rule of
    ``pair_sign_at``, and no sign is evaluated: on s{i}, b < a when the
    pair's last direction at or before points[i] has k even and a < b when
    k is odd; on p{i} the pairs of ``provenance[i]`` are incomparable and
    the others keep their order.
    """

    data: ExponentialData
    fibration: StokesFibration
    points: tuple
    arc_samples: tuple
    provenance: dict
    degenerate: bool = False


def build_circle_space(e: ExponentialData) -> CircleSpace:
    """Points at the sorted Stokes directions, tagged (pair, k); orders by the parity of k."""
    if len(e.values) < 1:
        raise ValueError("at least one irregular value is required")
    if e.ramification != 1:
        raise ValueError("ramified data; apply kummer_pullback first")
    points, hits = [], []
    for a, b in e.pairs():
        q, c = leading_data(e.values[a], e.values[b])
        for d in (StokesDirection(c, int(q), k) for k in range(2 * int(q))):
            i, on_point = locate_angle(d, points)
            if not on_point:
                points.insert(i, d)
                hits.insert(i, [])
            hits[i].append(((a, b), d.k))
    if not points:
        # single value: a degenerate one-point circle carrying the constant fibration
        base = make_circle_base(1)
        only = FinPoset.antichain(e.names)
        ident = MonotoneMap(only, only, {n: n for n in e.names})
        fib = StokesFibration(base, {"p0": only, "s0": only}, {"p0+": ident, "p0-": ident})
        return CircleSpace(e, fib, (ExactAngle(Fraction(0)),), (ExactAngle(Fraction(1)),), {0: []}, True)
    n = len(points)
    samples = [rational_angle_between(points[i], points[(i + 1) % n]) for i in range(n)]

    def order(last: dict, incomparable=()) -> FinPoset:
        rel = [(a, b) if k % 2 else (b, a) for (a, b), k in last.items() if (a, b) not in incomparable]
        return FinPoset.from_relation(e.names, rel)

    # each pair's last direction overall fixes its order on s{n-1}, the arc through 0
    last = {pair: k for here in hits for pair, k in here}
    fibers = {}
    for i, here in enumerate(hits):
        fibers[f"p{i}"] = order(last, {pair for pair, _ in here})
        last.update(here)
        fibers[f"s{i}"] = order(last)
    transitions = {}
    for i in range(n):
        ident = {name: name for name in e.names}
        transitions[f"p{i}+"] = MonotoneMap(fibers[f"p{i}"], fibers[f"s{i}"], ident)
        transitions[f"p{i}-"] = MonotoneMap(fibers[f"p{i}"], fibers[f"s{(i - 1) % n}"], ident)
    fib = StokesFibration(make_circle_base(n), fibers, transitions)
    ok, why = validate_fibration(fib)
    if not ok:
        raise AssertionError(f"constructed circle fibration invalid: {why}")
    provenance = {i: [pair for pair, _ in here] for i, here in enumerate(hits)}
    return CircleSpace(e, fib, tuple(points), tuple(samples), provenance, False)


# ---------------------------------------------------------------------------
# pole-order level structure


def pole_level_structure(s: CircleSpace) -> LevelStructure:
    """The chain of quotient fibrations from truncating pole orders.

    With r the maximal pairwise leading order, stage t = 1, ..., r
    identifies values whose difference has order <= t; every stage is a
    level graduation morphism over the circle base, with the unique
    quotient order making the fiber maps level morphisms.  A class is named
    by joining its members with '+', so no value name may contain '+'.

    The order of a difference is an ultrametric, ord(a - c) <=
    max(ord(a - b), ord(b - c)), so the class of a at stage t is the ball
    {b : b = a or ord(a - b) <= t}.  For a, a' in one class and b in
    another, ord(a - a') <= t < ord(a - b), so a' - b has the leading term
    of a - b: every member pair of two classes is ordered alike, and one
    representative per class reads the quotient order off the fine fiber.
    """
    e = s.data
    names = e.names
    bad = next((n for n in names if "+" in n), None)
    if bad is not None:
        raise ValueError(f"value name {bad!r} contains '+', which joins the names of a level class")
    order = {(a, b): leading_data(e.values[a], e.values[b])[0] for a in names for b in names if a != b}
    r = int(max(order.values())) if order else 1
    base = s.fibration.base
    stages = []
    prev, prev_fib = {n: n for n in names}, s.fibration
    for t in range(1, r + 1):
        cls = {a: "+".join(b for b in names if b == a or order[a, b] <= t) for a in names}
        rep = {c: a for a, c in cls.items()}
        class_names = sorted(rep)
        fibers = {}
        for obj in base.objects:
            # the fine fiber holds the pairwise orders at this stratum, and
            # the strict order is transitive, so the closure adds no pair
            fine = s.fibration.fiber(obj)
            rel = [(c, d) for c in class_names for d in class_names if fine.lt(rep[c], rep[d])]
            fibers[obj] = FinPoset.from_relation(class_names, rel)
        ident = {c: c for c in class_names}
        transitions = {arr.name: MonotoneMap(fibers[arr.source], fibers[arr.target], ident) for arr in base.arrows}
        fib = StokesFibration(base, fibers, transitions)
        step = dict(sorted({prev[n]: cls[n] for n in names}.items()))  # in the source fiber's order
        maps = {obj: MonotoneMap(prev_fib.fiber(obj), fibers[obj], step) for obj in base.objects}
        stages.append(FibrationMorphism(prev_fib, fib, maps))
        prev, prev_fib = cls, fib
    return LevelStructure(tuple(stages))


# ---------------------------------------------------------------------------
# elementary arcs and covers


@dataclass(frozen=True)
class Arc:
    """A closed arc from start counterclockwise to end; full = whole circle."""

    start: Angle | None
    end: Angle | None
    full: bool = False

    def __post_init__(self):
        if not self.full:
            if self.start is None or self.end is None:
                raise ValueError("bounded arcs need both endpoints")
            if compare_angles(self.start, self.end) == 0:
                raise ValueError("degenerate arc")

    def contains_strictly(self, x: Angle) -> bool:
        return self.full or cyclically_between(self.start, x, self.end)


def _before(x: Angle, i: int, y: Angle, j: int) -> bool:
    """x comes before y counterclockwise inside one gap.

    An angle that is not a point is located by its insertion index i among
    the sorted points: it lies in the gap (p[i-1], p[i]), and i is n before
    angle 0 and 0 after it in the gap that crosses 0.
    """
    return i > j if i != j else compare_angles(x, y) < 0


def _locate_arc(s: CircleSpace, arc: Arc) -> tuple[int, int, int] | None:
    """(i, j, count): the insertion indices of a proper arc's ends and the
    number of points strictly inside it, which are p[i], ..., p[i+count-1]
    (indices mod n); None when an end is a point."""
    i, on_start = locate_angle(arc.start, s.points)
    j, on_end = locate_angle(arc.end, s.points)
    if on_start or on_end:
        return None
    n = len(s.points)
    count = (j - i) % n
    if count == 0 and not _before(arc.start, i, arc.end, j):
        count = n  # both ends in one gap, the arc runs the long way round
    return i, j, count


def _window(s: CircleSpace, i: int) -> int | None:
    """The number of points in the run from p[i] whose provenance names every
    pair exactly once, or None.  No pair has two Stokes points at one point,
    so only the first run that names len(pairs) pairs can be that window; it
    never holds all n points, because each pair has 2m >= 2 of them."""
    pairs, n, inside = s.data.pairs(), len(s.points), []
    for r in range(n):
        inside += s.provenance[(i + r) % n]
        if len(inside) >= len(pairs):
            return r + 1 if sorted(inside) == pairs else None
    return None


def is_elementary_arc(s: CircleSpace, arc: Arc) -> bool:
    """Each unequal pair has exactly one Stokes point in the closed arc, in
    its interior: no end is a point, and the points inside are a window.

    The order of the pair then flips across that point, because the zeros
    of Re(c * exp(-i*m*theta)) are simple; so the sides need no check.
    """
    if s.degenerate:
        return True
    located = None if arc.full else _locate_arc(s, arc)
    return located is not None and _window(s, located[0]) == located[2]


def _first_gap(n: int, windows: dict) -> int | None:
    """The first g whose gap (p[g], p[g+1]) the arcs of the windows {i: count}
    leave uncovered, or None.

    The arc of window (i, c) runs from the first half of gap i-1 to the
    second half of gap i+c-1, so gap g is covered when one window holds p[g]
    and p[g+1], or one ends at p[g] and another starts at p[g+1]; either way
    p[g] lies in a window.  Any elementary arc holds a window and ends in its
    flanking gaps, so elementary arcs cover no gap that these arcs miss.
    """
    inner = {(i + r) % n for i, c in windows.items() for r in range(c - 1)}
    ends = {(i + c - 1) % n for i, c in windows.items()}
    return next((g for g in range(n) if g not in inner and not (g in ends and (g + 1) % n in windows)), None)


def elementary_cover(s: CircleSpace) -> list[Arc] | None:
    """Closed elementary arcs whose interiors cover the circle, one per window
    of the sorted points, or None, which proves that no such arcs exist (one
    level step is then needed first).  Windows are dropped in increasing
    start while the rest still cover, so no arc of the cover is redundant."""
    if s.degenerate:
        return [Arc(None, None, full=True)]
    n = len(s.points)
    windows = {i: c for i in range(n) if (c := _window(s, i)) is not None}
    if _first_gap(n, windows) is not None:
        return None
    for i in list(windows):
        rest = {k: c for k, c in windows.items() if k != i}
        if _first_gap(n, rest) is None:
            windows = rest
    p, mid = s.points, s.arc_samples
    ends = [(i, (i + c - 1) % n) for i, c in windows.items()]
    return [Arc(rational_angle_between(p[i - 1], mid[i - 1]), rational_angle_between(mid[j], p[(j + 1) % n]))
            for i, j in ends]


# ---------------------------------------------------------------------------
# restriction to arcs


def restrict_to_arc(s: CircleSpace, arc: Arc) -> tuple[StokesFibration, BaseFunctor]:
    """The fibration over the closed arc's exit poset, with the inclusion functor.

    Arc endpoints must lie strictly inside open arcs of the stratification.
    """
    if arc.full:
        raise ValueError("restriction expects a proper closed arc")
    located = _locate_arc(s, arc)
    if located is None:
        raise ValueError("arc endpoints must avoid the point strata")
    i, _, count = located
    n = len(s.points)
    if count:
        basef = sub_interval_functor(s.fibration.base, i % n, count)
    else:  # the arc sits inside the open stratum of its gap
        point = make_poset_base(FinPoset.antichain(["t0"]))
        basef = BaseFunctor(point, s.fibration.base, {"t0": f"s{(i - 1) % n}"}, {})
    return pullback_fibration(basef, s.fibration), basef


def restrict_functor_to_arc(s: CircleSpace, arc: Arc, f: StokesFunctor) -> StokesFunctor:
    _, basef = restrict_to_arc(s, arc)
    return pullback_functor(basef, f)


# ---------------------------------------------------------------------------
# polyhedral spaces


@dataclass(frozen=True)
class AffineForm:
    """phi(x) = coeffs . x + const over Q^n."""

    coeffs: tuple
    const: Fraction

    @staticmethod
    def of(coeffs, const=0) -> "AffineForm":
        return AffineForm(tuple(rat(c) for c in coeffs), rat(const))

    def __call__(self, point) -> Fraction:
        return sum((c * rat(p) for c, p in zip(self.coeffs, point)), self.const)


def _sign_leq(sv: str, tv: str) -> bool:
    # 0 is initial in the span poset; deeper strata lie below
    return all(s == "0" or s == t for s, t in zip(sv, tv))


@dataclass(frozen=True)
class PolyhedralSpace:
    forms: tuple
    strata: tuple  # realized sign vectors
    fibration: StokesFibration
    pair_data: dict  # (name, name) -> (form index, orientation '+'/'-')


def build_polyhedral_space(forms, sign_vectors, pair_data) -> PolyhedralSpace:
    """Sign-vector poset base with the fiber orders cut out by one form per pair.

    ``pair_data[(a, b)] = (form index, orient)`` declares a < b on the
    strata where the form has sign ``orient`` and b < a on the opposite
    side; the pair is incomparable exactly on the form's zero stratum set.
    """
    forms = tuple(forms)
    strata = tuple(sign_vectors)
    if len(set(strata)) != len(strata):
        raise ValueError("duplicate sign vectors")
    for sv in strata:
        if len(sv) != len(forms) or any(ch not in "-0+" for ch in sv):
            raise ValueError(f"malformed sign vector {sv!r}")
    names = sorted({n for pair in pair_data for n in pair})
    pairs = {(a, b) for i, a in enumerate(names) for b in names[i + 1 :]}
    normalized = {}
    for (a, b), (idx, orient) in pair_data.items():
        if not 0 <= idx < len(forms) or orient not in ("+", "-"):
            raise ValueError("inconsistent pair data")
        key = (a, b) if (a, b) in pairs else (b, a)
        if key != (a, b):
            orient = "+" if orient == "-" else "-"
        if key in normalized:
            raise ValueError(f"pair {key} is declared twice")
        normalized[key] = (idx, orient)
    if set(normalized) != pairs:
        raise ValueError("every unordered pair needs exactly one form assignment")
    rel = [(sv, tv) for sv in strata for tv in strata if sv != tv and _sign_leq(sv, tv)]
    base_poset = FinPoset.from_relation(strata, rel)
    base = make_poset_base(base_poset)
    fibers = {}
    for sv in strata:
        fiber_rel = []
        for (a, b), (idx, orient) in normalized.items():
            sign = sv[idx]
            if sign == "0":
                continue
            if sign == orient:
                fiber_rel.append((a, b))
            else:
                fiber_rel.append((b, a))
        fibers[sv] = FinPoset.from_relation(names, fiber_rel)
    transitions = {}
    for arr in base.arrows:
        ident = {n: n for n in names}
        transitions[arr.name] = MonotoneMap(fibers[arr.source], fibers[arr.target], ident)
    fib = StokesFibration(base, fibers, transitions)
    ok, why = validate_fibration(fib)
    if not ok:
        raise ValueError(f"inconsistent pair data: {why}")
    return PolyhedralSpace(forms, strata, fib, normalized)


def check_polyhedral_elementarity(s: PolyhedralSpace) -> bool:
    """Hypotheses of the polyhedral splitting criterion, per unequal pair:
    nonempty zero locus, both open sides realized and connected, with the
    declared order flip across the wall."""
    poset = s.fibration.base.poset
    for (a, b), (idx, orient) in s.pair_data.items():
        zero = [sv for sv in s.strata if sv[idx] == "0"]
        plus = [sv for sv in s.strata if sv[idx] == "+"]
        minus = [sv for sv in s.strata if sv[idx] == "-"]
        if not zero or not plus or not minus:
            return False
        if not _connected(poset, plus) or not _connected(poset, minus):
            return False
        # the declared flip: a < b on the orient side, b < a on the other
        for sv in plus + minus:
            fiber = s.fibration.fiber(sv)
            if sv[idx] == orient:
                if not fiber.lt(a, b):
                    return False
            else:
                if not fiber.lt(b, a):
                    return False
        for sv in zero:
            fiber = s.fibration.fiber(sv)
            if fiber.le(a, b) or fiber.le(b, a):
                return False
    return True


def _connected(poset: FinPoset, subset: list) -> bool:
    if not subset:
        return False
    keep = set(subset)
    adj = {v: set() for v in keep}
    for u in keep:
        for v in keep:
            if u != v and (poset.le(u, v) or poset.le(v, u)):
                adj[u].add(v)
                adj[v].add(u)
    seen = set()
    stack = [subset[0]]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return seen == keep
