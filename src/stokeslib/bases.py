"""Finite combinatorial exit-path bases: stratified circles and posets.

A stratified circle with n point strata is presented by the zigzag quiver
with n points, n arcs and two arrows per point (counterclockwise and
clockwise into the adjacent arcs); since arcs are contractible this free
category is the exit category of the stratified circle.  Polyhedral bases
are posets.  No two nonidentity zigzag arrows compose, so a circle-base
morphism is an identity or one arrow; a poset base has one morphism per
comparable pair.  Its ends, plus the arrow name over a circle, determine it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .posets import FinPoset, validate_poset


@dataclass(frozen=True)
class BaseArrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class BaseCategory:
    kind: str  # "circle" or "poset"
    objects: tuple[str, ...]
    arrows: tuple[BaseArrow, ...]
    poset: FinPoset | None = None
    n: int = 0

    def arrow(self, name: str) -> BaseArrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(f"unknown base arrow {name!r}")


def make_circle_base(n: int) -> BaseCategory:
    """Zigzag base of a circle with n point strata and n open arcs.

    Arrow ``p{i}+`` exits the point counterclockwise into arc ``s{i}``;
    ``p{i}-`` exits clockwise into arc ``s{i-1}``.  For n = 1 both arrows
    target the unique arc but remain distinct.
    """
    if n < 1:
        raise ValueError("a circle base needs at least one point stratum")
    objects = tuple(f"p{i}" for i in range(n)) + tuple(f"s{i}" for i in range(n))
    arrows = []
    for i in range(n):
        arrows.append(BaseArrow(f"p{i}+", f"p{i}", f"s{i}"))
        arrows.append(BaseArrow(f"p{i}-", f"p{i}", f"s{(i - 1) % n}"))
    return BaseCategory("circle", objects, tuple(arrows), None, n)


def base_arrow_id(a: str, b: str) -> str:
    return f"{a}<{b}"


def make_poset_base(p: FinPoset) -> BaseCategory:
    ok, why = validate_poset(p)
    if not ok:
        raise ValueError(f"invalid poset: {why}")
    arrows = tuple(BaseArrow(base_arrow_id(a, b), a, b) for a, b in p.covers())
    if len({arr.name for arr in arrows}) < len(arrows):
        raise ValueError("two covers get one arrow name 'a<b'; element names with '<' make it ambiguous")
    return BaseCategory("poset", tuple(p.elements), arrows, p, 0)


@dataclass(frozen=True)
class BaseFunctor:
    """A functor of bases sending generators to generators or identities."""

    source: BaseCategory
    target: BaseCategory
    object_map: dict  # source object -> target object
    arrow_map: dict  # source arrow name -> target arrow name, or None for identity

    def __post_init__(self):
        for a in self.source.arrows:
            img = self.arrow_map.get(a.name)
            if img is None:
                if self.object_map[a.source] != self.object_map[a.target]:
                    raise ValueError(f"arrow {a.name} collapsed between distinct objects")
            else:
                ta = self.target.arrow(img)
                if ta.source != self.object_map[a.source] or ta.target != self.object_map[a.target]:
                    raise ValueError(f"arrow {a.name} mapped incompatibly")


def circle_cover_functor(d: int, n: int) -> BaseFunctor:
    """The degree-d covering CircleBase(d*n) -> CircleBase(n)."""
    if d < 1 or n < 1:
        raise ValueError("cover degree and point count must be positive")
    src = make_circle_base(d * n)
    tgt = make_circle_base(n)
    objs = {}
    arrs = {}
    for i in range(d * n):
        objs[f"p{i}"] = f"p{i % n}"
        objs[f"s{i}"] = f"s{i % n}"
        arrs[f"p{i}+"] = f"p{i % n}+"
        arrs[f"p{i}-"] = f"p{i % n}-"
    return BaseFunctor(src, tgt, objs, arrs)


def sub_interval_functor(base: BaseCategory, first_point: int, num_points: int) -> BaseFunctor:
    """Inclusion of a closed interval of the circle as a poset-base zigzag.

    The interval starts just before point ``first_point`` and contains
    ``num_points`` consecutive point strata; its exit category is the
    zigzag poset with points below their adjacent segments.
    """
    if base.kind != "circle":
        raise ValueError("intervals are cut out of circle bases")
    if num_points < 1 or num_points > base.n:
        raise ValueError("interval must contain between 1 and n points")
    elems: list[str] = ["t0"]
    pairs = []
    for j in range(num_points):
        elems.append(f"q{j}")
        elems.append(f"t{j + 1}")
        pairs.append((f"q{j}", f"t{j}"))
        pairs.append((f"q{j}", f"t{j + 1}"))
    zig = FinPoset.from_relation(elems, pairs)
    src = make_poset_base(zig)
    objs: dict[str, str] = {}
    arrs: dict[str, str | None] = {}
    for j in range(num_points):
        i = (first_point + j) % base.n
        objs[f"q{j}"] = f"p{i}"
        objs[f"t{j}"] = f"s{(i - 1) % base.n}"
        objs[f"t{j + 1}"] = f"s{i}"
        arrs[base_arrow_id(f"q{j}", f"t{j}")] = f"p{i}-"
        arrs[base_arrow_id(f"q{j}", f"t{j + 1}")] = f"p{i}+"
    return BaseFunctor(src, base, objs, arrs)
