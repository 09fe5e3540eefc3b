"""Cocartesian fibrations in finite posets over circle and poset bases."""

from __future__ import annotations

from dataclasses import dataclass

from .bases import BaseCategory, BaseFunctor, base_arrow_id, make_circle_base
from .posets import FinPoset, MonotoneMap, graded_poset, is_level_morphism, underlying_set, validate_poset


@dataclass(frozen=True)
class StokesFibration:
    """A finite poset per base object, a monotone transition per base arrow."""

    base: BaseCategory
    fibers: dict  # base object -> FinPoset
    transitions: dict  # base arrow name -> MonotoneMap

    def fiber(self, x: str) -> FinPoset:
        return self.fibers[x]

    def transition(self, arrow_name: str) -> MonotoneMap:
        return self.transitions[arrow_name]


def _transition_walk(i: StokesFibration) -> tuple[dict, tuple | None]:
    """The walk up a poset base: each x < y to its composite transition's dict, and the first conflict."""

    def step(u, v, m):
        t = i.transition(base_arrow_id(u, v))
        return t.assignment if m is None else {a: t(c) for a, c in m.items()}

    return i.base.poset.path_composites(step)


def validate_fibration(i: StokesFibration) -> tuple[bool, str]:
    """Check fibers, transitions and (for poset bases) path independence."""
    for x in i.base.objects:
        if x not in i.fibers:
            return False, f"missing fiber at {x}"
        ok, why = validate_poset(i.fiber(x))
        if not ok:
            return False, f"fiber at {x}: {why}"
    for a in i.base.arrows:
        t = i.transitions.get(a.name)
        if t is None:
            return False, f"missing transition for arrow {a.name}"
        if t.source != i.fiber(a.source) or t.target != i.fiber(a.target):
            return False, f"transition {a.name} has wrong endpoints"
        if not t.is_valid():
            return False, f"transition {a.name} is not monotone"
    if i.base.kind == "poset":
        _, bad = _transition_walk(i)
        if bad is not None:
            return False, f"path independence fails between {bad[0]} and {bad[1]}"
    return True, "ok"


def fiberwise_set(i: StokesFibration) -> StokesFibration:
    """Replace every fiber by its underlying set, transitions by the same maps."""
    fibers = {x: underlying_set(f) for x, f in i.fibers.items()}
    transitions = {
        name: MonotoneMap(fibers[i.base.arrow(name).source], fibers[i.base.arrow(name).target], t.assignment)
        for name, t in i.transitions.items()
    }
    return StokesFibration(i.base, fibers, transitions)


@dataclass(frozen=True)
class CocartesianSection:
    choice: dict  # base object -> fiber element

    def __call__(self, x: str) -> str:
        return self.choice[x]


def cocartesian_sections(i: StokesFibration) -> list[CocartesianSection]:
    """Exhaustive list, by backtracking over the base objects.

    The objects are visited breadth first along the arrows, so each arrow is
    checked as soon as both of its ends are chosen, and the search keeps an
    explicit stack instead of recursing.  The sections are listed by the
    index of each choice in its fiber, read in base-object order.
    """
    objects = list(i.base.objects)
    if not objects:
        return [CocartesianSection({})]
    neighbours: dict = {x: [] for x in objects}
    for arr in i.base.arrows:
        neighbours[arr.source].append(arr.target)
        neighbours[arr.target].append(arr.source)
    order: list = []
    position: dict = {}
    for root in objects:
        queue = [root]
        for x in queue:
            if x not in position:
                position[x] = len(order)
                order.append(x)
                queue.extend(neighbours[x])
    # each arrow is checked at the later of its two ends
    checks: list = [[] for _ in order]
    for arr in i.base.arrows:
        checks[max(position[arr.source], position[arr.target])].append(
            (i.transition(arr.name), arr.source, arr.target)
        )
    found = []
    choice: dict = {}
    stack = [iter(i.fiber(order[0]).elements)]
    while stack:
        k = len(stack) - 1
        a = next(stack[-1], None)
        if a is None:
            stack.pop()
            choice.pop(order[k], None)
            continue
        choice[order[k]] = a
        if all(t(choice[src]) == choice[tgt] for t, src, tgt in checks[k]):
            if k + 1 < len(order):
                stack.append(iter(i.fiber(order[k + 1]).elements))
            else:
                found.append({x: choice[x] for x in objects})
    index = {x: {a: n for n, a in enumerate(i.fiber(x).elements)} for x in objects}
    found.sort(key=lambda c: tuple(index[x][c[x]] for x in objects))
    return [CocartesianSection(c) for c in found]


def stokes_locus(i: StokesFibration, s: CocartesianSection, t: CocartesianSection) -> set[str]:
    """Base objects where the two section values cannot be compared."""
    out = set()
    for x in i.base.objects:
        f = i.fiber(x)
        a, b = s(x), t(x)
        if not (f.le(a, b) or f.le(b, a)):
            out.add(x)
    return out


@dataclass(frozen=True)
class FibrationMorphism:
    """A fiberwise map of fibrations over one base, commuting with transitions."""

    source: StokesFibration
    target: StokesFibration
    maps: dict  # base object -> MonotoneMap fiber_I(x) -> fiber_J(x)

    def map_at(self, x: str) -> MonotoneMap:
        return self.maps[x]

    @staticmethod
    def identity(i: StokesFibration) -> "FibrationMorphism":
        return FibrationMorphism(i, i, {x: MonotoneMap.identity(i.fiber(x)) for x in i.base.objects})

    def squares_commute(self) -> bool:
        for a in self.source.base.arrows:
            f_gamma = self.source.transition(a.name)
            g_gamma = self.target.transition(a.name)
            p_x, p_y = self.maps[a.source], self.maps[a.target]
            for elem in f_gamma.source.elements:
                if g_gamma(p_x(elem)) != p_y(f_gamma(elem)):
                    return False
        return True


def terminal_fibration(base: BaseCategory) -> StokesFibration:
    pt = FinPoset.antichain(["*"])
    return StokesFibration(
        base,
        {x: pt for x in base.objects},
        {a.name: MonotoneMap(pt, pt, {"*": "*"}) for a in base.arrows},
    )


def terminal_morphism(i: StokesFibration) -> FibrationMorphism:
    t = terminal_fibration(i.base)
    maps = {
        x: MonotoneMap(i.fiber(x), t.fiber(x), {a: "*" for a in i.fiber(x).elements})
        for x in i.base.objects
    }
    return FibrationMorphism(i, t, maps)


def _locally_constant_sets(j: StokesFibration) -> bool:
    """The graduation-morphism condition on a target: its underlying-set
    fibration is locally constant, i.e. every transition is a bijection."""
    return all(j.transition(a.name).is_bijective() for a in j.base.arrows)


def is_level_fibration_morphism(p: FibrationMorphism) -> bool:
    """Fiberwise level, commuting squares, and target set-transitions bijective."""
    if p.source.base is not p.target.base and p.source.base != p.target.base:
        return False
    if not p.squares_commute():
        return False
    if not all(is_level_morphism(p.maps[x]) for x in p.source.base.objects):
        return False
    return _locally_constant_sets(p.target)


def graded_fibration(p: FibrationMorphism) -> StokesFibration:
    """Fiberwise graded posets; transitions restrict because the target's
    set-transitions are bijective."""
    if not p.squares_commute():
        raise ValueError("fibration morphism squares do not commute")
    if not _locally_constant_sets(p.target):
        raise ValueError("target set-fibration is not locally constant")
    fibers = {x: graded_poset(p.maps[x]) for x in p.source.base.objects}
    transitions = {}
    for a in p.source.base.arrows:
        t = p.source.transition(a.name)
        transitions[a.name] = MonotoneMap(fibers[a.source], fibers[a.target], t.assignment)
        if not transitions[a.name].is_valid():
            raise ValueError(f"graded transition {a.name} not monotone")
    return StokesFibration(p.source.base, fibers, transitions)


def pullback_fibration(f: BaseFunctor, i: StokesFibration) -> StokesFibration:
    """Base change along a functor mapping generators to generators or identities."""
    if f.target != i.base:
        raise ValueError("functor target does not match the fibration base")
    fibers = {x: i.fiber(f.object_map[x]) for x in f.source.objects}
    transitions = {}
    for a in f.source.arrows:
        img = f.arrow_map.get(a.name)
        if img is None:
            transitions[a.name] = MonotoneMap.identity(fibers[a.source])
        else:
            t = i.transition(img)
            transitions[a.name] = MonotoneMap(fibers[a.source], fibers[a.target], t.assignment)
    return StokesFibration(f.source, fibers, transitions)


# ---------------------------------------------------------------------------
# total category and composable chains


@dataclass(frozen=True)
class TotalMorphism:
    """A morphism (x, a) -> (y, c) of the total category, f_gamma(a) <= c.

    Its ends determine the base morphism gamma, except over the one-point
    circle, where the parallel arrows p0+ and p0- both run p0 -> s0; so over
    a circle base ``arrow`` names the base arrow crossed, or is None inside a
    fiber.  Over a poset base it is always None.
    """

    source: tuple[str, str]
    target: tuple[str, str]
    arrow: str | None = None

    @property
    def is_identity(self) -> bool:
        return self.source == self.target


@dataclass
class TotalCategory:
    """The Grothendieck construction of a fibration, as a finite category.

    Morphisms (x,a) -> (y,c) correspond to pairs of a base morphism
    gamma: x -> y and a fiber comparison f_gamma(a) <= c; parallel
    generator paths over one gamma are identified by the cocartesian-lift
    relations, so these pairs already present the quotient category.

    The category is acyclic: the fibers are posets, and the base is a zigzag
    or a poset, so a morphism that leaves its fiber never comes back.  A
    composite crosses at most one circle arrow, because no two nonidentity
    zigzag arrows compose, so it keeps the arrow of whichever factor has one.
    """

    fibration: StokesFibration
    objects: list
    morphisms: list

    @staticmethod
    def of(fib: StokesFibration) -> "TotalCategory":
        """Per base object the fiber pairs a <= c, then per circle arrow (in
        arrow order) or per poset pair x < y (in element order) the pairs
        f_gamma(a) <= c; a in source-fiber order, c in target-fiber order."""
        base = fib.base
        objects = [(x, a) for x in base.objects for a in fib.fiber(x).elements]
        homs = [(x, x, None, {a: a for a in fib.fiber(x).elements}) for x in base.objects]
        if base.kind == "circle":
            homs += [(arr.source, arr.target, arr.name, fib.transition(arr.name).assignment) for arr in base.arrows]
        else:
            p = base.poset
            table, bad = _transition_walk(fib)
            if bad is not None:
                raise ValueError(f"path independence fails between {bad[0]} and {bad[1]}")
            homs += [(x, y, None, table[x, y]) for x in p.elements for y in p.elements if p.lt(x, y)]
        morphisms = []
        for x, y, arrow, t in homs:
            fy = fib.fiber(y)
            for a in fib.fiber(x).elements:
                morphisms += [TotalMorphism((x, a), (y, c), arrow) for c in fy.elements if fy.le(t[a], c)]
        return TotalCategory(fib, objects, morphisms)

    def nonidentity(self) -> list:
        return [m for m in self.morphisms if not m.is_identity]

    def compose(self, first: TotalMorphism, second: TotalMorphism) -> TotalMorphism:
        if first.target != second.source:
            raise ValueError("not composable")
        return TotalMorphism(first.source, second.target, first.arrow or second.arrow)


def nondegenerate_chains(t: TotalCategory) -> dict[int, list]:
    """Composable chains of nonidentity morphisms, grouped by length.

    Length 0 chains are the objects.  Enumeration stops at the first length
    with no chains.
    """
    chains: dict[int, list] = {0: list(t.objects)}
    by_source: dict = {}
    for m in t.nonidentity():
        by_source.setdefault(m.source, []).append(m)
    level = [(m,) for m in t.nonidentity()]
    while level:
        chains[len(level[0])] = level
        level = [ch + (m,) for ch in level for m in by_source.get(ch[-1].target, [])]
    return chains


# ---------------------------------------------------------------------------
# level structures and refinement collapse


@dataclass(frozen=True)
class LevelStructure:
    """A chain of fibrations I^d -> ... -> I^0 over one base.

    ``stages[k]`` is the morphism I^(d-k) -> I^(d-k-1); every stage must be
    a level graduation morphism.
    """

    stages: tuple

    def __post_init__(self):
        for a, b in zip(self.stages, self.stages[1:]):
            if a.target is not b.source and a.target != b.source:
                raise ValueError("stages do not chain")

    @property
    def bottom(self) -> StokesFibration:
        return self.stages[-1].target

    def validate(self) -> tuple[bool, str]:
        for idx, p in enumerate(self.stages):
            if not is_level_fibration_morphism(p):
                return False, f"stage {idx} is not a level graduation morphism"
        return True, "ok"


def collapse_refinement(i: StokesFibration) -> tuple[StokesFibration, dict, bool]:
    """Merge circle strata across points whose transitions are isomorphisms.

    Returns (collapsed fibration, old-object -> new-object map, fully_constant).
    When every transition is an isomorphism the input is returned unchanged
    with the fully-constant flag set.

    The kept points are those with a transition that is not an isomorphism.
    Kept point j becomes p{t}, and its run of arcs s{j}, ..., up to the next
    kept point, becomes s{t} with the fiber of the run's last arc; p{t}+
    crosses each removed point k of the run by p{k}+ o (p{k}-)^-1.
    """
    if i.base.kind != "circle":
        raise ValueError("refinement collapse applies to circle bases")
    n = i.base.n
    kept = [j for j in range(n) if not all(i.transition(f"p{j}{side}").is_poset_isomorphism() for side in "+-")]
    if not kept:
        return i, {x: x for x in i.base.objects}, True
    fibers, transitions = {}, {}
    correspondence = {f"p{j}": f"p{t}" for t, j in enumerate(kept)}
    for t, j in enumerate(kept):
        run = [(j + r) % n for r in range((kept[(t + 1) % len(kept)] - j - 1) % n + 1)]
        fibers[f"p{t}"], fibers[f"s{t}"] = i.fiber(f"p{j}"), i.fiber(f"s{run[-1]}")
        correspondence.update({f"s{k}": f"s{t}" for k in run})
        correspondence.update({f"p{k}": f"s{t}" for k in run[1:]})
        walk = i.transition(f"p{j}+")
        for k in run[1:]:
            walk = i.transition(f"p{k}+").compose_after(i.transition(f"p{k}-").inverse()).compose_after(walk)
        transitions[f"p{t}+"] = MonotoneMap(fibers[f"p{t}"], fibers[f"s{t}"], walk.assignment)
        cw = i.transition(f"p{j}-").assignment
        transitions[f"p{t}-"] = MonotoneMap(fibers[f"p{t}"], i.fiber(f"s{(j - 1) % n}"), cw)
    return StokesFibration(make_circle_base(len(kept)), fibers, transitions), correspondence, False
