"""Finite posets, monotone maps, level morphisms and graded posets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class FinPoset:
    """A finite poset on opaque string identifiers.

    ``leq`` stores the full relation as a frozenset of (a, b) pairs with
    a <= b; the element tuple fixes the canonical enumeration order.
    """

    elements: tuple[str, ...]
    leq: frozenset[tuple[str, str]]

    @staticmethod
    def from_relation(elements: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "FinPoset":
        """Poset generated by ``pairs`` under reflexive-transitive closure."""
        elems = tuple(elements)
        pairs = list(pairs)
        # one Warshall pass over bitset rows, also through elements that
        # only the pairs mention
        nodes = list(dict.fromkeys([*elems, *(x for pair in pairs for x in pair)]))
        index = {x: i for i, x in enumerate(nodes)}
        rows = [0] * len(nodes)
        for a in elems:
            rows[index[a]] |= 1 << index[a]
        for a, b in pairs:
            rows[index[a]] |= 1 << index[b]
        for k, row_k in enumerate(rows):
            bit = 1 << k
            for i, row in enumerate(rows):
                if row & bit:
                    rows[i] = row | row_k
        rel = frozenset((a, b) for a, row in zip(nodes, rows) for j, b in enumerate(nodes) if row >> j & 1)
        return FinPoset(elems, rel)

    @staticmethod
    def chain(elements: Iterable[str]) -> "FinPoset":
        elems = tuple(elements)
        return FinPoset.from_relation(elems, [(elems[i], elems[i + 1]) for i in range(len(elems) - 1)])

    @staticmethod
    def antichain(elements: Iterable[str]) -> "FinPoset":
        return FinPoset.from_relation(elements, [])

    def le(self, a: str, b: str) -> bool:
        return (a, b) in self.leq

    def lt(self, a: str, b: str) -> bool:
        return a != b and (a, b) in self.leq

    def has(self, a: str) -> bool:
        return a in self.elements

    def covers(self) -> list[tuple[str, str]]:
        """Hasse edges, in element order: found once per poset, a new list on every call."""
        if "_covers" not in self.__dict__:
            up = {a: [b for b in self.elements if a != b and (a, b) in self.leq] for a in self.elements}
            # b covers a when no other element above a lies below b
            out = ((a, b) for a in self.elements for b in up[a] if all(c == b or (c, b) not in self.leq for c in up[a]))
            object.__setattr__(self, "_covers", tuple(out))
        return list(self._covers)

    def linear_extension(self) -> tuple[str, ...]:
        """Stable topological order: minimal elements first, tie-broken by element order."""
        remaining = list(self.elements)
        out = []
        while remaining:
            for a in remaining:
                if not any(self.lt(b, a) for b in remaining):
                    out.append(a)
                    remaining.remove(a)
                    break
            else:
                raise ValueError("relation has a cycle; not a poset")
        return tuple(out)

    def path_composites(self, step) -> tuple[dict, tuple | None]:
        """({(a, b): composite} over a < b, conflict): the conflict is the first
        (a, b, m, m2) where two cover paths from a to b compose to m != m2,
        where the walk stops, or None.

        From each start a, in element order, walks up a linear extension:
        ``step(u, v, m)`` extends the composite m from a to u by the cover
        u < v, and m is None for the identity at a.  Once the composites
        below b agree, every path into b agrees iff every cover into b gives
        the same composite, so one pass per start decides all pairs.
        """
        order = self.linear_extension()
        below = {b: [] for b in order}
        for u, v in self.covers():
            below[v].append(u)
        table = {}
        for a in self.elements:
            composite = {a: None}
            for b in order[order.index(a) + 1 :]:
                ms = [step(u, b, composite[u]) for u in below[b] if u in composite]
                for m in ms[1:]:
                    if m != ms[0]:
                        return table, (a, b, ms[0], m)
                if ms:
                    composite[b] = table[a, b] = ms[0]
        return table, None

    def height(self) -> int:
        """Length of a longest strictly increasing chain, counted in steps."""
        ext = self.linear_extension()
        depth = {a: 0 for a in ext}
        for b in ext:
            for a in ext:
                if self.lt(a, b):
                    depth[b] = max(depth[b], depth[a] + 1)
        return max(depth.values(), default=0)

    def is_total(self) -> bool:
        return all(self.le(a, b) or self.le(b, a) for a in self.elements for b in self.elements)


@dataclass(frozen=True)
class MonotoneMap:
    source: FinPoset
    target: FinPoset
    assignment: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))

    def __call__(self, a: str) -> str:
        return self.assignment[a]

    @staticmethod
    def identity(p: FinPoset) -> "MonotoneMap":
        return MonotoneMap(p, p, {a: a for a in p.elements})

    def compose_after(self, first: "MonotoneMap") -> "MonotoneMap":
        """self o first."""
        return MonotoneMap(first.source, self.target, {a: self(first(a)) for a in first.source.elements})

    def is_valid(self) -> bool:
        if set(self.assignment) != set(self.source.elements):
            return False
        if any(v not in self.target.elements for v in self.assignment.values()):
            return False
        return all(
            self.target.le(self(a), self(b))
            for a in self.source.elements
            for b in self.source.elements
            if self.source.le(a, b)
        )

    def is_surjective(self) -> bool:
        return set(self.assignment.values()) == set(self.target.elements)

    def is_bijective(self) -> bool:
        return self.is_surjective() and len(set(self.assignment.values())) == len(self.source.elements)

    def is_poset_isomorphism(self) -> bool:
        if not self.is_bijective():
            return False
        inv = {v: k for k, v in self.assignment.items()}
        return all(self.source.le(inv[a], inv[b]) for (a, b) in self.target.leq)

    def inverse(self) -> "MonotoneMap":
        if not self.is_poset_isomorphism():
            raise ValueError("not an isomorphism")
        return MonotoneMap(self.target, self.source, {v: k for k, v in self.assignment.items()})


def validate_poset(p: FinPoset) -> tuple[bool, str]:
    """Check the order axioms; report the first violation and a witness."""
    elems = set(p.elements)
    if len(elems) != len(p.elements):
        return False, "duplicate element identifiers"
    for a, b in sorted(p.leq):
        if a not in elems or b not in elems:
            return False, f"relation mentions unknown element in ({a}, {b})"
    for a in p.elements:
        if (a, a) not in p.leq:
            return False, f"reflexivity fails at {a}"
    # every scan below runs in element order, so the witness is the same in every process
    up = {a: [b for b in p.elements if (a, b) in p.leq] for a in p.elements}
    for a in p.elements:
        for b in up[a]:
            if a != b and (b, a) in p.leq:
                return False, f"antisymmetry fails at ({a}, {b})"
    for a in p.elements:
        up_a = set(up[a])
        for b in up[a]:
            c = next((c for c in up[b] if c not in up_a), None)
            if c is not None:
                return False, f"transitivity fails at ({a}, {b}, {c})"
    return True, "ok"


def down_set(p: FinPoset, a: str, strict: bool = False) -> set[str]:
    """{b : b <= a} (b < a when strict)."""
    if not p.has(a):
        raise KeyError(f"unknown element {a!r}")
    return {b for b in p.elements if (p.lt(b, a) if strict else p.le(b, a))}


def is_level_morphism(f: MonotoneMap) -> bool:
    """Surjective, and f(a) < f(b) forces a < b."""
    if not f.is_valid() or not f.is_surjective():
        return False
    return all(
        f.source.lt(a, b)
        for a in f.source.elements
        for b in f.source.elements
        if f.target.lt(f(a), f(b))
    )


def graded_poset(f: MonotoneMap) -> FinPoset:
    """Same elements as f.source; a <= a' iff f(a) = f(a') and a <= a'."""
    if not f.is_valid():
        raise ValueError("invalid monotone map")
    src = f.source
    rel = frozenset((a, b) for (a, b) in src.leq if f(a) == f(b))
    return FinPoset(src.elements, rel)


def underlying_set(p: FinPoset) -> FinPoset:
    """Same elements, trivial order."""
    return FinPoset(p.elements, frozenset((a, a) for a in p.elements))
