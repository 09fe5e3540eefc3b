"""The four benchmark workloads.

Each workload has fixed structures built in ``setup`` (reported as
set-up time), a ``round`` of generated items, ``run`` (the timed user
work on one item) and ``check`` (untimed, independent verification).
Items are generated outside the timed region and reach stokeslib only as
values, functor objects or functor documents.  All of stokeslib is
reached through module attributes at call time, so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

import checks
import gen


@dataclass
class Item:
    ident: str
    label: str
    data: dict = field(default_factory=dict)


def _rng(*parts) -> random.Random:
    # str seeding hashes with sha512, so it does not depend on PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in parts))


def stratified_dims(rng: random.Random, names: list, count: int) -> list:
    """``count`` dimension vectors drawn like the recipe's {1, 1, 2}, stratified.

    How many values have dimension 2 follows Binomial(len(names), 1/3) in
    proportion, by largest remainder, and each stratum sits at a fixed
    position of the round; the seed picks which values are 2.  A round's
    composition, and so its work, is then the same for every seed.
    """
    n = len(names)
    expect = [Fraction(count * comb(n, k) * 2 ** (n - k), 3**n) for k in range(n + 1)]
    counts = [int(e) for e in expect]
    for k in sorted(range(n + 1), key=lambda k: expect[k] - counts[k], reverse=True)[: count - sum(counts)]:
        counts[k] += 1
    strata = [k for k in range(n + 1) for _ in range(counts[k])]
    random.Random(f"strata:{n}:{count}").shuffle(strata)  # fixed, seed-independent placement
    out = []
    for k in strata:
        twos = set(rng.sample(names, k))
        out.append({v: 2 if v in twos else 1 for v in names})
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Workload:
    name = ""

    def __init__(self, sl, workdir: Path, digests: dict):
        self.sl = sl  # the stokeslib package
        self.workdir = workdir
        self.digests = digests.get(self.name, {})
        self.digests_checked = 0

    def setup(self) -> None:
        pass

    def warmup(self) -> list:
        """Untimed items run first, so lazy set-up and caches settle."""
        return self.round("warmup", 0)[:1]

    def round(self, seed, r: int) -> list:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> str | None:
        return None

    def digest_text(self, out) -> str | None:
        """The output bytes pinned by bench/digests.json, if any."""
        return None

    def _check_digest(self, item: Item, out) -> str | None:
        want = self.digests.get(item.ident)
        if want is None:
            return None
        self.digests_checked += 1
        got = digest(self.digest_text(out))
        return None if got == want else f"output digest {got} differs from the recorded {want}"

    def _circles(self):
        sl = self.sl
        c3 = sl.build_circle_space(sl.ExponentialData(gen.THREE_VALUES))
        c4 = sl.build_circle_space(sl.ExponentialData(gen.FOUR_VALUES))
        return c3, c4


# ---------------------------------------------------------------------------


def _circle_corpus() -> list:
    """Fixed value sets: the recipe at N = 3, 4, 5, plain and with a
    Laurent tail, each drawn once from its own named stream."""
    corpus = []
    for n in (3, 4, 5):
        for tail in (False, True):
            rng = _rng("circle", n, "tail" if tail else "plain")
            values = gen.value_set(rng, n, tail)
            while not gen.distinct(values):  # coinciding values are not a valid input
                values = gen.value_set(rng, n, tail)
            corpus.append((f"n{n}-{'tail' if tail else 'plain'}", values))
    return corpus


class Circle(Workload):
    """build_circle_space -> pole_level_structure -> elementary_cover -> JSON."""

    name = "circle"

    def warmup(self) -> list:
        return [Item("warmup", "two-value", {"values": gen.TWO_VALUES})]

    def round(self, seed, r: int) -> list:
        corpus = _circle_corpus()
        start = seed % len(corpus)
        return [Item(label, label, {"values": values}) for label, values in corpus[start:] + corpus[:start]]

    def run(self, item: Item):
        sl = self.sl
        space = sl.build_circle_space(sl.ExponentialData(item.data["values"]))
        levels = sl.pole_level_structure(space)
        cover = sl.elementary_cover(space)
        text = sl.serial.dumps(sl.serial.circle_space_to_json(space))
        return space, levels, cover, text

    def check(self, item: Item, out) -> str | None:
        space, levels, cover, text = out
        values = item.data["values"]
        why = (
            checks.check_circle(values, space)
            or checks.check_levels(values, space, levels)
            or checks.check_cover(values, cover)
        )
        if why:
            return why
        doc = json.loads(text)
        if len(doc["points"]) != len(space.points):
            return "serialized point count differs"
        return self._check_digest(item, out)

    def digest_text(self, out) -> str:
        """The circle-space JSON, then the level stages and the cover (or None)."""
        _, levels, cover, text = out
        stages = [
            {
                obj: [
                    sorted(fiber.elements),
                    sorted([a, b] for a in fiber.elements for b in fiber.elements if fiber.lt(a, b)),
                    sorted(stage.maps[obj].assignment.items()),
                ]
                for obj, fiber in sorted(stage.target.fibers.items())
            }
            for stage in levels.stages
        ]
        arcs = None if cover is None else [["full"] if a.full else [_angle_key(a.start), _angle_key(a.end)] for a in cover]
        return text + "\n" + json.dumps({"stages": stages, "cover": arcs}, sort_keys=True)


def _angle_key(angle) -> str:
    if hasattr(angle, "t"):
        return str(angle.t)
    return f"dir({angle.c.re},{angle.c.im},{angle.m},{angle.k})"


class Verdict(Workload):
    """is-stokes then split through the in-process CLI, per functor document."""

    name = "verdict"
    # items per round on the three- and four-value circles: twice as many
    # cheap three-value documents puts the median inside one group
    per_circle = (12, 6)

    def setup(self) -> None:
        self.circles = self._circles()

    def round(self, seed, r: int) -> list:
        items = []
        for ci, cs in enumerate(self.circles):
            names = cs.data.names
            arrows = [a.name for a in cs.fibration.base.arrows]
            count = self.per_circle[ci]
            all_dims = stratified_dims(_rng("verdict", seed, r, ci), names, count)
            for i, dims in enumerate(all_dims):
                ident = f"{seed}/{r}/{ci}/{i}"
                rng = _rng("verdict", ident)
                singular = rng.choice(arrows) if i % 3 == 0 else None
                f = gen.standard_functor(cs.fibration, dims, rng, singular_at=singular, conjugate=i % 2 == 0)
                path = self.workdir / f"verdict-{ident.replace('/', '-')}.json"
                path.write_text(self.sl.serial.dumps(self.sl.serial.functor_to_json(f)), encoding="utf-8")
                label = f"{len(names)}-value dims={''.join(str(dims[n]) for n in names)}"
                label += " singular" if singular else ""
                label += " conjugated" if i % 2 == 0 else ""
                items.append(Item(ident, label, {"path": str(path), "stokes": singular is None}))
        return items

    def run(self, item: Item):
        path = item.data["path"]
        results = []
        for cmd in ("is-stokes", "split"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.sl.cli.main([cmd, "--input", path])
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def check(self, item: Item, out) -> str | None:
        (c1, o1, e1), (c2, o2, e2) = out
        want = 0 if item.data["stokes"] else 1
        if c1 != want:
            return f"is-stokes exited {c1}, expected {want}: {e1.strip()}"
        if json.loads(o1)["stokes"] != item.data["stokes"]:
            return "is-stokes payload contradicts the construction"
        if c2 not in (0, 1) or json.loads(o2)["split"] != (c2 == 0):
            return f"split exited {c2}: {e2.strip()}"
        if not item.data["stokes"] and c2 != 1:
            return "a functor that is not Stokes was split"
        return self._check_digest(item, out)

    def digest_text(self, out) -> str:
        return out[0][1] + out[1][1]


class Roundtrip(Workload):
    """level_disassemble -> level_assemble at stage 1, then natural_isomorphism."""

    name = "roundtrip"
    # twelve three-value functors and two four-value ones put the median
    # inside the group of three-value items with one value of dimension 2
    per_circle = (12, 2)

    def setup(self) -> None:
        self.circles = self._circles()
        self.levels = [self.sl.pole_level_structure(cs) for cs in self.circles]

    def round(self, seed, r: int) -> list:
        items = []
        for ci, cs in enumerate(self.circles):
            names = cs.data.names
            count = self.per_circle[ci]
            all_dims = stratified_dims(_rng("roundtrip", seed, r, ci), names, count)
            for i, dims in enumerate(all_dims):
                ident = f"{seed}/{r}/{ci}/{i}"
                rng = _rng("roundtrip", ident)
                f = gen.standard_functor(cs.fibration, dims, rng)
                label = f"{len(names)}-value dims={''.join(str(dims[n]) for n in names)}"
                items.append(Item(ident, label, {"f": f, "circle": ci}))
        return items

    def run(self, item: Item):
        sl = self.sl
        stage = self.levels[item.data["circle"]].stages[0]
        f = item.data["f"]
        g, h, alpha = sl.level_disassemble(stage, f)
        f2 = sl.level_assemble(stage, g, h, alpha)
        return f2, sl.natural_isomorphism(f, f2)

    def check(self, item: Item, out) -> str | None:
        f = item.data["f"]
        f2, eta = out
        return checks.check_natural_iso(f, f2, eta, gen.arrow_shapes(f.fibration))


class Ext(Workload):
    """ext_dims on self and mixed pairs of standard functors."""

    name = "ext"

    def setup(self) -> None:
        self.circles = self._circles()

    # (circle index, mixed pair) per item of a round; the four-value items
    # are the majority, so the median lies among them
    PAIRS = ((0, False), (0, True), (1, False), (1, True), (1, False), (1, True))

    def round(self, seed, r: int) -> list:
        c3 = self.circles[0]
        # three values: dims in {1, 2}; each of the round's three functors
        # has one value of dimension 2, a different one each.  Four values: dims 1
        twos = _rng("ext", seed, r).sample(c3.data.names, 3)
        pool = [{n: 2 if n == two else 1 for n in c3.data.names} for two in twos]
        items = []
        for i, (ci, mixed) in enumerate(self.PAIRS):
            cs = self.circles[ci]
            names = cs.data.names
            ident = f"{seed}/{r}/{i}"
            rng = _rng("ext", ident)
            dims_f = pool.pop() if ci == 0 else {n: 1 for n in names}
            dims_g = (pool.pop() if ci == 0 else dims_f) if mixed else dims_f
            f = gen.standard_functor(cs.fibration, dims_f, rng)
            g = gen.standard_functor(cs.fibration, dims_g, rng) if mixed else f
            label = f"{len(names)}-value {'mixed' if mixed else 'self'} "
            label += "".join(str(dims_f[n]) for n in names) + "/" + "".join(str(dims_g[n]) for n in names)
            items.append(Item(ident, label, {"f": f, "g": g}))
        return items

    def run(self, item: Item):
        return self.sl.ext_dims(item.data["f"], item.data["g"])

    def check(self, item: Item, dims) -> str | None:
        f, g = item.data["f"], item.data["g"]
        if any(d < 0 for d in dims):
            return f"negative Ext dimension in {dims}"
        basis = len(self.sl.natural_transformation_basis(f, g))
        if dims[0] != basis:
            return f"Ext^0 = {dims[0]} but the natural transformation basis has {basis} elements"
        hom = checks.hom_dimension(f, g, gen.arrow_shapes(f.fibration))
        if dims[0] != hom:
            return f"Ext^0 = {dims[0]} but the naturality equations have a {hom}-dimensional solution space"
        return self._check_digest(item, dims)

    def digest_text(self, dims) -> str:
        return json.dumps(dims)


WORKLOADS = {w.name: w for w in (Circle, Verdict, Roundtrip, Ext)}
