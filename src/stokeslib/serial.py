"""JSON wire formats and DOT export.

Rationals serialize as strings "p/q" (denominator omitted when 1),
Gaussian rationals as {"re", "im"}, matrices as {"rows", "cols",
"entries"} in row-major order, directions as {"c", "m", "k"}.  All
emitters sort keys so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bases import BaseCategory, make_circle_base, make_poset_base
from .directions import ExactAngle, StokesDirection
from .exactmath import GaussianRational, Matrix, rat, rat_str
from .fibrations import FibrationMorphism, StokesFibration
from .functors import StokesFunctor, cover_arrow_id, lift_arrow_id
from .geometry import AffineForm, Arc, CircleSpace, ExponentialData, IrregularValue, PolyhedralSpace
from .geometry import build_circle_space, build_polyhedral_space
from .posets import FinPoset, MonotoneMap


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- typed readers -------------------------------------------------------------
# Each reads one JSON value of the type it names and refuses any other: int()
# would read 1.5 and true as 1, str() null as "None", and a string where an
# array belongs would be read one character per item.


def _typed(v, types, what):
    if type(v) not in types:
        raise ValueError(f"expected a JSON {what}, got {v!r}")
    return v


def int_from_json(v) -> int:
    """A size or index: a JSON integer, not a float, bool or string."""
    return _typed(v, (int,), "integer")


def bool_from_json(v) -> bool:
    """A flag: JSON true or false, not a string or number read by truthiness."""
    return _typed(v, (bool,), "boolean")


def list_from_json(v) -> list:
    """An array: a JSON list."""
    return _typed(v, (list,), "array")


def str_from_json(v) -> str:
    """A name: a JSON string."""
    return _typed(v, (str,), "string")


def mapping_from_json(v, keys=None) -> dict:
    """A JSON object; given ``keys``, one whose every key names one of them."""
    d = _typed(v, (dict,), "object")
    if keys is not None and not d.keys() <= frozenset(keys):
        raise ValueError(f"key {min(d.keys() - frozenset(keys))!r} names nothing")
    return d


def rational_from_json(v) -> Fraction:
    """A rational: a JSON string such as "3/4" or a JSON integer, never a float."""
    if type(v) is str or type(v) is int:
        return rat(v)
    raise ValueError(f"expected a rational string or a JSON integer, got {v!r}")


# the fields of each fixed-shape object; a field it does not have is refused
_GAUSSIAN_KEYS = frozenset({"re", "im"})
_MATRIX_KEYS = frozenset({"rows", "cols", "entries"})
_ARC_KEYS = frozenset({"full", "start", "end"})
_FULL_ARC_KEYS = frozenset({"full"})
_EXACT_KEYS = frozenset({"kind", "t"})
_DIRECTION_KEYS = frozenset({"kind", "c", "m", "k"})
_CIRCLE_KEYS = frozenset({"kind", "n"})
_POSET_BASE_KEYS = frozenset({"kind", "poset"})


def gaussian_to_json(c: GaussianRational) -> dict:
    return {"re": rat_str(c.re), "im": rat_str(c.im)}


def gaussian_from_json(d) -> GaussianRational:
    d = mapping_from_json(d, _GAUSSIAN_KEYS)
    return GaussianRational(rational_from_json(d["re"]), rational_from_json(d["im"]))


def matrix_to_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": [rat_str(x) for x in m.entries]}


def matrix_from_json(d, entry=rational_from_json) -> Matrix:
    d = mapping_from_json(d, _MATRIX_KEYS)
    ent = tuple(map(entry, list_from_json(d["entries"])))
    return Matrix(int_from_json(d["rows"]), int_from_json(d["cols"]), ent)


def direction_to_json(d: StokesDirection) -> dict:
    return {"c": gaussian_to_json(d.c), "m": d.m, "k": d.k}


def direction_from_json(d) -> StokesDirection:
    return StokesDirection(gaussian_from_json(d["c"]), int_from_json(d["m"]), int_from_json(d["k"]))


def angle_to_json(a) -> dict:
    if isinstance(a, ExactAngle):
        return {"kind": "exact", "t": rat_str(a.t)}
    return {"kind": "direction", **direction_to_json(a)}


def angle_from_json(d):
    if d["kind"] == "exact":
        return ExactAngle(rational_from_json(mapping_from_json(d, _EXACT_KEYS)["t"]))
    if d["kind"] == "direction":
        return direction_from_json(mapping_from_json(d, _DIRECTION_KEYS))
    raise ValueError(f"angle kind must be 'exact' or 'direction', got {d['kind']!r}")


# -- posets and maps ----------------------------------------------------------


def poset_to_json(p: FinPoset) -> dict:
    elems = list(p.elements)
    return {
        "elements": elems,
        "leq": [[p.le(a, b) for b in elems] for a in elems],
    }


def poset_from_json(d) -> FinPoset:
    elems = [str_from_json(e) for e in list_from_json(d["elements"])]
    leq = [list_from_json(row) for row in list_from_json(d["leq"])]
    n = len(elems)
    if len(leq) != n or any(len(row) != n for row in leq):
        raise ValueError(f"leq must be a {n}x{n} matrix over the {n} elements")
    rel = {(a, b) for a, row in zip(elems, leq) for b, le in zip(elems, row) if bool_from_json(le)}
    return FinPoset(tuple(elems), frozenset(rel))


# -- bases and fibrations ------------------------------------------------------


def base_to_json(b: BaseCategory) -> dict:
    if b.kind == "circle":
        return {"kind": "circle", "n": b.n}
    return {"kind": "poset", "poset": poset_to_json(b.poset)}


def base_from_json(d) -> BaseCategory:
    if d["kind"] == "circle":
        return make_circle_base(int_from_json(mapping_from_json(d, _CIRCLE_KEYS)["n"]))
    if d["kind"] == "poset":
        return make_poset_base(poset_from_json(mapping_from_json(d, _POSET_BASE_KEYS)["poset"]))
    raise ValueError(f"base kind must be 'circle' or 'poset', got {d['kind']!r}")


def fibration_to_json(f: StokesFibration) -> dict:
    return {
        "base": base_to_json(f.base),
        "fibers": {x: poset_to_json(f.fiber(x)) for x in f.base.objects},
        "transitions": {a.name: dict(f.transition(a.name).assignment) for a in f.base.arrows},
    }


def fibration_from_json(d) -> StokesFibration:
    if d["base"]["kind"] == "circle" and len(d["fibers"]) != 2 * int_from_json(d["base"]["n"]):
        raise ValueError(f"a circle base of n = {d['base']['n']} points has 2n fibers, not {len(d['fibers'])}")
    base = base_from_json(d["base"])
    fiber_docs = mapping_from_json(d["fibers"], base.objects)
    fibers = {x: poset_from_json(fiber_docs[x]) for x in base.objects}
    maps = mapping_from_json(d["transitions"], [a.name for a in base.arrows])
    transitions = {a.name: _map_from_json(maps[a.name], fibers[a.source], fibers[a.target]) for a in base.arrows}
    return StokesFibration(base, fibers, transitions)


def _map_from_json(d, source: FinPoset, target: FinPoset) -> MonotoneMap:
    return MonotoneMap(source, target, {a: str_from_json(b) for a, b in mapping_from_json(d).items()})


def morphism_to_json(p: FibrationMorphism) -> dict:
    return {
        "source": fibration_to_json(p.source),
        "target": fibration_to_json(p.target),
        "maps": {x: dict(p.map_at(x).assignment) for x in p.source.base.objects},
    }


def morphism_from_json(d) -> FibrationMorphism:
    src = fibration_from_json(d["source"])
    tgt = fibration_from_json(d["target"])
    maps = mapping_from_json(d["maps"], src.base.objects)
    fiber_maps = {x: _map_from_json(maps[x], src.fiber(x), tgt.fiber(x)) for x in src.base.objects}
    return FibrationMorphism(src, tgt, fiber_maps)


# -- functors -------------------------------------------------------------------


def total_key(x: str, a: str) -> str:
    """The JSON key of the total object (x, a), read back by ``parse_total_key``
    at its first comma; ValueError when x has a comma and so cannot be read back."""
    if "," in x:
        raise ValueError(f"base object {x!r} has a comma; its total keys cannot be read back")
    return f"({x},{a})"


def parse_total_key(s: str) -> tuple[str, str]:
    x, comma, a = s[1:-1].partition(",")
    if not (s.startswith("(") and s.endswith(")") and comma):
        raise ValueError(f"total key {s!r} is not of the form (x,a)")
    return x, a


def functor_to_json(f: StokesFunctor) -> dict:
    return {
        "fibration": fibration_to_json(f.fibration),
        "spaces": {total_key(x, a): d for (x, a), d in f.spaces.items()},
        "arrows": {aid: matrix_to_json(m) for aid, m in f.arrows.items()},
    }


def functor_from_json(d) -> StokesFunctor:
    fib = fibration_from_json(d["fibration"])
    spaces = {parse_total_key(k): int_from_json(v) for k, v in mapping_from_json(d["spaces"]).items()}
    parsed: dict = {}  # each distinct entry read once per document; true or 1.0 is refused before it is kept

    def entry(v) -> Fraction:
        return parsed[v] if type(v) in (str, int) and v in parsed else parsed.setdefault(v, rational_from_json(v))

    arrows = {k: matrix_from_json(v, entry) for k, v in mapping_from_json(d["arrows"]).items()}
    return StokesFunctor(fib, spaces, arrows)


# -- exponential data and circle spaces -------------------------------------------


def value_to_json(v: IrregularValue) -> list:
    return [{"q": rat_str(q), "c": gaussian_to_json(c)} for q, c in v.terms]


def value_from_json(d) -> IrregularValue:
    return IrregularValue(tuple((rational_from_json(t["q"]), gaussian_from_json(t["c"])) for t in list_from_json(d)))


def exponential_to_json(e: ExponentialData) -> dict:
    return {"values": {name: value_to_json(v) for name, v in e.values.items()}}


def exponential_from_json(d) -> ExponentialData:
    return ExponentialData({k: value_from_json(v) for k, v in mapping_from_json(d["values"]).items()})


def circle_space_to_json(s: CircleSpace) -> dict:
    return {
        "data": exponential_to_json(s.data),
        "fibration": fibration_to_json(s.fibration),
        "points": [angle_to_json(p) for p in s.points],
        "arc_samples": [angle_to_json(a) for a in s.arc_samples],
        "provenance": {str(i): [[a, b] for a, b in prs] for i, prs in s.provenance.items()},
        "degenerate": s.degenerate,
    }


def circle_space_from_json(d) -> CircleSpace:
    """The circle space of ``d["data"]``, built again; ValueError unless the
    rest of the document is that space's JSON (elementarity and the level
    stages read its points, fibers and provenance)."""
    space = build_circle_space(exponential_from_json(d["data"]))
    want = circle_space_to_json(space)
    if dumps(dict(d, data=want["data"])) != dumps(want):
        raise ValueError("circle space document differs from the space built from its data")
    return space


def arc_to_json(a: Arc) -> dict:
    if a.full:
        return {"full": True}
    return {"start": angle_to_json(a.start), "end": angle_to_json(a.end)}


def arc_from_json(d) -> Arc:
    if bool_from_json(mapping_from_json(d, _ARC_KEYS).get("full", False)):
        mapping_from_json(d, _FULL_ARC_KEYS)
        return Arc(None, None, full=True)
    return Arc(angle_from_json(d["start"]), angle_from_json(d["end"]))


def polyhedral_from_json(d) -> PolyhedralSpace:
    """The space of ``{"forms", "strata", "pairs"}``: affine forms, sign vectors,
    and per pair "a|b" of values the index of its form and its orientation."""
    forms = [
        AffineForm(tuple(map(rational_from_json, list_from_json(f["coeffs"]))), rational_from_json(f["const"]))
        for f in list_from_json(d["forms"])
    ]
    pairs = {}
    for key, v in mapping_from_json(d["pairs"]).items():
        a, _, b = key.partition("|")
        pairs[(a, b)] = (int_from_json(v["form"]), str_from_json(v["orient"]))
    return build_polyhedral_space(forms, [str_from_json(s) for s in list_from_json(d["strata"])], pairs)


# -- DOT export --------------------------------------------------------------------


def base_to_dot(b: BaseCategory) -> str:
    """The base category's generating arrow graph."""
    lines = ["digraph base {", '  rankdir="LR";']
    for x in b.objects:
        lines.append(f'  "{x}";')
    for a in b.arrows:
        lines.append(f'  "{a.source}" -> "{a.target}" [label="{a.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def hom_complex_to_json(hc) -> dict:
    return {
        "dims": list(hc.dims),
        "differentials": [matrix_to_json(d) for d in hc.differentials],
    }


def fibration_to_dot(f: StokesFibration, functor: StokesFunctor | None = None) -> str:
    """The total category's generating arrows; cocartesian lifts are bold."""
    lines = ["digraph total {", '  rankdir="LR";']

    def node(x, a):
        label = f"{x}.{a}"
        if functor is not None:
            label += f" [{functor.dim(x, a)}]"
        return f'"{x}::{a}" [label="{label}"];'

    for x in f.base.objects:
        for a in f.fiber(x).elements:
            lines.append("  " + node(x, a))
    for x in f.base.objects:
        for a, b in f.fiber(x).covers():
            lines.append(f'  "{x}::{a}" -> "{x}::{b}" [label="{cover_arrow_id(x, a, b)}"];')
    for arr in f.base.arrows:
        t = f.transition(arr.name)
        for a in f.fiber(arr.source).elements:
            lines.append(
                f'  "{arr.source}::{a}" -> "{arr.target}::{t(a)}"'
                f' [style=bold, color=blue, label="{lift_arrow_id(arr.name, a)}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
