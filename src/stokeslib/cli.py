"""Command-line surface: exact verdicts and JSON/DOT interchange.

Every verdict subcommand prints a machine-readable JSON verdict plus a
human-readable summary line on stderr; witnesses are included on negative
verdicts.  Exit codes: 0 success / positive verdict, 1 negative verdict,
2 malformed or semantically invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import zlib
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor

from . import serial
from .directions import as_exact
from .exactmath import rat_str
from .fibrations import (
    cocartesian_sections,
    collapse_refinement,
    stokes_locus,
    validate_fibration,
)
from .functors import (
    grade,
    hom_complex,
    induce,
    level_assemble,
    level_disassemble,
    split_global,
    stokes_witness,
    tangent_dims,
    validate_functor,
)
from .geometry import (
    build_circle_space,
    check_polyhedral_elementarity,
    elementary_cover,
    is_elementary_arc,
    kummer_pullback,
    pole_level_structure,
    stokes_directions,
)


class InputError(Exception):
    pass


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _emit(payload, out_path: str | None, text: str | None = None) -> None:
    body = text if text is not None else serial.dumps(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


_Kind = namedtuple("_Kind", "key read check dot")


def _kinds() -> dict:
    """Each kind of document: the key that only its documents hold, its reader, its check and its DOT
    writer.  Built on each call, so that a function replaced on its module is the one called."""
    return {
        "functor": _Kind(
            "spaces", serial.functor_from_json, validate_functor, lambda f: serial.fibration_to_dot(f.fibration, f)
        ),
        "fibration": _Kind("fibers", serial.fibration_from_json, validate_fibration, serial.fibration_to_dot),
        "base": _Kind("kind", serial.base_from_json, None, serial.base_to_dot),
    }


def _kind(doc, kinds=("functor", "fibration", "base")) -> str:
    """The first of ``kinds`` whose key the document holds."""
    doc = serial.mapping_from_json(doc)
    for kind in kinds:
        if _kinds()[kind].key in doc:
            return kind
    raise InputError(f"expected a {' or '.join(kinds)} document")


def _load(doc, where: str, kind: str = "functor", check: bool = True):
    """The ``kind`` that ``doc`` holds, read and, with ``check``, validated;
    each InputError names ``where``, the document's location."""
    try:
        value = _kinds()[kind].read(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"{where}: not a {kind} document ({exc})") from exc
    ok, why = _kinds()[kind].check(value) if check else (True, "ok")
    if not ok:
        raise InputError(f"{where}: invalid {kind}: {why}")
    return value


def _load_morphism(args):
    if args.morphism:
        return serial.morphism_from_json(_read_json(args.morphism))
    if args.space:
        levels = pole_level_structure(serial.circle_space_from_json(_read_json(args.space)))
        k = args.level
        if k is None or not 1 <= k <= len(levels.stages):
            raise InputError(f"--level must be between 1 and {len(levels.stages)}")
        return levels.stages[k - 1]
    raise InputError("provide --morphism FILE or --space FILE with --level K")


def cmd_validate(doc, args) -> int:
    kind = _kind(doc, ("functor", "fibration"))
    ok, why = _kinds()[kind].check(_load(doc, args.input, kind, check=False))
    _emit({"kind": kind, "valid": ok, "diagnostics": why}, args.output)
    _say(f"{kind}: {'valid' if ok else 'INVALID: ' + why}")
    return 0 if ok else 1


def cmd_build_circle(doc, args) -> int:
    space = build_circle_space(serial.exponential_from_json(doc))
    _emit(serial.circle_space_to_json(space), args.output)
    _say(f"built circle with {len(space.points)} point strata" + (" (degenerate)" if space.degenerate else ""))
    return 0


def cmd_kummer(doc, args) -> int:
    out = kummer_pullback(serial.exponential_from_json(doc), args.d)
    _emit(serial.exponential_to_json(out), args.output)
    _say(f"pulled back along the degree-{args.d} cover")
    return 0


def cmd_directions(doc, args) -> int:
    e = serial.exponential_from_json(doc)
    names = e.names
    if len(names) != 2:
        raise InputError("directions expects exactly two named values")
    dirs = stokes_directions(e.values[names[0]], e.values[names[1]])
    payload = []
    for d in dirs:
        rec = serial.direction_to_json(d)
        exact = as_exact(d)
        if exact is not None:
            rec["angle_over_pi"] = rat_str(exact.t)
        payload.append(rec)
    _emit({"pair": names, "directions": payload}, args.output)
    _say(f"{len(dirs)} directions for the pair ({names[0]}, {names[1]})")
    return 0


def cmd_is_stokes(doc, args) -> int:
    ok, why = stokes_witness(_load(doc, args.input))
    _emit({"stokes": ok, "witness": why}, args.output)
    _say("Stokes functor" if ok else f"not Stokes: {why}")
    return 0 if ok else 1


def cmd_split(doc, args) -> int:
    gs = split_global(_load(doc, args.input))
    if gs is None:
        _emit({"split": False, "witness": "natural-section system is infeasible"}, args.output)
        _say("NotSplit: the natural-section linear system is infeasible")
        return 1
    payload = {
        "split": True,
        "graded": serial.functor_to_json(gs.graded),
        "iso": {serial.total_key(x, a): serial.matrix_to_json(m) for (x, a), m in gs.iso.items()},
    }
    _emit(payload, args.output)
    _say("split: global splitting found")
    return 0


def cmd_grade_or_induce(doc, args) -> int:
    """grade or induce, as the command says: the functor is loaded before the morphism."""
    f = _load(doc, args.input)
    op = grade if args.command == "grade" else induce
    _emit(serial.functor_to_json(op(_load_morphism(args), f)), args.output)
    _say(f"{op.__name__}d functor computed")
    return 0


def cmd_disassemble(doc, args) -> int:
    f = _load(doc, args.input)
    p = _load_morphism(args)
    g, h, alpha = level_disassemble(p, f)
    payload = {
        "g": serial.functor_to_json(g),
        "h": serial.functor_to_json(h),
        "alpha": {serial.total_key(x, c): serial.matrix_to_json(m) for (x, c), m in alpha.items()},
        "morphism": serial.morphism_to_json(p),
    }
    _emit(payload, args.output)
    _say("level disassembly computed")
    return 0


def cmd_assemble(doc, args) -> int:
    p = serial.morphism_from_json(doc["morphism"]) if "morphism" in doc else _load_morphism(args)
    g, h = (_load(doc[k], f"{args.input} ({k})") for k in "gh")
    alpha = {
        serial.parse_total_key(k): serial.matrix_from_json(m) for k, m in serial.mapping_from_json(doc["alpha"]).items()
    }
    try:
        out = level_assemble(p, g, h, alpha)
    except ArithmeticError as exc:
        raise InputError(f"{args.input}: the pieces do not fit together: {exc}") from exc
    _emit(serial.functor_to_json(out), args.output)
    _say("level assembly computed")
    return 0


def cmd_ext(doc, args) -> int:
    if "f" in doc and "g" in doc:
        f, g = (_load(doc[k], f"{args.input} ({k})") for k in "fg")
        if f.fibration != g.fibration:
            raise InputError(f"{args.input}: f and g live on different fibrations")
    else:
        f = g = _load(doc, args.input)
    hc = hom_complex(f, g)
    dims = hc.cohomology_dims()
    _emit(
        {
            "ext_dims": dims,
            "euler_characteristic": hc.euler_characteristic(),
            "complex": serial.hom_complex_to_json(hc),
        },
        args.output,
    )
    _say(f"ext dimensions {dims}")
    return 0


def cmd_tangent_dims(doc, args) -> int:
    dims = tangent_dims(_load(doc, args.input))
    payload = {"tangent_dims": {str(i - 1): d for i, d in enumerate(dims)}}
    _emit(payload, args.output)
    _say(f"tangent dimensions (from degree -1): {dims}")
    return 0


def cmd_elementary(doc, args) -> int:
    if "arc" in doc:
        ok = is_elementary_arc(serial.circle_space_from_json(doc["space"]), serial.arc_from_json(doc["arc"]))
    elif "pairs" in doc:
        ok = check_polyhedral_elementarity(serial.polyhedral_from_json(doc))
    else:
        raise InputError("expected {'space', 'arc'} or a polyhedral document")
    _emit({"elementary": ok}, args.output)
    _say("elementary" if ok else "not elementary")
    return 0 if ok else 1


def cmd_cover(doc, args) -> int:
    space = serial.circle_space_from_json(doc)
    arcs = elementary_cover(space)
    if arcs is None:
        _emit({"cover": None, "witness": "no single-level arc system; apply a level structure first"}, args.output)
        _say("Failure: no single-level elementary cover")
        return 1
    _emit({"cover": [serial.arc_to_json(a) for a in arcs]}, args.output)
    _say(f"elementary cover with {len(arcs)} arcs")
    return 0


def cmd_collapse(doc, args) -> int:
    out, corr, flat = collapse_refinement(_load(doc, args.input, "fibration"))
    _emit(
        {
            "fibration": serial.fibration_to_json(out),
            "correspondence": corr,
            "fully_constant": flat,
        },
        args.output,
    )
    _say("fully constant fibration" if flat else f"collapsed to {out.base.n} point strata")
    return 0


def cmd_export_dot(doc, args) -> int:
    kind = _kind(doc)
    _emit(None, args.output, text=_kinds()[kind].dot(_load(doc, args.input, kind, check=False)))
    _say("DOT export written")
    return 0


def cmd_sections(doc, args) -> int:
    fib = _load(doc, args.input, "fibration")
    secs = cocartesian_sections(fib)
    payload = {"sections": [s.choice for s in secs]}
    if len(secs) >= 2:
        loci = {}
        for i in range(len(secs)):
            for j in range(i + 1, len(secs)):
                loci[f"{i},{j}"] = sorted(stokes_locus(fib, secs[i], secs[j]))
        payload["stokes_loci"] = loci
    _emit(payload, args.output)
    _say(f"{len(secs)} cocartesian sections")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process on first use."""
    ap = argparse.ArgumentParser(
        prog="stokeslib",
        description="exact computation with finite Stokes structures",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, multi=False, morphism=False, d_flag=False):
        p = sub.add_parser(name)
        if multi:
            p.add_argument("--input", action="append", required=True, help="input JSON (repeatable)")
            p.add_argument("--jobs", type=int, default=1, help="parallel workers for independent inputs")
        else:
            p.add_argument("--input", required=True, help="input JSON path")
        p.add_argument("--output", default=None, help="output path (default stdout; suffixed per input when repeated)")
        if morphism:
            p.add_argument("--morphism", default=None, help="fibration morphism JSON")
            p.add_argument("--space", default=None, help="circle space JSON (with --level)")
            p.add_argument("--level", type=int, default=None, help="1-based level stage")
        if d_flag:
            p.add_argument("--d", type=int, required=True, help="cover degree")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, multi=True)
    add("build-circle", cmd_build_circle)
    add("kummer", cmd_kummer, d_flag=True)
    add("directions", cmd_directions)
    add("is-stokes", cmd_is_stokes, multi=True)
    add("split", cmd_split, multi=True)
    add("grade", cmd_grade_or_induce, morphism=True)
    add("induce", cmd_grade_or_induce, morphism=True)
    add("disassemble", cmd_disassemble, morphism=True)
    add("assemble", cmd_assemble, morphism=True)
    add("ext", cmd_ext)
    add("tangent-dims", cmd_tangent_dims)
    add("elementary", cmd_elementary, multi=True)
    add("cover", cmd_cover)
    add("collapse", cmd_collapse)
    add("export-dot", cmd_export_dot)
    add("sections", cmd_sections)
    return ap


def _run_single(fn, args) -> int:
    try:
        return fn(_read_json(args.input), args)
    except InputError as exc:
        _say(f"input error: {exc}")
        return 2
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        _say(f"semantic error: {exc}")
        return 2


def _worker(payload) -> int:
    """One input of a repeatable --input; the output is suffixed when there are several."""
    args, path, several = payload
    out = args.output
    if out and several:
        out = f"{out}.{zlib.crc32(path.encode('utf-8')):08x}.json"
    return _run_single(args.fn, argparse.Namespace(**{**vars(args), "input": path, "output": out}))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if isinstance(args.input, str):
        return _run_single(args.fn, args)
    paths = args.input
    payloads = [(args, p, len(paths) > 1) for p in paths]
    if args.jobs > 1 and len(paths) > 1:
        # fork starts every worker up front: never more than there are inputs
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(paths))) as pool:
            return max(pool.map(_worker, payloads))
    return max(map(_worker, payloads))


if __name__ == "__main__":
    sys.exit(main())
