"""In-memory tracing of stokeslib's public functions, installed from outside.

``Tracer.install`` wraps each function named in ``LAYERS`` at every
``stokeslib`` module (or class) that binds it, and ``Tracer.remove`` puts
the originals back.  A wrapper records a span (name, start, end, parent
span, item id) and per-name counters; inclusive time counts only the
outermost call of a recursive name, and self time is a span's duration
minus the time its child spans cover.  Counter-only hooks (``angle_iv``,
``fiber_matrix``, ``is_elementary_arc``) record no span, so their time
stays in the caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (layer, owner, attribute, reported metrics).  The owner is a module name
# for functions and "module:Class" for methods.  "calls", "s" and
# "self_s" come from the span; other entries are counters fed by hooks.
LAYERS = [
    ("exactmath", "stokeslib.exactmath", "mat_rank", ("calls", "s", "self_s")),
    ("exactmath", "stokeslib.exactmath", "mat_solve", ("calls", "s", "self_s")),
    ("exactmath", "stokeslib.exactmath", "kernel_basis", ("calls", "s", "self_s")),
    ("exactmath", "stokeslib.exactmath:Matrix", "__matmul__", ("calls", "s", "self_s")),
    ("exactmath", "stokeslib.exactmath", "column_space_complement", ("calls", "s", "self_s")),
    ("exactmath", "stokeslib.exactmath", "sparse_solve", ("s", "self_s")),
    ("exactmath", "stokeslib.exactmath", "sparse_kernel_basis", ("s", "self_s")),
    ("exactmath", "stokeslib.exactmath", "sparse_rank", ("s", "self_s")),
    ("directions", "stokeslib.directions", "compare_angles", ("calls", "s", "self_s")),
    ("directions", "stokeslib.directions", "pair_sign_at", ("calls", "s", "self_s")),
    ("directions", "stokeslib.directions", "rational_angle_between", ("calls", "s", "self_s")),
    ("directions", "stokeslib.directions", "sort_angles", ("s", "self_s")),
    ("directions", "stokeslib.directions", "angle_iv", ("calls", "escalated")),
    ("posets", "stokeslib.posets:FinPoset", "from_relation", ("calls", "s", "self_s")),
    ("posets", "stokeslib.posets:FinPoset", "covers", ("calls", "s", "self_s")),
    ("fibrations", "stokeslib.fibrations", "validate_fibration", ("s", "self_s")),
    ("fibrations", "stokeslib.fibrations", "nondegenerate_chains", ("s", "self_s")),
    ("functors", "stokeslib.functors", "validate_functor", ("s", "self_s")),
    ("functors", "stokeslib.functors", "split_fiber", ("calls", "s", "self_s")),
    ("functors", "stokeslib.functors:StokesFunctor", "fiber_matrix", ("calls",)),
    ("functors", "stokeslib.functors", "specialization_matrix", ("s", "self_s")),
    ("functors", "stokeslib.functors", "split_global", ("s", "self_s")),
    ("functors", "stokeslib.functors", "level_disassemble", ("s", "self_s")),
    ("functors", "stokeslib.functors", "level_assemble", ("s", "self_s")),
    ("functors", "stokeslib.functors", "natural_transformation_basis", ("s", "self_s")),
    ("functors", "stokeslib.functors", "natural_isomorphism", ("s", "self_s")),
    ("functors", "stokeslib.functors", "hom_complex", ("s", "self_s")),
    ("functors", "stokeslib.functors:HomComplex", "cohomology_dims", ("s", "self_s")),
    ("geometry", "stokeslib.geometry", "build_circle_space", ("s", "self_s")),
    ("geometry", "stokeslib.geometry", "pole_level_structure", ("s", "self_s")),
    ("geometry", "stokeslib.geometry", "elementary_cover", ("s", "self_s")),
    ("geometry", "stokeslib.geometry", "order_at", ("calls", "s", "self_s")),
    ("geometry", "stokeslib.geometry", "is_elementary_arc", ("calls", "accepted")),
    ("serial", "stokeslib.serial", "functor_from_json", ("s", "self_s")),
    ("serial", "stokeslib.serial", "functor_to_json", ("s", "self_s")),
    ("serial", "stokeslib.serial", "dumps", ("s", "self_s")),
]

# names whose calls are counted without a span
COUNT_ONLY = {"angle_iv", "fiber_matrix", "is_elementary_arc"}

# counters fed by the hooks below, and split_fiber calls per item
EXTRA = {
    "exactmath.sparse.rows": "count",
    "fibrations.chains": "count",
    "functors.cochain_dim": "count",
    "functors.split_fiber.per_item": "ratio",
}

SPAN_CAP = 200_000  # spans kept for the dump; aggregates never drop


def _key(layer: str, attr: str) -> str:
    return f"{layer}.{'matmul' if attr == '__matmul__' else attr}"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, with its unit."""
    out = []
    for layer, _, attr, reports in LAYERS:
        for r in reports:
            unit = "s" if r in ("s", "self_s") else ("ratio" if r == "accepted" else "count")
            out.append((f"{_key(layer, attr)}.{r}", unit))
    out.extend(EXTRA.items())
    return out


class Tracer:
    def __init__(self):
        self.active = False
        self.item = -1
        self.items = 0
        self.calls = Counter()
        self.counts = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.depth = Counter()
        self.stack: list = []  # [span id, name, start, child seconds]
        self.spans: list = []
        self.dropped = 0
        self.next_id = 0
        self._patched: list = []  # (owner object, attribute, original raw value)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, owner, attr, _ in LAYERS:
            mod_name, _, cls_name = owner.partition(":")
            key = _key(layer, attr)
            if cls_name:
                cls = getattr(sys.modules[mod_name], cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(key, attr, raw.__func__))
                else:
                    new = self._wrap(key, attr, raw)
                self._patched.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(key, attr, original)
            for mname, mod in list(sys.modules.items()):
                if mod is None or not (mname == "stokeslib" or mname.startswith("stokeslib.")):
                    continue
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        for owner, attr, raw in self._patched:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not raw:
                raise RuntimeError(f"tracer wrapper for {attr} was not removed")
        self._patched.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, key: str, attr: str, fn):
        tracer = self
        pre, post = _PRE.get(attr), _POST.get(attr)
        if attr in COUNT_ONLY:

            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.calls[key] += 1
                    if pre is not None:
                        args = pre(tracer, args, kwargs)
                    result = fn(*args, **kwargs)
                    if post is not None:
                        post(tracer, result)
                    return result
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                args = pre(tracer, args, kwargs)
            tracer.calls[key] += 1
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else -1
            frame = [sid, key, time.perf_counter(), 0.0]
            tracer.stack.append(frame)
            tracer.depth[key] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.depth[key] -= 1
                dur = end - frame[2]
                tracer.self_s[key] += dur - frame[3]
                if not tracer.depth[key]:
                    tracer.incl[key] += dur
                if tracer.stack:
                    tracer.stack[-1][3] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, key, frame[2], end, parent, tracer.item))
                else:
                    tracer.dropped += 1
            if post is not None:
                post(tracer, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for layer, _, attr, reports in LAYERS:
            key = _key(layer, attr)
            for r in reports:
                if r == "calls":
                    out[f"{key}.calls"] = (self.calls[key], "count")
                elif r == "s":
                    out[f"{key}.s"] = (self.incl[key], "s")
                elif r == "self_s":
                    out[f"{key}.self_s"] = (self.self_s[key], "s")
                elif r == "accepted":
                    tried = self.calls[key]
                    out[f"{key}.accepted"] = (self.counts[key + ".accepted"] / tried if tried else 0.0, "ratio")
                else:
                    out[f"{key}.{r}"] = (self.counts[f"{key}.{r}"], "count")
        split_calls = self.calls["functors.split_fiber"]
        for name, unit in EXTRA.items():
            out[name] = (self.counts[name], unit)
        out["functors.split_fiber.per_item"] = (split_calls / self.items if self.items else 0.0, "ratio")
        return out

    def counters(self) -> dict:
        """Every count the trace made; two runs on the same inputs agree exactly."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "item"],
                    "spans": self.spans,
                    "dropped": self.dropped,
                    "counters": self.counters(),
                },
                fh,
            )


# -- hooks: _PRE runs before the call and returns its args; _POST sees the result


def _angle_iv(tracer, args, kwargs):
    prec = kwargs.get("prec", args[1] if len(args) > 1 else 0)
    if prec > 64:
        tracer.counts["directions.angle_iv.escalated"] += 1
    return args


def _sparse_rows(tracer, args, kwargs):
    rows = list(args[0])  # may be a generator: count it once, pass the list on
    tracer.counts["exactmath.sparse.rows"] += len(rows)
    return (rows,) + tuple(args[1:])


def _chains(tracer, result):
    tracer.counts["fibrations.chains"] += sum(len(v) for v in result.values())


def _cochains(tracer, result):
    tracer.counts["functors.cochain_dim"] += sum(result.dims)


def _elementary(tracer, result):
    if result is True:
        tracer.counts["geometry.is_elementary_arc.accepted"] += 1


_PRE = {
    "angle_iv": _angle_iv,
    "sparse_solve": _sparse_rows,
    "sparse_kernel_basis": _sparse_rows,
    "sparse_rank": _sparse_rows,
}
_POST = {
    "nondegenerate_chains": _chains,
    "hom_complex": _cochains,
    "is_elementary_arc": _elementary,
}
