"""Pins of the verdict and naturality layer.

The library outputs of ``split_fiber`` (order, dims, sections, theta and its
inverse), ``stokes_witness``, ``is_cocartesian_at`` per arrow,
``split_global`` (graded functor and iso), ``natural_transformation_basis``,
and the stage-1 level round trip with the eta of ``natural_isomorphism``,
hashed per functor.  The functors are the two packaged fixtures and seeded
standard functors on the two-, three- and four-value circles, with
dimensions 0 to 2, some conjugated and some singular at one arrow, plus two
functors on a diamond fiber over a one-point base (no round trip there).
"""

import functools
import hashlib
import json
import random

import pytest

from stokeslib import (
    FinPoset,
    is_cocartesian_at,
    level_assemble,
    level_disassemble,
    natural_isomorphism,
    natural_transformation_basis,
    pole_level_structure,
    serial,
    split_fiber,
    split_global,
    stokes_witness,
)
from stokeslib.fixtures import nonsplit_witness, rank_one_one_functor, two_value_circle
from stokeslib.serial import matrix_to_json as _m

from helpers import four_value_circle, random_functor_with_dims, random_standard_functor, three_value_circle


def _record(space, f) -> dict:
    fib = f.fibration
    out = {"splittings": {}, "cocartesian": {}}
    for x in fib.base.objects:
        s = split_fiber(f, x)
        out["splittings"][x] = None if s is None else {
            "order": list(s.order),
            "dims": s.dims,
            "sections": {b: _m(m) for b, m in s.sections.items()},
            "theta": {a: _m(m) for a, m in s.theta.items()},
            "theta_inv": {a: _m(m) for a, m in s.theta_inv.items()},
        }
    out["witness"] = list(stokes_witness(f))
    for arr in fib.base.arrows:
        out["cocartesian"][arr.name] = is_cocartesian_at(f, arr.name)
    gs = split_global(f)
    out["split_global"] = None if gs is None else {
        "graded": serial.functor_to_json(gs.graded),
        "iso": {f"{x}|{a}": _m(m) for (x, a), m in gs.iso.items()},
    }
    out["basis"] = [{f"{x}|{a}": _m(m) for (x, a), m in eta.items()} for eta in natural_transformation_basis(f, f)]
    if space is None:
        return out
    stage = pole_level_structure(space).stages[0]
    try:
        f2 = level_assemble(stage, *level_disassemble(stage, f))
    except (ValueError, ArithmeticError) as exc:
        out["roundtrip"] = type(exc).__name__
    else:
        eta = natural_isomorphism(f, f2)
        out["roundtrip"] = {
            "functor": serial.functor_to_json(f2),
            "eta": None if eta is None else {f"{x}|{a}": _m(m) for (x, a), m in eta.items()},
        }
    return out


@functools.lru_cache(maxsize=None)
def _functors() -> dict:
    return {name: (space, f) for name, space, f in _cases()}


def _cases():
    two = two_value_circle()
    yield "rank_one_one_functor", two, rank_one_one_functor(two)
    yield "nonsplit_witness", two, nonsplit_witness(two)
    circles = {2: two, 3: three_value_circle(), 4: four_value_circle()}
    # (circle, dims in value order, seed, index of the singular arrow, conjugate)
    cases = [
        (2, (1, 1), 0, None, False),
        (2, (2, 1), 1, 0, True),
        (2, (0, 2), 2, None, True),
        (3, (1, 1, 1), 3, None, False),
        (3, (2, 1, 0), 4, 1, True),
        (3, (1, 2, 1), 5, None, True),
        (3, (0, 1, 2), 6, 2, False),
        (4, (1, 1, 1, 1), 7, None, False),
        (4, (1, 0, 2, 1), 8, 3, True),
        (4, (2, 1, 1, 0), 9, None, True),
    ]
    for n, dims, seed, singular, conjugate in cases:
        cs = circles[n]
        fib = cs.fibration
        at = None if singular is None else fib.base.arrows[singular].name
        dim_map = dict(zip(cs.data.names, dims))
        f = random_standard_functor(fib, dim_map, random.Random(seed), singular_at=at, conjugate=conjugate)
        name = f"{n}-value dims={''.join(map(str, dims))} seed={seed}"
        name += " singular" if at else ""
        name += " conjugated" if conjugate else ""
        yield name, cs, f
    # one-point poset base on a diamond fiber: not punctually split, and split
    diamond = FinPoset.from_relation(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    yield "diamond seed=0", None, random_functor_with_dims(diamond, {"a": 1, "b": 2, "c": 1, "d": 2}, random.Random(0))
    split = random_functor_with_dims(diamond, {"a": 1, "b": 1, "c": 1, "d": 2}, random.Random(0), prefer_split=True)
    yield "diamond seed=0 split", None, split


def _digest(space, f) -> str:
    return hashlib.sha256(json.dumps(_record(space, f), sort_keys=True).encode("utf-8")).hexdigest()


PINNED = {
    "rank_one_one_functor": "4b6327b43dcf5ec23638d873ee02e3ca9cd84f1648190525421ab651335dc6c6",
    "nonsplit_witness": "1dc82af33071b60cab9167cf70ed10e62f8c87536fa5e6563a8da264b106ba11",
    "2-value dims=11 seed=0": "590d6f3b625284218386bcf35298fdd79aedb26120faf69751a57462a4d95cf7",
    "2-value dims=21 seed=1 singular conjugated": "42cb9a661084ab0e05df94d635fce72ccb45dc3518952c4d1ef258bfd0522a30",
    "2-value dims=02 seed=2 conjugated": "a9145e6f3b989b7c44cb484e60f8b256ab45ed40f8f67eadf3e43e784ad03e90",
    "3-value dims=111 seed=3": "e477a34f1820591063f6f616aae5ed08412fccd08781aa2aaf16ef67a08a9a9d",
    "3-value dims=210 seed=4 singular conjugated": "8dcaf2db7c705b6e2e7b74c20dc1b6db567862da98e46503d885ea3f7d57d672",
    "3-value dims=121 seed=5 conjugated": "19166b263b5673965aaf0722bbfa0061db169d5a18f468ed51790c1227d32d0e",
    "3-value dims=012 seed=6 singular": "74f159f7a2b26657d31632bf9f28d08f0d90358e7a968cdf2d197128fa5082cc",
    "4-value dims=1111 seed=7": "9feefadd6ca3f305b8032b3e39b45e48a4e46e29d2759a7b454279f1066a603d",
    "4-value dims=1021 seed=8 singular conjugated": "0cf5567fed38ef7ab3e3c300dd08af6c7cfa303e6a558e587a9a2df47e5248f8",
    "4-value dims=2110 seed=9 conjugated": "57f6da4dc747293caa12ca4d77162b6ecd98dc7f1aa262c10fd9e1f9efa8f3d3",
    "diamond seed=0": "f480766f798df169a1887d540a76cb1d0058bd0053c8e2ffc3b8795c76df7396",
    "diamond seed=0 split": "d52e1eb073d4a7ab5ed83c2883e4f3f71dc75de2801d7c88983e5c1a3aae2bd7",
}


@pytest.mark.parametrize("name", list(PINNED))
def test_verdict_layer_outputs_are_pinned(name):
    assert _digest(*_functors()[name]) == PINNED[name]
