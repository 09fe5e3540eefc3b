"""The CLI's exit-code contract on mutated documents: whatever a document
holds, every command exits 0, 1 or 2, raises nothing, and answers quickly.

Each example starts from one valid document of a command and mutates it in
one or two places. A mutation replaces a leaf (a scalar, or an empty array or
object) with one of ``REPLACEMENTS``, deletes an object key, or duplicates an
object key: the entry is copied under a new key that names nothing. No
replacement is a large integer, so no mutation declares a huge size.
"""

import copy
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokeslib import cli, serial
from stokeslib.fixtures import nonsplit_witness, rank_one_one_functor, two_value_circle, two_value_exponential
from stokeslib.functors import level_disassemble
from stokeslib.geometry import pole_level_structure

from helpers import diamond_base_functor

REPLACEMENTS = (None, True, 0, -1, 1.5, "", "1/0", [], {})


def _canonical(doc):
    return json.loads(serial.dumps(doc))


def _seeds():
    """label -> (argv, {file name: document}, the file that is mutated)."""
    space = two_value_circle()
    f = rank_one_one_functor(space)
    stage = pole_level_structure(space).stages[0]
    g, h, alpha = level_disassemble(stage, f)
    functor = serial.functor_to_json(f)
    fibration = serial.fibration_to_json(space.fibration)
    circle = serial.circle_space_to_json(space)
    values = serial.exponential_to_json(two_value_exponential())
    morphism = serial.morphism_to_json(stage)
    pieces = {
        "g": serial.functor_to_json(g),
        "h": serial.functor_to_json(h),
        "alpha": {serial.total_key(x, c): serial.matrix_to_json(m) for (x, c), m in alpha.items()},
        "morphism": morphism,
    }
    arc = {"start": {"kind": "exact", "t": "1/4"}, "end": {"kind": "exact", "t": "3/4"}}
    poly = {"forms": [{"coeffs": ["1"], "const": "0"}], "strata": ["-", "0", "+"],
            "pairs": {"a|b": {"form": 0, "orient": "+"}}}
    one = {
        "validate": fibration,
        "build-circle": values,
        "directions": values,
        "is-stokes": functor,
        "split": functor,
        "ext": functor,
        "tangent-dims": functor,
        "export-dot": serial.functor_to_json(diamond_base_functor()),
        "sections": fibration,
        "collapse": fibration,
        "cover": circle,
        "assemble": pieces,
        "ext pair": {"f": functor, "g": serial.functor_to_json(nonsplit_witness(space))},
        "elementary arc": {"space": circle, "arc": arc},
        "elementary polyhedral": poly,
    }
    # the command is the first word of the label
    seeds = {
        label: ([label.split()[0], "--input", "doc.json"], {"doc.json": doc}, "doc.json") for label, doc in one.items()
    }
    seeds["kummer"] = (["kummer", "--input", "doc.json", "--d", "2"], {"doc.json": values}, "doc.json")
    for cmd in ("grade", "disassemble"):
        argv = [cmd, "--input", "f.json", "--morphism", "m.json"]
        seeds[f"{cmd} --morphism"] = (argv, {"f.json": functor, "m.json": morphism}, "m.json")
    argv = ["induce", "--input", "f.json", "--space", "space.json", "--level", "1"]
    seeds["induce --space"] = (argv, {"f.json": functor, "space.json": circle}, "f.json")
    return {label: (argv, {name: _canonical(doc) for name, doc in docs.items()}, mutated)
            for label, (argv, docs, mutated) in seeds.items()}


SEEDS = _seeds()


def _paths(doc, path=()):
    """The path of every value below ``doc``, as a tuple of keys and indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _paths(v, path + (k,))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _mutate(doc, data) -> None:
    op = data.draw(st.sampled_from(("replace", "delete", "duplicate")))
    paths = list(_paths(doc))
    if op == "replace":
        paths = [p for p in paths if not isinstance(_at(doc, p), (dict, list)) or not _at(doc, p)]
    else:
        paths = [p for p in paths if isinstance(p[-1], str)]
    if not paths:
        return
    path = data.draw(st.sampled_from(paths))
    parent, key = _at(doc, path[:-1]), path[-1]
    if op == "replace":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))
    elif op == "delete":
        del parent[key]
    else:
        parent[key + "~"] = copy.deepcopy(parent[key])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for label, (_, docs, _) in SEEDS.items():
        (root / label).mkdir()
        for name, doc in docs.items():
            (root / label / name).write_text(json.dumps(doc), encoding="utf-8")
    return root


@pytest.mark.parametrize("label", sorted(SEEDS))
@settings(max_examples=80)
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(workdir, label, data):
    argv, docs, mutated = SEEDS[label]
    doc = copy.deepcopy(docs[mutated])
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(doc, data)
    here = workdir / label
    (here / mutated).write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(here / a) if a in docs else a for a in argv] + ["--output", str(here / "out")]
    start = time.perf_counter()
    code = cli.main(argv)
    assert code in (0, 1, 2)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("label", sorted(SEEDS))
def test_every_seed_document_is_read(workdir, label):
    """The unmutated documents are good input: the fuzzer starts from valid ground."""
    argv, docs, _ = SEEDS[label]
    here = workdir / label
    for name, doc in docs.items():
        (here / name).write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(here / a) if a in docs else a for a in argv] + ["--output", str(here / "out")]
    assert cli.main(argv) in (0, 1)
