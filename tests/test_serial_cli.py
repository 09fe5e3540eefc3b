import json
from fractions import Fraction

import pytest

from stokeslib import Matrix, cli, serial, validate_functor
from stokeslib.exactmath import rat_str
from stokeslib.fixtures import (
    nonsplit_witness,
    rank_one_one_functor,
    two_value_circle,
    two_value_exponential,
)


@pytest.fixture(scope="module")
def space():
    return two_value_circle()


def test_functor_json_roundtrip_byte_identical(space):
    f = rank_one_one_functor(space)
    doc = serial.functor_to_json(f)
    text1 = serial.dumps(doc)
    f2 = serial.functor_from_json(json.loads(text1))
    text2 = serial.dumps(serial.functor_to_json(f2))
    assert text1 == text2
    assert dict(f2.spaces) == dict(f.spaces)
    assert all(f2.arrows[k].entries == f.arrows[k].entries for k in f.arrows)


def test_total_keys_that_cannot_be_read_back_are_refused():
    """The key of (x, a) splits at its first comma, so a base object with a
    comma collides: (x,y; a) and (x; y,a) both give "(x,y,a)".  The library
    refuses to write such a key; element names may keep their commas."""
    from stokeslib import FinPoset, StokesFibration, StokesFunctor, cover_arrow_id, make_poset_base

    base = make_poset_base(FinPoset.antichain(["x,y", "x"]))
    fib = StokesFibration(base, {"x,y": FinPoset.antichain(["a"]), "x": FinPoset.antichain(["y,a"])}, {})
    f = StokesFunctor(fib, {("x,y", "a"): 1, ("x", "y,a"): 2}, {})
    assert validate_functor(f) == (True, "ok")
    with pytest.raises(ValueError):
        serial.total_key("x,y", "a")
    with pytest.raises(ValueError):
        serial.functor_to_json(f)
    fiber = FinPoset.chain(["y,a", "b,c"])
    g = StokesFunctor(
        StokesFibration(make_poset_base(FinPoset.antichain(["x"])), {"x": fiber}, {}),
        {("x", "y,a"): 1, ("x", "b,c"): 2},
        {cover_arrow_id("x", "y,a", "b,c"): Matrix.from_rows([[1], [0]])},
    )
    assert validate_functor(g) == (True, "ok")
    text = serial.dumps(serial.functor_to_json(g))
    g2 = serial.functor_from_json(json.loads(text))
    assert g2.fibration == g.fibration and g2.spaces == g.spaces
    assert serial.dumps(serial.functor_to_json(g2)) == text


def test_fibration_json_roundtrip(space):
    doc = serial.fibration_to_json(space.fibration)
    fib2 = serial.fibration_from_json(json.loads(serial.dumps(doc)))
    assert serial.dumps(serial.fibration_to_json(fib2)) == serial.dumps(doc)


def test_circle_space_roundtrip(space):
    doc = serial.circle_space_to_json(space)
    s2 = serial.circle_space_from_json(json.loads(serial.dumps(doc)))
    assert serial.dumps(serial.circle_space_to_json(s2)) == serial.dumps(doc)


def test_exponential_and_matrix_roundtrip():
    e = two_value_exponential()
    doc = serial.exponential_to_json(e)
    e2 = serial.exponential_from_json(doc)
    assert serial.dumps(serial.exponential_to_json(e2)) == serial.dumps(doc)
    m = Matrix.from_rows([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    assert serial.matrix_from_json(serial.matrix_to_json(m)).entries == m.entries


def test_rational_strings_canonical():
    doc = serial.matrix_to_json(Matrix.from_rows([[Fraction(2, 4)]]))
    assert doc["entries"] == ["1/2"]


def run_cli(tmp_path, *argv):
    return cli.main(list(argv))


def test_cli_directions_and_build(tmp_path):
    exp = tmp_path / "exp.json"
    exp.write_text(serial.dumps(serial.exponential_to_json(two_value_exponential())))
    out = tmp_path / "dirs.json"
    assert run_cli(tmp_path, "directions", "--input", str(exp), "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    assert [d["angle_over_pi"] for d in payload["directions"]] == ["1/2", "3/2"]
    built = tmp_path / "space.json"
    assert run_cli(tmp_path, "build-circle", "--input", str(exp), "--output", str(built)) == 0
    doc = json.loads(built.read_text())
    assert doc["fibration"]["base"]["n"] == 2


def test_cli_determinism(tmp_path):
    exp = tmp_path / "exp.json"
    exp.write_text(serial.dumps(serial.exponential_to_json(two_value_exponential())))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(tmp_path, "build-circle", "--input", str(exp), "--output", str(out1))
    run_cli(tmp_path, "build-circle", "--input", str(exp), "--output", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_is_stokes_and_split_exit_codes(tmp_path, space):
    good = tmp_path / "good.json"
    good.write_text(serial.dumps(serial.functor_to_json(rank_one_one_functor(space))))
    bad = tmp_path / "bad.json"
    bad.write_text(serial.dumps(serial.functor_to_json(nonsplit_witness(space))))
    assert run_cli(tmp_path, "is-stokes", "--input", str(good)) == 0
    assert run_cli(tmp_path, "is-stokes", "--input", str(bad)) == 0  # witness is Stokes
    out = tmp_path / "split.json"
    assert run_cli(tmp_path, "split", "--input", str(good), "--output", str(out)) == 0
    assert json.loads(out.read_text())["split"] is True
    assert run_cli(tmp_path, "split", "--input", str(bad), "--output", str(out)) == 1
    assert json.loads(out.read_text())["split"] is False


def test_cli_input_errors(tmp_path):
    missing = tmp_path / "missing.json"
    assert run_cli(tmp_path, "is-stokes", "--input", str(missing)) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run_cli(tmp_path, "is-stokes", "--input", str(garbage)) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"values": {}}))
    assert run_cli(tmp_path, "is-stokes", "--input", str(wrong)) == 2
    # a list where an object is expected, and a pair declared in both orientations
    poly = {"forms": [{"coeffs": ["1"], "const": "0"}], "strata": ["-", "0", "+"]}
    space = serial.circle_space_to_json(two_value_circle())
    # a rational with a zero denominator, in a value, an arc end and a matrix entry
    zero_q = {"values": {"a": [{"q": "1/0", "c": {"re": "1", "im": "0"}}]}}
    bad_end = {"start": {"kind": "exact", "t": "1/0"}, "end": {"kind": "exact", "t": "3/4"}}
    bad_entry = serial.functor_to_json(rank_one_one_functor(two_value_circle()))
    next(iter(bad_entry["arrows"].values()))["entries"][0] = "1/0"
    for command, doc in [
        ("build-circle", zero_q),
        ("directions", zero_q),
        ("elementary", {"space": space, "arc": bad_end}),
        ("is-stokes", bad_entry),
        ("build-circle", {"values": []}),
        ("cover", {"values": []}),
        ("cover", {"data": {"values": []}}),
        ("elementary", {"space": space, "arc": []}),
        ("elementary", {**poly, "pairs": []}),
        ("elementary", {**poly, "pairs": {"a|b": {"form": 0, "orient": "+"}, "b|a": {"form": 0, "orient": "-"}}}),
    ]:
        wrong.write_text(json.dumps(doc))
        assert run_cli(tmp_path, command, "--input", str(wrong)) == 2, (command, doc)


def test_cli_grade_induce_disassemble_assemble(tmp_path):
    from stokeslib import ExponentialData, GaussianRational, IrregularValue, build_circle_space
    import random
    from helpers import random_standard_functor

    G = GaussianRational.of
    e3 = ExponentialData(
        {"u": IrregularValue.zero(), "v": IrregularValue.of((1, G(1))), "w": IrregularValue.of((2, G(1)))}
    )
    cs3 = build_circle_space(e3)
    space_path = tmp_path / "space3.json"
    space_path.write_text(serial.dumps(serial.circle_space_to_json(cs3)))
    f = random_standard_functor(cs3.fibration, {"u": 1, "v": 1, "w": 1}, random.Random(2))
    f_path = tmp_path / "f.json"
    f_path.write_text(serial.dumps(serial.functor_to_json(f)))
    graded = tmp_path / "graded.json"
    assert run_cli(
        tmp_path, "grade", "--input", str(f_path), "--space", str(space_path), "--level", "1",
        "--output", str(graded),
    ) == 0
    induced = tmp_path / "induced.json"
    assert run_cli(
        tmp_path, "induce", "--input", str(f_path), "--space", str(space_path), "--level", "1",
        "--output", str(induced),
    ) == 0
    dis = tmp_path / "dis.json"
    assert run_cli(
        tmp_path, "disassemble", "--input", str(f_path), "--space", str(space_path), "--level", "1",
        "--output", str(dis),
    ) == 0
    reasm = tmp_path / "reasm.json"
    assert run_cli(tmp_path, "assemble", "--input", str(dis), "--output", str(reasm)) == 0
    f2 = serial.functor_from_json(json.loads(reasm.read_text()))
    assert dict(f2.spaces) == dict(f.spaces)
    # bad level index
    assert run_cli(
        tmp_path, "grade", "--input", str(f_path), "--space", str(space_path), "--level", "9"
    ) == 2


def test_cli_level_commands_stdout_is_pinned(tmp_path, capsys):
    """The exact stdout bytes of grade, induce, disassemble, assemble, split and
    is-stokes on the three-value circle of the test above, and of split on the
    two-value fixtures (not split, and split), as SHA-256 digests."""
    import hashlib
    import random
    from helpers import random_standard_functor, three_value_circle

    cs3 = three_value_circle()
    space_path = tmp_path / "space3.json"
    space_path.write_text(serial.dumps(serial.circle_space_to_json(cs3)))
    f = random_standard_functor(cs3.fibration, {"u": 1, "v": 1, "w": 1}, random.Random(2))
    f_path = tmp_path / "f.json"
    f_path.write_text(serial.dumps(serial.functor_to_json(f)))
    want = {
        "grade": "86b87f089a73abf3bc303971d75772cefb24d860cac5def6f1d331d94e3a4aef",
        "induce": "d0a5ca647a082f688503cb7fb01a78ca66babd61465f6e010739c778c00f6aa7",
        "disassemble": "5fad02f317e55842774b8d46c00d3515c24fc7c7c283c81bc0850b3efc07807b",
        "assemble": "a70920126ab16bb67526f545c1a5503249ffd375fb51753ee7ab875adb99aa73",
        "split": "7850de8ef91c6adab7459789ff7e21a9c01c80f36ea8e994b91f6c97914e2b92",
        "is-stokes": "ce43e6b30fcfd28955cedac94a08a53b9e1677960a38bc67c0dfdeaa0f3abf2d",
        "split nonsplit_witness": "7850de8ef91c6adab7459789ff7e21a9c01c80f36ea8e994b91f6c97914e2b92",
        "split rank_one_one_functor": "c4ae19ccd97bdd3d3e97287da6fd27b5958ffb5c3cf5db8f4e6d77ab70edb3e6",
    }
    got = {}
    capsys.readouterr()
    two = two_value_circle()
    for cmd, functor, code in [
        ("split", f, 1),
        ("is-stokes", f, 0),
        ("split nonsplit_witness", nonsplit_witness(two), 1),
        ("split rank_one_one_functor", rank_one_one_functor(two), 0),
    ]:
        path = tmp_path / "verdict.json"
        path.write_text(serial.dumps(serial.functor_to_json(functor)))
        assert run_cli(tmp_path, cmd.split()[0], "--input", str(path)) == code, cmd
        got[cmd] = capsys.readouterr().out
    for cmd in ("grade", "induce", "disassemble"):
        assert run_cli(tmp_path, cmd, "--input", str(f_path), "--space", str(space_path), "--level", "1") == 0
        got[cmd] = capsys.readouterr().out
    dis = tmp_path / "dis.json"
    dis.write_text(got["disassemble"])
    assert run_cli(tmp_path, "assemble", "--input", str(dis)) == 0
    got["assemble"] = capsys.readouterr().out
    assert {cmd: hashlib.sha256(out.encode("utf-8")).hexdigest() for cmd, out in got.items()} == want


def test_cli_ext_tangent_cover_collapse_dot(tmp_path, space):
    f_path = tmp_path / "f.json"
    f_path.write_text(serial.dumps(serial.functor_to_json(rank_one_one_functor(space))))
    out = tmp_path / "o.json"
    assert run_cli(tmp_path, "ext", "--input", str(f_path), "--output", str(out)) == 0
    ext = json.loads(out.read_text())
    assert ext["ext_dims"][0] == 2
    assert run_cli(tmp_path, "tangent-dims", "--input", str(f_path), "--output", str(out)) == 0
    assert json.loads(out.read_text())["tangent_dims"]["-1"] == 2
    space_path = tmp_path / "space.json"
    space_path.write_text(serial.dumps(serial.circle_space_to_json(space)))
    assert run_cli(tmp_path, "cover", "--input", str(space_path), "--output", str(out)) == 0
    fib_path = tmp_path / "fib.json"
    fib_path.write_text(serial.dumps(serial.fibration_to_json(space.fibration)))
    assert run_cli(tmp_path, "collapse", "--input", str(fib_path), "--output", str(out)) == 0
    assert json.loads(out.read_text())["fully_constant"] is False
    dot = tmp_path / "g.dot"
    assert run_cli(tmp_path, "export-dot", "--input", str(f_path), "--output", str(dot)) == 0
    assert dot.read_text().startswith("digraph")
    assert run_cli(tmp_path, "validate", "--input", str(f_path)) == 0
    assert run_cli(tmp_path, "sections", "--input", str(fib_path), "--output", str(out)) == 0
    assert len(json.loads(out.read_text())["sections"]) == 2


def test_cli_elementary_arc_and_polyhedral(tmp_path, space):
    doc = {
        "space": serial.circle_space_to_json(space),
        "arc": {"start": {"kind": "exact", "t": "1/4"}, "end": {"kind": "exact", "t": "3/4"}},
    }
    p = tmp_path / "q.json"
    p.write_text(serial.dumps(doc))
    assert run_cli(tmp_path, "elementary", "--input", str(p)) == 0
    doc["arc"] = {"full": True}
    p.write_text(serial.dumps(doc))
    assert run_cli(tmp_path, "elementary", "--input", str(p)) == 1
    poly = {
        "forms": [{"coeffs": ["1"], "const": "0"}],
        "strata": ["-", "0", "+"],
        "pairs": {"a|b": {"form": 0, "orient": "+"}},
    }
    p.write_text(serial.dumps(poly))
    assert run_cli(tmp_path, "elementary", "--input", str(p)) == 0


def test_cli_kummer_and_multi_input(tmp_path, space):
    exp = tmp_path / "exp.json"
    exp.write_text(serial.dumps(serial.exponential_to_json(two_value_exponential())))
    out = tmp_path / "k.json"
    assert run_cli(tmp_path, "kummer", "--input", str(exp), "--d", "2", "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["values"]["b"][0]["q"] == "2"
    f1 = tmp_path / "f1.json"
    f2 = tmp_path / "f2.json"
    f1.write_text(serial.dumps(serial.functor_to_json(rank_one_one_functor(space))))
    f2.write_text(serial.dumps(serial.functor_to_json(nonsplit_witness(space))))
    # max of the exit codes: split fails on the witness
    assert run_cli(tmp_path, "split", "--input", str(f1), "--input", str(f2)) == 1


def _truncated_leq_doc(space) -> dict:
    doc = serial.functor_to_json(rank_one_one_functor(space))
    fiber = doc["fibration"]["fibers"]["p0"]
    fiber["leq"] = fiber["leq"][:-1]
    return doc


def test_poset_decoder_rejects_malformed_leq():
    with pytest.raises(ValueError):
        serial.poset_from_json({"elements": ["a", "b"], "leq": [[True, False]]})
    with pytest.raises(ValueError):
        serial.poset_from_json({"elements": ["a", "b"], "leq": [[True, False], [True]]})
    with pytest.raises(ValueError):
        serial.poset_from_json({"elements": ["a"], "leq": [[True, False]]})


def test_cli_malformed_poset_is_input_error(tmp_path, space, capsys):
    bad = tmp_path / "short_leq.json"
    bad.write_text(serial.dumps(_truncated_leq_doc(space)))
    for command in ("is-stokes", "split", "validate", "ext"):
        assert run_cli(tmp_path, command, "--input", str(bad)) == 2
        assert "error" in capsys.readouterr().err


def test_cli_ext_rejects_invalid_functors(tmp_path, space, capsys):
    good = serial.functor_to_json(rank_one_one_functor(space))
    broken = json.loads(serial.dumps(good))
    broken["arrows"].pop(sorted(broken["arrows"])[0])
    path = tmp_path / "broken.json"
    path.write_text(serial.dumps(broken))
    assert run_cli(tmp_path, "ext", "--input", str(path)) == 2
    assert "input error" in capsys.readouterr().err
    pair = tmp_path / "pair.json"
    pair.write_text(serial.dumps({"f": good, "g": broken}))
    assert run_cli(tmp_path, "ext", "--input", str(pair)) == 2
    assert "input error" in capsys.readouterr().err
    # a valid g on another fibration: the two-value circle has four strata, this one two
    from test_ext import local_system

    other = serial.functor_to_json(local_system(1, [Matrix.identity(1)]))
    pair.write_text(serial.dumps({"f": good, "g": other}))
    assert run_cli(tmp_path, "ext", "--input", str(pair)) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_ext_stdout_agrees_with_the_nerve_oracle(tmp_path, space, capsys):
    """The printed Ext dims and Euler characteristic are those of the dense
    nerve complex; the printed complex is the resolution's, whose
    differentials compose to zero and whose cohomology is the printed Ext."""
    from helpers import oracle_cohomology_dims, oracle_hom_complex

    f = rank_one_one_functor(space)
    g = nonsplit_witness(space)
    for doc, (a, b) in (
        (serial.functor_to_json(f), (f, f)),
        ({"f": serial.functor_to_json(f), "g": serial.functor_to_json(g)}, (f, g)),
    ):
        path = tmp_path / "in.json"
        path.write_text(serial.dumps(doc))
        assert run_cli(tmp_path, "ext", "--input", str(path)) == 0
        out = json.loads(capsys.readouterr().out)
        dims, diffs = oracle_hom_complex(a, b)
        assert out["ext_dims"] == oracle_cohomology_dims(dims, diffs)
        assert out["euler_characteristic"] == sum((-1) ** i * d for i, d in enumerate(dims))
        cdims = out["complex"]["dims"]
        printed = [serial.matrix_from_json(d) for d in out["complex"]["differentials"]]
        assert [(m.rows, m.cols) for m in printed] == list(zip(cdims[1:], cdims))
        assert all((m1 @ m0).is_zero() for m0, m1 in zip(printed, printed[1:]))
        assert oracle_cohomology_dims(cdims, printed) == out["ext_dims"]


def test_cli_ext_stdout_is_pinned(tmp_path, space, capsys):
    """SHA-256 of the ext stdout on a circle, a poset and a one-point-circle
    base, recorded when the complex became the projective resolution's; the
    Ext dims and Euler characteristics are those the nerve complex printed."""
    import hashlib

    from stokeslib import ExponentialData, IrregularValue, StokesFunctor, build_circle_space, lift_arrow_id
    from helpers import diamond_base_functor

    one_point = build_circle_space(ExponentialData({"a": IrregularValue.zero()})).fibration
    kronecker = StokesFunctor(
        one_point,
        {("p0", "a"): 1, ("s0", "a"): 1},
        {lift_arrow_id("p0+", "a"): Matrix.from_rows([[1]]), lift_arrow_id("p0-", "a"): Matrix.from_rows([[2]])},
    )
    pinned = [
        (rank_one_one_functor(space), [2, 4, 0], -2, "7c62af22ecad9bbf0b7a4f32135122e2eb029a7253736ca0e50a5e1fd0461d41"),
        (nonsplit_witness(space), [1, 3, 0], -2, "5ef3a5f5958539ae6f22963d70e15906ce1b8aa9ad4165e9df197c984286c8ca"),
        (diamond_base_functor(), [3, 0, 0, 0], 3, "d34e85eb8f3daa5f1c46677d9ba7afdbeaf5c893bd2a412b52fe01294b94c5a7"),
        (kronecker, [1, 1], 0, "fa76180464b52b33af4d16ef6dded524c37a1aa1d91a638567453774518cae89"),
    ]
    path = tmp_path / "in.json"
    for f, ext, euler, want in pinned:
        path.write_text(serial.dumps(serial.functor_to_json(f)))
        capsys.readouterr()
        assert run_cli(tmp_path, "ext", "--input", str(path)) == 0
        text = capsys.readouterr().out
        assert (json.loads(text)["ext_dims"], json.loads(text)["euler_characteristic"]) == (ext, euler)
        assert hashlib.sha256(text.encode()).hexdigest() == want


def test_cli_multi_input_output_names_do_not_depend_on_hash_seed(tmp_path, space):
    import os
    import subprocess
    import sys
    from pathlib import Path

    f1 = tmp_path / "f1.json"
    f2 = tmp_path / "f2.json"
    f1.write_text(serial.dumps(serial.functor_to_json(rank_one_one_functor(space))))
    f2.write_text(serial.dumps(serial.functor_to_json(nonsplit_witness(space))))
    src = str(Path(cli.__file__).resolve().parents[1])
    names = []
    for hash_seed in ("1", "2"):
        out_dir = tmp_path / f"out{hash_seed}"
        out_dir.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "stokeslib.cli", "validate", "--input", str(f1), "--input", str(f2),
             "--output", str(out_dir / "v")],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        names.append(sorted(p.name for p in out_dir.iterdir()))
    assert len(names[0]) == 2
    assert names[0] == names[1]


def test_cli_validate_witness_does_not_depend_on_hash_seed(tmp_path):
    """A fiber on a..e given only a<b<c<d<e is not transitive; the reported
    witness is the first one in element order, in every process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from stokeslib import FinPoset, StokesFibration, make_poset_base

    elems = ("a", "b", "c", "d", "e")
    leq = frozenset([(x, x) for x in elems] + list(zip(elems, elems[1:])))
    fib = StokesFibration(make_poset_base(FinPoset.antichain(["x"])), {"x": FinPoset(elems, leq)}, {})
    doc = tmp_path / "fib.json"
    doc.write_text(serial.dumps(serial.fibration_to_json(fib)))
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "stokeslib.cli", "validate", "--input", str(doc)],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        assert proc.returncode == 1, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert "transitivity fails at (a, b, c)" in outs[0]


def test_cli_assemble_inconsistent_pieces_is_input_error(tmp_path, capsys):
    import random

    from stokeslib import ExponentialData, GaussianRational, IrregularValue, build_circle_space
    from helpers import random_standard_functor

    G = GaussianRational.of
    e3 = ExponentialData(
        {"u": IrregularValue.zero(), "v": IrregularValue.of((1, G(1))), "w": IrregularValue.of((2, G(1)))}
    )
    cs3 = build_circle_space(e3)
    space_path = tmp_path / "space3.json"
    space_path.write_text(serial.dumps(serial.circle_space_to_json(cs3)))
    f_path = tmp_path / "f.json"
    f = random_standard_functor(cs3.fibration, {"u": 1, "v": 1, "w": 1}, random.Random(2))
    f_path.write_text(serial.dumps(serial.functor_to_json(f)))
    dis = tmp_path / "dis.json"
    assert run_cli(
        tmp_path, "disassemble", "--input", str(f_path), "--space", str(space_path), "--level", "1",
        "--output", str(dis),
    ) == 0
    doc = json.loads(dis.read_text())
    # scale one 1x1 lift matrix of g: g stays a valid functor, but no longer fits h and alpha
    lifts = [k for k, m in doc["g"]["arrows"].items() if "<" not in k.split("::")[1] and m["rows"] == 1 == m["cols"]]
    lift = doc["g"]["arrows"][sorted(lifts)[0]]
    lift["entries"] = [rat_str(Fraction(lift["entries"][0]) * 3)]
    assert validate_functor(serial.functor_from_json(doc["g"]))[0]
    bad = tmp_path / "bad.json"
    bad.write_text(serial.dumps(doc))
    capsys.readouterr()
    assert run_cli(tmp_path, "assemble", "--input", str(bad)) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err
    # an invalid g is rejected by validation
    doc["g"]["arrows"].pop(sorted(lifts)[0])
    bad.write_text(serial.dumps(doc))
    assert run_cli(tmp_path, "assemble", "--input", str(bad)) == 2
    assert "invalid functor" in capsys.readouterr().err


def test_cli_jobs_never_exceed_the_inputs(tmp_path, space, monkeypatch):
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    paths = []
    for i, f in enumerate((rank_one_one_functor(space), nonsplit_witness(space))):
        paths += ["--input", str(tmp_path / f"f{i}.json")]
        (tmp_path / f"f{i}.json").write_text(serial.dumps(serial.functor_to_json(f)))
    assert run_cli(tmp_path, "split", *paths, "--jobs", "100000") == 1
    assert seen == [2]


def test_cli_builds_its_parser_once_per_process(tmp_path, space, monkeypatch):
    """Three in-process commands build one parser: the top level and its 17 subcommands."""
    import argparse

    builds = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    path = tmp_path / "f.json"
    path.write_text(serial.dumps(serial.functor_to_json(nonsplit_witness(space))))
    codes = [run_cli(tmp_path, cmd, "--input", str(path)) for cmd in ("validate", "is-stokes", "split")]
    assert codes == [0, 0, 1]
    assert len(builds) == 1 + 17


def test_cli_jobs_run_real_workers_with_the_same_outputs(tmp_path, space):
    """A real process pool pickles each payload; its files match a serial run byte for byte."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    paths = []
    for i, f in enumerate((rank_one_one_functor(space), nonsplit_witness(space))):
        paths += ["--input", str(tmp_path / f"f{i}.json")]
        (tmp_path / f"f{i}.json").write_text(serial.dumps(serial.functor_to_json(f)))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    outputs = []
    for jobs in ("2", "1"):
        out_dir = tmp_path / f"jobs{jobs}"
        out_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "stokeslib.cli", "split", *paths, "--jobs", jobs, "--output", str(out_dir / "v")],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        assert proc.returncode == 1, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


def _tampered_spaces(doc: dict) -> dict:
    """Copies of a circle-space document with one field edited by hand."""
    import copy

    edited = copy.deepcopy(doc)
    edited["provenance"]["0"] = []
    swapped = copy.deepcopy(doc)
    swapped["points"][0], swapped["points"][1] = swapped["points"][1], swapped["points"][0]
    flipped = copy.deepcopy(doc)
    leq = flipped["fibration"]["fibers"]["s0"]["leq"]
    flipped["fibration"]["fibers"]["s0"]["leq"] = [list(col) for col in zip(*leq)]
    return {"provenance": edited, "points": swapped, "fiber order": flipped}


def test_cli_rejects_a_circle_space_that_its_data_does_not_give(tmp_path, capsys):
    """cover, elementary and the --space level commands rebuild the space from
    its values and exit 2 on any difference; an untouched document keeps its
    bytes, and its cover is pinned after its arcs pass the interval oracles."""
    import hashlib
    import random
    from helpers import oracle_interiors_cover, oracle_is_elementary_arc, random_standard_functor, three_value_circle

    two = serial.circle_space_to_json(two_value_circle())
    arc = {"start": {"kind": "exact", "t": "1/4"}, "end": {"kind": "exact", "t": "3/4"}}
    cs3 = three_value_circle()
    f_path = tmp_path / "f.json"
    f_path.write_text(serial.dumps(serial.functor_to_json(
        random_standard_functor(cs3.fibration, {"u": 1, "v": 1, "w": 1}, random.Random(2)))))

    def cover(doc):
        path = tmp_path / "space.json"
        path.write_text(serial.dumps(doc))
        return run_cli(tmp_path, "cover", "--input", str(path))

    def elementary(doc):
        path = tmp_path / "arc.json"
        path.write_text(serial.dumps({"space": doc, "arc": arc}))
        return run_cli(tmp_path, "elementary", "--input", str(path))

    def level(cmd):
        def run(doc):
            path = tmp_path / "space3.json"
            path.write_text(serial.dumps(doc))
            return run_cli(tmp_path, cmd, "--input", str(f_path), "--space", str(path), "--level", "1")
        return run

    capsys.readouterr()
    assert hashlib.sha256(serial.dumps(two).encode()).hexdigest() == (
        "daa9a1f66244899fdd288b71557e1010f69169d45c8a507a44abd1b8f47aa371"
    )
    assert cover(two) == 0
    out = capsys.readouterr().out
    arcs = [serial.arc_from_json(a) for a in json.loads(out)["cover"]]
    assert all(oracle_is_elementary_arc(two_value_circle(), a) for a in arcs)
    assert oracle_interiors_cover(two_value_circle(), arcs)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7b605cd2a06a1bc3371ac96d578b643ec8c67def2557f708e89f393e0d2bc1dc"
    )
    assert elementary(two) == 0 and json.loads(capsys.readouterr().out) == {"elementary": True}
    cases = [(cover, two), (elementary, two)]
    cases += [(level(cmd), serial.circle_space_to_json(cs3)) for cmd in ("grade", "induce", "disassemble")]
    for run, doc in cases:
        for what, bad in _tampered_spaces(doc).items():
            assert run(bad) == 2, what
            captured = capsys.readouterr()
            assert captured.out == "" and "differs from the space built from its data" in captured.err


def test_cli_rejects_colliding_generating_arrow_ids(tmp_path, capsys):
    """Element names with '<' can give two generating arrows one id: a fiber
    with covers u < "v<w" and "u<v" < w, or a poset base with covers
    a < "b<c" and "a<b" < c.  is-stokes, split and sections exit 2."""
    from stokeslib import FinPoset

    def point(name):
        return serial.poset_to_json(FinPoset.antichain([name]))

    fiber = FinPoset.from_relation(["u", "v<w", "u<v", "w"], [("u", "v<w"), ("u<v", "w")])
    functor = {
        "fibration": {"base": {"kind": "poset", "poset": point("x")},
                      "fibers": {"x": serial.poset_to_json(fiber)}, "transitions": {}},
        "spaces": {serial.total_key("x", e): 1 for e in fiber.elements},
        "arrows": {"x::u<v<w": serial.matrix_to_json(Matrix.identity(1))},
    }
    base = FinPoset.from_relation(["a", "b<c", "a<b", "c"], [("a", "b<c"), ("a<b", "c")])
    fibration = {
        "base": {"kind": "poset", "poset": serial.poset_to_json(base)},
        "fibers": {x: point("v") for x in base.elements},
        "transitions": {"a<b<c": {"v": "v"}},
    }
    f_path, fib_path = tmp_path / "f.json", tmp_path / "fib.json"
    f_path.write_text(serial.dumps(functor))
    fib_path.write_text(serial.dumps(fibration))
    for cmd, path in (("is-stokes", f_path), ("split", f_path), ("sections", fib_path)):
        capsys.readouterr()
        assert run_cli(tmp_path, cmd, "--input", str(path)) == 2, cmd
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in captured.err, cmd


def test_cli_level_commands_refuse_plus_in_value_names(tmp_path):
    import random
    from stokeslib import ExponentialData, GaussianRational, IrregularValue, build_circle_space
    from helpers import random_standard_functor

    G = GaussianRational.of
    values = (IrregularValue.zero(), IrregularValue.of((1, G(1))), IrregularValue.of((2, G(1))))
    for names in (("u", "v+w", "w"), ("u", "v", "u+v")):
        cs = build_circle_space(ExponentialData(dict(zip(names, values))))
        space_path = tmp_path / "space.json"
        space_path.write_text(serial.dumps(serial.circle_space_to_json(cs)))
        f = random_standard_functor(cs.fibration, dict.fromkeys(names, 1), random.Random(2))
        f_path = tmp_path / "f.json"
        f_path.write_text(serial.dumps(serial.functor_to_json(f)))
        for cmd in ("grade", "induce", "disassemble"):
            args = ("--input", str(f_path), "--space", str(space_path), "--level", "1")
            assert run_cli(tmp_path, cmd, *args) == 2, (names, cmd)


def test_cli_refuses_unchecked_morphism_and_fibration_documents(tmp_path):
    """A morphism whose fiber maps are not monotone, and a fibration whose fiber
    order is not antisymmetric, are bad input for induce, sections and collapse."""
    from stokeslib import MonotoneMap
    from stokeslib.fibrations import FibrationMorphism

    space = two_value_circle()
    fib = space.fibration
    f_path = tmp_path / "f.json"
    f_path.write_text(serial.dumps(serial.functor_to_json(rank_one_one_functor(space))))
    swap = FibrationMorphism(
        fib, fib, {x: MonotoneMap(fib.fiber(x), fib.fiber(x), {"a": "b", "b": "a"}) for x in fib.base.objects}
    )
    assert swap.squares_commute()
    m_path = tmp_path / "swap.json"
    m_path.write_text(serial.dumps(serial.morphism_to_json(swap)))
    for cmd in ("induce", "grade", "disassemble"):
        assert run_cli(tmp_path, cmd, "--input", str(f_path), "--morphism", str(m_path)) == 2, cmd
    doc = serial.fibration_to_json(fib)
    elems = doc["fibers"]["s0"]["elements"]
    doc["fibers"]["s0"]["leq"] = [[True] * len(elems) for _ in elems]
    bad = tmp_path / "bad.json"
    bad.write_text(serial.dumps(doc))
    assert run_cli(tmp_path, "validate", "--input", str(bad)) == 1
    for cmd in ("sections", "collapse"):
        assert run_cli(tmp_path, cmd, "--input", str(bad)) == 2, cmd


def test_cli_grade_refuses_a_target_fibration_that_is_not_one(tmp_path):
    """The identity morphism of the two-value circle onto a fibration whose every
    fiber {a, b} has an all-true order: grade, induce and disassemble exit 2."""
    from stokeslib.fibrations import FibrationMorphism

    space = two_value_circle()
    f_path = tmp_path / "f.json"
    f_path.write_text(serial.dumps(serial.functor_to_json(rank_one_one_functor(space))))
    doc = serial.morphism_to_json(FibrationMorphism.identity(space.fibration))
    for fiber in doc["target"]["fibers"].values():
        fiber["leq"] = [[True] * len(fiber["elements"]) for _ in fiber["elements"]]
    m_path = tmp_path / "all-true.json"
    m_path.write_text(serial.dumps(doc))
    for cmd in ("grade", "induce", "disassemble"):
        assert run_cli(tmp_path, cmd, "--input", str(f_path), "--morphism", str(m_path)) == 2, cmd


def test_cli_sections_on_a_long_circle(tmp_path, capsys):
    """One recursion step per base object overflowed the stack here."""
    from stokeslib import FinPoset, MonotoneMap, StokesFibration, make_circle_base

    base = make_circle_base(600)
    pt = FinPoset.antichain(["a"])
    fib = StokesFibration(base, dict.fromkeys(base.objects, pt), {a.name: MonotoneMap.identity(pt) for a in base.arrows})
    path = tmp_path / "long.json"
    path.write_text(serial.dumps(serial.fibration_to_json(fib)))
    capsys.readouterr()
    assert run_cli(tmp_path, "sections", "--input", str(path)) == 0
    assert json.loads(capsys.readouterr().out)["sections"] == [dict.fromkeys(base.objects, "a")]


def test_cli_refuses_sizes_that_are_not_json_integers(tmp_path, space):
    """A dimension, matrix shape, circle-base n, direction m or k, or polyhedral
    form index that is a float, a bool or a string is bad input (exit 2): int()
    would read 1.5 and true as 1."""
    good = serial.functor_to_json(rank_one_one_functor(space))
    first_arrow = next(iter(good["arrows"]))
    docs = []
    for bad in (1.5, True, "1"):
        docs.append(("is-stokes", {**good, "spaces": {**good["spaces"], "(p0,a)": bad}}))
        docs.append(("validate", {**good, "spaces": {**good["spaces"], "(p0,a)": bad}}))
        docs.append(("is-stokes", {**good, "arrows": {**good["arrows"], first_arrow: {**good["arrows"][first_arrow], "rows": bad}}}))
        docs.append(("split", {**good, "arrows": {**good["arrows"], first_arrow: {**good["arrows"][first_arrow], "cols": bad}}}))
    fibration = good["fibration"]
    docs.append(("is-stokes", {**good, "fibration": {**fibration, "base": {"kind": "circle", "n": 2.0}}}))
    docs.append(("sections", {**fibration, "base": {"kind": "circle", "n": True}}))
    end = {"kind": "exact", "t": "3/4"}
    for field, bad in (("m", 1.0), ("k", False), ("m", "1")):
        start = {"kind": "direction", "c": {"re": "1", "im": "0"}, "m": 1, "k": 0, field: bad}
        docs.append(("elementary", {"space": serial.circle_space_to_json(space), "arc": {"start": start, "end": end}}))
    poly = {"forms": [{"coeffs": ["1"], "const": "0"}], "strata": ["-", "0", "+"]}
    for bad in (0.0, False, "0"):
        docs.append(("elementary", {**poly, "pairs": {"a|b": {"form": bad, "orient": "+"}}}))
    p = tmp_path / "bad.json"
    for command, doc in docs:
        p.write_text(json.dumps(doc))
        assert run_cli(tmp_path, command, "--input", str(p)) == 2, (command, doc)
    # the same documents with JSON integers are read
    p.write_text(json.dumps({**poly, "pairs": {"a|b": {"form": 0, "orient": "+"}}}))
    assert run_cli(tmp_path, "elementary", "--input", str(p)) == 0
    p.write_text(json.dumps(good))
    assert run_cli(tmp_path, "is-stokes", "--input", str(p)) == 0


def test_total_keys_must_be_a_parenthesized_pair():
    assert serial.parse_total_key("(x,a)") == ("x", "a")
    assert serial.parse_total_key("(x,y,a)") == ("x", "y,a")
    for key in ("garbage", "(xa)", "(x,a", "x,a)", ""):
        with pytest.raises(ValueError):
            serial.parse_total_key(key)


def test_cli_refuses_keys_that_name_nothing(tmp_path, space, capsys):
    """An extra space key or arrow id is an invalid functor: validate exits 1
    and names it, the verdict commands exit 2; a key that is not "(x,a)"
    cannot be read, and every command exits 2."""
    good = serial.functor_to_json(rank_one_one_functor(space))
    arrow = next(iter(good["arrows"].values()))
    p = tmp_path / "f.json"
    for doc, named in (
        ({**good, "spaces": {**good["spaces"], "(nowhere,a)": 1}}, "(nowhere,a)"),
        ({**good, "spaces": {**good["spaces"], "(p0,zz)": 0}}, "(p0,zz)"),
        ({**good, "arrows": {**good["arrows"], "zzz": arrow}}, "zzz"),
    ):
        p.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(tmp_path, "validate", "--input", str(p)) == 1
        assert named in json.loads(capsys.readouterr().out)["diagnostics"]
        for cmd in ("is-stokes", "split", "ext", "tangent-dims"):
            assert run_cli(tmp_path, cmd, "--input", str(p)) == 2, (cmd, named)
    p.write_text(json.dumps({**good, "spaces": {**good["spaces"], "garbage": 1}}))
    for cmd in ("validate", "is-stokes", "split"):
        assert run_cli(tmp_path, cmd, "--input", str(p)) == 2, cmd


def test_cli_refuses_strings_where_arrays_are_expected(tmp_path, space):
    """A JSON string where an array is expected would be read one character per
    item, so "entries": "10" gave a 2x1 matrix, and a value's terms "" or {} gave
    the zero value; every such document is bad input."""
    good = serial.functor_to_json(rank_one_one_functor(space))
    tall = next(aid for aid, m in good["arrows"].items() if (m["rows"], m["cols"]) == (2, 1))
    fibration = good["fibration"]
    p0 = fibration["fibers"]["p0"]
    poly = {"forms": [{"coeffs": ["1"], "const": "0"}], "strata": ["-", "0", "+"],
            "pairs": {"a|b": {"form": 0, "orient": "+"}}}
    docs = [
        ("validate", {**good, "arrows": {**good["arrows"], tall: {**good["arrows"][tall], "entries": "10"}}}),
        ("is-stokes", {**good, "arrows": {**good["arrows"], tall: {**good["arrows"][tall], "entries": "10"}}}),
        ("validate", {**fibration, "fibers": {**fibration["fibers"], "p0": {**p0, "elements": "ab"}}}),
        ("sections", {**fibration, "fibers": {**fibration["fibers"], "p0": {**p0, "elements": "ab"}}}),
        ("validate", {**fibration, "fibers": {**fibration["fibers"], "p0": {**p0, "leq": ["tt", p0["leq"][1]]}}}),
        ("elementary", {**poly, "strata": "-0+"}),
        ("elementary", {**poly, "forms": [{"coeffs": "1", "const": "0"}]}),
        ("elementary", {**poly, "forms": {"coeffs": ["1"], "const": "0"}}),
    ]
    b = [{"q": "1", "c": {"re": "1", "im": "0"}}]
    for terms in ("", {}):
        docs += [("directions", {"values": {"a": terms, "b": b}}), ("build-circle", {"values": {"a": terms, "b": b}})]
    p = tmp_path / "bad.json"
    for command, doc in docs:
        p.write_text(json.dumps(doc))
        assert run_cli(tmp_path, command, "--input", str(p)) == 2, (command, doc)
    for command, doc in (("validate", good), ("validate", fibration), ("elementary", poly),
                         ("directions", {"values": {"a": [], "b": b}})):
        p.write_text(json.dumps(doc))
        assert run_cli(tmp_path, command, "--input", str(p)) == 0, command
    for v in ("ab", {"a": 1}, None, 3):
        with pytest.raises(ValueError):
            serial.list_from_json(v)
    assert serial.list_from_json(["a"]) == ["a"]


def test_cli_assemble_refuses_an_alpha_that_names_nothing(tmp_path, capsys):
    """Every key of alpha is a total object of the morphism's target: an extra
    key and a missing one are bad input, named in the message."""
    import random

    from helpers import random_standard_functor, three_value_circle

    cs3 = three_value_circle()
    space_path = tmp_path / "space3.json"
    space_path.write_text(serial.dumps(serial.circle_space_to_json(cs3)))
    f_path = tmp_path / "f.json"
    f = random_standard_functor(cs3.fibration, {"u": 1, "v": 1, "w": 1}, random.Random(2))
    f_path.write_text(serial.dumps(serial.functor_to_json(f)))
    dis = tmp_path / "dis.json"
    assert run_cli(
        tmp_path, "disassemble", "--input", str(f_path), "--space", str(space_path), "--level", "1",
        "--output", str(dis),
    ) == 0
    doc = json.loads(dis.read_text())
    first = sorted(doc["alpha"])[0]
    bad = tmp_path / "bad.json"
    for alpha, named in (
        ({**doc["alpha"], "(nowhere,zz)": doc["alpha"][first]}, "('nowhere', 'zz')"),
        ({k: m for k, m in doc["alpha"].items() if k != first}, str(serial.parse_total_key(first))),
    ):
        bad.write_text(serial.dumps({**doc, "alpha": alpha}))
        capsys.readouterr()
        assert run_cli(tmp_path, "assemble", "--input", str(bad)) == 2
        assert named in capsys.readouterr().err
    assert run_cli(tmp_path, "assemble", "--input", str(dis)) == 0


def test_json_booleans_are_read_strictly(tmp_path, space):
    """A leq entry and an arc's "full" are JSON true or false: the string
    "false" once read as true, so a fibration with a <= b on s0 was "valid",
    and "full": "no" gave a full arc."""
    for v in ("false", "true", 0, 1, None, [True]):
        with pytest.raises(ValueError):
            serial.bool_from_json(v)
    assert serial.bool_from_json(True) is True and serial.bool_from_json(False) is False
    fibration = serial.fibration_to_json(space.fibration)
    fibers = fibration["fibers"]
    circle = serial.circle_space_to_json(space)
    arc = {"start": {"kind": "exact", "t": "1/4"}, "end": {"kind": "exact", "t": "3/4"}}
    p = tmp_path / "doc.json"
    for command, doc in (
        ("validate", {**fibration, "fibers": {**fibers, "s0": {**fibers["s0"], "leq": [[True, "false"], [False, True]]}}}),
        ("validate", {**fibration, "fibers": {**fibers, "s0": {**fibers["s0"], "leq": [[1, 0], [0, 1]]}}}),
        ("elementary", {"space": circle, "arc": {"full": "no"}}),
        ("elementary", {"space": circle, "arc": {"full": 1}}),
        ("elementary", {"space": circle, "arc": {**arc, "full": "false"}}),
    ):
        p.write_text(json.dumps(doc))
        assert run_cli(tmp_path, command, "--input", str(p)) == 2, (command, doc)
    for command, doc, code in (
        ("validate", fibration, 0),
        ("elementary", {"space": circle, "arc": {"full": True}}, 1),
        ("elementary", {"space": circle, "arc": {**arc, "full": False}}, 0),
    ):
        p.write_text(json.dumps(doc))
        assert run_cli(tmp_path, command, "--input", str(p)) == code, (command, doc)


def test_only_known_kinds_are_read(tmp_path, space):
    """An angle is "exact" or "direction" and a base "circle" or "poset"; an
    arc end of kind "banana" was read as a direction."""
    end = {"kind": "banana", "c": {"re": "1", "im": "0"}, "m": 1, "k": 0}
    with pytest.raises(ValueError):
        serial.angle_from_json(end)
    with pytest.raises(ValueError):
        serial.base_from_json({"kind": "Circle", "n": 2})
    p = tmp_path / "doc.json"
    start = {"kind": "exact", "t": "1/4"}
    fibration = serial.fibration_to_json(space.fibration)
    good = serial.functor_to_json(rank_one_one_functor(space))
    for command, doc in (
        ("elementary", {"space": serial.circle_space_to_json(space), "arc": {"start": start, "end": end}}),
        ("validate", {**fibration, "base": {**fibration["base"], "kind": "banana"}}),
        ("is-stokes", {**good, "fibration": {**fibration, "base": {**fibration["base"], "kind": "banana"}}}),
        ("export-dot", {"kind": "banana", "n": 2}),
    ):
        p.write_text(json.dumps(doc))
        assert run_cli(tmp_path, command, "--input", str(p)) == 2, (command, doc)


def test_a_circle_base_size_is_checked_before_the_base_is_built(tmp_path, space, monkeypatch):
    """A circle base of n points has 2n fibers; a document that declares
    n = 10**6 beside the two-value circle's fibers is refused before a
    million-point base is built."""
    fibration = serial.fibration_to_json(space.fibration)
    good = serial.functor_to_json(rank_one_one_functor(space))
    p = tmp_path / "doc.json"
    docs = []
    for n in (10**6, 1, 3, 0):
        base = {"kind": "circle", "n": n}
        docs += [("validate", {**fibration, "base": base}), ("sections", {**fibration, "base": base})]
        docs += [("split", {**good, "fibration": {**fibration, "base": base}})]

    def refuse(n):
        raise AssertionError(f"make_circle_base({n}) reached")

    with monkeypatch.context() as m:
        m.setattr(serial, "make_circle_base", refuse)
        for command, doc in docs:
            p.write_text(json.dumps(doc))
            assert run_cli(tmp_path, command, "--input", str(p)) == 2, command
    for command, doc in (("validate", fibration), ("split", good)):
        p.write_text(json.dumps(doc))
        assert run_cli(tmp_path, command, "--input", str(p)) == 0


def _named_circle(name):
    """The two-value circle with its zero value named ``name``."""
    from stokeslib import ExponentialData, GaussianRational, IrregularValue, build_circle_space

    return build_circle_space(
        ExponentialData({name: IrregularValue.zero(), "b": IrregularValue.of((1, GaussianRational.of(1)))})
    )


def test_names_must_be_json_strings(tmp_path):
    """An element, a transition or map value, a polyhedral stratum and an
    orientation are JSON strings: the element null once read as "None", so a
    fibration named by null, 7 or true was valid and its functor Stokes."""
    from stokeslib.fibrations import FibrationMorphism

    p = tmp_path / "doc.json"
    m_path = tmp_path / "m.json"
    for bad, name in ((None, "None"), (7, "7"), (True, "True")):
        space = _named_circle(name)
        functor = serial.functor_to_json(rank_one_one_functor(space))
        fibration = functor["fibration"]
        fibers = fibration["fibers"]
        renamed = {x: {**fp, "elements": [bad if e == name else e for e in fp["elements"]]} for x, fp in fibers.items()}
        arrow = next(iter(fibration["transitions"]))
        transition = {k: bad if v == name else v for k, v in fibration["transitions"][arrow].items()}
        morphism = serial.morphism_to_json(FibrationMorphism.identity(space.fibration))
        f_path = tmp_path / "f.json"
        f_path.write_text(json.dumps(functor))
        for command, doc in (
            ("validate", {**fibration, "fibers": {**fibers, "s0": renamed["s0"]}}),
            ("is-stokes", {**functor, "fibration": {**fibration, "fibers": renamed}}),
            ("validate", {**fibration, "transitions": {**fibration["transitions"], arrow: transition}}),
        ):
            p.write_text(json.dumps(doc))
            assert run_cli(tmp_path, command, "--input", str(p)) == 2, (command, bad)
        maps = {x: {k: bad if v == name else v for k, v in m.items()} for x, m in morphism["maps"].items()}
        m_path.write_text(json.dumps({**morphism, "maps": maps}))
        assert run_cli(tmp_path, "grade", "--input", str(f_path), "--morphism", str(m_path)) == 2, bad
        m_path.write_text(json.dumps(morphism))
        assert run_cli(tmp_path, "grade", "--input", str(f_path), "--morphism", str(m_path)) == 0, bad
    poly = {"forms": [{"coeffs": ["1"], "const": "0"}], "strata": ["-", "0", "+"],
            "pairs": {"a|b": {"form": 0, "orient": "+"}}}
    for doc in ({**poly, "strata": ["-", 0, "+"]}, {**poly, "pairs": {"a|b": {"form": 0, "orient": None}}}):
        p.write_text(json.dumps(doc))
        assert run_cli(tmp_path, "elementary", "--input", str(p)) == 2, doc
    for v in (None, 7, True, ["a"], {"a": "b"}):
        with pytest.raises(ValueError):
            serial.str_from_json(v)
    assert serial.str_from_json("a") == "a"


def test_rationals_are_json_strings_or_integers(tmp_path, space):
    """A matrix entry, a pole order, a coefficient, an arc end and a form
    coefficient that is a JSON float is bad input (exit 2); "3/4" and JSON
    integers are read."""
    good = serial.functor_to_json(rank_one_one_functor(space))
    first = next(iter(good["arrows"]))
    m = good["arrows"][first]

    def entry(x):
        return {**good, "arrows": {**good["arrows"], first: {**m, "entries": [x, *m["entries"][1:]]}}}

    c = {"re": "1", "im": "0"}
    circle = serial.circle_space_to_json(space)
    arc = {"start": {"kind": "exact", "t": "1/4"}, "end": {"kind": "exact", "t": "3/4"}}
    poly = {"forms": [{"coeffs": ["1"], "const": "0"}], "strata": ["-", "0", "+"],
            "pairs": {"a|b": {"form": 0, "orient": "+"}}}
    p = tmp_path / "doc.json"
    for command, doc, code in (
        ("is-stokes", entry(float(m["entries"][0])), 2),
        ("build-circle", {"values": {"a": [], "b": [{"q": 1.0, "c": c}]}}, 2),
        ("directions", {"values": {"a": [], "b": [{"q": "1", "c": {"re": 0.5, "im": "0"}}]}}, 2),
        ("elementary", {"space": circle, "arc": {**arc, "start": {"kind": "exact", "t": 0.25}}}, 2),
        ("elementary", {**poly, "forms": [{"coeffs": [1.5], "const": "0"}]}, 2),
        ("elementary", {**poly, "forms": [{"coeffs": ["1"], "const": 0.5}]}, 2),
        ("is-stokes", entry(int(m["entries"][0])), 0),
        ("build-circle", {"values": {"a": [], "b": [{"q": 1, "c": {"re": 1, "im": 0}}]}}, 0),
        ("build-circle", {"values": {"a": [], "b": [{"q": "2", "c": {"re": "3/4", "im": -1}}]}}, 0),
        ("elementary", {**poly, "forms": [{"coeffs": [1], "const": "-3/4"}]}, 0),
    ):
        p.write_text(json.dumps(doc))
        assert run_cli(tmp_path, command, "--input", str(p)) == code, (command, doc)
    for v in (1.5, 1.0, None, True, ["1"], "1/0", "x"):
        with pytest.raises(ValueError):
            serial.rational_from_json(v)
    assert serial.rational_from_json("3/4") == Fraction(3, 4) and serial.rational_from_json(-2) == -2


def test_keys_that_name_nothing_in_fibration_and_morphism_documents(tmp_path, space):
    """A transition, fiber or map that names no base arrow or object is bad
    input for every command, validate included: no fibration or morphism is
    read from such a document."""
    from helpers import diamond_base_functor

    from stokeslib.fibrations import FibrationMorphism

    fibration = serial.fibration_to_json(space.fibration)
    arrow = next(iter(fibration["transitions"].values()))
    functor = serial.functor_to_json(rank_one_one_functor(space))
    diamond = serial.functor_to_json(diamond_base_functor())
    poset_fib = diamond["fibration"]
    extra_fiber = {**poset_fib, "fibers": {**poset_fib["fibers"], "nowhere": poset_fib["fibers"]["o"]}}
    nowhere = {**fibration, "transitions": {**fibration["transitions"], "nowhere": arrow}}
    p = tmp_path / "doc.json"
    for commands, doc in (
        (("validate", "sections", "collapse", "export-dot"), nowhere),
        (("validate", "is-stokes", "split"), {**functor, "fibration": nowhere}),
        (("validate", "sections", "export-dot"), extra_fiber),
        (("validate", "is-stokes", "ext"), {**diamond, "fibration": extra_fiber}),
    ):
        p.write_text(json.dumps(doc))
        for command in commands:
            assert run_cli(tmp_path, command, "--input", str(p)) == 2, command
    morphism = serial.morphism_to_json(FibrationMorphism.identity(space.fibration))
    f_path, m_path = tmp_path / "f.json", tmp_path / "m.json"
    f_path.write_text(json.dumps(functor))
    m_path.write_text(json.dumps({**morphism, "maps": {**morphism["maps"], "nowhere": morphism["maps"]["s0"]}}))
    for command in ("grade", "induce", "disassemble"):
        assert run_cli(tmp_path, command, "--input", str(f_path), "--morphism", str(m_path)) == 2, command
    for command, doc in (("validate", fibration), ("validate", poset_fib), ("validate", diamond)):
        p.write_text(json.dumps(doc))
        assert run_cli(tmp_path, command, "--input", str(p)) == 0, command
    with pytest.raises(ValueError):
        serial.mapping_from_json({"a": 1, "b": 2}, keys=["a"])
    for v in (None, [], "ab", 1):
        with pytest.raises(ValueError):
            serial.mapping_from_json(v)
    assert serial.mapping_from_json({"a": 1}, keys=["a", "b"]) == {"a": 1}


def test_cli_calls_the_reader_and_check_bound_on_their_modules(tmp_path, space, monkeypatch):
    """The CLI looks its functor reader and check up when it calls them, so a
    function replaced on its module (as a tracer does) is the one called."""
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(serial, "functor_from_json", counting(serial.functor_from_json))
    monkeypatch.setattr(cli, "validate_functor", counting(cli.validate_functor))
    p = tmp_path / "f.json"
    p.write_text(serial.dumps(serial.functor_to_json(rank_one_one_functor(space))))
    assert run_cli(tmp_path, "is-stokes", "--input", str(p)) == 0
    assert calls == ["functor_from_json", "validate_functor"]


def test_fixed_shape_objects_refuse_fields_they_do_not_have(tmp_path, space):
    """A matrix is {rows, cols, entries}, a Gaussian rational {re, im}, an arc
    {full} or {start, end}, an angle and a base the fields of their kind: a
    misspelt field such as "rows~", "im~" or an arc's "ful" was read as absent."""
    functor = serial.functor_to_json(rank_one_one_functor(space))
    aid = next(iter(functor["arrows"]))
    matrix = functor["arrows"][aid]
    circle = serial.circle_space_to_json(space)
    start, end = {"kind": "exact", "t": "1/4"}, {"kind": "exact", "t": "3/4"}
    values = {"values": {"a": [], "b": [{"q": "1", "c": {"re": "1", "im": "0"}}]}}
    fibration = serial.fibration_to_json(space.fibration)
    p = tmp_path / "doc.json"
    for command, doc in (
        ("is-stokes", {**functor, "arrows": {**functor["arrows"], aid: {**matrix, "rows~": matrix["rows"]}}}),
        ("build-circle", {"values": {"a": [], "b": [{"q": "1", "c": {"re": "1", "im": "0", "im~": "0"}}]}}),
        ("elementary", {"space": circle, "arc": {"start": start, "end": end, "ful": True}}),
        ("elementary", {"space": circle, "arc": {"full": True, "start": start}}),
        ("elementary", {"space": circle, "arc": {"start": {**start, "t~": "1/2"}, "end": end}}),
        ("validate", {**fibration, "base": {**fibration["base"], "n~": 3}}),
    ):
        p.write_text(json.dumps(doc))
        assert run_cli(tmp_path, command, "--input", str(p)) == 2, (command, doc)
    for command, doc, code in (
        ("is-stokes", functor, 0),
        ("build-circle", values, 0),
        ("elementary", {"space": circle, "arc": {"start": start, "end": end}}, 0),
        ("validate", fibration, 0),
    ):
        p.write_text(json.dumps(doc))
        assert run_cli(tmp_path, command, "--input", str(p)) == code, (command, doc)


def test_functor_entries_are_read_once_and_strictly(space):
    """Equal entries of one document share one parsed rational, and true, 1.0
    and "1/0" are refused even after the entry 1 has been read."""
    doc = serial.functor_to_json(rank_one_one_functor(space))
    aid = next(a for a, m in doc["arrows"].items() if m["rows"] * m["cols"] >= 2)
    m = doc["arrows"][aid]

    def with_entries(first, second) -> dict:
        return {**doc, "arrows": {**doc["arrows"], aid: {**m, "entries": [first, second] + m["entries"][2:]}}}

    f = serial.functor_from_json(with_entries(1, "1"))
    assert f.arrows[aid].entries[:2] == (1, 1)
    for bad in (True, 1.0, "1/0", None, [1]):
        with pytest.raises(ValueError):
            serial.functor_from_json(with_entries(1, bad))


def test_each_command_walks_each_fiber_once(tmp_path, space, monkeypatch):
    """validate, is-stokes and split each walk every fiber of the functor once,
    and a circle base not at all: one path_composites per base object."""
    import random

    from stokeslib import FinPoset
    from helpers import random_standard_functor, three_value_circle

    three = random_standard_functor(three_value_circle().fibration, dict(zip("uvw", (1, 2, 1))), random.Random(0))
    walks = []
    original = FinPoset.path_composites

    def counted(self, step):
        walks.append(self)
        return original(self, step)

    monkeypatch.setattr(FinPoset, "path_composites", counted)
    p = tmp_path / "f.json"
    for f, want in ((rank_one_one_functor(space), 4), (three, 12)):
        p.write_text(serial.dumps(serial.functor_to_json(f)))
        counts = []
        for command in ("validate", "is-stokes", "split"):
            walks.clear()
            assert run_cli(tmp_path, command, "--input", str(p), "--output", str(tmp_path / "out.json")) in (0, 1)
            counts.append(len(walks))
        assert counts == [want] * 3
