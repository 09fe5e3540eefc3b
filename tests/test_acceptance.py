"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction

import pytest

from stokeslib import (
    ExponentialData,
    FinPoset,
    GaussianRational,
    IrregularValue,
    Matrix,
    MonotoneMap,
    StokesFibration,
    StokesFunctor,
    build_circle_space,
    cocartesian_sections,
    collapse_refinement,
    compare_directions,
    elementary_cover,
    ext_dims,
    grade,
    induce,
    is_stokes,
    level_assemble,
    level_disassemble,
    lift_arrow_id,
    make_circle_base,
    natural_isomorphism,
    pole_level_structure,
    restrict_functor_to_arc,
    split_fiber,
    split_global,
    stokes_directions,
    stokes_locus,
    tangent_dims,
    validate_fibration,
    validate_functor,
)
from stokeslib.fixtures import nonsplit_witness, two_value_circle, two_value_exponential

from helpers import (
    canonical_posets,
    fibrations_isomorphic_up_to_rotation,
    oracle_centralizer_dim,
    oracle_split_verdict,
    random_functor_with_dims,
    random_level_setup,
    random_standard_functor,
    subdivide_arc,
    subdivide_functor,
)

G = GaussianRational.of
IV = IrregularValue


def report(num: int, ok: bool, elapsed: float, line: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} ({elapsed:.2f} s) {line}")
    assert ok


def test_criterion_1_direction_law():
    t0 = time.time()
    ok = True
    for m in range(1, 6):
        for c in (G(1), G(0, 1), G(1, 1)):
            e = ExponentialData({"a": IV.zero(), "b": IV.of((m, c))})
            dirs = stokes_directions(e.values["a"], e.values["b"])
            ok = ok and len(dirs) == 2 * m
            for j in range(2 * m):
                ok = ok and compare_directions(dirs[j], dirs[(j + 1) % (2 * m)].shifted(-1)) == "EQ"
                if j + 1 < 2 * m:
                    ok = ok and compare_directions(dirs[j], dirs[j + 1]) == "LT"
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0, elapsed, "2m directions with exact pi/m gaps for m=1..5, c in {1, i, 1+i}")


def test_criterion_2_worked_circle_reproduction():
    t0 = time.time()
    cs = build_circle_space(two_value_exponential())
    reference = two_value_circle().fibration
    ok = validate_fibration(cs.fibration)[0]
    ok = ok and len(cs.points) == 2
    # antichains at both points, the two opposite total orders on the arcs
    for i in (0, 1):
        fiber = cs.fibration.fiber(f"p{i}")
        ok = ok and not fiber.le("a", "b") and not fiber.le("b", "a")
    ok = ok and {cs.fibration.fiber("s0").lt("a", "b"), cs.fibration.fiber("s1").lt("a", "b")} == {True, False}
    ok = ok and fibrations_isomorphic_up_to_rotation(cs.fibration, reference)
    secs = cocartesian_sections(cs.fibration)
    ok = ok and len(secs) == 2
    locus = stokes_locus(cs.fibration, secs[0], secs[1])
    ok = ok and locus == {"p0", "p1"}
    elapsed = time.time() - t0
    report(2, ok and elapsed < 1.0, elapsed, "two-point circle with flipped arc orders; locus = both points")


def test_criterion_3_split_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(2024)
    checked = 0
    agree = True
    posets = []
    for n in range(1, 5):
        posets.extend(canonical_posets(n))
    import itertools

    for p in posets:
        n = len(p.elements)
        for dims_tuple in itertools.product((0, 1, 2), repeat=n):
            dims = dict(zip(p.elements, dims_tuple))
            f = random_functor_with_dims(p, dims, rng, conjugate=True, prefer_split=(checked % 3 == 0))
            verdict = split_fiber(f, "x") is not None
            oracle = oracle_split_verdict(f, "x")
            agree = agree and (verdict == oracle)
            checked += 1
    elapsed = time.time() - t0
    report(
        3,
        agree and elapsed < 60.0,
        elapsed,
        f"split verdict == projective-cover oracle on {checked} instances "
        f"(all posets on <=4 elements up to iso, all dims <= 2)",
    )


@pytest.fixture(scope="module")
def three_value_space():
    e3 = ExponentialData({"u": IV.zero(), "v": IV.of((1, G(1))), "w": IV.of((2, G(1)))})
    cs = build_circle_space(e3)
    levels = pole_level_structure(cs)
    assert levels.validate()[0]
    return cs, levels


def test_criterion_4_stokes_detection(three_value_space):
    t0 = time.time()
    cs, levels = three_value_space
    rng = random.Random(7)
    names = cs.data.names
    arrows = [a.name for a in cs.fibration.base.arrows]
    stokes_count = 0
    non_stokes_count = 0
    ok = True
    for i in range(100):
        singular = rng.choice(arrows) if i % 3 == 0 else None
        dims = {n: rng.choice([1, 1, 2]) for n in names}
        f = random_standard_functor(cs.fibration, dims, rng, singular_at=singular)
        verdict = is_stokes(f)
        if verdict:
            stokes_count += 1
        else:
            non_stokes_count += 1
        for stage in levels.stages[:1]:
            lhs = verdict
            rhs = is_stokes(grade(stage, f)) and is_stokes(induce(stage, f))
            ok = ok and (lhs == rhs)
        # the second stage applies to the induced functor on the quotient
        g1 = induce(levels.stages[0], f)
        rhs2 = is_stokes(grade(levels.stages[1], g1)) and is_stokes(induce(levels.stages[1], g1))
        ok = ok and (is_stokes(g1) == rhs2)
    ok = ok and stokes_count >= 10 and non_stokes_count >= 10
    elapsed = time.time() - t0
    report(
        4,
        ok and elapsed < 60.0,
        elapsed,
        f"detection equivalence at every stage on 100 functors ({stokes_count} Stokes, {non_stokes_count} not)",
    )


def test_criterion_5_level_roundtrip(three_value_space):
    t0 = time.time()
    cs, levels = three_value_space
    rng = random.Random(11)
    names = cs.data.names
    ok = True
    count = 0
    for i in range(100):
        dims = {n: rng.choice([1, 1, 2]) for n in names}
        f = random_standard_functor(cs.fibration, dims, rng)
        stage = levels.stages[0]
        g, h, alpha = level_disassemble(stage, f)
        f2 = level_assemble(stage, g, h, alpha)
        same_dims = dict(f2.spaces) == dict(f.spaces)
        iso = natural_isomorphism(f, f2)
        ok = ok and same_dims and iso is not None
        count += 1
    elapsed = time.time() - t0
    report(5, ok and elapsed < 60.0, elapsed, f"assemble . disassemble isomorphic to the input on {count} Stokes functors")


def test_criterion_6_graduation_formula():
    t0 = time.time()
    rng = random.Random(13)
    from stokeslib import make_poset_base
    from stokeslib.fibrations import FibrationMorphism

    ok = True
    for _ in range(200):
        I, J, assign = random_level_setup(rng, max_classes=3, max_class_size=2)
        tops = {a: rng.randint(0, 2) for a in I.elements}
        base = make_poset_base(FinPoset.antichain(["x"]))
        fib_i = StokesFibration(base, {"x": I}, {})
        fib_j = StokesFibration(base, {"x": J}, {})
        # build i_!(V) explicitly
        order = I.linear_extension()
        spaces = {}
        arrows = {}
        from stokeslib import cover_arrow_id

        for a in I.elements:
            spaces[("x", a)] = sum(tops[b] for b in I.elements if I.le(b, a))
        for a, b in I.covers():
            small = [c for c in order if I.le(c, a)]
            big = [c for c in order if I.le(c, b)]
            ent = [[Fraction(0)] * spaces[("x", a)] for _ in range(spaces[("x", b)])]
            ro = {c: sum(tops[d] for d in big[:k]) for k, c in enumerate(big)}
            co = {c: sum(tops[d] for d in small[:k]) for k, c in enumerate(small)}
            for c in small:
                for i in range(tops[c]):
                    ent[ro[c] + i][co[c] + i] = Fraction(1)
            arrows[cover_arrow_id("x", a, b)] = (
                Matrix.from_rows(ent) if spaces[("x", b)] else Matrix(0, spaces[("x", a)], ())
            )
        f = StokesFunctor(fib_i, spaces, arrows)
        p = FibrationMorphism(fib_i, fib_j, {"x": MonotoneMap(I, J, assign)})
        graded = grade(p, f)
        for a in I.elements:
            expected = sum(tops[b] for b in I.elements if I.le(b, a) and assign[b] == assign[a])
            ok = ok and graded.dim("x", a) == expected
    elapsed = time.time() - t0
    report(6, ok and elapsed < 30.0, elapsed, "graded dims match the same-level direct-sum formula on 200 triples")


def _independent_witness_infeasible(space, w) -> bool:
    """The two-unknown system for a rank-(1,1) global section, by hand.

    Each arc contributes one unknown (the lower component of the section at
    its maximal value); each adjacent point pins it to the ratio of the two
    entries of the corresponding lift column.  Infeasible iff some arc gets
    two different pins.
    """
    fib = space.fibration
    pins = {}
    for arr in fib.base.arrows:
        arc = arr.target
        top = fib.fiber(arc).linear_extension()[-1]
        col = w.lift_matrix(arr.name, top)
        if col.at(1, 0) == 0:
            return True
        pins.setdefault(arc, []).append(col.at(0, 0) / col.at(1, 0))
    return any(len(set(vals)) > 1 for vals in pins.values())


def test_criterion_7_elementarity_implies_splitting():
    t0 = time.time()
    rng = random.Random(17)
    samples = [
        ExponentialData({"a": IV.zero(), "b": IV.of((1, G(1)))}),
        ExponentialData({"a": IV.zero(), "b": IV.of((1, G(0, 1)))}),
        ExponentialData({"a": IV.zero(), "b": IV.of((1, G(1))), "c": IV.of((1, G(2)))}),
        ExponentialData({"a": IV.zero(), "b": IV.of((2, G(1)))}),
        ExponentialData({"a": IV.zero(), "b": IV.of((1, G(1, 1)))}),
        # mixed pole orders: the windows of the sorted points cover this circle too
        ExponentialData({"a": IV.zero(), "b": IV.of((1, G(1))), "c": IV.of((2, G(1)))}),
    ]
    ok = True
    arcs_total = 0
    for e in samples:
        space = build_circle_space(e)
        cover = elementary_cover(space)
        ok = ok and cover is not None
        if cover is None:
            continue
        names = e.names
        for arc in cover:
            arcs_total += 1
            for _ in range(50):
                dims = {n: rng.choice([1, 1, 2]) for n in names}
                f = random_standard_functor(space.fibration, dims, rng)
                rf = restrict_functor_to_arc(space, arc, f)
                ok = ok and is_stokes(rf) and split_global(rf) is not None
    # necessity: the twisted rank-(1,1) functor on the full two-value circle
    space = two_value_circle()
    w = nonsplit_witness(space)
    ok = ok and is_stokes(w) and split_global(w) is None
    ok = ok and _independent_witness_infeasible(space, w)
    elapsed = time.time() - t0
    report(
        7,
        ok and elapsed < 120.0,
        elapsed,
        f"split_global succeeds on 50 functors per elementary arc ({arcs_total} arcs, {len(samples)} data sets);"
        " witness NotSplit",
    )


def test_criterion_8_tangent_formula_sanity():
    t0 = time.time()
    rng = random.Random(19)
    from helpers import random_invertible

    ok = True
    for n in (1, 2, 3):
        base = make_circle_base(n)
        one = FinPoset.antichain(["v"])
        ident = MonotoneMap(one, one, {"v": "v"})
        fib = StokesFibration(base, {x: one for x in base.objects}, {a.name: ident for a in base.arrows})
        for rank in (1, 2, 3):
            mats = [random_invertible(rank, rng) for _ in range(n)]
            spaces = {(x, "v"): rank for x in base.objects}
            arrows = {}
            for i in range(n):
                arrows[lift_arrow_id(f"p{i}+", "v")] = Matrix.identity(rank)
                arrows[lift_arrow_id(f"p{i}-", "v")] = mats[i]
            f = StokesFunctor(fib, spaces, arrows)
            dims = ext_dims(f, f)
            chi = sum((-1) ** k * d for k, d in enumerate(dims))
            ok = ok and chi == 0
            # independent natural-endomorphism dimension: centralizer of the
            # total holonomy obtained by propagating around the circle
            hol = Matrix.identity(rank)
            for i in range(n):
                hol = mats[i] @ hol
            ok = ok and dims[0] == oracle_centralizer_dim([list(hol.row(i)) for i in range(rank)])
            ok = ok and tangent_dims(f) == dims
    elapsed = time.time() - t0
    report(8, ok and elapsed < 30.0, elapsed, "chi = 0 and Ext^0 = centralizer dimension on trivial circle fibrations")


def test_criterion_9_refinement_invariance():
    t0 = time.time()
    rng = random.Random(23)
    spaces = [
        build_circle_space(two_value_exponential()),
        build_circle_space(ExponentialData({"a": IV.zero(), "b": IV.of((1, G(0, 1)))})),
    ]
    ok = True
    for i in range(50):
        space = spaces[i % 2]
        names = space.data.names
        dims = {n: rng.choice([1, 1, 2]) for n in names}
        singular = "p0+" if i % 5 == 0 else None
        f = random_standard_functor(space.fibration, dims, rng, singular_at=singular)
        arc_idx = rng.randrange(space.fibration.base.n)
        fib2, corr = subdivide_arc(space.fibration, arc_idx)
        f2 = subdivide_functor(f, fib2, arc_idx)
        ok = ok and validate_functor(f2)[0]
        collapsed, corr2, flat = collapse_refinement(fib2)
        ok = ok and not flat
        ok = ok and fibrations_isomorphic_up_to_rotation(collapsed, space.fibration)
        ok = ok and (is_stokes(f) == is_stokes(f2))
        secs_old = cocartesian_sections(space.fibration)
        secs_new = cocartesian_sections(fib2)
        ok = ok and len(secs_old) == len(secs_new)
        # loci correspond: sections are constant in the value names, so pair
        # them by value; the inserted point carries its arc's comparability
        by_name_old = {s("p0"): s for s in secs_old}
        by_name_new = {s("p0"): s for s in secs_new}
        for na in names:
            for nb in names:
                if na >= nb:
                    continue
                locus_old = stokes_locus(space.fibration, by_name_old[na], by_name_old[nb])
                locus_new = stokes_locus(fib2, by_name_new[na], by_name_new[nb])
                expected = {corr[obj] for obj in locus_old}
                if f"s{arc_idx}" in locus_old:
                    expected.add(f"p{arc_idx + 1}")
                    expected.add(f"s{arc_idx}")
                    expected.add(f"s{arc_idx + 1}")
                ok = ok and locus_new == expected
        ok = ok and ext_dims(f, f) == ext_dims(f2, f2)
    elapsed = time.time() - t0
    report(9, ok and elapsed < 60.0, elapsed, "collapse preserves verdicts, sections, loci and ext dims on 50 instances")
