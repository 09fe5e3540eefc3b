import random

import pytest

from stokeslib import (
    FinPoset,
    MonotoneMap,
    StokesFibration,
    TotalCategory,
    circle_cover_functor,
    cocartesian_sections,
    collapse_refinement,
    fiberwise_set,
    graded_fibration,
    is_level_fibration_morphism,
    make_circle_base,
    make_poset_base,
    nondegenerate_chains,
    pullback_fibration,
    stokes_locus,
    terminal_morphism,
    validate_fibration,
)
from stokeslib.fibrations import FibrationMorphism

from helpers import all_labeled_posets, oracle_total_morphisms, random_set_fibration, subdivide_arc, three_value_circle


def trivial_circle_fibration(n: int, fiber: FinPoset) -> StokesFibration:
    base = make_circle_base(n)
    ident = MonotoneMap(fiber, fiber, {a: a for a in fiber.elements})
    return StokesFibration(
        base,
        {x: fiber for x in base.objects},
        {a.name: ident for a in base.arrows},
    )


def two_value_circle_fibration() -> StokesFibration:
    base = make_circle_base(2)
    anti = FinPoset.antichain(["a", "b"])
    ab = FinPoset.chain(["a", "b"])
    ba = FinPoset.from_relation(["a", "b"], [("b", "a")])
    ident = lambda s, t: MonotoneMap(s, t, {"a": "a", "b": "b"})
    return StokesFibration(
        base,
        {"p0": anti, "p1": anti, "s0": ba, "s1": ab},
        {
            "p0+": ident(anti, ba),
            "p0-": ident(anti, ab),
            "p1+": ident(anti, ab),
            "p1-": ident(anti, ba),
        },
    )


def test_circle_base_counts():
    for n in (1, 2, 3):
        b = make_circle_base(n)
        assert len(b.objects) == 2 * n
        assert len(b.arrows) == 2 * n
    b1 = make_circle_base(1)
    arrows = [(a.source, a.target) for a in b1.arrows]
    assert arrows == [("p0", "s0"), ("p0", "s0")]  # two distinct parallel arrows
    with pytest.raises(ValueError):
        make_circle_base(0)


def test_poset_base_one_point_and_invalid():
    b = make_poset_base(FinPoset.antichain(["x"]))
    assert b.objects == ("x",) and b.arrows == ()
    bad = FinPoset(("a", "b"), frozenset({("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}))
    with pytest.raises(ValueError):
        make_poset_base(bad)


def test_poset_base_rejects_colliding_arrow_names():
    """Covers a < "b<c" and "a<b" < c would both be named "a<b<c", and one
    transition would then serve for both arrows."""
    p = FinPoset.from_relation(["a", "b<c", "a<b", "c"], [("a", "b<c"), ("a<b", "c")])
    with pytest.raises(ValueError):
        make_poset_base(p)


def test_validate_fibration_and_path_independence():
    assert validate_fibration(two_value_circle_fibration())[0]
    # square base with non-commuting transitions
    sq = FinPoset.from_relation(["o", "l", "r", "t"], [("o", "l"), ("o", "r"), ("l", "t"), ("r", "t")])
    base = make_poset_base(sq)
    f2 = FinPoset.antichain(["u", "v"])
    ident = MonotoneMap(f2, f2, {"u": "u", "v": "v"})
    swap = MonotoneMap(f2, f2, {"u": "v", "v": "u"})
    fib = StokesFibration(
        base,
        {x: f2 for x in base.objects},
        {"o<l": ident, "o<r": ident, "l<t": ident, "r<t": swap},
    )
    ok, why = validate_fibration(fib)
    assert (ok, why) == (False, "path independence fails between o and t")
    # the total category has no transition over o < t to read
    with pytest.raises(ValueError, match=f"^{why}$"):
        TotalCategory.of(fib)


def test_chain_counts_trivial_fibration():
    one = FinPoset.antichain(["v"])
    for n in (1, 2, 3):
        fib = trivial_circle_fibration(n, one)
        chains = nondegenerate_chains(TotalCategory.of(fib))
        assert len(chains[0]) == 2 * n
        assert len(chains[1]) == 2 * n
        assert len(chains.get(2, [])) == 0
        euler = sum((-1) ** k * len(v) for k, v in chains.items())
        assert euler == 0  # matches the circle


def test_chain_counts_chain_fiber_over_point():
    base = make_poset_base(FinPoset.antichain(["x"]))
    c3 = FinPoset.chain(["a", "b", "c"])
    fib = StokesFibration(base, {"x": c3}, {})
    chains = nondegenerate_chains(TotalCategory.of(fib))
    assert len(chains[0]) == 3
    assert len(chains[1]) == 3  # a<b, b<c, a<c
    assert len(chains[2]) == 1  # (a<b, b<c)


def test_poset_base_total_category_is_poset():
    sq = FinPoset.from_relation(["o", "l", "r", "t"], [("o", "l"), ("o", "r"), ("l", "t"), ("r", "t")])
    base = make_poset_base(sq)
    fiber = FinPoset.chain(["u", "v"])
    ident = MonotoneMap(fiber, fiber, {"u": "u", "v": "v"})
    fib = StokesFibration(
        base, {x: fiber for x in base.objects}, {a.name: ident for a in base.arrows}
    )
    total = TotalCategory.of(fib)
    # no two morphisms share both ends
    assert len({(mor.source, mor.target) for mor in total.morphisms}) == len(total.morphisms)
    for mor in total.morphisms:
        # antisymmetry: no morphism back unless identity
        if mor.source != mor.target:
            assert not any(
                m2.source == mor.target and m2.target == mor.source for m2 in total.morphisms
            )


def _check_total_category_against_oracle(fib):
    total = TotalCategory.of(fib)
    listed = [(m.source, m.target, m.arrow) for m in total.morphisms]
    assert len(listed) == len(set(listed))
    want = oracle_total_morphisms(fib)
    assert set(listed) == want
    nonidentity = [m for m in total.morphisms if m.source != m.target]
    for m1 in nonidentity:
        for m2 in nonidentity:
            if m1.target != m2.source:
                continue
            # the base composite: no two circle arrows compose, a poset pair has no name
            assert m1.arrow is None or m2.arrow is None
            m = total.compose(m1, m2)
            assert (m.source, m.target, m.arrow) == (m1.source, m2.target, m1.arrow or m2.arrow)
            assert (m.source, m.target, m.arrow) in want


def test_total_category_matches_the_oracle_on_circles():
    """Antichain fibers with random transitions, and chain fibers, whose
    fiber morphisms compose with the lifts on either side."""
    rng = random.Random(13)
    for n in (1, 2, 3):
        for _ in range(4):
            _check_total_category_against_oracle(random_set_fibration(make_circle_base(n), rng))
        _check_total_category_against_oracle(trivial_circle_fibration(n, FinPoset.chain(["a", "b", "c"])))
    _check_total_category_against_oracle(three_value_circle().fibration)


def test_total_category_matches_the_oracle_on_small_poset_bases():
    """Every labeled poset on at most three elements, each fiber the chain
    c0 < c1 < c2 shifted up by the growth of the down-set along x < y."""
    chain = FinPoset.chain(["c0", "c1", "c2"])
    for n in range(4):
        for p in all_labeled_posets(n):
            base = make_poset_base(p)
            depth = {x: sum(p.le(z, x) for z in p.elements) for x in p.elements}
            transitions = {}
            for arr in base.arrows:
                d = depth[arr.target] - depth[arr.source]
                transitions[arr.name] = MonotoneMap(chain, chain, {f"c{i}": f"c{min(i + d, 2)}" for i in range(3)})
            fib = StokesFibration(base, {x: chain for x in p.elements}, transitions)
            assert validate_fibration(fib) == (True, "ok")
            _check_total_category_against_oracle(fib)


def test_sections_and_locus():
    fib = two_value_circle_fibration()
    secs = cocartesian_sections(fib)
    assert len(secs) == 2
    sa = next(s for s in secs if s("p0") == "a")
    sb = next(s for s in secs if s("p0") == "b")
    locus = stokes_locus(fib, sa, sb)
    assert locus == {"p0", "p1"}
    assert stokes_locus(fib, sa, sa) == set()
    # closedness on the circle: an arc in the locus forces both adjacent points
    for i in range(fib.base.n):
        if f"s{i}" in locus:
            assert f"p{i}" in locus and f"p{(i + 1) % fib.base.n}" in locus


def test_sections_brute_force_count():
    fib = two_value_circle_fibration()
    names = fib.fiber("p0").elements
    import itertools

    count = 0
    objs = list(fib.base.objects)
    for combo in itertools.product(*[fib.fiber(x).elements for x in objs]):
        choice = dict(zip(objs, combo))
        if all(
            fib.transition(a.name)(choice[a.source]) == choice[a.target]
            for a in fib.base.arrows
        ):
            count += 1
    assert count == len(cocartesian_sections(fib))


def test_trivial_fibration_section_count_matches_fiber():
    fiber = FinPoset.chain(["a", "b", "c"])
    fib = trivial_circle_fibration(2, fiber)
    assert len(cocartesian_sections(fib)) == 3


def test_sections_fewer_when_loop_transitions_collapse():
    # one transition folds b onto a: only the constant-a section survives
    base = make_circle_base(1)
    anti = FinPoset.antichain(["a", "b"])
    ident = MonotoneMap(anti, anti, {"a": "a", "b": "b"})
    fold = MonotoneMap(anti, anti, {"a": "a", "b": "a"})
    fib = StokesFibration(base, {"p0": anti, "s0": anti}, {"p0+": ident, "p0-": fold})
    assert validate_fibration(fib)[0]
    secs = cocartesian_sections(fib)
    assert len(secs) == 1 and secs[0]("p0") == "a"
    import itertools

    objs = list(fib.base.objects)
    brute = sum(
        all(
            fib.transition(a.name)(dict(zip(objs, combo))[a.source]) == dict(zip(objs, combo))[a.target]
            for a in fib.base.arrows
        )
        for combo in itertools.product(*[fib.fiber(x).elements for x in objs])
    )
    assert brute == 1


def test_fiberwise_set_empty_fiber():
    base = make_poset_base(FinPoset.antichain(["x"]))
    empty = FinPoset.antichain([])
    fib = StokesFibration(base, {"x": empty}, {})
    assert fiberwise_set(fib).fiber("x").elements == ()


def test_fiberwise_set():
    fib = two_value_circle_fibration()
    s = fiberwise_set(fib)
    assert all(not s.fiber(x).lt("a", "b") and not s.fiber(x).lt("b", "a") for x in s.base.objects)
    assert validate_fibration(s)[0]
    again = fiberwise_set(s)
    assert all(again.fiber(x).leq == s.fiber(x).leq for x in s.base.objects)


def test_level_fibration_morphism_and_graded():
    fib = two_value_circle_fibration()
    tm = terminal_morphism(fib)
    assert is_level_fibration_morphism(tm)
    g = graded_fibration(tm)
    assert validate_fibration(g)[0]
    # grading along the terminal morphism keeps every fiber order
    for x in fib.base.objects:
        assert g.fiber(x).leq == fib.fiber(x).leq
    ident = FibrationMorphism.identity(fib)
    assert is_level_fibration_morphism(ident)
    gid = graded_fibration(ident)
    for x in fib.base.objects:
        assert gid.fiber(x).leq == fiberwise_set(fib).fiber(x).leq


def test_pullback_identity_and_cover():
    fib = two_value_circle_fibration()
    cover = circle_cover_functor(3, 2)
    pulled = pullback_fibration(cover, fib)
    assert validate_fibration(pulled)[0]
    assert pulled.base.n == 6
    for j in range(6):
        assert pulled.fiber(f"p{j}").leq == fib.fiber(f"p{j % 2}").leq
        assert pulled.fiber(f"s{j}").leq == fib.fiber(f"s{j % 2}").leq
    # three times as many sections cannot appear: the cover identifies them
    assert len(cocartesian_sections(pulled)) == 2


def test_pullback_locus_is_preimage_of_locus():
    fib = two_value_circle_fibration()
    cover = circle_cover_functor(2, 2)
    pulled = pullback_fibration(cover, fib)
    secs = cocartesian_sections(fib)
    secs_p = cocartesian_sections(pulled)
    by_name = {s("p0"): s for s in secs}
    by_name_p = {s("p0"): s for s in secs_p}
    locus = stokes_locus(fib, by_name["a"], by_name["b"])
    locus_p = stokes_locus(pulled, by_name_p["a"], by_name_p["b"])
    preimage = {x for x in pulled.base.objects if cover.object_map[x] in locus}
    assert locus_p == preimage


def test_collapse_refinement_roundtrip():
    fib = two_value_circle_fibration()
    bigger, corr = subdivide_arc(fib, 0)
    assert validate_fibration(bigger)[0]
    assert bigger.base.n == 3
    collapsed, corr2, flat = collapse_refinement(bigger)
    assert not flat
    assert collapsed.base.n == 2
    from helpers import fibrations_isomorphic_up_to_rotation

    assert fibrations_isomorphic_up_to_rotation(collapsed, fib)
    assert len(cocartesian_sections(collapsed)) == len(cocartesian_sections(bigger))


def test_collapse_fully_constant():
    one = FinPoset.chain(["a", "b"])
    fib = trivial_circle_fibration(2, one)
    out, corr, flat = collapse_refinement(fib)
    assert flat
    assert out is fib


def test_collapse_no_redundant_strata_is_identity():
    fib = two_value_circle_fibration()
    out, corr, flat = collapse_refinement(fib)
    assert not flat
    assert out.base.n == 2


def test_sections_match_plain_backtracking():
    """The breadth-first search lists the same sections, in the same order,
    as recursive backtracking over the objects in order."""
    import random
    from helpers import all_labeled_posets, oracle_cocartesian_sections, random_set_fibration

    rng = random.Random(11)
    bases = [make_circle_base(n) for n in (1, 2, 3, 4)]
    bases += [make_poset_base(p) for n in (1, 2, 3) for p in all_labeled_posets(n)]
    checked = 0
    for trial in range(300):
        fib = random_set_fibration(bases[trial % len(bases)], rng)
        got = cocartesian_sections(fib)
        assert got == oracle_cocartesian_sections(fib)
        assert [list(s.choice) for s in got] == [list(fib.base.objects)] * len(got)
        checked += len(got) > 1
    assert checked > 20


def test_sections_of_a_five_value_circle_are_fast():
    """Choosing every point before any arc took over 30 s on this circle."""
    import time
    from stokeslib import ExponentialData, GaussianRational, IrregularValue, build_circle_space

    G = GaussianRational.of
    values = {
        "v0": IrregularValue.zero(),
        "v1": IrregularValue.of((2, G(-3, -2))),
        "v2": IrregularValue.of((1, G(3, 1))),
        "v3": IrregularValue.of((2, G(-1, -3))),
        "v4": IrregularValue.of((1, G(1, 3))),
    }
    fib = build_circle_space(ExponentialData(values)).fibration
    assert fib.base.n == 18
    start = time.perf_counter()
    secs = cocartesian_sections(fib)
    assert time.perf_counter() - start < 2.0
    assert [set(s.choice.values()) for s in secs] == [{v} for v in values]


def test_sections_of_a_long_circle_do_not_recurse():
    fib = trivial_circle_fibration(600, FinPoset.antichain(["a"]))
    assert [s.choice for s in cocartesian_sections(fib)] == [{x: "a" for x in fib.base.objects}]


def test_collapse_refinement_bytes_are_pinned():
    """The collapse of seeded refinements of the three- and four-value circles,
    each subdivided 1-4 times, every other one with 1-5 strata relabelled by
    random bijections (so the walks across removed points compose isomorphisms
    that are not identities), as one SHA-256 digest per circle of the JSON of
    every (fibration, correspondence, flag).  Recorded before collapse read
    the runs of kept points."""
    import hashlib

    from stokeslib import serial
    from helpers import four_value_circle, relabel_fiber

    rng = random.Random(15)
    got = []
    for cs in (three_value_circle(), four_value_circle()):
        outputs = []
        for case in range(12):
            fib = cs.fibration
            for _ in range(rng.randint(1, 4)):
                fib, _ = subdivide_arc(fib, rng.randrange(fib.base.n))
            for _ in range(rng.randint(1, 5) if case % 2 else 0):
                x = rng.choice(fib.base.objects)
                elements = list(fib.fiber(x).elements)
                fib = relabel_fiber(fib, x, dict(zip(elements, rng.sample(elements, len(elements)))))
            assert validate_fibration(fib)[0]
            out, corr, flat = collapse_refinement(fib)
            assert out.base.n == cs.fibration.base.n and not flat
            outputs.append({"fibration": serial.fibration_to_json(out), "correspondence": corr, "fully_constant": flat})
        got.append(hashlib.sha256(serial.dumps(outputs).encode()).hexdigest())
    assert got == [
        "5a0b8ebef4642d923bcd3d0c7b08e3cbaa860e012cb26f560556ef2c789a2c9b",
        "07bf37d8e73834329dbb664d62e4c8dcbdf9ab2f3bf601a0dcebfd2a500cad97",
    ]
