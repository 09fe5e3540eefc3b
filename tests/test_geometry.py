import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stokeslib import (
    AffineForm,
    Arc,
    ExactAngle,
    ExponentialData,
    GaussianRational,
    IrregularValue,
    build_circle_space,
    build_polyhedral_space,
    check_polyhedral_elementarity,
    circle_cover_functor,
    cocartesian_sections,
    compare_angles,
    cyclically_between,
    elementary_cover,
    is_elementary_arc,
    is_level_fibration_morphism,
    is_stokes,
    kummer_pullback,
    leading_data,
    order_at,
    pole_level_structure,
    pullback_fibration,
    rational_angle_between,
    restrict_functor_to_arc,
    restrict_to_arc,
    split_global,
    stokes_directions,
    stokes_locus,
    validate_fibration,
    validate_functor,
)
from stokeslib.directions import as_exact
from stokeslib.fixtures import rank_one_one_functor, two_value_exponential

from helpers import (
    fibrations_isomorphic_up_to_rotation,
    oracle_elementary_cover,
    oracle_interiors_cover,
    oracle_is_elementary_arc,
    oracle_window_cover_exists,
    random_standard_functor,
)

G = GaussianRational.of
IV = IrregularValue
ZERO = IV.zero()
ZM1 = IV.of((1, G(1)))
ZM2 = IV.of((2, G(1)))
# {0, (2-i) z^-3, 3 z^-3}: 18 points, some closer than 2^-53 to their neighbours' samples
N3_PLAIN = {"v0": ZERO, "v1": IV.of((3, G(2, -1))), "v2": IV.of((3, G(3)))}
# small value sets on which the interval oracles finish in well under a second each
ORACLE_SETS = [
    {"a": ZERO, "b": ZM1},
    {"u": ZERO, "v": ZM1, "w": ZM2},
    {"a": ZERO, "b": ZM1, "c": IV.of((1, G(0, 1))), "d": ZM2},
    {"v0": ZERO, "v1": IV.of((1, G(3, 2)))},
    {"v0": ZERO, "v1": IV.of((3, G(2, -3)), (2, G(1, 2)))},
    {"v0": ZERO, "v1": IV.of((1, G(2, 2))), "v2": IV.of((2, G(-1, 3)))},
    {"v0": ZERO, "v1": IV.of((1, G(-2, 2))), "v2": IV.of((1, G(-2, 1)))},
    {"v0": ZERO, "v1": IV.of((2, G(1, 1))), "v2": IV.of((3, G(-1, 1)))},
]


def test_leading_data_examples():
    a = IV.of((2, G(1)), (1, G(1)))
    b = IV.of((2, G(1)))
    assert leading_data(a, b) == (Fraction(1), G(1))
    assert leading_data(a, a) is None
    assert leading_data(ZERO, ZM1) == (Fraction(1), G(-1))


def test_order_at_examples():
    assert order_at(ZERO, ZM1, ExactAngle(Fraction(0))) == "LT"
    assert order_at(ZERO, ZM1, ExactAngle(Fraction(1))) == "GT"
    assert order_at(ZERO, ZM1, ExactAngle(Fraction(1, 2))) == "INCOMPARABLE"
    assert order_at(ZERO, ZERO, ExactAngle(Fraction(0))) == "EQ"


def test_stokes_directions_examples():
    d1 = stokes_directions(ZERO, ZM1)
    assert [as_exact(d).t for d in d1] == [Fraction(1, 2), Fraction(3, 2)]
    d2 = stokes_directions(ZERO, ZM2)
    assert [as_exact(d).t for d in d2] == [Fraction(1, 4), Fraction(3, 4), Fraction(5, 4), Fraction(7, 4)]
    d3 = stokes_directions(ZERO, IV.of((1, G(0, 1))))
    assert [as_exact(d).t for d in d3] == [Fraction(0), Fraction(1)]
    with pytest.raises(ValueError):
        stokes_directions(ZERO, ZERO)


def test_direction_count_and_spacing():
    for m in (1, 2, 3):
        for c in (G(1), G(0, 1), G(1, 1), G(2, -3)):
            dirs = stokes_directions(ZERO, IV.of((m, c)))
            assert len(dirs) == 2 * m
            for j in range(2 * m):
                nxt = dirs[(j + 1) % (2 * m)]
                assert compare_angles(nxt, dirs[j].shifted(1)) == 0


def test_build_circle_space_two_values():
    cs = build_circle_space(two_value_exponential())
    assert len(cs.points) == 2
    assert not cs.degenerate
    assert validate_fibration(cs.fibration)[0]
    # antichains at points, opposite total orders on the arcs
    for i in (0, 1):
        fiber = cs.fibration.fiber(f"p{i}")
        assert not fiber.le("a", "b") and not fiber.le("b", "a")
    orders = {cs.fibration.fiber(f"s{i}").lt("a", "b") for i in (0, 1)}
    assert orders == {True, False}
    for i in (0, 1):
        assert cs.fibration.fiber(f"s{i}").is_total()
    assert cs.provenance == {0: [("a", "b")], 1: [("a", "b")]}


def test_build_circle_space_degenerate_single_value():
    cs = build_circle_space(ExponentialData({"a": ZERO}))
    assert cs.degenerate
    assert validate_fibration(cs.fibration)[0]
    assert len(cocartesian_sections(cs.fibration)) == 1


def test_build_circle_space_three_values_sampled():
    e = ExponentialData({"a": ZERO, "b": ZM1, "c": IV.of((1, G(2)))})
    cs = build_circle_space(e)
    assert validate_fibration(cs.fibration)[0]
    # brute-force check of arc orders against order_at at 720 rational angles
    n = len(cs.points)
    for j in range(720):
        t = Fraction(j, 360)
        sample = ExactAngle(t)
        if any(compare_angles(sample, p) == 0 for p in cs.points):
            continue
        stratum = None
        for i in range(n):
            if cyclically_between(cs.points[i], sample, cs.points[(i + 1) % n]):
                stratum = f"s{i}"
                break
        fiber = cs.fibration.fiber(stratum)
        for x, y in e.pairs():
            verdict = order_at(e.values[x], e.values[y], sample)
            if verdict == "LT":
                assert fiber.lt(x, y)
            elif verdict == "GT":
                assert fiber.lt(y, x)
    # exact endpoints carry the point orders
    for i, theta in enumerate(cs.points):
        fiber = cs.fibration.fiber(f"p{i}")
        for x, y in e.pairs():
            verdict = order_at(e.values[x], e.values[y], theta)
            if verdict == "INCOMPARABLE":
                assert not fiber.le(x, y) and not fiber.le(y, x)


def test_kummer_pullback_examples():
    half = ExponentialData({"a": IV.of((Fraction(1, 2), G(1)))})
    assert half.ramification == 2
    pulled = kummer_pullback(half, 2)
    assert pulled.values["a"].terms[0][0] == 1
    e = two_value_exponential()
    assert kummer_pullback(e, 1).values["b"].terms == e.values["b"].terms
    mixed = ExponentialData({"a": IV.of((Fraction(1, 3), G(1))), "b": IV.of((1, G(1)))})
    tripled = kummer_pullback(mixed, 3)
    assert tripled.values["a"].terms[0][0] == 1
    assert tripled.values["b"].terms[0][0] == 3
    with pytest.raises(ValueError):
        kummer_pullback(half, 3)


def test_kummer_circle_matches_base_cover():
    e = two_value_exponential()
    cs = build_circle_space(e)
    for d in (2, 3):
        covered = build_circle_space(kummer_pullback(e, d))
        pulled = pullback_fibration(circle_cover_functor(d, len(cs.points)), cs.fibration)
        assert covered.fibration.base.n == d * len(cs.points)
        assert fibrations_isomorphic_up_to_rotation(covered.fibration, pulled)


def test_pole_level_structure_examples():
    # single level: one stage to the terminal quotient
    cs = build_circle_space(two_value_exponential())
    ls = pole_level_structure(cs)
    assert len(ls.stages) == 1
    assert ls.validate()[0]
    assert all(len(ls.bottom.fiber(x).elements) == 1 for x in ls.bottom.base.objects)
    # two levels: classes {0, z^-1} and {z^-2} at the middle stage
    e3 = ExponentialData({"u": ZERO, "v": ZM1, "w": ZM2})
    cs3 = build_circle_space(e3)
    ls3 = pole_level_structure(cs3)
    assert len(ls3.stages) == 2
    assert ls3.validate()[0]
    mid = ls3.stages[0].target
    assert set(mid.fiber("p0").elements) == {"u+v", "w"}
    for stage in ls3.stages:
        assert is_level_fibration_morphism(stage)


def _seeded_values(rng, n: int) -> dict:
    """v0 = 0 and n - 1 values c z^-q, q in {1, 2, 3}, each with a lower-order
    Laurent term when q > 1; drawn again until the values are distinct."""
    def coefficient():
        return G(rng.randint(-3, 3) or 1, rng.randint(-3, 3))

    while True:
        values = {"v0": ZERO}
        for i in range(1, n):
            q = rng.choice([1, 2, 3])
            terms = [(q, coefficient())] + ([(rng.randint(1, q - 1), coefficient())] if q > 1 else [])
            values[f"v{i}"] = IV.of(*terms)
        if len({v.terms for v in values.values()}) == n:
            return values


def test_pole_level_structure_reads_the_fine_fibers(monkeypatch):
    """build_circle_space evaluates no sign, and every fine fiber it reads off
    the sorted directions holds order_at at its stratum, so the quotient
    stages read their orders off the fibers with no angle evaluation, and
    equal the stages built by evaluating order_at again."""
    from stokeslib import directions, geometry
    from helpers import oracle_quotient_fibration, stratum_angle

    value_sets = [
        two_value_exponential().values,
        {"u": ZERO, "v": ZM1, "w": ZM2},
        {"a": ZERO, "b": ZM1, "c": IrregularValue.of((1, G(0, 1))), "d": ZM2},
        {"a": ZERO, "b": IrregularValue.of((2, G(1, 1)), (1, G(1))), "c": IrregularValue.of((1, G(-1))),
         "d": IrregularValue.of((2, G(0, 2)))},
    ] + ORACLE_SETS + [N3_PLAIN] + [
        # differences of pole order 1, 2 and 3 each: three stages, and classes merge at each
        _seeded_values(random.Random(seed), n) for seed, n in ((0, 5), (13, 5), (9, 6), (2, 6))
    ]
    calls = []

    def counting(name):
        return lambda *args, **kw: calls.append(name)

    signs = ((geometry, "order_at"), (geometry, "pair_sign_at"), (directions, "pair_sign_at"))
    for module, name in signs:
        monkeypatch.setattr(module, name, counting(name))
    circles = [build_circle_space(ExponentialData(values)) for values in value_sets]
    monkeypatch.undo()
    assert calls == []
    for cs in circles:
        e = cs.data
        for x in cs.fibration.base.objects:
            fine = cs.fibration.fiber(x)
            for a in e.names:
                for b in e.names:
                    if a != b:
                        want = order_at(e.values[a], e.values[b], stratum_angle(cs, x)) == "LT"
                        assert fine.lt(a, b) == want, (x, a, b)
    for module, name in signs + ((geometry, "compare_angles"), (directions, "compare_angles")):
        monkeypatch.setattr(module, name, counting(name))
    levels = [pole_level_structure(cs) for cs in circles]
    monkeypatch.undo()
    assert calls == []
    for cs, ls in zip(circles, levels):
        for i, stage in enumerate(ls.stages):
            assert stage.target == oracle_quotient_fibration(cs, i + 1)


_coefficients = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda c: c != (0, 0))
_values = st.dictionaries(st.sampled_from([Fraction(1, 2), 1, 2, 3]), _coefficients, max_size=3).map(
    lambda terms: IV.of(*((q, G(*c)) for q, c in sorted(terms.items(), reverse=True)))
)


@given(a=_values, b=_values, c=_values)
def test_pole_order_of_a_difference_is_an_ultrametric(a, b, c):
    """ord(a - c) <= max(ord(a - b), ord(b - c)), with ord 0 for equal values:
    the balls of pole_level_structure are then its classes."""
    def order(x, y):
        lead = leading_data(x, y)
        return 0 if lead is None else lead[0]

    assert order(a, c) <= max(order(a, b), order(b, c))


def test_graded_fibration_of_pole_stage_keeps_classes_apart():
    # hand-check on 3 values with pole orders {1, 2}: after grading the first
    # stage, comparabilities survive only inside the leading-level classes
    from stokeslib import graded_fibration

    e3 = ExponentialData({"u": ZERO, "v": ZM1, "w": ZM2})
    cs3 = build_circle_space(e3)
    ls3 = pole_level_structure(cs3)
    graded = graded_fibration(ls3.stages[0])
    assert validate_fibration(graded)[0]
    for x in graded.base.objects:
        fiber = graded.fiber(x)
        assert not fiber.le("u", "w") and not fiber.le("w", "u")
        assert not fiber.le("v", "w") and not fiber.le("w", "v")
    # u, v stay comparable away from their own Stokes points
    comparable_somewhere = any(
        graded.fiber(x).lt("u", "v") or graded.fiber(x).lt("v", "u")
        for x in graded.base.objects
    )
    assert comparable_somewhere


def test_elementary_arc_cases():
    cs = build_circle_space(two_value_exponential())
    # arc through one Stokes point, interior, with the flip
    assert is_elementary_arc(cs, Arc(ExactAngle(Fraction(1, 4)), ExactAngle(Fraction(3, 4))))
    # full circle: locus has two points
    assert not is_elementary_arc(cs, Arc(None, None, full=True))
    # arc missing the pair's locus entirely
    assert not is_elementary_arc(cs, Arc(ExactAngle(Fraction(1, 8)), ExactAngle(Fraction(3, 8))))
    # arc with a Stokes point on the boundary
    assert not is_elementary_arc(cs, Arc(ExactAngle(Fraction(1, 2)), ExactAngle(Fraction(1))))
    # degenerate arc
    with pytest.raises(ValueError):
        Arc(ExactAngle(Fraction(1, 4)), ExactAngle(Fraction(1, 4)))


def test_elementary_cover_examples():
    cs = build_circle_space(two_value_exponential())
    arcs = elementary_cover(cs)
    assert arcs is not None
    assert all(is_elementary_arc(cs, a) for a in arcs)
    single = build_circle_space(ExponentialData({"a": ZERO}))
    assert elementary_cover(single) == [Arc(None, None, full=True)]
    mixed = build_circle_space(ExponentialData({"u": ZERO, "v": ZM1, "w": ZM2}))
    cover = elementary_cover(mixed)
    assert len(cover) == 4
    assert all(oracle_is_elementary_arc(mixed, a) for a in cover)
    assert oracle_interiors_cover(mixed, cover)


def test_cover_succeeds_on_graded_pieces_after_level_step():
    """Each graded stage of mixed orders is single level, and gets a cover."""
    e3 = ExponentialData({"u": ZERO, "v": ZM1, "w": ZM2})
    # the top graded piece only distinguishes values within one level class:
    # classes {u, v} differ at order 1 -> the class-level space is single level
    cls = ExponentialData({"u": ZERO, "v": ZM1})
    assert elementary_cover(build_circle_space(cls)) is not None
    quot = ExponentialData({"uv": ZERO, "w": ZM2})
    assert elementary_cover(build_circle_space(quot)) is not None


def test_restrict_to_arc_and_functor():
    cs = build_circle_space(two_value_exponential())
    arc = Arc(ExactAngle(Fraction(1, 4)), ExactAngle(Fraction(3, 4)))
    sub, basef = restrict_to_arc(cs, arc)
    assert validate_fibration(sub)[0]
    assert sub.base.kind == "poset"
    f = rank_one_one_functor(cs)
    rf = restrict_functor_to_arc(cs, arc, f)
    assert validate_functor(rf)[0]
    assert is_stokes(rf)
    assert split_global(rf) is not None
    # arc inside a single open stratum restricts to one object
    small = Arc(ExactAngle(Fraction(5, 8)), ExactAngle(Fraction(7, 8)))
    sub2, _ = restrict_to_arc(cs, small)
    assert len(sub2.base.objects) == 1


def test_polyhedral_elementary_one_form():
    forms = [AffineForm.of([1], 0)]
    strata = ["-", "0", "+"]
    space = build_polyhedral_space(forms, strata, {("a", "b"): (0, "+")})
    assert validate_fibration(space.fibration)[0]
    assert check_polyhedral_elementarity(space)
    secs = cocartesian_sections(space.fibration)
    assert len(secs) == 2
    sa = next(s for s in secs if s("0") == "a")
    sb = next(s for s in secs if s("0") == "b")
    assert stokes_locus(space.fibration, sa, sb) == {"0"}


def test_polyhedral_not_elementary_when_side_unrealized():
    forms = [AffineForm.of([1], 0)]
    space = build_polyhedral_space(forms, ["-", "0"], {("a", "b"): (0, "+")})
    assert not check_polyhedral_elementarity(space)


def test_polyhedral_two_forms_square():
    forms = [AffineForm.of([1, 0], 0), AffineForm.of([0, 1], 0)]
    strata = ["00", "0+", "0-", "+0", "-0", "++", "+-", "-+", "--"]
    pair_data = {("a", "b"): (0, "+"), ("a", "c"): (1, "+"), ("b", "c"): (1, "+")}
    space = build_polyhedral_space(forms, strata, pair_data)
    assert validate_fibration(space.fibration)[0]
    assert check_polyhedral_elementarity(space)
    # splitting succeeds on randomized Stokes functors over an elementary base
    rng = random.Random(3)
    for _ in range(10):
        f = random_standard_functor(space.fibration, {"a": 1, "b": 1, "c": 1}, rng)
        assert validate_functor(f)[0]
        if is_stokes(f):
            assert split_global(f) is not None


def test_pullback_along_cover_preserves_verdicts():
    from stokeslib import ext_dims, is_stokes, pullback_functor, split_global
    from stokeslib.fixtures import nonsplit_witness, two_value_circle

    space = two_value_circle()
    w = nonsplit_witness(space)
    f = rank_one_one_functor(space)
    cover = circle_cover_functor(2, 2)
    wp = pullback_functor(cover, w)
    fp = pullback_functor(cover, f)
    assert validate_functor(wp)[0] and validate_functor(fp)[0]
    assert is_stokes(wp) and is_stokes(fp)
    assert split_global(fp) is not None
    assert split_global(wp) is None
    # the obstruction count doubles with the cover
    chi = lambda dims: sum((-1) ** i * d for i, d in enumerate(dims))
    assert chi(ext_dims(wp, wp)) == 2 * chi(ext_dims(w, w))


def test_multi_point_locus_arc_carries_a_nonsplit_witness():
    """An arc with two interior Stokes points is not elementary, and a
    twisted rank-(1,1) functor restricted to it fails to split."""
    from stokeslib import Matrix, is_stokes, split_global

    e = ExponentialData({"a": ZERO, "b": ZM2})
    space = build_circle_space(e)  # four points at odd multiples of pi/4
    arc = Arc(ExactAngle(Fraction(0)), ExactAngle(Fraction(1)))
    assert not is_elementary_arc(space, arc)
    dirs = stokes_directions(e.values["a"], e.values["b"])
    inside = [d for d in dirs if arc.contains_strictly(d)]
    assert len(inside) == 2
    # twist the gluing out of the first point into the segment between them
    twist = {"p0+": Matrix.from_rows([[1, 1], [0, 1]])}
    w = rank_one_one_functor(space, twist)
    assert validate_functor(w)[0] and is_stokes(w)
    rw = restrict_functor_to_arc(space, arc, w)
    assert is_stokes(rw)
    assert split_global(rw) is None
    # the identity-glued functor still splits over the same arc
    f = rank_one_one_functor(space)
    assert split_global(restrict_functor_to_arc(space, arc, f)) is not None


def test_seven_object_sign_vector_base():
    # a 7-element subfamily of the two-form sign vectors still forms a base
    from stokeslib import FinPoset, make_poset_base

    strata = ["00", "0+", "0-", "+0", "++", "+-", "-+"]
    from stokeslib.geometry import _sign_leq

    rel = [(s, t) for s in strata for t in strata if s != t and _sign_leq(s, t)]
    base = make_poset_base(FinPoset.from_relation(strata, rel))
    assert len(base.objects) == 7
    assert base.poset.le("00", "++") and not base.poset.le("0+", "+-")


def test_polyhedral_rejects_incomplete_pair_data():
    forms = [AffineForm.of([1], 0)]
    with pytest.raises(ValueError):
        build_polyhedral_space(forms, ["-", "0", "+"], {("a", "b"): (0, "+"), ("a", "c"): (0, "+")})
    # one pair declared in both orientations: neither declaration may silently win
    for orient in "+-":
        with pytest.raises(ValueError):
            build_polyhedral_space(forms, ["-", "0", "+"], {("a", "b"): (0, "+"), ("b", "a"): (0, orient)})
    # an orientation is one of the two signs, not a string that contains one
    for orient in ("", "+-", "0"):
        with pytest.raises(ValueError):
            build_polyhedral_space(forms, ["-", "0", "+"], {("b", "a"): (0, orient)})


def test_cubic_three_value_set_gets_a_certified_cover():
    """Building this circle or its cover raised RuntimeError while interval
    endpoints were read at 53 bits."""
    cs = build_circle_space(ExponentialData(N3_PLAIN))
    assert len(cs.points) == 18 and validate_fibration(cs.fibration)[0]
    assert pole_level_structure(cs).validate()[0]
    cover = elementary_cover(cs)
    assert len(cover) == 6
    assert all(oracle_is_elementary_arc(cs, a) for a in cover)
    assert oracle_interiors_cover(cs, cover)


def _gap_angles(cs, g: int) -> list:
    """Three exact angles inside the open gap from point g to point g+1."""
    lo, mid, hi = cs.points[g], cs.arc_samples[g], cs.points[(g + 1) % len(cs.points)]
    return [rational_angle_between(lo, mid), mid, rational_angle_between(mid, hi)]


def _drawn_arcs(cs, rng, count: int) -> list:
    """Arcs with random exact ends, an end on a Stokes point, both ends in one
    gap (either way round), ends across angle 0, and gap-to-gap arcs."""
    n = len(cs.points)
    arcs = []
    while len(arcs) < count:
        kind = rng.randrange(5)
        g, h = rng.randrange(n), rng.randrange(n)
        if kind == 0:
            ends = [ExactAngle(Fraction(rng.randrange(720), 360)) for _ in range(2)]
        elif kind == 1:
            ends = [cs.points[g], rng.choice(_gap_angles(cs, h))]
            rng.shuffle(ends)
        elif kind == 2:
            ends = rng.sample(_gap_angles(cs, g), 2)
        elif kind == 3:
            ends = [ExactAngle(2 - Fraction(rng.randint(1, 90), 360)), ExactAngle(Fraction(rng.randint(1, 90), 360))]
        else:
            ends = [rng.choice(_gap_angles(cs, g)), rng.choice(_gap_angles(cs, h))]
        if compare_angles(*ends) != 0:
            arcs.append(Arc(*ends))
    return arcs


@pytest.mark.parametrize("values", ORACLE_SETS[:3] + [N3_PLAIN])
def test_arc_verdicts_match_the_interval_oracle(values):
    cs = build_circle_space(ExponentialData(values))
    arcs = _drawn_arcs(cs, random.Random(len(cs.points)), 60) + (elementary_cover(cs) or [])
    verdicts = [is_elementary_arc(cs, a) for a in arcs]
    assert verdicts == [oracle_is_elementary_arc(cs, a) for a in arcs]
    for arc in arcs:
        if any(compare_angles(p, end) == 0 for p in cs.points for end in (arc.start, arc.end)):
            with pytest.raises(ValueError):
                restrict_to_arc(cs, arc)
            continue
        objects = restrict_to_arc(cs, arc)[1].object_map
        names = ["t0"] + [x for j in range(len(objects) // 2) for x in (f"q{j}", f"t{j + 1}")]
        assert [objects[x] for x in names] == _oracle_strata(cs, arc)


def _oracle_strata(cs, arc) -> list:
    """The strata that an arc with ends off the points meets, counterclockwise from its start."""
    n = len(cs.points)
    g = next(g for g in range(n) if cyclically_between(cs.points[g], arc.start, cs.points[(g + 1) % n]))
    out = [f"s{g}"]
    for r in range(1, n + 1):
        if not arc.contains_strictly(cs.points[(g + r) % n]):
            break
        out += [f"p{(g + r) % n}", f"s{(g + r) % n}"]
    return out


def _irredundant_oracle_cover(cs, cover) -> bool:
    """Every arc is elementary, the interiors cover the circle, and no arc can be dropped."""
    return (
        all(oracle_is_elementary_arc(cs, a) for a in cover)
        and oracle_interiors_cover(cs, cover)
        and not any(oracle_interiors_cover(cs, cover[:i] + cover[i + 1 :]) for i in range(len(cover)))
    )


def test_elementary_cover_equals_the_interval_oracle():
    """None exactly where no elementary arcs cover the circle, never where the
    old candidate search found a cover; the coverage of any set of window
    arcs, each from the first half of the gap before its points to the
    second half of the gap after them, is the interval oracle's."""
    from stokeslib import geometry

    for values in ORACLE_SETS:
        cs = build_circle_space(ExponentialData(values))
        cover = elementary_cover(cs)
        assert (cover is not None) == oracle_window_cover_exists(cs)
        if oracle_elementary_cover(cs) is not None:
            assert cover is not None
        if cover is not None:
            assert _irredundant_oracle_cover(cs, cover)
        n = len(cs.points)
        windows = {i: c for i in range(n) if (c := geometry._window(cs, i)) is not None}
        arcs = {i: Arc(_gap_angles(cs, (i - 1) % n)[0], _gap_angles(cs, (i + c - 1) % n)[2]) for i, c in windows.items()}
        assert all(oracle_is_elementary_arc(cs, a) for a in arcs.values())
        rng = random.Random(n)
        for t in range(12):
            kept = {i: c for i, c in windows.items() if rng.random() < (0.5 if t % 2 else 0.9)}
            want = oracle_interiors_cover(cs, [arcs[i] for i in kept])
            assert (geometry._first_gap(n, kept) is None) == want


def test_elementarity_and_covers_read_the_sorted_points(monkeypatch):
    """is_elementary_arc makes no angle evaluation beyond locating the arc
    ends, elementary_cover locates no angle once the circle is built, and
    the cover loses coverage without any one arc."""
    from stokeslib import geometry

    cs = build_circle_space(ExponentialData(N3_PLAIN))
    cover = elementary_cover(cs)
    arcs = _drawn_arcs(cs, random.Random(3), 30) + cover
    want = [oracle_is_elementary_arc(cs, a) for a in arcs]

    def refuse(*args, **kwargs):
        raise AssertionError("no angle evaluation expected")

    for name in ("locate_angle", "order_at", "stokes_directions", "pair_sign_at"):
        monkeypatch.setattr(geometry, name, refuse)
    assert elementary_cover(cs) == cover
    monkeypatch.undo()
    for name in ("rational_angle_between", "order_at", "stokes_directions", "pair_sign_at"):
        monkeypatch.setattr(geometry, name, refuse)
    assert [is_elementary_arc(cs, a) for a in arcs] == want
    monkeypatch.undo()
    assert _irredundant_oracle_cover(cs, cover)


def test_circle_and_cover_bytes_are_pinned():
    """The circle-space JSON and the cover of three value sets with irrational
    Stokes directions, as SHA-256 digests.  The circle digests were recorded
    before the interval reads became exact: the arc samples come from
    endpoints rounded to 53 bits at the first precision, as they did then.
    The covers come from the windows of the sorted points, and were pinned
    after every arc passed the interval oracles."""
    import hashlib

    from stokeslib import serial

    pinned = [
        ({"v0": ZERO, "v1": IV.of((1, G(2, 2))), "v2": IV.of((2, G(-1, 3)))},
         "49486a809caf3584cb918e260fc8e682377bdffdcd321865fb6b04dc85acea35",
         "4989cfcdcc882be3ddbaa6f95554fdf3df1c5b20674830928c97261fa2ebc12a"),
        ({"v0": ZERO, "v1": IV.of((1, G(3, -2))), "v2": IV.of((2, G(3, -2)), (1, G(2)))},
         "8275847853a20b5623cbed11e5dde588f89361c11db5f28f8642007e71d71046",
         "4a5b5fb8783a06151214d7a822f4fc0bd081f1e70656d42358ec8a3375118ee5"),
        ({"v0": ZERO, "v1": IV.of((2, G(-2, 2)), (1, G(-1, -2))), "v2": IV.of((1, G(-2, -3))),
          "v3": IV.of((2, G(3, 3)), (1, G(1, 1)))},
         "94054f8e032865aa871b7161c290700cd0f66903d2e421dcc3b73062ce465232",
         "60fb80613b56d087cceae65309e0f25f1ae80041b85a4e0b8339ce6ebcca93c0"),
    ]
    for values, want_circle, want_cover in pinned:
        cs = build_circle_space(ExponentialData(values))
        cover = elementary_cover(cs)
        assert _irredundant_oracle_cover(cs, cover)
        text = serial.dumps(serial.circle_space_to_json(cs))
        assert hashlib.sha256(text.encode()).hexdigest() == want_circle
        text = serial.dumps([serial.arc_to_json(a) for a in cover])
        assert hashlib.sha256(text.encode()).hexdigest() == want_cover
    # the circle corpus of the benchmark, N = 3, 4, 5 plain and with a Laurent
    # tail, written out here; (stage count, digest of the morphism JSON of every
    # level stage), recorded before the stages were read as ultrametric balls;
    # (arc count, cover digest), or None for no cover
    corpus = [
        (N3_PLAIN,
         "f2bc2fb97df9108492cacf63c37112a49f4f8410b61d763425d09a3e5c2fef2c",
         (3, "24d855aa1571a63f47fd9875b72004cf9828151ab7b1c13e4e8013524faf9b19"),
         (6, "07ceae34a5c29bd3eb406920eb29fa621f4c987bdb397ecb30edf60c864452d1")),
        ({"v0": ZERO, "v1": IV.of((3, G(-1, -1)), (1, G(-2, 2))), "v2": IV.of((3, G(-3)), (2, G(1, 2)))},
         "214e27477907d03892c7427c440337e996516c6967cc4ff05ae8d8610b5ed4e4",
         (3, "5d1384c03c12e858641b3c590ab5f15cb3b73a9b16663c3d3c07f55e7af56264"),
         (6, "07ceae34a5c29bd3eb406920eb29fa621f4c987bdb397ecb30edf60c864452d1")),
        ({"v0": ZERO, "v1": IV.of((3, G(3, 3))), "v2": IV.of((3, G(2, 1))), "v3": IV.of((2, G(-2, -1)))},
         "d5177f1ceb6e19f36019b21f86cc979fdf53863c37ecefabbf8c6d8ede111ffc",
         (3, "9f550d0e97e9adc9caa04b515a523219685371bb38b4132ee18e07dcb9f5226a"),
         (6, "282f825da0113bfb78a5b8fc1c5947fbfe5deabdfccd7c83705d262241a1f286")),
        ({"v0": ZERO, "v1": IV.of((3, G(-1, 3)), (1, G(3, -3))), "v2": IV.of((1, G(-3, 1))),
          "v3": IV.of((2, G(1, -3)), (1, G(1, -2)))},
         "0033d477511e42682264a2bdce18956cc4257275e24935c6737aed8991b3711b",
         (3, "c7513c3cee578209609a2af8bcf77904c89b4e9f3a66f125c8924022c4ea8718"), None),
        ({"v0": ZERO, "v1": IV.of((2, G(-3, -2))), "v2": IV.of((1, G(3, 1))), "v3": IV.of((2, G(-1, -3))),
          "v4": IV.of((1, G(1, 3)))},
         "f99d295e9455e55721b17f9911ea9a4f33a653975f48a378f1b52e3a9d3af62c",
         (2, "3d3bfe8cf5b36542c5856055a40d91731d941c7b7fdaae72dc7e10971d9d0664"), None),
        ({"v0": ZERO, "v1": IV.of((3, G(-2)), (1, G(1, -1))), "v2": IV.of((1, G(-2, -2))),
          "v3": IV.of((3, G(-3, 2)), (2, G(-3, 1))), "v4": IV.of((2, G(3, -2)), (1, G(2, 3)))},
         "1488d661e7b794a306af827b04fcafd2829cfcf115ecc66c7887a585d5fae115",
         (3, "1b19bbbd6fa06fac86cd36cebb4e9b1f2a50816638d0297c03f93f98b7b47b96"), None),
    ]
    for values, want_circle, want_stages, want_cover in corpus:
        cs = build_circle_space(ExponentialData(values))
        text = serial.dumps(serial.circle_space_to_json(cs))
        assert hashlib.sha256(text.encode()).hexdigest() == want_circle
        stages = pole_level_structure(cs).stages
        text = serial.dumps([serial.morphism_to_json(stage) for stage in stages])
        assert (len(stages), hashlib.sha256(text.encode()).hexdigest()) == want_stages
        cover = elementary_cover(cs)
        if want_cover is None:
            assert cover is None
        else:
            text = serial.dumps([serial.arc_to_json(a) for a in cover])
            assert (len(cover), hashlib.sha256(text.encode()).hexdigest()) == want_cover
