import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokeslib import (
    FinPoset,
    Matrix,
    MonotoneMap,
    StokesFibration,
    StokesFunctor,
    cover_arrow_id,
    grade,
    grade_right_adjoint,
    induce,
    is_stokes,
    level_assemble,
    level_disassemble,
    make_poset_base,
    natural_isomorphism,
    terminal_morphism,
    validate_functor,
)
from stokeslib.fibrations import FibrationMorphism
from helpers import conjugate_functor, oracle_level_alpha, random_level_setup, set_target_morphism


def point_fibration(fiber: FinPoset) -> StokesFibration:
    base = make_poset_base(FinPoset.antichain(["x"]))
    return StokesFibration(base, {"x": fiber}, {})


def induced_functor_from_tops(poset: FinPoset, tops: dict) -> StokesFunctor:
    """i_!(V) on a one-point base: ordered sums of tops with block inclusions."""
    fib = point_fibration(poset)
    order = poset.linear_extension()
    spaces = {}
    for a in poset.elements:
        spaces[("x", a)] = sum(tops[b] for b in poset.elements if poset.le(b, a))
    arrows = {}
    for a, b in poset.covers():
        small = [c for c in order if poset.le(c, a)]
        big = [c for c in order if poset.le(c, b)]
        from fractions import Fraction

        ent = [[Fraction(0)] * spaces[("x", a)] for _ in range(spaces[("x", b)])]
        ro = {c: sum(tops[d] for d in big[:i]) for i, c in enumerate(big)}
        co = {c: sum(tops[d] for d in small[:i]) for i, c in enumerate(small)}
        for c in small:
            for i in range(tops[c]):
                ent[ro[c] + i][co[c] + i] = Fraction(1)
        arrows[cover_arrow_id("x", a, b)] = (
            Matrix.from_rows(ent) if spaces[("x", b)] else Matrix(0, spaces[("x", a)], ())
        )
    return StokesFunctor(fib, spaces, arrows)


def fiberwise_morphism(i_fib, j_fib, assignment) -> FibrationMorphism:
    return FibrationMorphism(
        i_fib, j_fib, {"x": MonotoneMap(i_fib.fiber("x"), j_fib.fiber("x"), assignment)}
    )


def test_grade_identity_morphism_gives_tops():
    rng = random.Random(1)
    I, J, assign = random_level_setup(rng)
    tops = {a: rng.randint(0, 2) for a in I.elements}
    f = induced_functor_from_tops(I, tops)
    ident = FibrationMorphism.identity(f.fibration)
    g = grade(ident, f)
    for a in I.elements:
        assert g.dim("x", a) == tops[a]


def test_grade_terminal_morphism_is_identity():
    rng = random.Random(2)
    I, _, _ = random_level_setup(rng)
    tops = {a: rng.randint(0, 2) for a in I.elements}
    f = induced_functor_from_tops(I, tops)
    tm = terminal_morphism(f.fibration)
    g = grade(tm, f)
    assert {k: v for k, v in g.spaces.items()} == dict(f.spaces)
    assert natural_isomorphism(f, g) is not None


def test_grade_formula_on_induced_functors():
    rng = random.Random(3)
    for _ in range(25):
        I, J, assign = random_level_setup(rng)
        tops = {a: rng.randint(0, 2) for a in I.elements}
        f = induced_functor_from_tops(I, tops)
        j_fib = point_fibration(J)
        p = fiberwise_morphism(f.fibration, j_fib, assign)
        g = grade(p, f)
        for a in I.elements:
            expected = sum(
                tops[b] for b in I.elements if I.le(b, a) and assign[b] == assign[a]
            )
            assert g.dim("x", a) == expected


def test_induce_dims_add_and_terminal():
    rng = random.Random(4)
    for _ in range(15):
        I, J, assign = random_level_setup(rng)
        tops = {a: rng.randint(0, 2) for a in I.elements}
        f = induced_functor_from_tops(I, tops)
        j_fib = point_fibration(J)
        p = fiberwise_morphism(f.fibration, j_fib, assign)
        g = induce(p, f)
        for c in J.elements:
            expected = sum(tops[b] for b in I.elements if J.le(assign[b], c))
            assert g.dim("x", c) == expected
        tm = terminal_morphism(f.fibration)
        total = induce(tm, f)
        assert total.dim("x", "*") == sum(tops.values())


def test_induce_identity_preserves_dims():
    rng = random.Random(5)
    I, _, _ = random_level_setup(rng)
    tops = {a: rng.randint(0, 2) for a in I.elements}
    f = induced_functor_from_tops(I, tops)
    out = induce(FibrationMorphism.identity(f.fibration), f)
    assert dict(out.spaces) == dict(f.spaces)
    assert natural_isomorphism(f, out) is not None


def test_induce_requires_punctually_split():
    chain = FinPoset.chain(["a", "b"])
    fib = point_fibration(chain)
    f = StokesFunctor(
        fib,
        {("x", "a"): 1, ("x", "b"): 1},
        {cover_arrow_id("x", "a", "b"): Matrix.zeros(1, 1)},
    )
    tm = terminal_morphism(fib)
    with pytest.raises(ValueError):
        induce(tm, f)


def test_grade_right_adjoint_zero_across_jumps():
    rng = random.Random(6)
    I, J, assign = random_level_setup(rng)
    j_fib = point_fibration(J)
    tops = {a: rng.randint(1, 2) for a in I.elements}
    f = induced_functor_from_tops(I, tops)
    p = fiberwise_morphism(f.fibration, j_fib, assign)
    h = grade(p, f)
    back = grade_right_adjoint(p, h)
    assert validate_functor(back)[0]
    for a in I.elements:
        for b in I.elements:
            if I.lt(a, b) and assign[a] != assign[b]:
                assert back.fiber_matrix("x", a, b).is_zero()
    # the graded dimensions of the right adjoint recover h: the quotient by
    # images from strictly lower levels removes nothing since those maps vanish
    from stokeslib import mat_rank
    from stokeslib.exactmath import hstack_all

    for a in I.elements:
        below = [c for c in I.elements if I.lt(c, a) and assign[c] != assign[a]]
        if below:
            stacked = hstack_all([back.fiber_matrix("x", c, a) for c in below], back.dim("x", a))
            assert mat_rank(stacked) == 0
        assert back.dim("x", a) == h.dim("x", a)


def test_compatibility_of_graduation_and_induction_dims():
    # induction to the quotient then grading matches grading then set-induction
    rng = random.Random(7)
    for _ in range(10):
        I, J, assign = random_level_setup(rng)
        tops = {a: rng.randint(0, 2) for a in I.elements}
        f = induced_functor_from_tops(I, tops)
        j_fib = point_fibration(J)
        p = fiberwise_morphism(f.fibration, j_fib, assign)
        g = induce(p, f)
        gr_of_g = grade(FibrationMorphism.identity(j_fib), g)
        h = grade(p, f)
        pi_of_h = induce(set_target_morphism(p), h)
        for c in J.elements:
            assert gr_of_g.dim("x", c) == pi_of_h.dim("x", c)


def test_level_roundtrip_fiberwise_random():
    rng = random.Random(8)
    count = 0
    for _ in range(12):
        I, J, assign = random_level_setup(rng)
        j_fib = point_fibration(J)
        tops = {a: rng.randint(0, 2) for a in I.elements}
        if sum(tops.values()) == 0:
            continue
        f = induced_functor_from_tops(I, tops)
        p = fiberwise_morphism(f.fibration, j_fib, assign)
        g, h, alpha = level_disassemble(p, f)
        f2 = level_assemble(p, g, h, alpha)
        assert dict(f2.spaces) == dict(f.spaces)
        assert validate_functor(f2)[0]
        assert natural_isomorphism(f, f2) is not None
        count += 1
    assert count >= 8


def test_stokes_detection_fiberwise():
    rng = random.Random(9)
    I, J, assign = random_level_setup(rng, max_classes=2, max_class_size=2)
    j_fib = point_fibration(J)
    tops = {a: 1 for a in I.elements}
    f = induced_functor_from_tops(I, tops)
    p = fiberwise_morphism(f.fibration, j_fib, assign)
    assert is_stokes(f)
    assert is_stokes(grade(p, f))
    assert is_stokes(induce(p, f))


def test_assemble_zero_pieces_gives_zero():
    rng = random.Random(10)
    I, J, assign = random_level_setup(rng)
    j_fib = point_fibration(J)
    tops = {a: 0 for a in I.elements}
    f = induced_functor_from_tops(I, tops)
    p = fiberwise_morphism(f.fibration, j_fib, assign)
    g, h, alpha = level_disassemble(p, f)
    out = level_assemble(p, g, h, alpha)
    assert all(v == 0 for v in out.spaces.values())


def test_level_disassemble_splits_each_functor_once(monkeypatch):
    """split_fiber is asked once per base object for each of f, g and h, and
    eliminates only for f: g and h read the splittings they were made with.
    Pieces built anew, as pieces read from JSON are, are split by
    elimination again."""
    from stokeslib import functors, pole_level_structure
    from helpers import random_standard_functor, three_value_circle

    cs3 = three_value_circle()
    f = random_standard_functor(cs3.fibration, {"u": 1, "v": 1, "w": 1}, random.Random(2))
    stage = pole_level_structure(cs3).stages[0]
    split, eliminate = functors.split_fiber, functors._split_by_elimination
    calls, eliminated = [], []

    def counting(functor, x):
        calls.append(functor)
        return split(functor, x)

    def counting_eliminations(functor, x):
        eliminated.append(functor)
        return eliminate(functor, x)

    monkeypatch.setattr(functors, "split_fiber", counting)
    monkeypatch.setattr(functors, "_split_by_elimination", counting_eliminations)
    g, h, alpha = level_disassemble(stage, f)
    n = len(f.fibration.base.objects)
    assert len(calls) == n
    assert all(c is f for c in calls)
    calls.clear()
    level_assemble(stage, g, h, alpha)
    assert len(calls) == 2 * n
    assert [sum(c is functor for c in calls) for functor in (g, h)] == [n, n]
    assert len(eliminated) == n and all(c is f for c in eliminated)
    eliminated.clear()
    fresh_g, fresh_h = _fresh(g), _fresh(h)
    level_assemble(stage, fresh_g, fresh_h, alpha)
    assert [sum(c is piece for c in eliminated) for piece in (fresh_g, fresh_h)] == [n, n]


def test_level_assemble_names_the_misplaced_piece():
    """g must live on the target of p and h on its graded fibration; swapping
    them, or passing g twice, is refused with the piece named."""
    from stokeslib import pole_level_structure
    from helpers import random_standard_functor, three_value_circle

    cs3 = three_value_circle()
    f = random_standard_functor(cs3.fibration, {"u": 1, "v": 1, "w": 1}, random.Random(2))
    stage = pole_level_structure(cs3).stages[0]
    g, h, alpha = level_disassemble(stage, f)
    with pytest.raises(ValueError, match="g does not live on the target of the morphism"):
        level_assemble(stage, h, g, alpha)
    with pytest.raises(ValueError, match="h does not live on the graded fibration of the morphism"):
        level_assemble(stage, g, g, alpha)


def test_level_alpha_is_the_identity_of_the_oracle():
    """alpha, returned as the identity, equals the comparison computed from the
    full graduation of g and induction of h: on fiberwise setups (conjugated
    too), at every stage of the three- and four-value circles, and at stage
    k + 1 on the induction of stage k."""
    from stokeslib import ExponentialData, GaussianRational, IrregularValue, build_circle_space, pole_level_structure
    from helpers import conjugate_functor, random_standard_functor, three_value_circle

    rng = random.Random(13)
    cases = []
    for i in range(16):
        I, J, assign = random_level_setup(rng)
        f = induced_functor_from_tops(I, {a: rng.randint(0, 2) for a in I.elements})
        if i % 2:
            f = conjugate_functor(f, rng)
        cases.append((fiberwise_morphism(f.fibration, point_fibration(J), assign), f))
    G = GaussianRational.of
    four = build_circle_space(ExponentialData({
        "a": IrregularValue.zero(),
        "b": IrregularValue.of((1, G(1))),
        "c": IrregularValue.of((1, G(0, 1))),
        "d": IrregularValue.of((2, G(1))),
    }))
    for cs, dims in ((three_value_circle(), {"u": 2, "v": 1, "w": 1}), (four, {"a": 1, "b": 1, "c": 1, "d": 1})):
        f = random_standard_functor(cs.fibration, dims, rng, conjugate=True)
        for stage in pole_level_structure(cs).stages:
            if stage.source != f.fibration:
                # stage k + 1 on the induction of stage k
                f = level_disassemble(prev, f)[0]
            cases.append((stage, f))
            prev = stage
    assert len(cases) == 16 + 2 + 2  # both circles have two stages
    for p, f in cases:
        g, h, alpha = level_disassemble(p, f)
        assert alpha == oracle_level_alpha(p, f, g, h)


def _restriction(p: FibrationMorphism, g: StokesFunctor) -> StokesFunctor:
    """p^*g on the source of p: the value at (x, a) is g at (x, p(a))."""
    from stokeslib import lift_arrow_id

    src = p.source
    spaces = {(x, a): g.dim(x, p.map_at(x)(a)) for x in src.base.objects for a in src.fiber(x).elements}
    arrows = {}
    for x in src.base.objects:
        px = p.map_at(x)
        for a, b in src.fiber(x).covers():
            arrows[cover_arrow_id(x, a, b)] = g.fiber_matrix(x, px(a), px(b))
    for arr in src.base.arrows:
        px = p.map_at(arr.source)
        for a in src.fiber(arr.source).elements:
            arrows[lift_arrow_id(arr.name, a)] = g.lift_matrix(arr.name, px(a))
    return StokesFunctor(src, spaces, arrows)


def _assert_natural(f: StokesFunctor, r: StokesFunctor, eta: dict) -> None:
    from stokeslib.functors import generating_arrow_shapes

    for arrow_id, (tgt, src) in generating_arrow_shapes(f.fibration).items():
        assert eta[tgt] @ f.arrows[arrow_id] == r.arrows[arrow_id] @ eta[src], arrow_id


def test_induction_and_graduation_units_are_natural():
    """The units F -> p^*(induce F) and the projections F -> R(grade F) commute
    with every generating arrow, R being the right adjoint of graduation."""
    from stokeslib import pole_level_structure
    from stokeslib.functors import grade_with_blocks, induce_with_blocks
    from helpers import conjugate_functor, random_standard_functor, three_value_circle

    rng = random.Random(12)
    cases = []
    for _ in range(10):
        I, J, assign = random_level_setup(rng)
        f = conjugate_functor(induced_functor_from_tops(I, {a: rng.randint(0, 2) for a in I.elements}), rng)
        cases.append((fiberwise_morphism(f.fibration, point_fibration(J), assign), f))
    cs3 = three_value_circle()
    f = random_standard_functor(cs3.fibration, {"u": 2, "v": 1, "w": 1}, rng, conjugate=True)
    cases.append((pole_level_structure(cs3).stages[0], f))
    for p, f in cases:
        ind = induce_with_blocks(p, f)
        _assert_natural(f, _restriction(p, ind.functor), ind.units)
        gr = grade_with_blocks(p, f)
        _assert_natural(f, grade_right_adjoint(p, gr.functor), gr.units)


def _plus_name_circle(names):
    """The circle of {0, z^-1, z^-2} under the given three names."""
    from stokeslib import ExponentialData, GaussianRational, IrregularValue, build_circle_space

    G = GaussianRational.of
    values = (IrregularValue.zero(), IrregularValue.of((1, G(1))), IrregularValue.of((2, G(1))))
    return build_circle_space(ExponentialData(dict(zip(names, values))))


@pytest.mark.parametrize("names", [("u", "v+w", "w"), ("u", "v", "u+v")])
def test_level_structure_refuses_plus_in_value_names(names):
    """Classes are named by joining members with '+': the name v+w read back
    as v, and u+v named both a value and the class {u, v}."""
    import re
    from stokeslib import pole_level_structure

    bad = next(n for n in names if "+" in n)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        pole_level_structure(_plus_name_circle(names))


def test_grade_and_induce_refuse_a_target_fibration_that_is_not_one():
    """On the two-value circle, the identity morphism onto a fibration whose
    every fiber {a, b} has an all-true order (antisymmetry fails)."""
    from stokeslib import serial
    from stokeslib.fixtures import rank_one_one_functor, two_value_circle

    space = two_value_circle()
    f = rank_one_one_functor(space)
    doc = serial.morphism_to_json(FibrationMorphism.identity(space.fibration))
    for fiber in doc["target"]["fibers"].values():
        fiber["leq"] = [[True] * len(fiber["elements"]) for _ in fiber["elements"]]
    p = serial.morphism_from_json(doc)
    for op in (grade, induce):
        with pytest.raises(ValueError, match="target fibration"):
            op(p, f)


def test_level_assemble_refuses_an_alpha_that_names_nothing():
    """The keys of alpha are exactly the total objects of the target of p; the
    first missing or unknown key, in sorted order, is named."""
    from stokeslib import pole_level_structure
    from helpers import random_standard_functor, three_value_circle

    cs3 = three_value_circle()
    f = random_standard_functor(cs3.fibration, {"u": 1, "v": 1, "w": 1}, random.Random(2))
    stage = pole_level_structure(cs3).stages[0]
    g, h, alpha = level_disassemble(stage, f)
    keys = sorted(alpha)
    assert keys == sorted((x, c) for x in stage.target.base.objects for c in stage.target.fiber(x).elements)
    with pytest.raises(ValueError, match=r"names no total object \('nowhere', 'zz'\)"):
        level_assemble(stage, g, h, {**alpha, ("nowhere", "zz"): alpha[keys[0]]})
    with pytest.raises(ValueError, match=r"names no total object \('p0', 'u'\)"):
        level_assemble(stage, g, h, {**alpha, ("p0", "u"): alpha[keys[0]], ("s0", "v"): alpha[keys[0]]})
    missing = {k: m for k, m in alpha.items() if k not in keys[1:3]}
    with pytest.raises(ValueError, match=rf"has no entry at \('{keys[1][0]}', '{keys[1][1]}'\)"):
        level_assemble(stage, g, h, missing)
    assert level_assemble(stage, g, h, alpha).spaces == f.spaces


# ---------------------------------------------------------------------------
# splittings kept on functors made by induction


def _fresh(f: StokesFunctor) -> StokesFunctor:
    """The same functor built anew: it keeps nothing, so it is split by elimination."""
    return StokesFunctor(f.fibration, f.spaces, f.arrows)


def _circle_stage_cases(rng) -> list:
    """(stage, functor) at both stages of the three- and four-value circles,
    stage k + 1 on the induction of stage k; ranks at most 2, conjugated."""
    from stokeslib import pole_level_structure
    from helpers import four_value_circle, random_standard_functor, three_value_circle

    cases = []
    for cs in (three_value_circle(), four_value_circle()):
        f = random_standard_functor(cs.fibration, {n: rng.choice([1, 2]) for n in cs.data.names}, rng, conjugate=True)
        for stage in pole_level_structure(cs).stages:
            if stage.source != f.fibration:
                f = level_disassemble(prev, f)[0]
            cases.append((stage, f))
            prev = stage
    return cases


def _assert_kept_splittings_are_eliminated_ones(p: FibrationMorphism, f: StokesFunctor) -> None:
    """induce, grade, the two pieces of level_disassemble and the tops of f
    read the same splitting off their blocks as elimination finds on a fresh copy."""
    from stokeslib import split_fiber, top_functor
    from stokeslib.functors import punctual_splittings

    g, h, _ = level_disassemble(p, f)
    for piece in (induce(p, f), grade(p, f), g, h, top_functor(f, punctual_splittings(f))):
        fresh = _fresh(piece)
        for x in piece.fibration.base.objects:
            assert split_fiber(piece, x) == split_fiber(fresh, x), x


def test_functors_made_by_induction_on_circles_keep_the_eliminated_splitting():
    for p, f in _circle_stage_cases(random.Random(23)):
        _assert_kept_splittings_are_eliminated_ones(p, f)


def _crossed_level_case(rng) -> tuple:
    """(p, f) on a random level setup whose quotient lists its elements in a
    random order: its linear extension then need not follow the order of the
    tops of f, and theta is a permutation that need not be symmetric."""
    I, J, assign = random_level_setup(rng)
    pairs = [(a, b) for a in J.elements for b in J.elements if J.lt(a, b)]
    J = FinPoset.from_relation(rng.sample(J.elements, len(J.elements)), pairs)
    f = conjugate_functor(induced_functor_from_tops(I, {a: rng.randint(0, 2) for a in I.elements}), rng)
    return fiberwise_morphism(f.fibration, point_fibration(J), assign), f


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_functors_made_by_induction_on_level_setups_keep_the_eliminated_splitting(seed):
    _assert_kept_splittings_are_eliminated_ones(*_crossed_level_case(random.Random(seed)))


def test_level_assemble_gives_the_same_functor_from_kept_and_from_fresh_pieces():
    rng = random.Random(29)
    cases = _circle_stage_cases(rng) + [_crossed_level_case(rng) for _ in range(8)]
    for p, f in cases:
        g, h, alpha = level_disassemble(p, f)
        assert level_assemble(p, g, h, alpha) == level_assemble(p, _fresh(g), _fresh(h), alpha)


def test_a_split_induced_functor_survives_pickle():
    """With the splittings it keeps, and the blocks it reads them off, an
    induced functor and the tops pickle, compare equal and split the same."""
    import pickle

    from stokeslib import top_functor
    from stokeslib.functors import punctual_splittings

    for p, f in _circle_stage_cases(random.Random(31))[:2]:
        for piece in (induce(p, f), top_functor(f, punctual_splittings(f))):
            for read_first in (False, True):
                if read_first:
                    punctual_splittings(piece)
                back = pickle.loads(pickle.dumps(piece))
                assert back == piece
                assert punctual_splittings(back) == punctual_splittings(_fresh(piece))
