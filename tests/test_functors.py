import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from stokeslib import (
    FinPoset,
    Matrix,
    MonotoneMap,
    StokesFibration,
    StokesFunctor,
    cover_arrow_id,
    is_cocartesian_at,
    is_punctually_split,
    is_stokes,
    lift_arrow_id,
    make_circle_base,
    make_poset_base,
    specialization_matrix,
    split_fiber,
    split_global,
    stokes_witness,
    validate_fibration,
    validate_functor,
)
from stokeslib.fixtures import nonsplit_witness, rank_one_one_functor, two_value_circle

from helpers import (
    canonical_posets,
    conjugate_functor,
    diamond_base_functor,
    mat_rows,
    oracle_fiber_matrix,
    oracle_hasse_paths,
    oracle_is_invertible,
    oracle_lift_failures,
    oracle_split_sections,
    oracle_split_verdict,
    oracle_transition_failures,
    random_functor_with_dims,
    random_splitting,
    random_standard_functor,
)


def point_fibration(fiber: FinPoset) -> StokesFibration:
    base = make_poset_base(FinPoset.antichain(["x"]))
    return StokesFibration(base, {"x": fiber}, {})


def test_validate_zero_functor():
    fib = point_fibration(FinPoset.chain(["a", "b"]))
    f = StokesFunctor(fib, {("x", "a"): 0, ("x", "b"): 0}, {cover_arrow_id("x", "a", "b"): Matrix.zeros(0, 0)})
    assert validate_functor(f)[0]
    assert is_stokes(f)
    assert split_global(f) is not None


def test_validate_rejects_colliding_generating_arrow_ids():
    """Covers u < "v<w" and "u<v" < w of one fiber share the id "x::u<v<w",
    so one matrix would stand for two arrows."""
    fiber = FinPoset.from_relation(["u", "v<w", "u<v", "w"], [("u", "v<w"), ("u<v", "w")])
    assert cover_arrow_id("x", "u", "v<w") == cover_arrow_id("x", "u<v", "w")
    spaces = {("x", e): 1 for e in fiber.elements}
    f = StokesFunctor(point_fibration(fiber), spaces, {cover_arrow_id("x", "u", "v<w"): Matrix.identity(1)})
    ok, why = validate_functor(f)
    assert not ok and "id" in why


def test_validate_detects_mismatched_composite():
    sq = FinPoset.from_relation(["o", "l", "r", "t"], [("o", "l"), ("o", "r"), ("l", "t"), ("r", "t")])
    fib = point_fibration(sq)
    spaces = {("x", e): 1 for e in sq.elements}
    mk = lambda v: Matrix.from_rows([[v]])
    arrows = {
        cover_arrow_id("x", "o", "l"): mk(1),
        cover_arrow_id("x", "o", "r"): mk(1),
        cover_arrow_id("x", "l", "t"): mk(1),
        cover_arrow_id("x", "r", "t"): mk(2),
    }
    f = StokesFunctor(fib, spaces, arrows)
    ok, why = validate_functor(f)
    assert not ok and "functoriality" in why


def test_validate_lift_naturality():
    base = make_circle_base(1)
    chain = FinPoset.chain(["a", "b"])
    ident = MonotoneMap(chain, chain, {"a": "a", "b": "b"})
    fib = StokesFibration(base, {"p0": chain, "s0": chain}, {"p0+": ident, "p0-": ident})
    spaces = {("p0", "a"): 1, ("p0", "b"): 1, ("s0", "a"): 1, ("s0", "b"): 1}
    mk = lambda v: Matrix.from_rows([[v]])
    arrows = {
        cover_arrow_id("p0", "a", "b"): mk(1),
        cover_arrow_id("s0", "a", "b"): mk(1),
        lift_arrow_id("p0+", "a"): mk(1),
        lift_arrow_id("p0+", "b"): mk(2),  # breaks the naturality square
        lift_arrow_id("p0-", "a"): mk(1),
        lift_arrow_id("p0-", "b"): mk(1),
    }
    ok, why = validate_functor(StokesFunctor(fib, spaces, arrows))
    assert not ok and "naturality" in why


def diamond_ladder(k: int) -> FinPoset:
    """v0 < l1, r1 < v1 < l2, r2 < v2 ... < vk: 2^k cover paths from v0 to vk."""
    pairs = []
    for i in range(1, k + 1):
        for side in ("l", "r"):
            pairs += [(f"v{i - 1}", f"{side}{i}"), (f"{side}{i}", f"v{i}")]
    elements = ["v0"] + [e for i in range(1, k + 1) for e in (f"l{i}", f"r{i}", f"v{i}")]
    return FinPoset.from_relation(elements, pairs)


def test_validate_diamond_ladder_without_enumerating_paths():
    k = 20
    ladder = diamond_ladder(k)
    fib = point_fibration(ladder)
    spaces = {("x", e): 1 for e in ladder.elements}
    arrows = {cover_arrow_id("x", a, b): Matrix.from_rows([[2 if a.startswith("r") else 1]]) for a, b in ladder.covers()}
    arrows.update({cover_arrow_id("x", f"v{i - 1}", f"r{i}"): Matrix.from_rows([[Fraction(1, 2)]]) for i in range(1, k + 1)})
    assert validate_functor(StokesFunctor(fib, spaces, arrows)) == (True, "ok")
    # one broken diamond: its two sides compose to 1 and 2
    arrows[cover_arrow_id("x", "v6", "r7")] = Matrix.from_rows([[1]])
    assert validate_functor(StokesFunctor(fib, spaces, arrows)) == (
        False,
        "fiber functoriality fails between v0 and v7 at x",
    )


def test_validate_compares_every_cover_into_an_element():
    claw = FinPoset.from_relation(["o", "l", "m", "r", "t"], [(p, q) for s in "lmr" for p, q in (("o", s), (s, "t"))])
    fib = point_fibration(claw)
    arrows = {cover_arrow_id("x", a, b): Matrix.from_rows([[1]]) for a, b in claw.covers()}
    arrows[cover_arrow_id("x", "r", "t")] = Matrix.from_rows([[2]])  # only the third side differs
    f = StokesFunctor(fib, {("x", e): 1 for e in claw.elements}, arrows)
    assert validate_functor(f) == (False, "fiber functoriality fails between o and t at x")


def _path_oracle(f: StokesFunctor, x: str) -> tuple[bool, str]:
    """Fiber functoriality by enumerating every cover path of every pair."""
    p = f.fibration.fiber(x)

    def paths(a, b):
        if a == b:
            return [Matrix.identity(f.dim(x, a))]
        return [
            f.cover_matrix(x, u, v) @ m
            for u, v in p.covers()
            if v == b and p.le(a, u)
            for m in paths(a, u)
        ]

    for a in p.elements:
        for b in p.elements:
            if p.lt(a, b) and len({m.entries for m in paths(a, b)}) > 1:
                return False, f"fiber functoriality fails between {a} and {b} at {x}"
    return True, "ok"


def test_validate_fiber_functoriality_matches_path_enumeration():
    from helpers import all_labeled_posets

    rng = random.Random(11)
    for poset in all_labeled_posets(4):
        fib = point_fibration(poset)
        for _ in range(3):
            arrows = {
                cover_arrow_id("x", a, b): Matrix.from_rows([[rng.choice([0, 1, 2])]]) for a, b in poset.covers()
            }
            f = StokesFunctor(fib, {("x", e): 1 for e in poset.elements}, arrows)
            assert validate_functor(f) == _path_oracle(f, "x")


def base_ladder_fibration(k: int, fiber: FinPoset, transitions=None) -> StokesFibration:
    """A diamond ladder as the poset base, one fiber everywhere, identity transitions by default."""
    base = make_poset_base(diamond_ladder(k))
    ident = MonotoneMap.identity(fiber)
    transitions = {a.name: (transitions or {}).get(a.name, ident) for a in base.arrows}
    return StokesFibration(base, {x: fiber for x in base.objects}, transitions)


def test_validate_diamond_ladder_base_without_enumerating_paths():
    k = 20
    one = FinPoset.antichain(["*"])
    fib = base_ladder_fibration(k, one)
    assert validate_fibration(fib) == (True, "ok")
    spaces = {(x, "*"): 1 for x in fib.base.objects}
    # the r-side of every diamond scales by 1/2 then by 2, the l-side by 1
    lifts = {a.name: Fraction(1, 2) if a.target.startswith("r") else 2 if a.source.startswith("r") else 1
             for a in fib.base.arrows}
    arrows = {lift_arrow_id(name, "*"): Matrix.from_rows([[v]]) for name, v in lifts.items()}
    assert validate_functor(StokesFunctor(fib, spaces, arrows)) == (True, "ok")
    arrows[lift_arrow_id("v6<r7", "*")] = Matrix.from_rows([[2]])  # one side of diamond 7 now composes to 4
    assert validate_functor(StokesFunctor(fib, spaces, arrows)) == (
        False,
        "lift path independence fails over v0->v7 at *",
    )
    two = FinPoset.antichain(["u", "v"])
    swap = MonotoneMap(two, two, {"u": "v", "v": "u"})
    assert validate_fibration(base_ladder_fibration(k, two)) == (True, "ok")
    assert validate_fibration(base_ladder_fibration(k, two, {"r7<v7": swap})) == (
        False,
        "path independence fails between v0 and v7",
    )


def test_base_path_checks_match_path_enumeration_on_small_bases():
    from helpers import all_labeled_posets

    rng = random.Random(31)
    two = FinPoset.antichain(["u", "v"])
    ident = MonotoneMap.identity(two)
    swap = MonotoneMap(two, two, {"u": "v", "v": "u"})
    failing = {"fibration": 0, "functor": 0}
    posets = [p for n in (2, 3, 4) for p in all_labeled_posets(n)] + [diamond_ladder(2), diamond_ladder(3)]
    for poset in posets:
        base = make_poset_base(poset)
        fibers = {x: two for x in base.objects}
        # lifts are checked over identity transitions and over every valid random fibration
        lift_fibrations = [StokesFibration(base, fibers, {a.name: ident for a in base.arrows})]
        for _ in range(4):
            fib = StokesFibration(base, fibers, {a.name: rng.choice([ident, swap]) for a in base.arrows})
            ok, why = validate_fibration(fib)
            bad = oracle_transition_failures(fib)
            assert ok == (not bad)
            if ok:
                lift_fibrations.append(fib)
            else:
                failing["fibration"] += 1
                assert why in {f"path independence fails between {x} and {y}" for x, y in bad}
        spaces = {(x, e): 1 for x in base.objects for e in two.elements}
        for fib in lift_fibrations:
            for _ in range(2):
                arrows = {
                    lift_arrow_id(a.name, e): Matrix.from_rows([[rng.choice([1, 1, 2])]])
                    for a in base.arrows
                    for e in two.elements
                }
                f = StokesFunctor(fib, spaces, arrows)
                ok, why = validate_functor(f)
                bad = oracle_lift_failures(f)
                assert ok == (not bad)
                if not ok:
                    failing["functor"] += 1
                    assert why in {f"lift path independence fails over {x}->{y} at {a}" for x, y, a in bad}
    assert min(failing.values()) >= 20


def test_split_fiber_identity_case():
    chain = FinPoset.chain(["a", "b"])
    fib = point_fibration(chain)
    f = StokesFunctor(
        fib,
        {("x", "a"): 1, ("x", "b"): 2},
        {cover_arrow_id("x", "a", "b"): Matrix.from_rows([[1], [0]])},
    )
    s = split_fiber(f, "x")
    assert s is not None and s.dims == {"a": 1, "b": 1}
    # theta must be natural: F(a<=b) theta_a = theta_b restricted to the a-block
    lhs = f.cover_matrix("x", "a", "b") @ s.theta["a"]
    rhs = s.theta["b"].submatrix([0, 1], [0])
    assert lhs.entries == rhs.entries


def test_split_fiber_zero_map_not_split():
    chain = FinPoset.chain(["a", "b"])
    fib = point_fibration(chain)
    f = StokesFunctor(
        fib,
        {("x", "a"): 1, ("x", "b"): 1},
        {cover_arrow_id("x", "a", "b"): Matrix.zeros(1, 1)},
    )
    assert split_fiber(f, "x") is None
    assert not is_punctually_split(f)


def test_split_fiber_antichain_always_split():
    anti = FinPoset.antichain(["a", "b", "c"])
    fib = point_fibration(anti)
    f = StokesFunctor(fib, {("x", "a"): 2, ("x", "b"): 0, ("x", "c"): 1}, {})
    s = split_fiber(f, "x")
    assert s is not None and s.dims == {"a": 2, "b": 0, "c": 1}


def test_split_fiber_verdict_matches_oracle_randomized():
    rng = random.Random(12)
    from helpers import canonical_posets

    posets = canonical_posets(3)
    for p in posets:
        for trial in range(6):
            dims = {a: rng.randint(0, 2) for a in p.elements}
            f = random_functor_with_dims(p, dims, rng, prefer_split=bool(trial % 2))
            assert validate_functor(f)[0]
            assert (split_fiber(f, "x") is not None) == oracle_split_verdict(f, "x")


def test_specialization_matrix_worked_example():
    """Arrow out of a two-element antichain into the chain a<b, identity tops."""
    space = two_value_circle()
    f = rank_one_one_functor(space)
    s = split_fiber(f, "p0")
    # pick the arrow into the arc whose linear extension matches the splitting
    # order (a, b): there the canonical comparison is the literal identity
    arrow = next(
        arr.name
        for arr in space.fibration.base.arrows
        if arr.source == "p0" and space.fibration.fiber(arr.target).linear_extension() == ("a", "b")
    )
    spec = specialization_matrix(f, arrow, s)
    m = spec["b"]
    assert m.entries == Matrix.identity(2).entries  # identity tops glue trivially
    assert oracle_is_invertible(mat_rows(m))
    assert is_cocartesian_at(f, arrow, s)
    # on the opposite arc the block orders differ, giving the swap matrix
    other = next(
        arr.name
        for arr in space.fibration.base.arrows
        if arr.source == "p0" and arr.name != arrow
    )
    swapped = specialization_matrix(f, other, s)["a"]
    assert sorted(map(tuple, swapped.to_lists())) == sorted(map(tuple, Matrix.identity(2).to_lists()))
    assert is_cocartesian_at(f, other, s)


def test_specialization_matrix_degenerate_lift():
    """Sending both tops through the first coordinate gives [[1,1],[0,0]]."""
    space = two_value_circle()
    f = rank_one_one_functor(space)
    # overwrite the maximal-element lift on arrow p0+ by the first-coordinate map
    arc = "s0"
    fib = space.fibration
    top = fib.fiber(arc).linear_extension()[-1]
    arrows = dict(f.arrows)
    arrows[lift_arrow_id("p0+", top)] = Matrix.from_rows([[1], [0]])
    f2 = StokesFunctor(fib, dict(f.spaces), arrows)
    assert validate_functor(f2)[0]
    s = split_fiber(f2, "p0")
    spec = specialization_matrix(f2, "p0+", s)
    assert spec[top].entries == Matrix.from_rows([[1, 1], [0, 0]]).entries
    assert is_cocartesian_at(f2, "p0+", s) is False
    assert not is_stokes(f2)
    ok, why = stokes_witness(f2)
    assert not ok and "singular specialization" in why


def test_cocartesian_not_applicable_when_source_not_split():
    base = make_circle_base(1)
    chain = FinPoset.chain(["a", "b"])
    ident = MonotoneMap(chain, chain, {"a": "a", "b": "b"})
    fib = StokesFibration(base, {"p0": chain, "s0": chain}, {"p0+": ident, "p0-": ident})
    spaces = {("p0", "a"): 1, ("p0", "b"): 1, ("s0", "a"): 1, ("s0", "b"): 1}
    zero = Matrix.zeros(1, 1)
    one = Matrix.identity(1)
    arrows = {
        cover_arrow_id("p0", "a", "b"): zero,
        cover_arrow_id("s0", "a", "b"): zero,
        lift_arrow_id("p0+", "a"): one,
        lift_arrow_id("p0+", "b"): one,
        lift_arrow_id("p0-", "a"): one,
        lift_arrow_id("p0-", "b"): one,
    }
    f = StokesFunctor(fib, spaces, arrows)
    assert validate_functor(f)[0]
    assert is_cocartesian_at(f, "p0+") is None
    assert not is_stokes(f)


def test_cocartesian_verdict_independent_of_splitting():
    rng = random.Random(77)
    space = two_value_circle()
    for trial in range(6):
        singular = "p1-" if trial % 2 else None
        f = random_standard_functor(space.fibration, {"a": 1, "b": 2}, rng, singular_at=singular)
        assert validate_functor(f)[0]
        verdicts = set()
        for seed in (1, 2, 3):
            s = random_splitting(f, "p1", random.Random(seed))
            assert s.sections != split_fiber(f, "p1").sections
            verdicts.add(is_cocartesian_at(f, "p1-", s))
        assert len(verdicts) == 1


def test_top_functor_and_split_global_graded_match_the_oracle():
    """top_functor, read as the induction onto the underlying set fibration, and
    the graded part of split_global equal the tops built by hand, on the
    fixtures and on conjugated standard functors over the two-, three- and
    four-value circles (those with one nonzero top are globally split)."""
    from stokeslib import top_functor
    from stokeslib.functors import punctual_splittings
    from helpers import four_value_circle, oracle_top_functor, three_value_circle

    rng = random.Random(41)
    two = two_value_circle()
    cases = [rank_one_one_functor(two), nonsplit_witness(two)]
    for cs in (two, three_value_circle(), four_value_circle()):
        names = cs.data.names
        for trial in range(4):
            if trial < 2:
                dims = {n: rng.choice([1, 2]) for n in names}
            else:
                dims = {n: 0 for n in names}
                dims[names[trial % len(names)]] = trial - 1
            cases.append(random_standard_functor(cs.fibration, dims, rng, conjugate=True))
    split = 0
    for f in cases:
        splittings = punctual_splittings(f)
        want = oracle_top_functor(f, splittings)
        assert top_functor(f, splittings) == want
        gs = split_global(f)
        if gs is not None:
            split += 1
            assert gs.graded == want
    assert split >= 7


def test_stokes_examples_and_split_global():
    space = two_value_circle()
    f = rank_one_one_functor(space)
    assert is_stokes(f)
    gs = split_global(f)
    assert gs is not None
    # the returned iso must be natural over every generating arrow
    fib = space.fibration
    for arr in fib.base.arrows:
        t = fib.transition(arr.name)
        for a in fib.fiber(arr.source).elements:
            v_lift = gs.graded.lift_matrix(arr.name, a)
            # induced map on ordered sums of tops over the down-sets
            src = fib.fiber(arr.source)
            tgt = fib.fiber(arr.target)
            lhs = f.lift_matrix(arr.name, a) @ gs.iso[(arr.source, a)]
            # build the set-level induced matrix blockwise
            order_s = [b for b in src.linear_extension() if src.le(b, a)]
            order_t = [b for b in tgt.linear_extension() if tgt.le(b, t(a))]
            cols = []
            for b in order_s:
                block = gs.graded.lift_matrix(arr.name, b)
                off = sum(gs.graded.dim(arr.target, c) for c in order_t[: order_t.index(t(b))])
                col = [[Fraction(0)] * block.cols for _ in range(sum(gs.graded.dim(arr.target, c) for c in order_t))]
                for i in range(block.rows):
                    for j in range(block.cols):
                        col[off + i][j] = block.at(i, j)
                cols.append(Matrix.from_rows(col) if col else Matrix(0, block.cols, ()))
            ind = cols[0]
            for c in cols[1:]:
                ind = ind.hstack(c)
            rhs = gs.iso[(arr.target, t(a))] @ ind
            assert lhs.entries == rhs.entries


def test_nonsplit_witness_is_stokes_but_not_split():
    space = two_value_circle()
    w = nonsplit_witness(space)
    assert validate_functor(w)[0]
    assert is_stokes(w)
    assert split_global(w) is None


def test_empty_fibration_all_verdicts_true():
    empty = FinPoset.antichain([])
    fib = point_fibration(empty)
    f = StokesFunctor(fib, {}, {})
    assert validate_functor(f)[0]
    assert is_stokes(f)
    assert split_global(f) is not None


# every poset on one to four elements, up to isomorphism
_SPLIT_POSETS = [p for n in (1, 2, 3, 4) for p in canonical_posets(n)]


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from(_SPLIT_POSETS),
    dims=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
    prefer_split=st.booleans(),
)
def test_split_fiber_radical_from_covers_matches_every_composite(p, dims, seed, prefer_split):
    """The radical at b spanned by the covers into b gives the same tops and
    sections as the one spanned by every composite F(c <= b), c < b."""
    f = random_functor_with_dims(p, dict(zip(p.elements, dims)), random.Random(seed), prefer_split=prefer_split)
    s = split_fiber(f, "x")
    want = oracle_split_sections(f, "x")
    assert (s is None) == (want is None)
    if s is not None:
        assert (s.dims, s.sections) == want


def _diamond_base_fibration() -> StokesFibration:
    """The diamond o < l, r < t as the base, every fiber a < c > b < d."""
    base = make_poset_base(FinPoset.from_relation("olrt", [("o", "l"), ("o", "r"), ("l", "t"), ("r", "t")]))
    fiber = FinPoset.from_relation("abcd", [("a", "c"), ("b", "c"), ("b", "d")])
    ident = MonotoneMap.identity(fiber)
    return StokesFibration(base, {x: fiber for x in base.objects}, {arr.name: ident for arr in base.arrows})


def test_fiber_tables_agree_with_cover_chains_and_the_old_splitting():
    """Random standard functors on the three- and four-value circles (ranks at
    most 2, conjugated or not) and on the diamond poset base: the table of one
    walk up each fiber is the composite of one cover chain at every pair a < b,
    and split_fiber gives the sections, theta and theta_inv of the comparison
    built from those composites."""
    from helpers import four_value_circle, oracle_fiber_matrix, oracle_split_fiber, three_value_circle

    rng = random.Random(19)
    cases = []
    for fib in (three_value_circle().fibration, four_value_circle().fibration, _diamond_base_fibration()):
        names = next(iter(fib.fibers.values())).elements
        for trial in range(4):
            dims = {n: rng.randint(1, 2) if trial < 2 else rng.randint(0, 2) for n in names}
            cases.append(random_standard_functor(fib, dims, rng, conjugate=trial % 2 == 1))
    for f in cases:
        assert validate_functor(f) == (True, "ok")
        for x in f.fibration.base.objects:
            fib = f.fibration.fiber(x)
            table, bad = f._walk(x)
            assert bad is None
            assert table == {(a, b): oracle_fiber_matrix(f, x, a, b) for a, b in fib.leq if a != b}
            s = split_fiber(f, x)
            assert (s.sections, s.theta, s.theta_inv) == oracle_split_fiber(f, x)


def test_validate_functor_messages_read_off_the_tables():
    """The witnesses of a diamond fiber whose two sides compose to 1 and 2, and
    of a lift that is not natural against a composite of two covers, are
    those that the cover-chain composites gave."""
    from helpers import diamond_base_functor

    diamond = FinPoset.from_relation("olrt", [("o", "l"), ("o", "r"), ("l", "t"), ("r", "t")])
    sides = {("r", "t"): 2}  # the r-side composes to 2, the l-side to 1
    arrows = {cover_arrow_id("x", a, b): Matrix.from_rows([[sides.get((a, b), 1)]]) for a, b in diamond.covers()}
    f = StokesFunctor(point_fibration(diamond), {("x", e): 1 for e in diamond.elements}, arrows)
    assert validate_functor(f) == (False, "fiber functoriality fails between o and t at x")
    f = diamond_base_functor()
    arrows = {**f.arrows, lift_arrow_id("o<l", "v"): Matrix.from_rows([[0, 1], [1, 0]])}
    assert validate_functor(StokesFunctor(f.fibration, f.spaces, arrows)) == (
        False,
        "lift naturality fails for o<l at cover u<v",
    )
    # a lift from the chain a < b onto u < v < w sends a to u and b to w: F(u <= w) is two covers
    base = make_poset_base(FinPoset.chain(["x", "y"]))
    stretch = MonotoneMap(FinPoset.chain("ab"), FinPoset.chain("uvw"), {"a": "u", "b": "w"})
    fib = StokesFibration(base, {"x": stretch.source, "y": stretch.target}, {"x<y": stretch})
    one = Matrix.from_rows([[1]])
    arrows = {cover_arrow_id("x", "a", "b"): one, cover_arrow_id("y", "u", "v"): one}
    arrows.update({cover_arrow_id("y", "v", "w"): one, lift_arrow_id("x<y", "a"): one, lift_arrow_id("x<y", "b"): one})
    spaces = {(x, e): 1 for x in "xy" for e in fib.fiber(x).elements}
    assert validate_functor(StokesFunctor(fib, spaces, arrows)) == (True, "ok")
    arrows[cover_arrow_id("y", "v", "w")] = Matrix.from_rows([[2]])
    assert validate_functor(StokesFunctor(fib, spaces, arrows)) == (False, "lift naturality fails for x<y at cover a<b")


def test_fiber_matrix_refuses_a_pair_whose_cover_paths_disagree():
    """On the diamond fiber whose two sides compose to 1 and 2, F(o <= t) has
    no value: fiber_matrix names the pair as validate_functor does."""
    import pytest

    diamond = FinPoset.from_relation("olrt", [("o", "l"), ("o", "r"), ("l", "t"), ("r", "t")])
    arrows = {cover_arrow_id("x", a, b): Matrix.from_rows([[2 if (a, b) == ("r", "t") else 1]]) for a, b in diamond.covers()}
    f = StokesFunctor(point_fibration(diamond), {("x", e): 1 for e in diamond.elements}, arrows)
    assert f.fiber_matrix("x", "o", "l") == Matrix.from_rows([[1]])
    assert f.fiber_matrix("x", "t", "t") == Matrix.identity(1)
    with pytest.raises(ValueError, match="^fiber functoriality fails between o and t at x$"):
        f.fiber_matrix("x", "o", "t")
    for a, b in (("t", "o"), ("l", "r")):
        with pytest.raises(ValueError, match=f"^no cover chain from {a} up to {b}$"):
            f.fiber_matrix("x", a, b)


def test_a_functor_keeps_the_values_it_was_built_with():
    """Dicts that the caller edits after building a functor leave its values,
    its walks, its equality and its repr as they were."""
    fib = point_fibration(FinPoset.chain(["a", "b"]))
    one, aid = Matrix.from_rows([[1]]), cover_arrow_id("x", "a", "b")
    spaces, arrows = {("x", "a"): 1, ("x", "b"): 1}, {aid: one}
    f = StokesFunctor(fib, spaces, arrows)
    spaces[("x", "a")] = 2
    arrows[aid] = Matrix.from_rows([[2]])
    same = StokesFunctor(fib, {("x", "a"): 1, ("x", "b"): 1}, {aid: one})
    assert (f.spaces, f.arrows) == (same.spaces, same.arrows)
    assert validate_functor(f) == (True, "ok")
    assert f.fiber_matrix("x", "a", "b") == one
    assert f == same and repr(f) == repr(same)


def test_a_functor_refuses_edits_to_its_dicts():
    """On a fiber chain a < b < c with both covers [1], an edit of the cover
    b < c after the composite a <= c was read would leave the kept walk
    stale: every edit of spaces or arrows raises TypeError instead, and the
    functor keeps its values, its walk and its verdicts."""
    import pytest

    chain = FinPoset.chain(["a", "b", "c"])
    one, zero = Matrix.from_rows([[1]]), Matrix.from_rows([[0]])
    ab, bc = cover_arrow_id("x", "a", "b"), cover_arrow_id("x", "b", "c")
    f = StokesFunctor(point_fibration(chain), {("x", e): 1 for e in "abc"}, {ab: one, bc: one})
    assert f.fiber_matrix("x", "a", "c") == one
    with pytest.raises(TypeError):
        f.arrows[bc] = zero
    with pytest.raises(TypeError):
        del f.spaces[("x", "a")]
    with pytest.raises(TypeError):
        f.spaces |= {("x", "a"): 2}
    edits = [
        lambda: f.arrows.update({bc: zero}),
        lambda: f.arrows.setdefault(bc, zero),
        lambda: f.arrows.pop(bc),
        lambda: f.arrows.popitem(),
        lambda: f.spaces.clear(),
    ]
    for edit in edits:
        with pytest.raises(TypeError):
            edit()
    assert f.cover_matrix("x", "b", "c") == f.fiber_matrix("x", "a", "c") == one
    assert validate_functor(f) == (True, "ok")
    assert f == StokesFunctor(f.fibration, {("x", e): 1 for e in "abc"}, {ab: one, bc: one})


def test_morphism_matrix_composes_lifts_along_a_path_and_then_the_fiber():
    """On every nonidentity total morphism, the value is the lifts along the
    first cover path of the base (or the circle arrow crossed) composed by
    hand, then one cover chain of the target fiber."""
    from stokeslib import TotalCategory

    from helpers import three_value_circle

    rng = random.Random(0)
    cases = [
        conjugate_functor(diamond_base_functor(), rng),
        random_standard_functor(three_value_circle().fibration, dict(zip("uvw", (2, 1, 2))), rng, conjugate=True),
    ]
    for f in cases:
        fib = f.fibration
        for tm in TotalCategory.of(fib).nonidentity():
            (x, a), (y, c) = tm.source, tm.target
            if fib.base.kind == "circle":
                path = [tm.arrow] if tm.arrow else []
            else:
                path = oracle_hasse_paths(fib.base.poset, x, y)[0]
            want = Matrix.identity(f.dim(x, a))
            for g in path:
                want = f.lift_matrix(g, a) @ want
                a = fib.transition(g)(a)
            assert f.morphism_matrix(tm) == oracle_fiber_matrix(f, y, a, c) @ want, tm
