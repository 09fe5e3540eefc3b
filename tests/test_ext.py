import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from stokeslib import (
    FinPoset,
    Matrix,
    MonotoneMap,
    StokesFibration,
    StokesFunctor,
    cover_arrow_id,
    ext_dims,
    hom_complex,
    lift_arrow_id,
    make_circle_base,
    make_poset_base,
    natural_transformation_basis,
    tangent_dims,
)
from stokeslib.exactmath import block_diag
from stokeslib.fixtures import rank_one_one_functor, two_value_circle
from stokeslib.functors import generating_arrow_shapes

from helpers import (
    diamond_base_functor,
    mat_rows,
    oracle_centralizer_dim,
    oracle_cohomology_dims,
    oracle_hom_complex,
    oracle_matmul,
    random_functor_with_dims,
    random_invertible,
    random_standard_functor,
    three_value_circle,
)


def checked_complex(f: StokesFunctor, g: StokesFunctor):
    """hom_complex(f, g), checked against the dense nerve oracle and Nat(f, g):
    the same cohomology, list and length, the same Euler characteristic, and
    differentials that compose to zero."""
    hc = hom_complex(f, g)
    dims, diffs = oracle_hom_complex(f, g)
    assert len(hc.dims) == len(dims)
    assert [(d.rows, d.cols) for d in hc.differentials] == list(zip(hc.dims[1:], hc.dims))
    for d0, d1 in zip(hc.differentials, hc.differentials[1:]):
        assert (d1 @ d0).is_zero()
    for sparse in hc.rows:
        assert list(sparse) == sorted(sparse)
        assert all(row and all(row.values()) for row in sparse.values())
    expected = oracle_cohomology_dims(dims, diffs)
    assert hc.cohomology_dims() == expected
    assert hc.euler_characteristic() == sum((-1) ** i * d for i, d in enumerate(dims))
    assert expected[0] == len(natural_transformation_basis(f, g))
    return hc


def local_system(n_points: int, monodromies: list[Matrix]) -> StokesFunctor:
    """Rank-r local system on CircleBase(n): one matrix per clockwise arrow."""
    base = make_circle_base(n_points)
    one = FinPoset.antichain(["v"])
    ident = MonotoneMap(one, one, {"v": "v"})
    fib = StokesFibration(
        base,
        {x: one for x in base.objects},
        {a.name: ident for a in base.arrows},
    )
    r = monodromies[0].rows
    spaces = {(x, "v"): r for x in base.objects}
    arrows = {}
    for i in range(n_points):
        arrows[lift_arrow_id(f"p{i}+", "v")] = Matrix.identity(r)
        arrows[lift_arrow_id(f"p{i}-", "v")] = monodromies[i % len(monodromies)]
    return StokesFunctor(fib, spaces, arrows)


def test_one_point_one_fiber():
    base = make_poset_base(FinPoset.antichain(["x"]))
    one = FinPoset.antichain(["a"])
    fib = StokesFibration(base, {"x": one}, {})
    f = StokesFunctor(fib, {("x", "a"): 1}, {})
    hc = checked_complex(f, f)
    assert hc.dims == [1]
    assert hc.cohomology_dims() == [1]


def test_trivial_rank_one_circle():
    f = local_system(1, [Matrix.identity(1)])
    hc = checked_complex(f, f)
    # P_p0 covers F; its kernel at s0 is p0+ minus p0-, so P_1 = P_s0
    assert hc.dims == [1, 1]
    assert hc.cohomology_dims() == [1, 1]
    assert hc.euler_characteristic() == 0


def test_chain_fiber_induced_from_bottom():
    base = make_poset_base(FinPoset.antichain(["x"]))
    chain = FinPoset.chain(["a", "b"])
    fib = StokesFibration(base, {"x": chain}, {})
    f = StokesFunctor(
        fib,
        {("x", "a"): 1, ("x", "b"): 1},
        {cover_arrow_id("x", "a", "b"): Matrix.identity(1)},
    )
    hc = checked_complex(f, f)
    # F is the representable P_a, its own resolution; the zero term pads to the nerve's length
    assert hc.dims == [1, 0]
    # End of a projective object: H^0 = 1, H^1 = 0
    assert hc.cohomology_dims() == [1, 0]


def test_differential_squares_to_zero():
    rng = random.Random(21)
    space = two_value_circle()
    for _ in range(4):
        f = random_standard_functor(space.fibration, {"a": rng.randint(1, 2), "b": 1}, rng)
        g = random_standard_functor(space.fibration, {"a": 1, "b": rng.randint(1, 2)}, rng)
        hc = checked_complex(f, g)
        for d0, d1 in zip(hc.differentials, hc.differentials[1:]):
            assert (d1 @ d0).is_zero()


def test_long_chain_complex_squares_to_zero_and_is_projectively_acyclic():
    base = make_poset_base(FinPoset.antichain(["x"]))
    c4 = FinPoset.chain(["a", "b", "c", "d"])
    fib = StokesFibration(base, {"x": c4}, {})
    f = StokesFunctor(
        fib,
        {("x", "a"): 1, ("x", "b"): 2, ("x", "c"): 2, ("x", "d"): 3},
        {
            cover_arrow_id("x", "a", "b"): Matrix.from_rows([[1], [1]]),
            cover_arrow_id("x", "b", "c"): Matrix.identity(2),
            cover_arrow_id("x", "c", "d"): Matrix.from_rows([[1, 0], [0, 1], [0, 0]]),
        },
    )
    hc = checked_complex(f, f)
    assert len(hc.dims) == 4  # chains up to length 3
    for d0, d1 in zip(hc.differentials, hc.differentials[1:]):
        assert (d1 @ d0).is_zero()
    # split functor over a one-point base: endomorphisms only, higher Ext vanish
    assert hc.cohomology_dims() == [6, 0, 0, 0]


def test_diamond_base_complex_and_composition_normalization(monkeypatch):
    f = diamond_base_functor()
    hc = checked_complex(f, f)
    for d0, d1 in zip(hc.differentials, hc.differentials[1:]):
        assert (d1 @ d0).is_zero()
    # constant functor over a contractible base: H^0 only
    assert hc.cohomology_dims() == [3, 0, 0, 0]
    # composition reads no cover path: a morphism is its two ends
    from stokeslib import TotalCategory

    total = TotalCategory.of(f.fibration)

    def no_covers(self):
        raise AssertionError("composition walked the covers")

    monkeypatch.setattr(FinPoset, "covers", no_covers)
    ends = {(m.source, m.target) for m in total.morphisms}
    pairs = [(m1, m2) for m1 in total.morphisms for m2 in total.morphisms if m1.target == m2.source]
    assert pairs
    for m1, m2 in pairs:
        m = total.compose(m1, m2)
        assert (m.source, m.target) == (m1.source, m2.target) and m.arrow is None
        assert (m.source, m.target) in ends


def test_nondegenerate_chains_of_a_four_element_chain():
    from stokeslib import TotalCategory, nondegenerate_chains

    base = make_poset_base(FinPoset.antichain(["x"]))
    c4 = FinPoset.chain(["a", "b", "c", "d"])
    fib = StokesFibration(base, {"x": c4}, {})
    total = TotalCategory.of(fib)
    full = nondegenerate_chains(total)
    assert max(full.keys()) == 3
    assert len(full[3]) == 1  # the unique cover chain a<b<c<d


def test_rank_one_any_monodromy():
    for lam in (1, 2, -3):
        f = local_system(2, [Matrix.from_rows([[lam]]), Matrix.identity(1)])
        dims = ext_dims(f, f)
        assert dims == checked_complex(f, f).cohomology_dims()
        assert dims[0] == 1 and dims[1] == 1
        assert sum((-1) ** i * d for i, d in enumerate(dims)) == 0


def test_rank_two_diagonal_monodromy():
    m = Matrix.from_rows([[1, 0], [0, 2]])
    f = local_system(1, [m])
    dims = ext_dims(f, f)
    assert dims == checked_complex(f, f).cohomology_dims()
    assert dims[0] == 2 and dims[1] == 2
    # independent check: centralizer dimension of the monodromy
    assert dims[0] == oracle_centralizer_dim([[1, 0], [0, 2]])


def test_ext_zero_functor():
    f = local_system(1, [Matrix.identity(1)])
    zero = StokesFunctor(
        f.fibration,
        {k: 0 for k in f.spaces},
        {aid: Matrix.zeros(0, 0) for aid in f.arrows},
    )
    assert all(d == 0 for d in ext_dims(zero, zero))
    assert checked_complex(zero, zero).dims == [0, 0]


def test_ext_zero_against_nat_basis():
    rng = random.Random(5)
    for n in (1, 2):
        m = random_invertible(2, rng)
        f = local_system(n, [m, Matrix.identity(2)])
        dims = ext_dims(f, f)
        assert dims == checked_complex(f, f).cohomology_dims()
        assert dims[0] == len(natural_transformation_basis(f, f))
        assert sum((-1) ** i * d for i, d in enumerate(dims)) == 0


def test_tangent_dims_are_shifted_ext():
    space = two_value_circle()
    f = rank_one_one_functor(space)
    assert tangent_dims(f) == ext_dims(f, f)


def test_sparse_complex_matches_dense_oracle_on_random_pairs():
    rng = random.Random(8)
    space = two_value_circle()
    for _ in range(6):
        dims_f = {"a": rng.randint(1, 2), "b": rng.randint(1, 2)}
        dims_g = {"a": rng.randint(1, 2), "b": rng.randint(1, 2)}
        f = random_standard_functor(space.fibration, dims_f, rng, conjugate=True)
        g = random_standard_functor(space.fibration, dims_g, rng, conjugate=True)
        checked_complex(f, g)
        checked_complex(g, f)
        checked_complex(f, f)


def test_differentials_densify_on_each_read():
    f = local_system(1, [Matrix.from_rows([[1, 0], [0, 2]])])
    hc = hom_complex(f, f)
    first, second = hc.differentials, hc.differentials
    assert first == second and first is not second
    assert [(d.rows, d.cols) for d in first] == [(hc.dims[1], hc.dims[0])]


def test_hom_complex_reads_each_morphism_once_per_functor(monkeypatch):
    """At most one structure matrix per nonidentity total morphism per distinct
    functor, for a self pair and a mixed pair on the three-value circle."""
    from stokeslib import TotalCategory
    from helpers import three_value_circle

    fib = three_value_circle().fibration
    f = random_standard_functor(fib, {"u": 1, "v": 1, "w": 1}, random.Random(3))
    g = random_standard_functor(fib, {"u": 1, "v": 2, "w": 1}, random.Random(4))
    nonidentity = set(TotalCategory.of(fib).nonidentity())
    calls = []
    original = StokesFunctor.morphism_matrix

    def counted(self, tm):
        calls.append((id(self), tm))
        return original(self, tm)

    monkeypatch.setattr(StokesFunctor, "morphism_matrix", counted)
    for a, b in ((f, f), (f, g)):
        calls.clear()
        hom_complex(a, b)
        assert calls
        assert len(calls) == len(set(calls))
        assert {key for _, key in calls} <= nonidentity
        assert {who for who, _ in calls} <= {id(a), id(b)}


_DIAMOND = FinPoset.from_relation(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


@functools.cache
def _three_value_fibration():
    return three_value_circle().fibration


def _direct_sum(f: StokesFunctor, h: StokesFunctor) -> StokesFunctor:
    spaces = {k: f.spaces[k] + h.spaces[k] for k in f.spaces}
    return StokesFunctor(f.fibration, spaces, {k: block_diag([f.arrows[k], h.arrows[k]]) for k in f.arrows})


@settings(max_examples=24, deadline=None)
@given(
    on_circle=st.booleans(),
    dims_f=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    dims_g=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    summand_first=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_natural_transformations_of_mixed_pairs_match_the_oracles(on_circle, dims_f, dims_g, summand_first, seed):
    """Pairs (f, g) with different dimension vectors on one fibration: every
    basis element is natural by the schoolbook product, and the basis has
    the size of Ext^0 of the dense complex.

    On the three-value circle, random gluings leave no maps between two
    unrelated functors, so the pair is f and f plus one rank-one summand,
    in either order; ranks stay at most 2 to keep the dense oracle small.
    """
    rng = random.Random(seed)
    if on_circle:
        fib = _three_value_fibration()
        f = random_standard_functor(fib, {v: min(d, 1) for v, d in zip("uvw", dims_f)}, rng, conjugate=True)
        extra = "uvw"[dims_g[0] % 3]
        h = random_standard_functor(fib, {v: int(v == extra) for v in "uvw"}, rng, conjugate=True)
        g = _direct_sum(f, h)
        if summand_first:
            f, g = g, f
    else:
        f, g = (random_functor_with_dims(_DIAMOND, dict(zip("abcd", d)), rng) for d in (dims_f, dims_g))
    basis = natural_transformation_basis(f, g)
    for eta in basis:
        for arrow_id, (tgt, src) in generating_arrow_shapes(f.fibration).items():
            fm, gm = f.arrows[arrow_id], g.arrows[arrow_id]
            left = oracle_matmul(mat_rows(eta[tgt]), mat_rows(fm), fm.cols)
            right = oracle_matmul(mat_rows(gm), mat_rows(eta[src]), f.spaces[src])
            assert left == right, arrow_id
    assert len(basis) == oracle_cohomology_dims(*oracle_hom_complex(f, g))[0]


def test_ext_dims_equal_the_nerve_oracle_on_circle_pairs():
    """Conjugated pairs on the three-value circle, ranks at most 2, mixed and
    self, and the Kronecker module on the one-point circle, whose arrows p0+
    and p0- both run p0 -> s0 (lifts [1] and [2]): the same list, of the same
    length, as the nerve complex."""
    from stokeslib import ExponentialData, IrregularValue, build_circle_space

    rng = random.Random(0)
    fib = _three_value_fibration()
    pairs = []
    for dims_f, dims_g in (((2, 0, 1), (1, 1, 0)), ((1, 1, 0), (0, 1, 1)), ((1, 0, 1), None)):
        f = random_standard_functor(fib, dict(zip("uvw", dims_f)), rng, conjugate=True)
        g = f if dims_g is None else random_standard_functor(fib, dict(zip("uvw", dims_g)), rng, conjugate=True)
        pairs.append((f, g))
    one_point = build_circle_space(ExponentialData({"a": IrregularValue.zero()})).fibration
    lifts = {lift_arrow_id("p0+", "a"): Matrix.from_rows([[1]]), lift_arrow_id("p0-", "a"): Matrix.from_rows([[2]])}
    kronecker = StokesFunctor(one_point, {("p0", "a"): 1, ("s0", "a"): 1}, lifts)
    pairs.append((kronecker, kronecker))
    for f, g in pairs:
        assert ext_dims(f, g) == oracle_cohomology_dims(*oracle_hom_complex(f, g))
    assert ext_dims(kronecker, kronecker) == [1, 1]


def _diamond_thin(support: str) -> StokesFunctor:
    """Q on each element of a convex support, identities between them, 0 elsewhere."""
    base = make_poset_base(FinPoset.antichain(["x"]))
    fib = StokesFibration(base, {"x": _DIAMOND}, {})
    dims = {a: int(a in support) for a in _DIAMOND.elements}
    arrows = {
        cover_arrow_id("x", a, b): Matrix.identity(1) if dims[a] and dims[b] else Matrix.zeros(dims[b], dims[a])
        for a, b in _DIAMOND.covers()
    }
    return StokesFunctor(fib, {("x", a): d for a, d in dims.items()}, arrows)


def test_ext_dims_equal_the_nerve_oracle_on_diamond_pairs():
    """The simple functor at the bottom of the diamond a < b, c < d has the
    minimal resolution P_d -> P_b + P_c -> P_a, so Ext^2 to the simple at the
    top is 1; random pairs on the diamond reach Ext^2 too."""
    bottom, top = _diamond_thin("a"), _diamond_thin("d")
    assert ext_dims(bottom, top) == oracle_cohomology_dims(*oracle_hom_complex(bottom, top)) == [0, 0, 1]
    assert hom_complex(bottom, _diamond_thin("abcd")).dims == [1, 2, 1]
    rng = random.Random(3)
    second = 0
    for _ in range(12):
        f, g = (random_functor_with_dims(_DIAMOND, {a: rng.randint(0, 2) for a in "abcd"}, rng) for _ in range(2))
        dims = ext_dims(f, g)
        assert dims == oracle_cohomology_dims(*oracle_hom_complex(f, g))
        second += dims[2] > 0
    assert second


def test_ext_dims_of_a_mixed_circle_pair_survive_subdivision():
    """Subdividing an arc of both functors leaves Ext, and its length, as the
    nerve oracle gives it before the subdivision."""
    from helpers import subdivide_arc, subdivide_functor

    rng = random.Random(11)
    fib = two_value_circle().fibration
    f = random_standard_functor(fib, {"a": 2, "b": 1}, rng, conjugate=True)
    g = random_standard_functor(fib, {"a": 1, "b": 2}, rng, conjugate=True)
    expected = oracle_cohomology_dims(*oracle_hom_complex(f, g))
    for arc in range(fib.base.n):
        fib2, _ = subdivide_arc(fib, arc)
        assert ext_dims(subdivide_functor(f, fib2, arc), subdivide_functor(g, fib2, arc)) == expected
        assert ext_dims(subdivide_functor(f, fib2, arc), subdivide_functor(f, fib2, arc)) == ext_dims(f, f)


def test_four_value_rank_two_self_ext_is_pinned():
    """The values {0, 1/z, i/z, 1/z^2}, every rank 2, conjugated: Ext^1 = 73,
    and the nerve's length 5 is kept."""
    from helpers import four_value_circle

    fib = four_value_circle().fibration
    f = random_standard_functor(fib, dict.fromkeys("abcd", 2), random.Random(0), conjugate=True)
    assert ext_dims(f, f) == [1, 73, 0, 0, 0]
