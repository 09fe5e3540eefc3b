import pytest
from hypothesis import given
from hypothesis import strategies as st

from stokeslib import (
    FinPoset,
    MonotoneMap,
    down_set,
    graded_poset,
    is_level_morphism,
    underlying_set,
    validate_poset,
)


def test_validate_chain():
    ok, msg = validate_poset(FinPoset.chain(["a", "b", "c"]))
    assert ok, msg


def test_validate_antisymmetry_violation():
    bad = FinPoset(("a", "b"), frozenset({("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}))
    ok, msg = validate_poset(bad)
    assert not ok and "antisymmetry" in msg


def test_validate_transitivity_violation():
    bad = FinPoset(
        ("a", "b", "c"),
        frozenset({("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")}),
    )
    ok, msg = validate_poset(bad)
    assert not ok and "transitivity" in msg


def test_validate_reflexivity_violation():
    bad = FinPoset(("a",), frozenset())
    ok, msg = validate_poset(bad)
    assert not ok and "reflexivity" in msg


def test_covers_are_a_new_list_on_every_call():
    diamond = FinPoset.from_relation(["o", "l", "r", "t"], [("o", "l"), ("o", "r"), ("l", "t"), ("r", "t")])
    first = diamond.covers()
    first.append(("t", "o"))
    first.remove(("o", "l"))
    assert diamond.covers() == [("o", "l"), ("o", "r"), ("l", "t"), ("r", "t")]
    assert diamond == FinPoset.from_relation(diamond.elements, diamond.leq)


def test_path_composites_table_and_first_conflict():
    """One walk gives the composite of every pair a < b along the first cover
    into b, and stops at the first pair whose cover paths disagree."""
    diamond = FinPoset.from_relation(["o", "l", "r", "t"], [("o", "l"), ("o", "r"), ("l", "t"), ("r", "t")])

    def ends(u, v, m):
        return (u, v) if m is None else (m[0], v)

    def path(u, v, m):
        return (u, v) if m is None else m + (v,)

    table, bad = diamond.path_composites(ends)
    assert bad is None
    assert table == {pair: pair for pair in diamond.leq if pair[0] != pair[1]}
    table, bad = diamond.path_composites(path)
    assert bad == ("o", "t", ("o", "l", "t"), ("o", "r", "t"))
    assert table == {("o", "l"): ("o", "l"), ("o", "r"): ("o", "r")}


def test_down_sets():
    chain = FinPoset.chain(["a", "b", "c"])
    assert down_set(chain, "c") == {"a", "b", "c"}
    assert down_set(chain, "c", strict=True) == {"a", "b"}
    anti = FinPoset.antichain(["a", "b"])
    assert down_set(anti, "a") == {"a"}
    with pytest.raises(KeyError):
        down_set(chain, "zz")


def test_covers_and_linear_extension():
    p = FinPoset.from_relation(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    assert set(p.covers()) == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}
    ext = p.linear_extension()
    assert ext[0] == "a" and ext[-1] == "d"
    assert p.height() == 2


def test_level_morphism_examples():
    chain = FinPoset.chain(["a", "b"])
    assert is_level_morphism(MonotoneMap.identity(chain))
    # antichain onto a chain: x < y in the image without a < b upstairs
    anti = FinPoset.antichain(["a", "b"])
    xy = FinPoset.chain(["x", "y"])
    f = MonotoneMap(anti, xy, {"a": "x", "b": "y"})
    assert f.is_valid()
    assert not is_level_morphism(f)
    # map to the terminal poset is always a level morphism
    pt = FinPoset.antichain(["*"])
    g = MonotoneMap(chain, pt, {"a": "*", "b": "*"})
    assert is_level_morphism(g)
    # non-surjective maps are not level morphisms
    h = MonotoneMap(chain, xy, {"a": "x", "b": "x"})
    assert not is_level_morphism(h)


def test_graded_poset_formula():
    chain = FinPoset.chain(["a", "b"])
    ident = graded_poset(MonotoneMap.identity(chain))
    assert not ident.le("a", "b")  # identity grading discretizes a chain
    chain3 = FinPoset.chain(["a", "b", "c"])
    xy = FinPoset.chain(["x", "y"])
    f = MonotoneMap(chain3, xy, {"a": "x", "b": "x", "c": "y"})
    g = graded_poset(f)
    assert g.le("a", "b") and not g.le("b", "c") and not g.le("a", "c")
    # map to a point keeps the full order
    pt = FinPoset.antichain(["*"])
    h = MonotoneMap(chain3, pt, {e: "*" for e in chain3.elements})
    assert graded_poset(h).leq == chain3.leq


def test_graded_order_contained_in_source_order():
    chain3 = FinPoset.chain(["a", "b", "c"])
    xy = FinPoset.chain(["x", "y"])
    f = MonotoneMap(chain3, xy, {"a": "x", "b": "x", "c": "y"})
    g = graded_poset(f)
    assert g.elements == chain3.elements
    assert g.leq <= chain3.leq


def test_underlying_set():
    chain = FinPoset.chain(["a", "b"])
    u = underlying_set(chain)
    assert not u.le("a", "b")
    assert underlying_set(u).leq == u.leq  # idempotent
    empty = FinPoset.antichain([])
    assert underlying_set(empty).elements == ()


def test_level_morphism_graded_components_stay_in_fibers():
    import random

    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from helpers import random_level_setup

    rng = random.Random(31)
    for _ in range(20):
        I, J, assign = random_level_setup(rng)
        f = MonotoneMap(I, J, assign)
        assert is_level_morphism(f)
        g = graded_poset(f)
        # comparability components of the graded poset sit inside single fibers
        for a in g.elements:
            for b in g.elements:
                if a != b and (g.le(a, b) or g.le(b, a)):
                    assert assign[a] == assign[b]


def test_monotone_validity_and_iso():
    chain = FinPoset.chain(["a", "b"])
    anti = FinPoset.antichain(["x", "y"])
    bad = MonotoneMap(chain, anti, {"a": "x", "b": "y"})
    assert not bad.is_valid()  # a <= b but images incomparable
    flip = MonotoneMap(anti, anti, {"x": "y", "y": "x"})
    assert flip.is_poset_isomorphism()
    assert flip.inverse().assignment == {"y": "x", "x": "y"}


names = st.sampled_from(["a", "b", "c", "d", "e", "f"])


@given(st.lists(names, unique=True, max_size=5), st.lists(st.tuples(names, names), max_size=12))
def test_from_relation_matches_the_fixpoint_oracle(elements, pairs):
    """One Warshall pass gives the fixpoint closure, cycles and elements that
    only the pairs mention included."""
    from helpers import oracle_from_relation

    p = FinPoset.from_relation(elements, pairs)
    assert p.elements == tuple(elements)
    assert p.leq == oracle_from_relation(elements, pairs)
