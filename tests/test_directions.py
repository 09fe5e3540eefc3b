import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokeslib import (
    ExactAngle,
    GaussianRational,
    StokesDirection,
    compare_angles,
    compare_directions,
    cyclically_between,
    pair_sign_at,
    rational_angle_between,
    sort_angles,
)
from stokeslib import directions
from stokeslib.directions import angle_iv, as_exact, locate_angle, sorted_directions

from helpers import oracle_pair_sign, oracle_theta

G = GaussianRational.of
ONE = G(1)
I_UNIT = G(0, 1)


def test_componentwise_equal_is_eq():
    d = StokesDirection(G(3, 5), 2, 1)
    assert compare_directions(d, d) == "EQ"


def test_spec_comparisons():
    # (c=1, m=1, k=0): 3*pi/2 vs (c=1, m=1, k=1): pi/2
    assert compare_directions(StokesDirection(ONE, 1, 0), StokesDirection(ONE, 1, 1)) == "GT"
    # (c=i, m=1, k=0): 0 vs pi/2
    assert compare_directions(StokesDirection(I_UNIT, 1, 0), StokesDirection(ONE, 1, 1)) == "LT"


def test_real_positive_m1_angles():
    # c real positive, m = 1: theta in {pi/2, 3pi/2} according to k
    assert as_exact(StokesDirection(G(7), 1, 1)) == ExactAngle(Fraction(1, 2))
    assert as_exact(StokesDirection(G(7), 1, 0)) == ExactAngle(Fraction(3, 2))


def test_equality_across_scalings():
    # same argument, different modulus: equal directions
    assert compare_directions(StokesDirection(G(1, 2), 1, 0), StokesDirection(G(2, 4), 1, 0)) == "EQ"
    assert compare_directions(StokesDirection(G(1, 2), 1, 0), StokesDirection(G(1, 2), 1, 1)) != "EQ"


def test_equality_across_orders():
    # theta(c, m, k) with doubled m and matching k: (arg - pi/2 + k pi)/m
    # pick c so both represent pi/4: exact diagonals
    d1 = StokesDirection(G(1, 1), 1, 0)  # (pi/4 - pi/2)/1 = -pi/4 -> 7pi/4
    assert as_exact(d1) == ExactAngle(Fraction(7, 4))
    # m=2: need arg(c) - pi/2 + k pi = 2 * (7pi/4) - 4pi*j  => arg = 7pi/2 + pi/2 - k pi mod ...
    d2 = StokesDirection(G(0, -1), 2, 3)  # arg = 3pi/2: (3pi/2 - pi/2 + 3pi)/2 = 2pi + 0? -> (pi + 3pi)/2 = 2pi -> 0
    assert as_exact(d2) == ExactAngle(Fraction(0))


def test_total_order_properties_mixed():
    rng = random.Random(5)
    pts = [
        StokesDirection(G(1, 2), 1, 0),
        StokesDirection(G(1, 2), 1, 1),
        StokesDirection(G(-2, 3), 2, 1),
        StokesDirection(G(5, -1), 3, 4),
        ExactAngle(Fraction(0)),
        ExactAngle(Fraction(5, 4)),
        StokesDirection(ONE, 1, 0),
        StokesDirection(I_UNIT, 2, 2),
    ]
    for a in pts:
        assert compare_angles(a, a) == 0
        for b in pts:
            assert compare_angles(a, b) == -compare_angles(b, a)
            for c in pts:
                if compare_angles(a, b) <= 0 and compare_angles(b, c) <= 0:
                    assert compare_angles(a, c) <= 0


def test_eq_iff_w_on_axis_with_congruence_against_high_precision():
    # the algebraic equality test must agree with 300-digit evaluation
    rng = random.Random(9)
    samples = []
    for _ in range(60):
        c = G(rng.randint(-3, 3), rng.randint(-3, 3))
        if c.is_zero():
            continue
        m = rng.randint(1, 3)
        samples.append(StokesDirection(c, m, rng.randint(0, 2 * m - 1)))

    def numeric(d):
        with mpmath.workdps(300):
            arg = mpmath.atan2(float(d.c.im) if False else mpmath.mpf(d.c.im.numerator) / d.c.im.denominator,
                               mpmath.mpf(d.c.re.numerator) / d.c.re.denominator)
            if arg < 0:
                arg += 2 * mpmath.pi
            th = (arg - mpmath.pi / 2 + d.k * mpmath.pi) / d.m
            return mpmath.nstr(th % (2 * mpmath.pi), 60)

    for a in samples[:25]:
        for b in samples[:25]:
            verdict = compare_directions(a, b)
            na, nb = numeric(a), numeric(b)
            if verdict == "EQ":
                assert na == nb
            else:
                assert na != nb
                assert (verdict == "LT") == (mpmath.mpf(na) < mpmath.mpf(nb))


def test_constructed_equalities_across_doubled_order():
    # theta(c, m, k) = theta(-i*c^2, 2m, 2k) identically: doubling the angle
    # formula squares the coefficient and shifts the quarter turn; any other
    # residue k' != 2k must compare unequal
    rng = random.Random(3)
    for _ in range(20):
        c = G(rng.randint(-4, 4), rng.randint(-4, 4))
        if c.is_zero() or as_exact(StokesDirection(c, 1, 0)) is not None:
            continue
        m = rng.randint(1, 3)
        k = rng.randint(0, 2 * m - 1)
        d1 = StokesDirection(c, m, k)
        c2 = G(0, -1) * c * c
        equal_at = [
            kk for kk in range(4 * m)
            if compare_directions(d1, StokesDirection(c2, 2 * m, kk)) == "EQ"
        ]
        # exactly one residue coincides, and only an even shift of 2k can:
        # wraps of arg(c^2) move the residue by 2, never by an odd amount
        assert len(equal_at) == 1
        assert (equal_at[0] - 2 * k) % 2 == 0


def test_pair_sign_examples():
    # F(theta) = Re(-1 * e^{-i theta}) = -cos(theta)
    minus_one = G(-1)
    assert pair_sign_at(minus_one, 1, ExactAngle(Fraction(0))) == -1
    assert pair_sign_at(minus_one, 1, ExactAngle(Fraction(1))) == 1
    assert pair_sign_at(minus_one, 1, ExactAngle(Fraction(1, 2))) == 0
    assert pair_sign_at(minus_one, 1, StokesDirection(minus_one, 1, 0)) == 0
    # off-axis coefficient, exact zero only at its own directions
    c = G(1, 2)
    d = StokesDirection(c, 2, 1)
    assert pair_sign_at(c, 2, d) == 0
    assert pair_sign_at(c, 2, ExactAngle(Fraction(0))) != 0


def test_sort_angles_dedupes():
    a = StokesDirection(G(1, 2), 1, 0)
    b = StokesDirection(G(2, 4), 1, 0)
    out = sort_angles([a, b, ExactAngle(Fraction(0))])
    assert len(out) == 2


def test_rational_angle_between_and_cyclic():
    lo, hi = ExactAngle(Fraction(1, 2)), ExactAngle(Fraction(3, 2))
    mid = rational_angle_between(lo, hi)
    assert cyclically_between(lo, mid, hi)
    wrap = rational_angle_between(hi, lo)
    assert cyclically_between(hi, wrap, lo)
    assert not cyclically_between(lo, wrap, hi)
    # tight irrational gap
    d1 = StokesDirection(G(1, 2), 3, 0)
    d2 = StokesDirection(G(1, 2), 3, 1)
    t = rational_angle_between(d1, d2)
    assert cyclically_between(d1, t, d2)


def test_shifted_adds_half_turns():
    d = StokesDirection(G(1, 2), 2, 0)
    assert compare_directions(d.shifted(4), d) == "EQ"  # 4 * pi/2 = 2pi
    assert compare_directions(d.shifted(1), d) != "EQ"


def test_invalid_directions_rejected():
    with pytest.raises(ValueError):
        StokesDirection(G(0, 0), 1, 0)
    with pytest.raises(ValueError):
        StokesDirection(ONE, 0, 0)
    with pytest.raises(ValueError):
        StokesDirection(ONE, 1, 2)


def test_locate_angle_is_the_insertion_point():
    pts = sort_angles([StokesDirection(G(2, -1), 3, k) for k in range(6)])
    for i, p in enumerate(pts):
        assert locate_angle(p, pts) == (i, True)
    for j in range(40):
        a = ExactAngle(Fraction(j, 20))
        i, on = locate_angle(a, pts)
        assert not on
        assert all(compare_angles(p, a) < 0 for p in pts[:i])
        assert all(compare_angles(a, p) < 0 for p in pts[i:])
    assert locate_angle(ExactAngle(Fraction(1)), []) == (0, False)


def _oracle_compare(x, y) -> int:
    if abs(x - y) < mpmath.mpf(2) ** -4000:
        return 0
    return -1 if x < y else 1


_coefficients = st.builds(
    lambda re, im, p, q: G(Fraction(re, p), Fraction(im, q)),
    st.integers(-6, 6), st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]), st.sampled_from([1, 2, 3, 5, 7]),
).filter(lambda c: not c.is_zero())


@settings(max_examples=60)
@given(c1=_coefficients, m1=st.integers(1, 3), k1=st.integers(0, 5), m2=st.integers(1, 3),
       bits=st.integers(0, 120), scale=st.integers(1, 5))
def test_compare_angles_matches_a_4096_bit_oracle_near_coincidence(c1, m1, k1, m2, bits, scale):
    """Each second direction is rounded from d1's angle to ``bits`` bits, so one
    of its 2*m2 residues lies within about 2^-bits of d1 (bits = 0: an exact
    rescaled copy of d1); every verdict must match 4096-bit evaluation."""
    d1 = StokesDirection(c1, m1, k1 % (2 * m1))
    with mpmath.workprec(4096):
        t1 = oracle_theta(d1.c, d1.m, d1.k)
        if bits == 0:
            c2, m2 = c1 * G(scale), m1
        else:
            arg = m2 * t1 + mpmath.pi / 2
            unit = mpmath.mpf(2) ** bits
            c2 = G(*(Fraction(int(mpmath.nint(scale * f(arg) * unit)), int(unit)) for f in (mpmath.cos, mpmath.sin)))
        want = [_oracle_compare(t1, oracle_theta(c2, m2, k)) for k in range(2 * m2)]
    got = [compare_angles(d1, StokesDirection(c2, m2, k)) for k in range(2 * m2)]
    assert got == want
    assert 0 in want or bits > 0


def test_negative_non_dyadic_coefficients_are_enclosed():
    # an outward-rounded enclosure of -1/3 has its floor below its ceiling
    d = StokesDirection(G(Fraction(-1, 3), Fraction(1, 5)), 2, 1)
    assert compare_angles(d, d.shifted(1)) == -1
    assert pair_sign_at(d.c, 2, rational_angle_between(d, d.shifted(1))) == -1


@settings(max_examples=40)
@given(c=_coefficients, m=st.integers(1, 3))
def test_sign_just_past_a_direction_is_the_parity_of_k(c, m):
    """Re(c * exp(-i*m*theta)) is +1 on the arc from theta(c, m, k) to the next
    direction when k is even and -1 when k is odd: the fact that
    build_circle_space reads every order from."""
    for k in range(2 * m):
        d = StokesDirection(c, m, k)
        past = rational_angle_between(d, d.shifted(1))
        assert oracle_pair_sign(c, m, past) == (-1) ** k
        assert pair_sign_at(c, m, past) == (-1) ** k


def test_global_mpmath_precision_is_never_touched():
    """The public functions of directions and geometry leave mpmath.mp.prec
    and mpmath.iv.prec as they found them, and answer the same whatever they are."""
    from stokeslib import (
        Arc, ExponentialData, IrregularValue, build_circle_space, build_polyhedral_space,
        check_polyhedral_elementarity, elementary_cover, is_elementary_arc, kummer_pullback, leading_data,
        order_at, pole_level_structure, restrict_functor_to_arc, restrict_to_arc, serial, stokes_directions,
        AffineForm, angles_equal,
    )
    from stokeslib.fixtures import rank_one_one_functor, two_value_exponential

    def run():
        v = {"v0": IrregularValue.zero(), "v1": IrregularValue.of((3, G(2, -1))), "v2": IrregularValue.of((3, G(3)))}
        d1, d2 = StokesDirection(G(2, -1), 3, 1), StokesDirection(G(1, 2), 2, 1)
        e = ExponentialData(v)
        cs = build_circle_space(e)
        two = build_circle_space(two_value_exponential())
        arc = Arc(ExactAngle(Fraction(1, 4)), ExactAngle(Fraction(3, 4)))
        poly = build_polyhedral_space([AffineForm.of([1], 0)], ["-", "0", "+"], {("a", "b"): (0, "+")})
        return [
            compare_angles(d1, d2), compare_directions(d1, d2), angles_equal(d1, d1.shifted(6)), as_exact(d1),
            locate_angle(d2, cs.points), sort_angles([d1, d2, ExactAngle(Fraction(1))]), pair_sign_at(d1.c, 3, d2),
            cyclically_between(d1, d2, ExactAngle(0)), rational_angle_between(d1, d2), angle_iv(d1, 128)._mpi_,
            leading_data(v["v1"], v["v2"]), order_at(v["v1"], v["v2"], d2), stokes_directions(v["v0"], v["v1"]),
            kummer_pullback(e, 2).values, serial.dumps(serial.circle_space_to_json(cs)),
            [stage.target.fibers for stage in pole_level_structure(cs).stages], elementary_cover(cs),
            is_elementary_arc(two, arc), restrict_to_arc(two, arc)[0].fibers,
            restrict_functor_to_arc(two, arc, rank_one_one_functor(two)).spaces,
            check_polyhedral_elementarity(poly),
        ]

    want = run()
    saved = mpmath.mp.prec, mpmath.iv.prec
    try:
        mpmath.mp.prec, mpmath.iv.prec = 20, 30
        got = run()
        assert (mpmath.mp.prec, mpmath.iv.prec) == (20, 30)
    finally:
        mpmath.mp.prec, mpmath.iv.prec = saved
    assert got == want


# c in each open quadrant (both octants), on both axes and on both diagonals
_SHAPES = [(2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1),
           (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (-1, -1), (1, -1)]
_shaped = st.builds(lambda s, scale: G(s[0] * scale, s[1] * scale),
                    st.sampled_from(_SHAPES), st.sampled_from([1, 3, Fraction(2, 5)]))


@settings(max_examples=60)
@given(c=_shaped, m=st.integers(1, 3), other=_shaped, m2=st.integers(1, 3), j=st.integers(0, 95))
def test_pair_sign_at_matches_a_4096_bit_oracle(c, m, other, m2, j):
    """At an exact angle, at each of the pair's own directions and at each of
    another pair's, the parity rule agrees with evaluating the sign."""
    angles = [ExactAngle(Fraction(j, 48))]
    angles += [StokesDirection(c, m, k) for k in range(2 * m)]
    angles += [StokesDirection(other, m2, k) for k in range(2 * m2)]
    for a in angles:
        assert pair_sign_at(c, m, a) == oracle_pair_sign(c, m, a)


def test_pair_sign_rejects_a_zero_coefficient_and_a_nonpositive_order():
    with pytest.raises(ValueError):
        pair_sign_at(G(0), 1, ExactAngle(Fraction(0)))
    with pytest.raises(ValueError):
        pair_sign_at(ONE, 0, ExactAngle(Fraction(0)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_angle_iv_encloses_the_reduced_angle_across_the_wrap(m):
    """k = 0 and k = 2m - 1 are the residues whose reduction offset is not 0."""
    for re, im in _SHAPES[:8]:
        c = G(re, im)
        for k in {0, 1, 2 * m - 1}:
            lo, hi = angle_iv(StokesDirection(c, m, k), 64)._mpi_
            with mpmath.workprec(4096):
                assert mpmath.mp.make_mpf(lo) <= oracle_theta(c, m, k) <= mpmath.mp.make_mpf(hi)


def test_sorted_directions_follow_the_oracle_order():
    for re in range(-2, 3):
        for im in range(-2, 3):
            if re == im == 0:
                continue
            c = G(re, im)
            for m in (1, 2, 3):
                with mpmath.workprec(4096):
                    want = sorted(range(2 * m), key=lambda k: oracle_theta(c, m, k))
                assert [d.k for d in sorted_directions(c, m)] == want


def test_angle_iv_reads_the_argument_once(monkeypatch):
    calls = []
    arg_iv = directions._arg_iv
    monkeypatch.setattr(directions, "_arg_iv", lambda c, prec: calls.append(prec) or arg_iv(c, prec))
    angle_iv(StokesDirection(G(2, -1), 3, 5), 64)
    assert calls == [64]


def test_refinement_gives_up_after_the_last_precision():
    tried = []
    with pytest.raises(RuntimeError, match="interval refinement failed to decide"):
        directions._refine(tried.append, "decide")
    assert tried == [64 << i for i in range(9)]
