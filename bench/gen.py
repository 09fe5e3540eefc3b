"""Seeded input generators for the benchmark.

These are the benchmark's own copies of the recipes the test suite uses,
so that a change to ``tests/helpers.py`` never shifts a workload:

* the value-set recipe: ``v0 = 0`` and each other value ``c * z^-q`` with
  ``q`` drawn from {1, 2, 3} and ``c = (randint(-3, 3) or 1) +
  randint(-3, 3) * i``, optionally with one lower-order Laurent term;
* the standard-functor recipe: punctually split functors in standard
  coordinates with triangular gluings, optionally singular at one base
  arrow and optionally conjugated by random invertible matrices.

Everything here uses only the public ``stokeslib`` API.
"""

from __future__ import annotations

import random
from fractions import Fraction

from stokeslib import (
    ExponentialData,
    GaussianRational,
    IrregularValue,
    Matrix,
    StokesFunctor,
    cover_arrow_id,
    inverse,
    is_invertible,
    lift_arrow_id,
)

G = GaussianRational.of


def _coefficient(rng: random.Random) -> GaussianRational:
    return G(rng.randint(-3, 3) or 1, rng.randint(-3, 3))


def value_set(rng: random.Random, n: int, tail: bool = False) -> dict:
    """ROADMAP value set with n values; ``tail`` adds a lower-order term
    to every value whose pole order exceeds 1."""
    values = {"v0": IrregularValue.zero()}
    for i in range(1, n):
        q = rng.choice([1, 2, 3])
        terms = [(q, _coefficient(rng))]
        if tail and q > 1:
            terms.append((rng.randint(1, q - 1), _coefficient(rng)))
        values[f"v{i}"] = IrregularValue.of(*terms)
    return values


def distinct(values: dict) -> bool:
    """True when the values are pairwise distinct (a valid input)."""
    try:
        ExponentialData(values)
    except ValueError:
        return False
    return True


TWO_VALUES = {"a": IrregularValue.zero(), "b": IrregularValue.of((1, G(1)))}
THREE_VALUES = {"u": IrregularValue.zero(), "v": IrregularValue.of((1, G(1))), "w": IrregularValue.of((2, G(1)))}
FOUR_VALUES = {
    "a": IrregularValue.zero(),
    "b": IrregularValue.of((1, G(1))),
    "c": IrregularValue.of((1, G(0, 1))),
    "d": IrregularValue.of((2, G(1))),
}


# ---------------------------------------------------------------------------
# the standard-functor recipe


def random_invertible(n: int, rng: random.Random) -> Matrix:
    while True:
        m = Matrix(n, n, tuple(Fraction(rng.randint(-2, 2)) for _ in range(n * n)))
        if is_invertible(m):
            return m


def arrow_shapes(fib) -> dict:
    """(target, source) total objects of every generating arrow id."""
    shapes = {}
    for x in fib.base.objects:
        for a, b in fib.fiber(x).covers():
            shapes[cover_arrow_id(x, a, b)] = ((x, b), (x, a))
    for arr in fib.base.arrows:
        t = fib.transition(arr.name)
        for a in fib.fiber(arr.source).elements:
            shapes[lift_arrow_id(arr.name, a)] = ((arr.target, t(a)), (arr.source, a))
    return shapes


def conjugate_functor(f: StokesFunctor, rng: random.Random) -> StokesFunctor:
    """Conjugate by random invertible matrices at every total object."""
    conj = {key: random_invertible(d, rng) for key, d in sorted(f.spaces.items())}
    conj_inv = {key: inverse(m) for key, m in conj.items()}
    arrows = {
        arrow_id: conj[tgt] @ f.arrows[arrow_id] @ conj_inv[src]
        for arrow_id, (tgt, src) in arrow_shapes(f.fibration).items()
    }
    return StokesFunctor(f.fibration, dict(f.spaces), arrows)


def _zero_rows(rows: int, cols: int) -> list:
    return [[Fraction(0)] * cols for _ in range(rows)]


def _matrix(ent: list, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows(ent) if rows else Matrix(0, cols, ())


def standard_functor(fib, dims: dict, rng: random.Random, singular_at=None, conjugate=False) -> StokesFunctor:
    """Punctually split functor in standard coordinates on a circle
    fibration with identity transitions; triangular gluings with invertible
    diagonal blocks (Stokes) unless ``singular_at`` names a base arrow whose
    diagonal is made singular."""
    names = list(next(iter(fib.fibers.values())).elements)
    order = {x: fib.fiber(x).linear_extension() for x in fib.base.objects}

    def blocks(x, a):
        p = fib.fiber(x)
        return [b for b in order[x] if p.le(b, a)]

    def offsets(seq):
        return {b: sum(dims[c] for c in seq[:i]) for i, b in enumerate(seq)}

    spaces = {(x, a): sum(dims[b] for b in blocks(x, a)) for x in fib.base.objects for a in fib.fiber(x).elements}

    def inclusion(small, big):
        rows, cols = sum(dims[b] for b in big), sum(dims[b] for b in small)
        ent = _zero_rows(rows, cols)
        ro, co = offsets(big), offsets(small)
        for b in small:
            for i in range(dims[b]):
                ent[ro[b] + i][co[b] + i] = Fraction(1)
        return _matrix(ent, rows, cols)

    arrows = {}
    for x in fib.base.objects:
        for a, b in fib.fiber(x).covers():
            arrows[cover_arrow_id(x, a, b)] = inclusion(blocks(x, a), blocks(x, b))

    total = sum(dims[b] for b in names)
    off = offsets(names)

    def gluing(target_fiber, singular):
        ent = _zero_rows(total, total)
        for b in names:
            for b2 in names:
                if b2 == b:
                    blk = random_invertible(dims[b], rng)
                    if singular and dims[b]:
                        blk = Matrix.zeros(dims[b], dims[b])
                elif target_fiber.lt(b2, b):
                    blk = Matrix(dims[b2], dims[b], tuple(Fraction(rng.randint(-2, 2)) for _ in range(dims[b2] * dims[b])))
                else:
                    continue
                for i in range(blk.rows):
                    for j in range(blk.cols):
                        ent[off[b2] + i][off[b] + j] = blk.at(i, j)
        return ent

    for arr in fib.base.arrows:
        tmat = gluing(fib.fiber(arr.target), singular_at == arr.name)
        for a in fib.fiber(arr.source).elements:
            bs, bt = blocks(arr.source, a), blocks(arr.target, a)
            rows, cols = sum(dims[b] for b in bt), sum(dims[b] for b in bs)
            ent = _zero_rows(rows, cols)
            ro, co = offsets(bt), offsets(bs)
            for b in bs:
                for b2 in bt:
                    for i in range(dims[b2]):
                        for j in range(dims[b]):
                            ent[ro[b2] + i][co[b] + j] = tmat[off[b2] + i][off[b] + j]
            arrows[lift_arrow_id(arr.name, a)] = _matrix(ent, rows, cols)
    f = StokesFunctor(fib, spaces, arrows)
    return conjugate_functor(f, rng) if conjugate else f
