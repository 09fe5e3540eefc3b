"""Shared test utilities: independent oracles and instance generators.

The elimination, splitting and centralizer oracles here are deliberately
written from scratch against plain lists of Fractions so that library
results are checked by a second route.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import mpmath

from stokeslib import (
    CocartesianSection,
    FinPoset,
    Matrix,
    MonotoneMap,
    StokesFibration,
    StokesFunctor,
    TotalCategory,
    cover_arrow_id,
    lift_arrow_id,
    make_circle_base,
    nondegenerate_chains,
)
from stokeslib.exactmath import column_space_complement, hstack_all


# ---------------------------------------------------------------------------
# independent exact elimination (the oracle side of dual-route checks)


def oracle_rref(rows):
    """Gauss-Jordan over Q on a list of row lists; returns (rref, pivot cols)."""
    m = [list(map(Fraction, r)) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def oracle_rank(rows) -> int:
    return len(oracle_rref(rows)[1])


def oracle_is_invertible(rows) -> bool:
    n = len(rows)
    return n == 0 or (len(rows[0]) == n and oracle_rank(rows) == n)


def oracle_solve(a_rows, b_col):
    """One solution of A x = b or None, by independent elimination."""
    nr = len(a_rows)
    nc = len(a_rows[0]) if nr else 0
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(a_rows, b_col)]
    red, pivots = oracle_rref(aug)
    for row in red:
        if all(v == 0 for v in row[:nc]) and row[nc] != 0:
            return None
    sol = [Fraction(0)] * nc
    for r, c in enumerate(pivots):
        if c < nc:
            sol[c] = red[r][nc]
        elif red[r][nc] != 0:
            return None
    return sol


def oracle_matmul(a_rows, b_rows, cols: int):
    """The product of two row lists by the schoolbook triple loop; b has ``cols`` columns."""
    out = []
    for a_row in a_rows:
        row = []
        for j in range(cols):
            s = Fraction(0)
            for k, b_row in enumerate(b_rows):
                s += Fraction(a_row[k]) * Fraction(b_row[j])
            row.append(s)
        out.append(row)
    return out


def mat_rows(m: Matrix):
    return [list(m.row(i)) for i in range(m.rows)]


def matrix_sparse_rows(m: Matrix) -> list[dict]:
    """The nonzero rows of m as {column: value} dicts."""
    return [{j: v for j, v in enumerate(row) if v} for row in mat_rows(m) if any(row)]


# ---------------------------------------------------------------------------
# dense nerve cochain complex (the oracle for the resolution in hom_complex)


def oracle_hom_complex(f: StokesFunctor, g: StokesFunctor):
    """(dims, dense differentials) of the nerve cochain complex Hom(F, G).

    A degree-n cochain gives each chain of n composable nonidentity
    morphisms, from ``nondegenerate_chains``, a matrix F(source) -> G(target),
    stored row-major.  Each differential is filled as a dense list of
    Fractions, recomputing the structure maps at every face.  It trusts that
    the chains are distinct: an equal pair would overwrite an offset.
    """
    total_cat = TotalCategory.of(f.fibration)
    chains = nondegenerate_chains(total_cat)
    max_len = max(chains.keys())

    def ends(level: int, ch):
        if level == 0:
            return ch, ch
        return ch[0].source, ch[-1].target

    coords: list[dict] = []
    dims: list[int] = []
    for level in range(max_len + 1):
        offset = {}
        run = 0
        for ch in chains.get(level, []):
            src, tgt = ends(level, ch)
            offset[ch] = run
            run += f.spaces[src] * g.spaces[tgt]
        coords.append(offset)
        dims.append(run)

    diffs = []
    for level in range(max_len):
        rows, cols = dims[level + 1], dims[level]
        ent = [[Fraction(0)] * cols for _ in range(rows)]
        for ch in chains.get(level + 1, []):
            src, tgt = ends(level + 1, ch)
            d_src, d_tgt = f.spaces[src], g.spaces[tgt]
            r_off = coords[level + 1][ch]

            def out_idx(r: int, s: int) -> int:
                return r_off + r * d_src + s

            # face 0: drop the first morphism, precompose with F(ch[0])
            face = ch[1:] if level >= 1 else ch[0].target
            c_off = coords[level][face]
            fsrc, ftgt = ends(level, face)
            pre = f.morphism_matrix(ch[0])
            for r in range(g.spaces[ftgt]):
                for j in range(f.spaces[fsrc]):
                    var = c_off + r * f.spaces[fsrc] + j
                    for s in range(d_src):
                        if pre.at(j, s):
                            ent[out_idx(r, s)][var] += pre.at(j, s)
            # inner faces: merge consecutive morphisms
            for i in range(1, level + 1):
                merged = ch[: i - 1] + (total_cat.compose(ch[i - 1], ch[i]),) + ch[i + 1 :]
                c_off = coords[level][merged]
                sign = Fraction((-1) ** i)
                for r in range(d_tgt):
                    for s in range(d_src):
                        ent[out_idx(r, s)][c_off + r * d_src + s] += sign
            # last face: drop the last morphism, postcompose with G(ch[-1])
            face = ch[:-1] if level >= 1 else ch[0].source
            c_off = coords[level][face]
            fsrc, ftgt = ends(level, face)
            post = g.morphism_matrix(ch[-1])
            sign = Fraction((-1) ** (level + 1))
            for i2 in range(g.spaces[ftgt]):
                for s in range(f.spaces[fsrc]):
                    var = c_off + i2 * f.spaces[fsrc] + s
                    for r in range(d_tgt):
                        if post.at(r, i2):
                            ent[out_idx(r, s)][var] += sign * post.at(r, i2)
        diffs.append(Matrix(rows, cols, tuple(v for row in ent for v in row)))
    return dims, diffs


def oracle_cohomology_dims(dims, diffs) -> list:
    """Cohomology dimensions of a dense complex by independent elimination."""
    ranks = [oracle_rank(mat_rows(d)) for d in diffs] + [0]
    return [dims[i] - ranks[i] - (ranks[i - 1] if i else 0) for i in range(len(dims))]


# ---------------------------------------------------------------------------
# brute-force splitting oracle (projective-cover comparison map)


def oracle_fiber_matrix(f: StokesFunctor, x: str, a: str, b: str) -> Matrix:
    """F(a <= b) composed along one cover chain up the fiber at x: from a, each
    step takes the first cover out that stays below b."""
    fib = f.fibration.fiber(x)
    out = Matrix.identity(f.dim(x, a))
    while a != b:
        step = next(((u, v) for u, v in fib.covers() if u == a and fib.le(v, b)), None)
        if step is None:
            raise ValueError(f"no cover chain from {a} up to {b}")
        out = f.cover_matrix(x, *step) @ out
        a = step[1]
    return out


def oracle_split_verdict(f: StokesFunctor, x: str) -> bool:
    """Build the canonical comparison from chosen top sections and test that
    every component is invertible, using only the oracle elimination."""
    fib = f.fibration.fiber(x)
    elems = list(fib.elements)
    tops = {}
    secs = {}
    for b in elems:
        below = [c for c in elems if fib.lt(c, b)]
        cols = []
        for c in below:
            mat = oracle_fiber_matrix(f, x, c, b)
            for j in range(mat.cols):
                cols.append([mat.at(i, j) for i in range(mat.rows)])
        d = f.dim(x, b)
        rad_rank = oracle_rank(_transpose(cols, d)) if cols else 0
        tops[b] = d - rad_rank
        # greedily extend by standard vectors
        chosen = []
        current = list(cols)
        rank = rad_rank
        for i in range(d):
            e = [Fraction(1 if k == i else 0) for k in range(d)]
            cand = current + [e]
            r2 = oracle_rank(_transpose(cand, d))
            if r2 > rank:
                chosen.append(e)
                current = cand
                rank = r2
        secs[b] = chosen  # list of columns
    for a in elems:
        cols = []
        for b in elems:
            if not fib.le(b, a):
                continue
            mat = oracle_fiber_matrix(f, x, b, a)
            for col in secs[b]:
                image = [sum(mat.at(i, k) * col[k] for k in range(mat.cols)) for i in range(mat.rows)]
                cols.append(image)
        d = f.dim(x, a)
        if len(cols) != d:
            return False
        if d and not oracle_is_invertible(_transpose(cols, d)):
            return False
    return True


def oracle_split_sections(f: StokesFunctor, x: str):
    """(dims, sections) of the tops at x, or None when the fiber does not
    split: the radical at b is spanned by every composite F(c <= b), c < b."""
    fib = f.fibration.fiber(x)
    dims = {}
    sections = {}
    for b in fib.linear_extension():
        below = [c for c in fib.elements if fib.lt(c, b)]
        d_b = f.dim(x, b)
        rad = hstack_all([oracle_fiber_matrix(f, x, c, b) for c in below], d_b) if below else Matrix.zeros(d_b, 0)
        idx = column_space_complement(rad)
        dims[b] = len(idx)
        sections[b] = Matrix(
            d_b, dims[b], tuple(Fraction(1 if i == idx[j] else 0) for i in range(d_b) for j in range(dims[b]))
        )
    for a in fib.elements:
        if f.dim(x, a) != sum(dims[b] for b in fib.elements if fib.le(b, a)):
            return None
    return dims, sections


def oracle_split_fiber(f: StokesFunctor, x: str):
    """(sections, theta, theta_inv) at x, built as split_fiber built them before
    it read a table of composites: theta[a] is the comparison out of the tops
    below a, in linear-extension order, each F(b <= a) . section_b a product with
    the composite of one cover chain (``oracle_fiber_matrix``)."""
    from stokeslib import inverse

    fib = f.fibration.fiber(x)
    _, sections = oracle_split_sections(f, x)
    order = fib.linear_extension()
    theta = {
        a: hstack_all([oracle_fiber_matrix(f, x, b, a) @ sections[b] for b in order if fib.le(b, a)], f.dim(x, a))
        for a in fib.elements
    }
    return sections, theta, {a: inverse(m) for a, m in theta.items()}


def _transpose(cols, nrows):
    return [[col[i] for col in cols] for i in range(nrows)]


def oracle_centralizer_dim(m_rows) -> int:
    """dim of {X : X M = M X} by independent elimination."""
    n = len(m_rows)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[i * n + k] += m_rows[k][j]
                row[k * n + j] -= m_rows[i][k]
            rows.append(row)
    return n * n - oracle_rank(rows) if n else 0


# ---------------------------------------------------------------------------
# poset enumeration


def all_labeled_posets(n: int):
    """Every partial order on elements e0..e{n-1}."""
    elems = [f"e{i}" for i in range(n)]
    pairs = [(a, b) for a in elems for b in elems if a != b]
    out = []
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        rel = {(a, a) for a in elems}
        rel.update(p for p, bit in zip(pairs, bits) if bit)
        if _is_partial_order(elems, rel):
            out.append(FinPoset(tuple(elems), frozenset(rel)))
    return out


def _is_partial_order(elems, rel) -> bool:
    for a, b in rel:
        if a != b and (b, a) in rel:
            return False
    for a, b in rel:
        for b2, c in rel:
            if b2 == b and (a, c) not in rel:
                return False
    return True


def canonical_posets(n: int):
    """One representative per isomorphism class of posets on n elements."""
    elems = [f"e{i}" for i in range(n)]
    seen = set()
    out = []
    for p in all_labeled_posets(n):
        canon = min(
            tuple(sorted((perm[a], perm[b]) for a, b in p.leq))
            for perm in ({a: b for a, b in zip(elems, img)} for img in itertools.permutations(elems))
        )
        if canon not in seen:
            seen.add(canon)
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# cocartesian sections by plain backtracking


def oracle_cocartesian_sections(i: StokesFibration) -> list:
    """Every section, by recursive backtracking over the base objects in order,
    checking every arrow whose ends are both chosen after each choice."""
    objects = list(i.base.objects)
    arrows = list(i.base.arrows)
    sections = []

    def extend(idx: int, partial: dict) -> None:
        if idx == len(objects):
            sections.append(CocartesianSection(dict(partial)))
            return
        x = objects[idx]
        for a in i.fiber(x).elements:
            partial[x] = a
            ok = True
            for arr in arrows:
                if arr.source in partial and arr.target in partial:
                    if i.transition(arr.name)(partial[arr.source]) != partial[arr.target]:
                        ok = False
                        break
            if ok:
                extend(idx + 1, partial)
            del partial[x]

    extend(0, {})
    return sections


def random_set_fibration(base, rng, names=("a", "b", "c")) -> StokesFibration:
    """Antichain fibers of random nonempty subsets of names, and transitions
    that keep a name where the target has it and otherwise pick one at random.
    Over a poset base the transitions need not be path independent."""
    fibers = {x: FinPoset.antichain(sorted(rng.sample(names, rng.randint(1, len(names))))) for x in base.objects}
    transitions = {}
    for arr in base.arrows:
        src, tgt = fibers[arr.source], fibers[arr.target]
        assignment = {
            a: a if a in tgt.elements and rng.random() < 0.7 else rng.choice(tgt.elements) for a in src.elements
        }
        transitions[arr.name] = MonotoneMap(src, tgt, assignment)
    return StokesFibration(base, fibers, transitions)


# ---------------------------------------------------------------------------
# path enumeration over poset bases (the oracle of the one-pass path checks)


def oracle_hasse_paths(poset: FinPoset, x: str, y: str) -> list:
    """Every cover path from x up to y, as lists of base arrow names a<b."""
    if x == y:
        return [[]]
    return [
        [f"{a}<{b}"] + rest
        for a, b in poset.covers()
        if a == x and poset.le(b, y)
        for rest in oracle_hasse_paths(poset, b, y)
    ]


def oracle_transition_failures(fib: StokesFibration) -> set:
    """Pairs x < y of a poset base whose cover paths give different transitions."""
    p = fib.base.poset
    out = set()
    for x in p.elements:
        for y in p.elements:
            if p.lt(x, y):
                composites = set()
                for path in oracle_hasse_paths(p, x, y):
                    t = {a: a for a in fib.fiber(x).elements}
                    for g in path:
                        t = {a: fib.transition(g)(c) for a, c in t.items()}
                    composites.add(tuple(sorted(t.items())))
                if len(composites) > 1:
                    out.add((x, y))
    return out


def oracle_total_morphisms(fib: StokesFibration) -> set:
    """Every morphism of the total category as (source, target, circle arrow or None).

    The base homs come from the definition: on a circle the identities and
    each arrow, on a poset the pairs x <= y.  Over a pair x < y each cover
    path's transitions are composed by hand, and all paths must agree."""
    base = fib.base
    if base.kind == "circle":
        homs = [(x, x, None, [[]]) for x in base.objects]
        homs += [(a.source, a.target, a.name, [[a.name]]) for a in base.arrows]
    else:
        p = base.poset
        homs = [(x, y, None, oracle_hasse_paths(p, x, y)) for x in p.elements for y in p.elements if p.le(x, y)]
    out = set()
    for x, y, arrow, paths in homs:
        composites = []
        for path in paths:
            t = {a: a for a in fib.fiber(x).elements}
            for g in path:
                t = {a: fib.transition(g)(c) for a, c in t.items()}
            composites.append(t)
        assert all(t == composites[0] for t in composites), (x, y)
        fy = fib.fiber(y)
        for a, fa in composites[0].items():
            out.update(((x, a), (y, c), arrow) for c in fy.elements if fy.le(fa, c))
    return out


def oracle_lift_failures(f: StokesFunctor) -> set:
    """Triples (x, y, a) whose cover paths x -> y give different composite lifts at a."""
    fib = f.fibration
    p = fib.base.poset
    out = set()
    for x in p.elements:
        for y in p.elements:
            if not p.lt(x, y):
                continue
            for a in fib.fiber(x).elements:
                composites = set()
                for path in oracle_hasse_paths(p, x, y):
                    cur, m = a, Matrix.identity(f.dim(x, a))
                    for g in path:
                        m = f.lift_matrix(g, cur) @ m
                        cur = fib.transition(g)(cur)
                    composites.add(m.entries)
                if len(composites) > 1:
                    out.add((x, y, a))
    return out


def diamond_base_functor() -> StokesFunctor:
    """A constant functor over the diamond base o < l, r < t: fiber u < v
    with identity transitions, F = Q at u and Q^2 at v, u -> v the first
    coordinate, identity lifts."""
    from stokeslib import make_poset_base

    sq = FinPoset.from_relation(["o", "l", "r", "t"], [("o", "l"), ("o", "r"), ("l", "t"), ("r", "t")])
    base = make_poset_base(sq)
    fiber = FinPoset.chain(["u", "v"])
    ident = MonotoneMap(fiber, fiber, {"u": "u", "v": "v"})
    fib = StokesFibration(base, {x: fiber for x in base.objects}, {a.name: ident for a in base.arrows})
    spaces = {}
    arrows = {}
    for x in base.objects:
        spaces[(x, "u")] = 1
        spaces[(x, "v")] = 2
        arrows[cover_arrow_id(x, "u", "v")] = Matrix.from_rows([[1], [0]])
    for arr in base.arrows:
        arrows[lift_arrow_id(arr.name, "u")] = Matrix.identity(1)
        arrows[lift_arrow_id(arr.name, "v")] = Matrix.identity(2)
    return StokesFunctor(fib, spaces, arrows)


# ---------------------------------------------------------------------------
# valid functors with prescribed dimensions (sums of convex thin modules)


def random_functor_with_dims(poset: FinPoset, dims: dict, rng, conjugate=True, prefer_split=False):
    """A valid functor on a one-point base with the given dimension vector.

    Built as a direct sum of thin modules supported on convex subsets
    (down-sets when prefer_split), then optionally conjugated by random
    invertible matrices.  Convexity makes each summand functorial.
    """
    from stokeslib import make_poset_base

    base = make_poset_base(FinPoset.antichain(["x"]))
    fib = StokesFibration(base, {"x": poset}, {})
    remaining = dict(dims)
    summands = []
    while any(v > 0 for v in remaining.values()):
        support = [a for a in poset.elements if remaining[a] > 0]
        seed = rng.choice(support)
        if prefer_split:
            conv = _down_closure_within(poset, seed, support)
        else:
            conv = _random_convex(poset, seed, support, rng)
        summands.append(conv)
        for a in conv:
            remaining[a] -= 1
    spaces = {("x", a): dims[a] for a in poset.elements}
    arrows = {}
    offsets = {}
    for a in poset.elements:
        offsets[a] = {}
        k = 0
        for idx, conv in enumerate(summands):
            if a in conv:
                offsets[a][idx] = k
                k += 1
    for a, b in poset.covers():
        ent = [[Fraction(0)] * dims[a] for _ in range(dims[b])]
        for idx, conv in enumerate(summands):
            if a in conv and b in conv:
                ent[offsets[b][idx]][offsets[a][idx]] = Fraction(1)
        arrows[cover_arrow_id("x", a, b)] = (
            Matrix.from_rows(ent) if dims[b] else Matrix(0, dims[a], ())
        )
    f = StokesFunctor(fib, spaces, arrows)
    if conjugate:
        f = conjugate_functor(f, rng)
    return f


def _down_closure_within(poset, seed, support):
    down = {b for b in poset.elements if poset.le(b, seed)}
    return down if down <= set(support) else {seed}


def _random_convex(poset, seed, support, rng):
    conv = {seed}
    for _ in range(rng.randint(0, 2)):
        boundary = [
            b
            for b in support
            if b not in conv
            and any(poset.le(b, c) or poset.le(c, b) for c in conv)
            and _stays_convex(poset, conv | {b})
        ]
        if not boundary:
            break
        conv.add(rng.choice(sorted(boundary)))
    return conv


def _stays_convex(poset, subset) -> bool:
    for a in subset:
        for c in subset:
            if not poset.lt(a, c):
                continue
            for b in poset.elements:
                if poset.lt(a, b) and poset.lt(b, c) and b not in subset:
                    return False
    return True


def random_invertible(n: int, rng) -> Matrix:
    while True:
        ent = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_rows(ent) if n else Matrix(0, 0, ())
        from stokeslib import is_invertible

        if is_invertible(m):
            return m


def conjugate_functor(f: StokesFunctor, rng) -> StokesFunctor:
    """Conjugate by random invertible matrices at every total object."""
    from stokeslib import inverse
    from stokeslib.functors import generating_arrow_shapes

    conj = {key: random_invertible(d, rng) for key, d in f.spaces.items()}
    conj_inv = {key: inverse(m) for key, m in conj.items()}
    arrows = {}
    for arrow_id, (tgt, src) in generating_arrow_shapes(f.fibration).items():
        arrows[arrow_id] = conj[tgt] @ f.arrows[arrow_id] @ conj_inv[src]
    return StokesFunctor(f.fibration, dict(f.spaces), arrows)


# ---------------------------------------------------------------------------
# splittings and their tops, drawn or built by hand


def random_splitting(f: StokesFunctor, x: str, rng):
    """split_fiber(f, x) with every section redrawn as section . U plus
    sum over c < b of F(c < b) . R_c, for U random invertible and R_c random.

    The class of the new section in the top quotient at b is the old one
    times U, so it is still a section; theta and theta_inv are rebuilt.
    """
    import dataclasses

    from stokeslib import inverse, split_fiber
    from stokeslib.exactmath import hstack_all

    s = split_fiber(f, x)
    fib = f.fibration.fiber(x)
    sections = {}
    for b in s.order:
        k = s.dims[b]
        sec = s.sections[b] @ random_invertible(k, rng)
        for c in s.order:
            if fib.lt(c, b):
                d_c = f.dim(x, c)
                r = Matrix(d_c, k, tuple(Fraction(rng.randint(-2, 2)) for _ in range(d_c * k)))
                sec = sec + oracle_fiber_matrix(f, x, c, b) @ r
        sections[b] = sec
    theta = {
        a: hstack_all([oracle_fiber_matrix(f, x, b, a) @ sections[b] for b in s.blocks(fib.le, a)], f.dim(x, a))
        for a in fib.elements
    }
    return dataclasses.replace(s, sections=sections, theta=theta, theta_inv={a: inverse(m) for a, m in theta.items()})


def oracle_top_functor(f: StokesFunctor, splittings: dict) -> StokesFunctor:
    """The tops of f on the underlying set fibration, built by hand.

    The lift at a is the lift of f between the section at a and the rows of
    theta_inv at t(a) that carry the top V_t(a), found by their offset: the
    construction in use before the tops were read as an induction.
    """
    from stokeslib.fibrations import fiberwise_set

    iset = fiberwise_set(f.fibration)
    spaces = {(x, a): splittings[x].dims[a] for x in iset.base.objects for a in iset.fiber(x).elements}
    arrows = {}
    for arr in iset.base.arrows:
        t = f.fibration.transition(arr.name)
        s = splittings[arr.target]
        le = f.fibration.fiber(arr.target).le
        for a in f.fibration.fiber(arr.source).elements:
            b = t(a)
            off = sum(s.dims[c] for c in s.order if le(c, b) and c != b)
            inv = s.theta_inv[b]
            top = inv.submatrix(list(range(off, off + s.dims[b])), list(range(inv.cols)))
            arrows[lift_arrow_id(arr.name, a)] = top @ f.lift_matrix(arr.name, a) @ splittings[arr.source].sections[a]
    return StokesFunctor(iset, spaces, arrows)


# ---------------------------------------------------------------------------
# random level morphisms (by construction)


def random_level_setup(rng, max_classes=3, max_class_size=2):
    """A poset I, a level morphism assignment onto a random poset J."""
    nj = rng.randint(1, max_classes)
    j_elems = [f"j{i}" for i in range(nj)]
    j_rel = [(a, b) for a in j_elems for b in j_elems if a < b and rng.random() < 0.5]
    J = FinPoset.from_relation(j_elems, j_rel)
    i_elems = []
    assignment = {}
    class_members = {}
    for j in j_elems:
        size = rng.randint(1, max_class_size)
        members = [f"{j}_{k}" for k in range(size)]
        class_members[j] = members
        for m in members:
            assignment[m] = j
        i_elems.extend(members)
    rel = []
    for j in j_elems:
        members = class_members[j]
        for a in members:
            for b in members:
                if a < b and rng.random() < 0.5:
                    rel.append((a, b))
    for j1 in j_elems:
        for j2 in j_elems:
            if J.lt(j1, j2):
                rel.extend((a, b) for a in class_members[j1] for b in class_members[j2])
    I = FinPoset.from_relation(i_elems, rel)
    return I, J, assignment


# ---------------------------------------------------------------------------
# random Stokes-style functors on fibrations with name-preserving transitions


def three_value_circle():
    """The circle space of the values {0, z^-1, z^-2}, named u, v, w."""
    from stokeslib import ExponentialData, GaussianRational, IrregularValue, build_circle_space

    G = GaussianRational.of
    values = {"u": IrregularValue.zero(), "v": IrregularValue.of((1, G(1))), "w": IrregularValue.of((2, G(1)))}
    return build_circle_space(ExponentialData(values))


def four_value_circle():
    """The circle space of the values {0, z^-1, i z^-1, z^-2}, named a, b, c, d."""
    from stokeslib import ExponentialData, GaussianRational, IrregularValue, build_circle_space

    G = GaussianRational.of
    values = {
        "a": IrregularValue.zero(),
        "b": IrregularValue.of((1, G(1))),
        "c": IrregularValue.of((1, G(0, 1))),
        "d": IrregularValue.of((2, G(1))),
    }
    return build_circle_space(ExponentialData(values))


def random_standard_functor(fib: StokesFibration, dims: dict, rng, singular_at=None, conjugate=False):
    """Punctually split functor in standard coordinates on a fibration whose
    transitions are identity assignments; triangular per-arrow gluings with
    invertible diagonal blocks (Stokes) unless ``singular_at`` names a base
    arrow whose diagonal is made singular."""
    names = list(next(iter(fib.fibers.values())).elements)
    order = {x: fib.fiber(x).linear_extension() for x in fib.base.objects}

    def blocks(x, a):
        p = fib.fiber(x)
        return [b for b in order[x] if p.le(b, a)]

    spaces = {}
    for x in fib.base.objects:
        p = fib.fiber(x)
        for a in p.elements:
            spaces[(x, a)] = sum(dims[b] for b in blocks(x, a))

    def inclusion(small, big):
        rows = sum(dims[b] for b in big)
        cols = sum(dims[b] for b in small)
        ent = [[Fraction(0)] * cols for _ in range(rows)]
        ro = {b: sum(dims[c] for c in big[:i]) for i, b in enumerate(big)}
        co = {b: sum(dims[c] for c in small[:i]) for i, b in enumerate(small)}
        for b in small:
            for i in range(dims[b]):
                ent[ro[b] + i][co[b] + i] = Fraction(1)
        return Matrix.from_rows(ent) if rows else Matrix(0, cols, ())

    arrows = {}
    for x in fib.base.objects:
        for a, b in fib.fiber(x).covers():
            arrows[cover_arrow_id(x, a, b)] = inclusion(blocks(x, a), blocks(x, b))

    def random_triangular(order_poset, singular=False):
        blocks_t = {}
        for b in names:
            for b2 in names:
                if b2 == b:
                    d = dims[b]
                    diag = random_invertible(d, rng)
                    if singular and d:
                        diag = Matrix.zeros(d, d)
                    blocks_t[(b2, b)] = diag
                elif order_poset.lt(b2, b):
                    blocks_t[(b2, b)] = Matrix(
                        dims[b2], dims[b], tuple(Fraction(rng.randint(-2, 2)) for _ in range(dims[b2] * dims[b]))
                    )
        return blocks_t

    def full_matrix(blocks_t):
        rows = sum(dims[b] for b in names)
        ent = [[Fraction(0)] * rows for _ in range(rows)]
        off = {b: sum(dims[c] for c in names[:i]) for i, b in enumerate(names)}
        for (b2, b), blk in blocks_t.items():
            for i in range(blk.rows):
                for j in range(blk.cols):
                    ent[off[b2] + i][off[b] + j] = blk.at(i, j)
        return Matrix.from_rows(ent) if rows else Matrix(0, 0, ())

    total = sum(dims[b] for b in names)
    off = {b: sum(dims[c] for c in names[:i]) for i, b in enumerate(names)}
    if fib.base.kind == "poset":
        # frames per object keep parallel paths equal; over a poset base the
        # exit category has an initial object, so this family is exhaustive
        from stokeslib import inverse

        frames = {x: full_matrix(random_triangular(fib.fiber(x))) for x in fib.base.objects}
        transition_matrix = {
            arr.name: frames[arr.target] @ inverse(frames[arr.source]) for arr in fib.base.arrows
        }
    else:
        transition_matrix = {
            arr.name: full_matrix(random_triangular(fib.fiber(arr.target), singular=(singular_at == arr.name)))
            for arr in fib.base.arrows
        }
    for arr in fib.base.arrows:
        tmat = transition_matrix[arr.name]
        for a in fib.fiber(arr.source).elements:
            bs = blocks(arr.source, a)
            bt = blocks(arr.target, a)
            rows = sum(dims[b] for b in bt)
            cols = sum(dims[b] for b in bs)
            ent = [[Fraction(0)] * cols for _ in range(rows)]
            ro = {b: sum(dims[c] for c in bt[:i]) for i, b in enumerate(bt)}
            co = {b: sum(dims[c] for c in bs[:i]) for i, b in enumerate(bs)}
            for b in bs:
                for b2 in bt:
                    for i in range(dims[b2]):
                        for j in range(dims[b]):
                            ent[ro[b2] + i][co[b] + j] = tmat.at(off[b2] + i, off[b] + j)
            arrows[lift_arrow_id(arr.name, a)] = Matrix.from_rows(ent) if rows else Matrix(0, cols, ())
    f = StokesFunctor(fib, spaces, arrows)
    if conjugate:
        f = conjugate_functor(f, rng)
    return f


# ---------------------------------------------------------------------------
# circle-space surgery and comparison


def subdivide_arc(fib: StokesFibration, i: int):
    """Insert a redundant point inside arc s{i}; returns (fibration, old->new map)."""
    n = fib.base.n
    new_base = make_circle_base(n + 1)

    def new_point(j):  # old point index -> new index
        return j if j <= i else j + 1

    fibers = {}
    transitions = {}
    corr = {}
    for j in range(n):
        fibers[f"p{new_point(j)}"] = fib.fiber(f"p{j}")
        corr[f"p{j}"] = f"p{new_point(j)}"
    fibers[f"p{i + 1}"] = fib.fiber(f"s{i}")
    for j in range(n):
        if j < i:
            fibers[f"s{j}"] = fib.fiber(f"s{j}")
            corr[f"s{j}"] = f"s{j}"
        elif j == i:
            fibers[f"s{i}"] = fib.fiber(f"s{i}")
            fibers[f"s{i + 1}"] = fib.fiber(f"s{i}")
            corr[f"s{i}"] = f"s{i}"
        else:
            fibers[f"s{j + 1}"] = fib.fiber(f"s{j}")
            corr[f"s{j}"] = f"s{j + 1}"
    ident = lambda p: MonotoneMap(p, p, {e: e for e in p.elements})
    for j in range(n):
        nj = new_point(j)
        old_ccw = fib.transition(f"p{j}+")
        old_cw = fib.transition(f"p{j}-")
        tgt_ccw = f"s{nj}"
        tgt_cw = f"s{(nj - 1) % (n + 1)}"
        transitions[f"p{nj}+"] = MonotoneMap(fibers[f"p{nj}"], fibers[tgt_ccw], old_ccw.assignment)
        transitions[f"p{nj}-"] = MonotoneMap(fibers[f"p{nj}"], fibers[tgt_cw], old_cw.assignment)
    mid = fibers[f"p{i + 1}"]
    transitions[f"p{i + 1}+"] = ident(mid)
    transitions[f"p{i + 1}-"] = MonotoneMap(mid, fibers[f"s{i}"], {e: e for e in mid.elements})
    return StokesFibration(new_base, fibers, transitions), corr


def relabel_fiber(fib: StokesFibration, x: str, sigma: dict) -> StokesFibration:
    """Rename the elements of the fiber at x by the bijection sigma, and the
    transitions into and out of x with them; an isomorphic fibration."""
    p = fib.fiber(x)
    renamed = FinPoset(tuple(sigma[a] for a in p.elements), frozenset((sigma[a], sigma[b]) for a, b in p.leq))
    fibers = {**fib.fibers, x: renamed}
    transitions = {}
    for arr in fib.base.arrows:
        assignment = {
            (sigma[a] if arr.source == x else a): (sigma[b] if arr.target == x else b)
            for a, b in fib.transition(arr.name).assignment.items()
        }
        transitions[arr.name] = MonotoneMap(fibers[arr.source], fibers[arr.target], assignment)
    return StokesFibration(fib.base, fibers, transitions)


def subdivide_functor(f: StokesFunctor, fib_new: StokesFibration, i: int) -> StokesFunctor:
    """Extend a functor across the subdivision of arc s{i}."""
    old = f.fibration
    n = old.base.n

    def new_point(j):
        return j if j <= i else j + 1

    def old_arc(j_new):
        if j_new <= i:
            return j_new
        return j_new - 1

    spaces = {}
    arrows = {}
    for j in range(n):
        for a in old.fiber(f"p{j}").elements:
            spaces[(f"p{new_point(j)}", a)] = f.dim(f"p{j}", a)
    for a in old.fiber(f"s{i}").elements:
        spaces[(f"p{i + 1}", a)] = f.dim(f"s{i}", a)
    for j_new in range(n + 1):
        for a in fib_new.fiber(f"s{j_new}").elements:
            spaces[(f"s{j_new}", a)] = f.dim(f"s{old_arc(j_new)}", a)
    for j_new in range(n + 1):
        x = f"s{j_new}"
        for a, b in fib_new.fiber(x).covers():
            arrows[cover_arrow_id(x, a, b)] = f.cover_matrix(f"s{old_arc(j_new)}", a, b)
    for j_new in range(n + 1):
        x = f"p{j_new}"
        for a, b in fib_new.fiber(x).covers():
            if j_new == i + 1:
                arrows[cover_arrow_id(x, a, b)] = f.cover_matrix(f"s{i}", a, b)
            else:
                old_j = j_new if j_new <= i else j_new - 1
                arrows[cover_arrow_id(x, a, b)] = f.cover_matrix(f"p{old_j}", a, b)
    for j in range(n):
        nj = new_point(j)
        for a in old.fiber(f"p{j}").elements:
            arrows[lift_arrow_id(f"p{nj}+", a)] = f.lift_matrix(f"p{j}+", a)
            arrows[lift_arrow_id(f"p{nj}-", a)] = f.lift_matrix(f"p{j}-", a)
    for a in fib_new.fiber(f"p{i + 1}").elements:
        d = spaces[(f"p{i + 1}", a)]
        arrows[lift_arrow_id(f"p{i + 1}+", a)] = Matrix.identity(d)
        arrows[lift_arrow_id(f"p{i + 1}-", a)] = Matrix.identity(d)
    return StokesFunctor(fib_new, spaces, arrows)


def fibrations_isomorphic_up_to_rotation(f1: StokesFibration, f2: StokesFibration) -> bool:
    """Equality of circle fibrations after a rotation of the point indexing."""
    if f1.base.kind != "circle" or f2.base.kind != "circle" or f1.base.n != f2.base.n:
        return False
    n = f1.base.n
    for r in range(n):
        ok = True
        for j in range(n):
            if f1.fiber(f"p{j}").leq != f2.fiber(f"p{(j + r) % n}").leq:
                ok = False
                break
            if f1.fiber(f"s{j}").leq != f2.fiber(f"s{(j + r) % n}").leq:
                ok = False
                break
            for sgn in "+-":
                t1 = f1.transition(f"p{j}{sgn}").assignment
                t2 = f2.transition(f"p{(j + r) % n}{sgn}").assignment
                if t1 != t2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# the level pipeline computed the long way (oracles of what it reads off directly)


def oracle_from_relation(elements, pairs) -> frozenset:
    """The reflexive-transitive closure by rescanning every pair until nothing changes."""
    rel = {(a, a) for a in elements}
    rel.update((a, b) for a, b in pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for b2, c in list(rel):
                if b2 == b and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return frozenset(rel)


def stratum_angle(s, obj: str):
    """The angle at which the fiber of circle stratum obj was evaluated."""
    idx = int(obj[1:])
    return s.points[idx] if obj.startswith("p") else s.arc_samples[idx]


def oracle_quotient_fibration(s, threshold: int) -> StokesFibration:
    """The quotient fibration of pole_level_structure, with every class order
    evaluated again by order_at at the stratum's angle.  The classes merge
    pair by pair, and every member pair of two classes is evaluated."""
    from stokeslib.geometry import leading_data, order_at

    e = s.data
    cls = {name: {name} for name in e.names}
    for a, b in e.pairs():
        if leading_data(e.values[a], e.values[b])[0] <= threshold:
            merged = cls[a] | cls[b]
            for n in merged:
                cls[n] = merged
    classes = {name: "+".join(sorted(cls[name])) for name in e.names}
    class_names = sorted(set(classes.values()))
    members = {cn: [n for n in e.names if classes[n] == cn] for cn in class_names}
    fibers = {}
    for obj in s.fibration.base.objects:
        where = stratum_angle(s, obj)
        rel = []
        for i, ca in enumerate(class_names):
            for cb in class_names[i + 1 :]:
                verdicts = {order_at(e.values[a], e.values[b], where) for a in members[ca] for b in members[cb]}
                if "LT" in verdicts:
                    rel.append((ca, cb))
                if "GT" in verdicts:
                    rel.append((cb, ca))
        fibers[obj] = FinPoset.from_relation(class_names, rel)
    transitions = {
        arr.name: MonotoneMap(fibers[arr.source], fibers[arr.target], {cn: cn for cn in class_names})
        for arr in s.fibration.base.arrows
    }
    return StokesFibration(s.fibration.base, fibers, transitions)


def set_target_morphism(p):
    """pi: graded fibration -> underlying-set fibration of the target."""
    from stokeslib.fibrations import FibrationMorphism, fiberwise_set, graded_fibration

    gfib = graded_fibration(p)
    jset = fiberwise_set(p.target)
    maps = {
        x: MonotoneMap(gfib.fiber(x), jset.fiber(x), p.map_at(x).assignment)
        for x in gfib.base.objects
    }
    return FibrationMorphism(gfib, jset, maps)


def oracle_level_alpha(p, f: StokesFunctor, g: StokesFunctor, h: StokesFunctor) -> dict:
    """alpha[(x, c)] from the graduation of g and the induction of h to the
    underlying sets, both built in full and compared on the tops of f."""
    from stokeslib import inverse, split_fiber
    from stokeslib.exactmath import hstack_all
    from stokeslib.fibrations import FibrationMorphism, graded_fibration
    from stokeslib.functors import _BlockIndex, _embed_rows, grade_with_blocks, induce_with_blocks

    gr_g = grade_with_blocks(FibrationMorphism.identity(p.target), g)
    pi_h = induce_with_blocks(set_target_morphism(p), h)
    gfib = graded_fibration(p)
    alpha = {}
    for x in p.target.base.objects:
        px = p.map_at(x)
        s = split_fiber(f, x)
        tgt = p.target.fiber(x)

        def blocks(le, c):
            return _BlockIndex([b for b in s.order if le(b, c)], s.dims)

        for c in tgt.elements:
            labels = [b for b in s.order if px(b) == c]
            fine = _BlockIndex(labels, s.dims)
            map1 = gr_g.units[(x, c)] @ _embed_rows(fine, blocks(lambda b, c: tgt.le(px(b), c), c))
            cols = [
                pi_h.units[(x, b)] @ _embed_rows(_BlockIndex([b], s.dims), blocks(gfib.fiber(x).le, b))
                for b in labels
            ]
            alpha[(x, c)] = hstack_all(cols, pi_h.functor.dim(x, c)) @ inverse(map1)
    return alpha


# ---------------------------------------------------------------------------
# 4096-bit oracles for directions and signs: plain mpmath evaluation at the
# caller's working precision, none of the library's exact reads


def oracle_theta(c, m: int, k: int):
    """theta(c, m, k) in [0, 2*pi) at the caller's mpmath working precision;
    a value within 2^-4000 of 2*pi is a rounded 0."""
    arg = mpmath.atan2(mpmath.mpf(c.im.numerator) / c.im.denominator, mpmath.mpf(c.re.numerator) / c.re.denominator)
    theta = ((arg % (2 * mpmath.pi) - mpmath.pi / 2 + k * mpmath.pi) / m) % (2 * mpmath.pi)
    return 0 if 2 * mpmath.pi - theta < mpmath.mpf(2) ** -4000 else theta


def oracle_pair_sign(c, m: int, angle) -> int:
    """Sign of Re(c * exp(-i*m*theta)) = re*cos(m*theta) + im*sin(m*theta),
    evaluated at 4096 bits; a value within 2^-4000 of 0 is a zero."""
    with mpmath.workprec(4096):
        if hasattr(angle, "t"):
            theta = mpmath.mpf(angle.t.numerator) / angle.t.denominator * mpmath.pi
        else:
            theta = oracle_theta(angle.c, angle.m, angle.k)
        re = mpmath.mpf(c.re.numerator) / c.re.denominator
        im = mpmath.mpf(c.im.numerator) / c.im.denominator
        val = re * mpmath.cos(m * theta) + im * mpmath.sin(m * theta)
        if abs(val) < mpmath.mpf(2) ** -4000:
            return 0
        return 1 if val > 0 else -1


# ---------------------------------------------------------------------------
# interval oracles for elementary arcs and covers: the implementation that
# decided every arc by interval comparisons before the library read them off
# the sorted points and their provenance


def oracle_is_elementary_arc(s, arc) -> bool:
    """Each unequal pair has exactly one Stokes point in the closed arc,
    interior, with opposite strict orders on the two sides."""
    from stokeslib.directions import angles_equal, rational_angle_between
    from stokeslib.geometry import order_at, stokes_directions

    if s.degenerate:
        return True
    for a, b in s.data.pairs():
        va, vb = s.data.values[a], s.data.values[b]
        dirs = stokes_directions(va, vb)
        if arc.full:
            return False  # 2m >= 2 locus points
        if any(angles_equal(d, arc.start) or angles_equal(d, arc.end) for d in dirs):
            return False
        inside = [d for d in dirs if arc.contains_strictly(d)]
        if len(inside) != 1:
            return False
        d0 = inside[0]
        left = rational_angle_between(arc.start, d0)
        right = rational_angle_between(d0, arc.end)
        if {order_at(va, vb, left), order_at(va, vb, right)} != {"LT", "GT"}:
            return False
    return True


def oracle_interiors_cover(s, arcs) -> bool:
    """The open arcs cover the circle: probe every critical angle and a
    rational angle between each consecutive pair of them."""
    from stokeslib.directions import compare_angles, rational_angle_between, sort_angles

    if any(a.full for a in arcs):
        return True
    if not arcs:
        return False
    critical = sort_angles([a.start for a in arcs] + [a.end for a in arcs] + list(s.points))
    probes = list(critical)
    for i in range(len(critical)):
        j = (i + 1) % len(critical)
        if compare_angles(critical[i], critical[j]) != 0:
            probes.append(rational_angle_between(critical[i], critical[j]))
    return all(any(a.contains_strictly(x) for a in arcs) for x in probes)


def oracle_elementary_cover(s):
    """The candidate search of ``elementary_cover``, every arc and every
    cover decided by the interval oracles above."""
    from stokeslib import Arc, ExactAngle
    from stokeslib.directions import compare_angles, rational_angle_between
    from stokeslib.geometry import leading_data

    if s.degenerate:
        return [Arc(None, None, full=True)]
    e = s.data
    m = max(int(leading_data(e.values[a], e.values[b])[0]) for a, b in e.pairs())
    half = Fraction(1, 2 * m)
    n = len(s.points)
    centers = []
    for i in range(n):
        lo, hi = s.points[i], s.points[(i + 1) % n]
        mid = rational_angle_between(lo, hi)
        centers += [mid, rational_angle_between(lo, mid), rational_angle_between(mid, hi)]
    candidates = [Arc(ExactAngle(c.t - half), ExactAngle(c.t + half)) for c in centers]
    for i in range(n):
        prev_mid = rational_angle_between(s.points[(i - 1) % n], s.points[i])
        next_mid = rational_angle_between(s.points[i], s.points[(i + 1) % n])
        if compare_angles(prev_mid, next_mid) != 0:
            candidates.append(Arc(prev_mid, next_mid))
    verified = [a for a in candidates if oracle_is_elementary_arc(s, a)]
    if not oracle_interiors_cover(s, verified):
        return None
    pruned = list(verified)
    for a in list(verified):
        rest = [x for x in pruned if x is not a]
        if rest and oracle_interiors_cover(s, rest):
            pruned = rest
    return pruned


def oracle_window_cover_exists(s) -> bool:
    """Some closed elementary arcs cover the circle, decided on the n² arcs
    from a quarter angle in the first half of one gap to a quarter angle in
    the second half of another.  An elementary arc ends in two gaps and
    holds the points between them, so it may be moved to these ends without
    losing any of its points; arcs that end and start in one gap then
    overlap inside it, and no coverage is lost."""
    from stokeslib.directions import rational_angle_between
    from stokeslib import Arc

    if s.degenerate:
        return True
    n = len(s.points)
    mids = [rational_angle_between(s.points[g], s.points[(g + 1) % n]) for g in range(n)]
    first = [rational_angle_between(s.points[g], mids[g]) for g in range(n)]
    second = [rational_angle_between(mids[g], s.points[(g + 1) % n]) for g in range(n)]
    arcs = [Arc(first[g], second[h]) for g in range(n) for h in range(n)]
    return oracle_interiors_cover(s, [a for a in arcs if oracle_is_elementary_arc(s, a)])
