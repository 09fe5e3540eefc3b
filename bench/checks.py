"""Independent correctness checks, written without stokeslib's algorithms.

Circle checks evaluate Re(c * exp(-i*m*theta)) with plain mpmath at 256
bits; functor checks use plain ``Fraction`` lists.  Nothing here calls a
stokeslib function that computes an answer; it only reads fields of the
returned objects.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

PREC = 256
ZERO_TOL_BITS = 180  # |value| below 2^-180 at 256 bits counts as an exact zero


# ---------------------------------------------------------------------------
# circle: Stokes points and pointwise orders


def _leading(a_terms, b_terms):
    """Leading (q, (re, im)) of a - b from raw (q, c) term tuples, or None."""
    acc = {}
    for q, c in a_terms:
        re, im = acc.get(q, (Fraction(0), Fraction(0)))
        acc[q] = (re + c.re, im + c.im)
    for q, c in b_terms:
        re, im = acc.get(q, (Fraction(0), Fraction(0)))
        acc[q] = (re - c.re, im - c.im)
    live = [(q, c) for q, c in acc.items() if c != (0, 0)]
    return max(live, key=lambda t: t[0]) if live else None


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _reduce(x):
    """x mod 2*pi, with values within the zero tolerance of 2*pi sent to 0."""
    x = x % (2 * mpmath.pi)
    return x - 2 * mpmath.pi if x > 2 * mpmath.pi - mpmath.mpf(2) ** -ZERO_TOL_BITS else x


def _direction(re, im, m: int, k: int):
    arg = mpmath.atan2(_mp(im), _mp(re)) % (2 * mpmath.pi)
    return _reduce((arg - mpmath.pi / 2 + k * mpmath.pi) / m)


def _theta(angle):
    """Numeric angle in [0, 2*pi) from a point's stored fields."""
    if hasattr(angle, "t"):
        return _reduce(_mp(angle.t) * mpmath.pi)
    return _direction(angle.c.re, angle.c.im, angle.m, angle.k)


def _sign(lead, theta) -> int:
    q, (re, im) = lead
    m = int(q)
    val = _mp(re) * mpmath.cos(m * theta) + _mp(im) * mpmath.sin(m * theta)
    if abs(val) < mpmath.mpf(2) ** -ZERO_TOL_BITS:
        return 0
    return 1 if val > 0 else -1


def check_circle(values: dict, space) -> str | None:
    """None when the point count, the point angles and every pairwise order
    at each point and arc sample agree with an independent evaluation."""
    with mpmath.workprec(PREC):
        names = sorted(values)
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        leads = {p: _leading(values[p[0]].terms, values[p[1]].terms) for p in pairs}
        expected = sorted(
            _direction(re, im, int(q), k) for q, (re, im) in leads.values() for k in range(2 * int(q))
        )
        tol = mpmath.mpf(2) ** -ZERO_TOL_BITS
        distinct = [x for i, x in enumerate(expected) if i == 0 or x - expected[i - 1] > tol]
        if len(space.points) != len(distinct):
            return f"{len(space.points)} points, expected {len(distinct)}"
        got = [_theta(p) for p in space.points]
        for i, (g, x) in enumerate(zip(got, distinct)):
            if abs(g - x) > tol:
                return f"point p{i} at {mpmath.nstr(g, 20)}, expected {mpmath.nstr(x, 20)}"
        strata = [(f"p{i}", g) for i, g in enumerate(got)]
        strata += [(f"s{i}", _theta(a)) for i, a in enumerate(space.arc_samples)]
        for obj, theta in strata:
            fiber = space.fibration.fiber(obj)
            for (a, b), lead in leads.items():
                s = _sign(lead, theta)
                want = (s < 0, s > 0)  # (a < b, b < a)
                have = (fiber.lt(a, b), fiber.lt(b, a))
                if want != have:
                    return f"order of ({a}, {b}) at {obj}: got {have}, expected {want}"
    return None


def _pair_directions(lead) -> list:
    q, (re, im) = lead
    return [_direction(re, im, int(q), k) for k in range(2 * int(q))]


def _ccw(a, b):
    """Counterclockwise distance from a to b, in [0, 2*pi)."""
    return (b - a) % (2 * mpmath.pi)


def _inside(start, length, x, tol) -> bool:
    """x strictly inside the ccw arc of ``length`` from ``start``, by more than tol."""
    off = _ccw(start, x)
    return tol < off < length - tol


def check_cover(values: dict, cover) -> str | None:
    """None when ``cover`` is None (no cover found) or a list of arcs that
    are each elementary and whose interiors cover the circle.

    Elementary: every pair of values has exactly one Stokes direction in
    the closed arc, strictly inside it, and opposite strict orders on the
    two sides of that direction.
    """
    if cover is None:
        return None
    with mpmath.workprec(PREC):
        tol = mpmath.mpf(2) ** -ZERO_TOL_BITS
        names = sorted(values)
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        leads = {p: _leading(values[p[0]].terms, values[p[1]].terms) for p in pairs}
        if not cover:
            return "empty cover"
        arcs = []
        for i, arc in enumerate(cover):
            if arc.full:
                if pairs:
                    return f"arc {i} is the full circle, which holds two Stokes points of every pair"
                continue
            start, end = _theta(arc.start), _theta(arc.end)
            length = _ccw(start, end)
            if length < tol:
                return f"arc {i} is degenerate"
            arcs.append((start, length))
            for (a, b), lead in leads.items():
                dirs = _pair_directions(lead)
                if any(min(_ccw(start, d), _ccw(d, start)) < tol or min(_ccw(end, d), _ccw(d, end)) < tol for d in dirs):
                    return f"arc {i} ends on a Stokes direction of ({a}, {b})"
                inside = [d for d in dirs if _inside(start, length, d, tol)]
                if len(inside) != 1:
                    return f"arc {i} holds {len(inside)} Stokes directions of ({a}, {b})"
                off = _ccw(start, inside[0])
                left, right = _sign(lead, start + off / 2), _sign(lead, start + (off + length) / 2)
                if left == 0 or left != -right:
                    return f"arc {i}: the order of ({a}, {b}) does not flip across its Stokes direction"
        if len(arcs) < len(cover):
            return None  # a full arc, on a single value, covers the circle
        ends = sorted({_reduce(s) for s, _ in arcs} | {_reduce(s + n) for s, n in arcs})
        probes = list(ends)
        for k, x in enumerate(ends):
            gap = _ccw(x, ends[(k + 1) % len(ends)]) or 2 * mpmath.pi
            probes.append(x + gap / 2)
        for x in probes:
            if not any(_inside(s, n, x, tol) for s, n in arcs):
                return f"the arc interiors miss the angle {mpmath.nstr(_reduce(x), 20)}"
    return None


def _closure(elements: list, rel: set) -> set:
    """Strict relation generated by ``rel`` under transitivity."""
    out = set(rel)
    for k in elements:
        for i in elements:
            if (i, k) in out:
                out.update((i, j) for j in elements if (k, j) in out)
    return {(a, b) for a, b in out if a != b}


def check_levels(values: dict, space, levels) -> str | None:
    """None when the pole-order level structure has one stage per pole
    order, stage j identifying values whose difference has order <= j + 1,
    with quotient fibers ordered by the independent pairwise signs and
    fiber maps sending each class into the class of its members."""
    with mpmath.workprec(PREC):
        names = sorted(values)
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        leads = {p: _leading(values[p[0]].terms, values[p[1]].terms) for p in pairs}
        r = max((int(lead[0]) for lead in leads.values()), default=1)
        if len(levels.stages) != r:
            return f"{len(levels.stages)} level stages, expected {r}"
        objects = sorted(space.fibration.fibers)
        angles = {}
        for obj in objects:
            idx = int(obj[1:])
            angles[obj] = _theta(space.points[idx] if obj[0] == "p" else space.arc_samples[idx])
        less = {}  # (a, b, obj) -> a < b at obj
        for (a, b), lead in leads.items():
            for obj in objects:
                s = _sign(lead, angles[obj])
                less[a, b, obj], less[b, a, obj] = s < 0, s > 0
        prev = {n: n for n in names}  # element of the previous stage -> one member
        for j, stage in enumerate(levels.stages):
            parent = {n: n for n in names}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for (a, b), lead in leads.items():
                if lead[0] <= j + 1:
                    parent[find(a)] = find(b)
            groups = {}
            for n in names:
                groups.setdefault(find(n), []).append(n)
            cls = {n: "+".join(sorted(groups[find(n)])) for n in names}
            classes = sorted(set(cls.values()))
            if sorted(stage.target.fibers) != objects:
                return f"stage {j} has objects {sorted(stage.target.fibers)}"
            for obj in objects:
                fiber = stage.target.fiber(obj)
                if sorted(fiber.elements) != classes:
                    return f"stage {j} at {obj}: elements {sorted(fiber.elements)}, expected {classes}"
                rel = {
                    (ca, cb)
                    for ca in classes
                    for cb in classes
                    if ca != cb and any(less[a, b, obj] for a in ca.split("+") for b in cb.split("+"))
                }
                want = _closure(classes, rel)
                have = {(ca, cb) for ca in classes for cb in classes if fiber.lt(ca, cb)}
                if want != have:
                    return f"stage {j} at {obj}: order {sorted(have)}, expected {sorted(want)}"
                assignment = stage.maps[obj].assignment
                if set(assignment) != set(prev) or any(assignment[e] != cls[m] for e, m in prev.items()):
                    return f"stage {j} at {obj}: fiber map {assignment}"
            prev = {c: c.split("+")[0] for c in classes}
    return None


# ---------------------------------------------------------------------------
# plain Fraction linear algebra


def rows_of(m) -> list:
    return [[m.at(i, j) for j in range(m.cols)] for i in range(m.rows)]


def matmul(a: list, b: list, inner: int) -> list:
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)] for i in range(len(a))]


def rank(rows: list) -> int:
    """Rank over Q by elimination on sparse {column: Fraction} rows."""
    pivots = {}  # pivot column -> row with 1 at that column
    for dense in rows:
        row = {j: Fraction(v) for j, v in enumerate(dense) if v}
        for c in sorted(pivots):
            if c in row:
                f = row[c]
                for j, v in pivots[c].items():
                    row[j] = row.get(j, 0) - f * v
                    if not row[j]:
                        del row[j]
        if row:
            c = min(row)
            lead = row[c]
            pivots[c] = {j: v / lead for j, v in row.items()}
    return len(pivots)


def check_natural_iso(f, g, eta: dict, shapes: dict) -> str | None:
    """None when eta: f -> g is natural on every generating arrow and
    invertible at every total object."""
    if eta is None:
        return "no natural isomorphism returned"
    for key, dim in f.spaces.items():
        if g.spaces[key] != dim:
            return f"dimension changed at {key}"
        m = eta[key]
        if (m.rows, m.cols) != (dim, dim) or rank(rows_of(m)) != dim:
            return f"eta not invertible at {key}"
    for arrow_id, (tgt, src) in shapes.items():
        fm, gm = f.arrows[arrow_id], g.arrows[arrow_id]
        lhs = matmul(rows_of(eta[tgt]), rows_of(fm), fm.rows)
        rhs = matmul(rows_of(gm), rows_of(eta[src]), gm.cols)
        if lhs != rhs:
            return f"eta not natural on {arrow_id}"
    return None


def hom_dimension(f, g, shapes: dict) -> int:
    """dim of natural transformations f -> g by plain elimination of the
    naturality equations eta_tgt . F(m) = G(m) . eta_src."""
    offsets, total = {}, 0
    for key in sorted(f.spaces):
        offsets[key] = total
        total += g.spaces[key] * f.spaces[key]
    rows = []
    for arrow_id, (tgt, src) in shapes.items():
        fm, gm = f.arrows[arrow_id], g.arrows[arrow_id]
        for r in range(g.spaces[tgt]):
            for c in range(f.spaces[src]):
                row = [Fraction(0)] * total
                for k in range(f.spaces[tgt]):
                    row[offsets[tgt] + r * f.spaces[tgt] + k] += fm.at(k, c)
                for k in range(g.spaces[src]):
                    row[offsets[src] + k * f.spaces[src] + c] -= gm.at(r, k)
                rows.append(row)
    return total - rank(rows)
