"""Representations of poset fibrations in finite-dimensional rational spaces.

A functor assigns a dimension to every total object (x, a) and an exact
matrix to every generating total arrow: Hasse covers inside fibers and one
cocartesian lift per (base arrow, fiber element).  The operations decide
punctual splitting by the top-dimension count, cocartesianness through
specialization matrices, perform induction and graduation on split
coordinates, realize the level-induction pullback square, solve global
splitting as one exact linear system, and compute Ext from Hom(P, G) for a
minimal projective resolution P of F over the total category: the complex
that ``hom_complex`` returns and the CLI prints, padded with zero terms to
the length of the nerve complex.  Every composite along a poset path is read
off a ``FinPoset.path_composites`` table, which a functor makes once per fiber.
A functor keeps the splitting of each fiber once found; one made by induction
on split coordinates reads it off its blocks instead of eliminating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from graphlib import TopologicalSorter
from itertools import accumulate

from .bases import BaseFunctor, base_arrow_id
from .exactmath import (
    Matrix,
    _echelon,
    block_diag,
    column_space_complement,
    hstack_all,
    inverse,
    is_invertible,
    kernel_basis,
    mat_solve,
    sparse_kernel_basis,
    sparse_rank,
    sparse_solve,
)
from .fibrations import (
    FibrationMorphism,
    StokesFibration,
    TotalCategory,
    fiberwise_set,
    graded_fibration,
    is_level_fibration_morphism,
    pullback_fibration,
    validate_fibration,
)


def cover_arrow_id(x: str, a: str, b: str) -> str:
    return f"{x}::{a}<{b}"


def lift_arrow_id(base_arrow: str, a: str) -> str:
    return f"{base_arrow}::{a}"


class _ReadOnlyDict(dict):
    """A dict that refuses every edit with TypeError; it pickles as its items."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("the dicts of a StokesFunctor are read-only; build a new functor instead")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class StokesFunctor:
    """A dimension per total object and a matrix per generating total arrow.

    The dicts are copied into read-only dicts when it is built, so that what
    it keeps stays true: the walks of its fibers and base, the splitting of
    each fiber that ``split_fiber`` found, and, on a functor made by induction
    on split coordinates, the blocks that ``split_fiber`` reads its splitting
    off.  Equality and repr read the three fields only.
    """

    fibration: StokesFibration
    spaces: dict  # (x, a) -> dimension
    arrows: dict  # generating total arrow id -> Matrix

    def __post_init__(self):
        object.__setattr__(self, "spaces", _ReadOnlyDict(self.spaces))
        object.__setattr__(self, "arrows", _ReadOnlyDict(self.arrows))
        object.__setattr__(self, "_walks", {})
        object.__setattr__(self, "_splittings", {})
        object.__setattr__(self, "_blocks", None)  # (x, c) -> _BlockIndex, set by _induce_split

    def _walk(self, x: str | None) -> tuple[dict, tuple | None]:
        """The walk up the fiber at x (F(a <= b) over a < b) or, for x None, up a poset
        base (per x < y and a in the fiber at x, the composite lift and the element
        it reaches), with its first conflict; made on first use, kept off the fields."""
        if x not in self._walks:
            fib, cover, lift = self.fibration, self.cover_matrix, self.lift_matrix

            def step(u, v, m):
                if x is not None:
                    return cover(x, u, v) if m is None else cover(x, u, v) @ m
                g = base_arrow_id(u, v)
                t = fib.transition(g)
                if m is None:
                    return {a: (lift(g, a), t(a)) for a in fib.fiber(u).elements}
                return {a: (lift(g, c) @ lm, t(c)) for a, (lm, c) in m.items()}

            self._walks[x] = (fib.base.poset if x is None else fib.fiber(x)).path_composites(step)
        return self._walks[x]

    def dim(self, x: str, a: str) -> int:
        return self.spaces[(x, a)]

    def cover_matrix(self, x: str, a: str, b: str) -> Matrix:
        return self.arrows[cover_arrow_id(x, a, b)]

    def lift_matrix(self, base_arrow: str, a: str) -> Matrix:
        return self.arrows[lift_arrow_id(base_arrow, a)]

    def fiber_matrix(self, x: str, a: str, b: str) -> Matrix:
        """F(a <= b) in the fiber at x, read off its walk; ValueError when a is
        not below b or when the fiber's cover paths from a to b disagree."""
        if a == b:
            return Matrix.identity(self.dim(x, a))
        table, bad = self._walk(x)
        if (a, b) in table:
            return table[a, b]
        if not self.fibration.fiber(x).lt(a, b):
            raise ValueError(f"no cover chain from {a} up to {b}")
        raise ValueError(f"fiber functoriality fails between {bad[0]} and {bad[1]} at {x}")

    def morphism_matrix(self, tm) -> Matrix:
        """Value on a morphism of the total category: the lift over its base
        morphism, then the fiber composite at the target."""
        (x, a), (y, c) = tm.source, tm.target
        if x == y:
            return self.fiber_matrix(x, a, c)
        if tm.arrow is not None:
            lift, reached = self.lift_matrix(tm.arrow, a), self.fibration.transition(tm.arrow)(a)
        else:
            lift, reached = self._walk(None)[0][x, y][a]
        return lift if reached == c else self.fiber_matrix(y, reached, c) @ lift


def generating_arrow_shapes(fib: StokesFibration) -> dict:
    """Expected (target, source) total objects for every generating arrow id;
    ValueError when two arrows get one id, as names with '<' or '::' can."""
    shapes = [(cover_arrow_id(x, a, b), ((x, b), (x, a))) for x in fib.base.objects for a, b in fib.fiber(x).covers()]
    for arr in fib.base.arrows:
        t = fib.transition(arr.name)
        for a in fib.fiber(arr.source).elements:
            shapes.append((lift_arrow_id(arr.name, a), ((arr.target, t(a)), (arr.source, a))))
    out = dict(shapes)
    if len(out) < len(shapes):
        raise ValueError("two generating arrows share one id; element names with '<' or '::' make ids ambiguous")
    return out


def validate_functor(f: StokesFunctor) -> tuple[bool, str]:
    """Shapes, no key that names nothing, and every path-independence relation
    as exact matrix identities."""
    ok, why = validate_fibration(f.fibration)
    if not ok:
        return False, f"fibration: {why}"
    fib = f.fibration
    objects = [(x, a) for x in fib.base.objects for a in fib.fiber(x).elements]
    for x, a in objects:
        if (x, a) not in f.spaces or f.spaces[(x, a)] < 0:
            return False, f"missing or negative dimension at ({x},{a})"
    try:
        shapes = generating_arrow_shapes(fib)
    except ValueError as exc:
        return False, str(exc)
    for arrow_id, (tgt, src) in shapes.items():
        m = f.arrows.get(arrow_id)
        if m is None:
            return False, f"missing matrix for arrow {arrow_id}"
        if (m.rows, m.cols) != (f.spaces[tgt], f.spaces[src]):
            return False, f"shape mismatch on arrow {arrow_id}"
    unknown = [f"total object ({x},{a})" for x, a in sorted(f.spaces.keys() - set(objects))]
    unknown += [f"arrow {arrow_id}" for arrow_id in sorted(f.arrows.keys() - shapes.keys())]
    if unknown:
        return False, f"unknown {unknown[0]}"
    # fiber functoriality: all cover paths between comparable pairs agree
    for x in fib.base.objects:
        bad = f._walk(x)[1]
        if bad is not None:
            return False, f"fiber functoriality fails between {bad[0]} and {bad[1]} at {x}"
    # naturality of cocartesian lifts against fiber covers
    for arr in fib.base.arrows:
        t = fib.transition(arr.name)
        for a, b in fib.fiber(arr.source).covers():
            left = f.lift_matrix(arr.name, b) @ f.cover_matrix(arr.source, a, b)
            right = f.lift_matrix(arr.name, a)
            if t(a) != t(b):
                right = f._walk(arr.target)[0][t(a), t(b)] @ right
            if left != right:
                return False, f"lift naturality fails for {arr.name} at cover {a}<{b}"
    # base-level path independence for poset bases
    if fib.base.kind == "poset":
        bad = f._walk(None)[1]
        if bad is not None:
            x, y, m, m2 = bad
            a = next(a for a in m if m[a] != m2[a])
            return False, f"lift path independence fails over {x}->{y} at {a}"
    return True, "ok"


# ---------------------------------------------------------------------------
# punctual splitting


@dataclass(frozen=True)
class Splitting:
    """Split coordinates of one fiber: tops V_b and the natural iso theta.

    ``theta[a]`` is the invertible map from the ordered direct sum of V_b
    over b <= a (block order given by ``order``) onto the fiber value at a;
    ``sections[b]`` is the chosen section of the top quotient at b.
    """

    at: str
    order: tuple
    dims: dict
    sections: dict
    theta: dict
    theta_inv: dict

    def blocks(self, le, a) -> list:
        return [b for b in self.order if le(b, a)]


def _comparison(f: StokesFunctor, y: str, a: str, parts) -> Matrix:
    """The canonical map into F(y, a) out of the ordered sum of the blocks m of
    ``parts`` = [(c, m)], c <= a, each sent on through F(c <= a): the
    specialization matrices and the iso of a global splitting."""
    return hstack_all([m if c == a else f.fiber_matrix(y, c, a) @ m for c, m in parts], f.dim(y, a))


def split_fiber(f: StokesFunctor, x: str) -> Splitting | None:
    """Split coordinates at x, or None when the fiber does not split.

    Found once per functor and fiber and kept on f.  A functor made by
    induction on split coordinates reads its splitting off its blocks; any
    other is split by elimination.  Both give the same splitting.
    """
    if x not in f._splittings:
        f._splittings[x] = _split_by_elimination(f, x) if f._blocks is None else _split_from_blocks(f, x)
    return f._splittings[x]


def _split_by_elimination(f: StokesFunctor, x: str) -> Splitting | None:
    """The fiber splits iff for every a the dimension of F(a) equals the sum
    over b <= a of dim F(b) / (sum of images of the covers into b); the
    canonical comparison built from any sections of the top quotients is
    then automatically invertible.
    """
    fib = f.fibration.fiber(x)
    order = fib.linear_extension()
    covers = fib.covers()
    dims = {}
    idx = {}
    sections = {}
    for b in order:
        d_b = f.dim(x, b)
        # on a functor every F(c <= b), c < b, factors through a cover into b
        idx[b] = column_space_complement(hstack_all([f.cover_matrix(x, u, v) for u, v in covers if v == b], d_b))
        dims[b] = len(idx[b])
        sections[b] = Matrix.identity(d_b).submatrix(range(d_b), idx[b])
    for a in fib.elements:
        if f.dim(x, a) != sum(dims[b] for b in fib.elements if fib.le(b, a)):
            return None
    theta = {}
    theta_inv = {}
    for a in fib.elements:
        # F(b <= a) . section_b picks the columns idx[b] of F(b <= a); every b < a comes before a in order
        blocks = [f.fiber_matrix(x, b, a).submatrix(range(f.dim(x, a)), idx[b]) for b in order if fib.lt(b, a)]
        th = hstack_all(blocks + [sections[a]], f.dim(x, a))
        try:
            theta_inv[a] = inverse(th)
        except ValueError:
            raise ArithmeticError("dimension count passed but the comparison is singular") from None
        theta[a] = th
    return Splitting(x, order, dims, sections, theta, theta_inv)


def _split_from_blocks(f: StokesFunctor, x: str) -> Splitting:
    """The splitting at x of a functor induced on split coordinates, read off
    its blocks with no elimination.

    The value at c is the ordered sum of the tops V_b of the inducing functor
    with q(b) <= c, and the covers are block inclusions, so the covers into c
    span the blocks with q(b) < c: the top at c is the run of blocks with
    q(b) = c, the first c in linear-extension order whose blocks hold b.  Its
    section is the unit columns of those blocks, theta[a] is the permutation
    from the tops below a onto the block order at a, and theta_inv[a] is its
    transpose; elimination finds exactly these.
    """
    fib = f.fibration.fiber(x)
    order = fib.linear_extension()
    own, seen = {}, set()
    for c in order:
        own[c] = [b for b in f._blocks[(x, c)].labels if b not in seen]
        seen.update(own[c])
    one, zero = Fraction(1), Fraction(0)

    def unit_columns(a, tops) -> Matrix:
        bi = f._blocks[(x, a)]
        n, at = bi.total, [bi.offset(b) + i for b in tops for i in range(bi.dims[b])]
        return Matrix(n, len(at), tuple(one if r == i else zero for r in range(n) for i in at))

    dims = {c: sum(f._blocks[(x, c)].dims[b] for b in own[c]) for c in order}
    sections = {c: unit_columns(c, own[c]) for c in order}
    theta = {a: unit_columns(a, [b for c in order if fib.le(c, a) for b in own[c]]) for a in fib.elements}
    return Splitting(x, order, dims, sections, theta, {a: m.transpose() for a, m in theta.items()})


def punctual_splittings(f: StokesFunctor) -> dict | None:
    out = {}
    for x in f.fibration.base.objects:
        s = split_fiber(f, x)
        if s is None:
            return None
        out[x] = s
    return out


def is_punctually_split(f: StokesFunctor) -> bool:
    return punctual_splittings(f) is not None


# ---------------------------------------------------------------------------
# specialization matrices and the Stokes condition


def specialization_matrix(f: StokesFunctor, base_arrow: str, s: Splitting) -> dict:
    """Per target-fiber element a, the canonical map out of the induced sum.

    The V_b block (over f_gamma(b) <= a, in splitting order) is
    F(f_gamma(b) <= a) . F(lift at b) . section_b.
    """
    arr = f.fibration.base.arrow(base_arrow)
    if s.at != arr.source:
        raise ValueError("splitting is not at the source of the arrow")
    t = f.fibration.transition(base_arrow)
    target_fiber = f.fibration.fiber(arr.target)
    lifted = [(t(b), f.lift_matrix(base_arrow, b) @ s.sections[b]) for b in s.order]
    return {
        a: _comparison(f, arr.target, a, [(c, m) for c, m in lifted if target_fiber.le(c, a)])
        for a in target_fiber.elements
    }


def _first_singular(f: StokesFunctor, base_arrow: str, s: Splitting):
    """The first target element whose specialization matrix is singular, or None."""
    spec = specialization_matrix(f, base_arrow, s)
    return next((a for a, m in spec.items() if not is_invertible(m)), None)


def is_cocartesian_at(f: StokesFunctor, base_arrow: str, splitting: Splitting | None = None) -> bool | None:
    """True/False; None (not applicable) when the source fiber is not split."""
    arr = f.fibration.base.arrow(base_arrow)
    s = splitting if splitting is not None else split_fiber(f, arr.source)
    if s is None:
        return None
    return _first_singular(f, base_arrow, s) is None


def is_stokes(f: StokesFunctor) -> bool:
    """Punctually split and cocartesian at every base arrow."""
    return stokes_witness(f)[0]


def stokes_witness(f: StokesFunctor) -> tuple[bool, str]:
    """Verdict plus a reason on the negative side."""
    splittings = {}
    for x in f.fibration.base.objects:
        s = split_fiber(f, x)
        if s is None:
            return False, f"not punctually split at {x}"
        splittings[x] = s
    for arr in f.fibration.base.arrows:
        a = _first_singular(f, arr.name, splittings[arr.source])
        if a is not None:
            return False, f"singular specialization matrix at arrow {arr.name}, element {a}"
    return True, "ok"


# ---------------------------------------------------------------------------
# standard split coordinates, induction and graduation


def _standardize(f: StokesFunctor) -> dict:
    splittings = punctual_splittings(f)
    if splittings is None:
        raise ValueError("functor is not punctually split")
    return splittings


@dataclass
class _BlockIndex:
    """An ordered list of labelled blocks with dimensions."""

    labels: list
    dims: dict

    @property
    def total(self) -> int:
        return sum(self.dims[b] for b in self.labels)

    def offset(self, b) -> int:
        return sum(self.dims[c] for c in self.labels[: self.labels.index(b)])


def _embed_rows(src: _BlockIndex, tgt: _BlockIndex, m: Matrix | None = None) -> Matrix:
    """The rows of m, block by block in src order, placed at the same blocks of tgt.

    m defaults to the identity, which gives the inclusion of src into tgt.
    Blocks that tgt lacks are dropped; the rows of tgt that no block of
    src reaches are zero.
    """
    if m is None:
        m = Matrix.identity(src.total)
    if src.labels == tgt.labels:
        return m
    out = [(Fraction(0),) * m.cols] * tgt.total
    ro = 0
    for b in src.labels:
        if b in tgt.labels:
            to = tgt.offset(b)
            for i in range(src.dims[b]):
                out[to + i] = m.row(ro + i)
        ro += src.dims[b]
    return Matrix(tgt.total, m.cols, tuple(x for row in out for x in row))


def _project(s: Splitting, le, a, onto: _BlockIndex) -> Matrix:
    """F(x, a) onto the tops that onto names, in the coordinates of s.

    The rows of theta_inv[a] for the tops below a, placed at their blocks of
    onto; the top V_a alone is the quotient F(x, a) -> V_a.
    """
    return _embed_rows(_BlockIndex(s.blocks(le, a), s.dims), onto, s.theta_inv[a])


@dataclass
class InducedFunctor:
    """Induction along a fibrationwise map, with its units.

    ``units[(x, a)]`` is the unit F(x, a) -> G(x, q(a)) of the induction
    adjunction.  For a graduation the units are the projections
    F(x, a) -> Gr(x, a).
    """

    functor: StokesFunctor
    units: dict


def _identity_at(x: str):
    return lambda a: a


def _induce_split(f: StokesFunctor, splittings: dict, target: StokesFibration, q) -> InducedFunctor:
    """Induce f onto target along the element maps q(x), on split coordinates.

    The value at (x, c) is the ordered sum of the tops V_b with q(x)(b) <= c.
    Graduation is the case target = graded fibration and q = identity: the
    graded order keeps exactly the same-level blocks below each element.
    The tops of f are the case target = underlying set fibration.
    """
    source = f.fibration
    blocks = {}
    for x in target.base.objects:
        s = splittings[x]
        fib = target.fiber(x)
        qx = q(x)
        for c in fib.elements:
            labels = [b for b in s.order if fib.le(qx(b), c)]
            blocks[(x, c)] = _BlockIndex(labels, {b: s.dims[b] for b in labels})
    arrows = {}
    for x in target.base.objects:
        for a, b in target.fiber(x).covers():
            arrows[cover_arrow_id(x, a, b)] = _embed_rows(blocks[(x, a)], blocks[(x, b)])
    for arr in target.base.arrows:
        t = target.transition(arr.name)
        f_i = source.transition(arr.name)
        s_x, s_y = splittings[arr.source], splittings[arr.target]
        le_y = source.fiber(arr.target).le
        # the top V_b lands in the blocks below f_i(b); only those that some
        # target block over a source block holding b has are formed, once per b
        kept = {b: set() for b in s_x.order}
        for a in target.fiber(arr.source).elements:
            tgt_labels = blocks[(arr.target, t(a))].labels
            for b in blocks[(arr.source, a)].labels:
                kept[b].update(tgt_labels)
        lifted = {}
        for b, rows in kept.items():
            bi = _BlockIndex([c for c in s_y.blocks(le_y, f_i(b)) if c in rows], s_y.dims)
            lifted[b] = bi, _project(s_y, le_y, f_i(b), bi) @ (f.lift_matrix(arr.name, b) @ s_x.sections[b])
        for a in target.fiber(arr.source).elements:
            tgt_bi = blocks[(arr.target, t(a))]
            cols = [_embed_rows(bi, tgt_bi, m) for bi, m in map(lifted.get, blocks[(arr.source, a)].labels)]
            arrows[lift_arrow_id(arr.name, a)] = hstack_all(cols, tgt_bi.total)
    units = {}
    for x in target.base.objects:
        fib = source.fiber(x)
        qx = q(x)
        for a in fib.elements:
            units[(x, a)] = _project(splittings[x], fib.le, a, blocks[(x, qx(a))])
    spaces = {key: bi.total for key, bi in blocks.items()}
    induced = StokesFunctor(target, spaces, arrows)
    object.__setattr__(induced, "_blocks", blocks)  # split_fiber reads its splitting off these
    return InducedFunctor(induced, units)


def _check_morphism(p: FibrationMorphism, f: StokesFunctor) -> None:
    """Raise ValueError unless p is a fibration morphism out of f's fibration."""
    if f.fibration != p.source:
        raise ValueError("functor does not live on the source of the morphism")
    ok, why = validate_fibration(p.target)
    if not ok:
        raise ValueError(f"target fibration: {why}")
    bad = next((x for x in p.source.base.objects if not p.map_at(x).is_valid()), None)
    if bad is not None:
        raise ValueError(f"the map of fibers at {bad} is not monotone")
    if not p.squares_commute():
        raise ValueError("fibration morphism squares do not commute")


def induce_with_blocks(p: FibrationMorphism, f: StokesFunctor) -> InducedFunctor:
    _check_morphism(p, f)
    return _induce_split(f, _standardize(f), p.target, p.map_at)


def induce(p: FibrationMorphism, f: StokesFunctor) -> StokesFunctor:
    """Left Kan extension along a fibrationwise map, on split coordinates."""
    return induce_with_blocks(p, f).functor


def grade_with_blocks(p: FibrationMorphism, f: StokesFunctor) -> InducedFunctor:
    """Graduation along a graduation morphism: induction onto the graded fibration."""
    _check_morphism(p, f)
    # raises on a target that is not a graduation before f is split
    gfib = graded_fibration(p)
    return _induce_split(f, _standardize(f), gfib, _identity_at)


def grade(p: FibrationMorphism, f: StokesFunctor) -> StokesFunctor:
    """Associated graded along a graduation morphism, on split coordinates."""
    return grade_with_blocks(p, f).functor


def grade_right_adjoint(p: FibrationMorphism, h: StokesFunctor) -> StokesFunctor:
    """Right adjoint of graduation: same values, zero maps across level jumps."""
    gfib = graded_fibration(p)
    if h.fibration != gfib:
        raise ValueError("functor does not live on the graded fibration")
    src = p.source
    spaces = {}
    arrows = {}
    for x in src.base.objects:
        for a in src.fiber(x).elements:
            spaces[(x, a)] = h.dim(x, a)
    for x in src.base.objects:
        px = p.map_at(x)
        for a, b in src.fiber(x).covers():
            if px(a) == px(b):
                # a same-level cover is a cover of the graded fiber too
                arrows[cover_arrow_id(x, a, b)] = h.cover_matrix(x, a, b)
            else:
                arrows[cover_arrow_id(x, a, b)] = Matrix.zeros(h.dim(x, b), h.dim(x, a))
    for arr in src.base.arrows:
        for a in src.fiber(arr.source).elements:
            arrows[lift_arrow_id(arr.name, a)] = h.lift_matrix(arr.name, a)
    return StokesFunctor(src, spaces, arrows)


# ---------------------------------------------------------------------------
# level induction


def level_disassemble(p: FibrationMorphism, f: StokesFunctor):
    """Break a functor across a level graduation morphism.

    Returns (g, h, alpha): the induction to the quotient, the graduation,
    and the canonical identification alpha[(x, c)] from the graduation of g
    to the induction of h over the underlying-set fibration of the target.
    f is split once, and both g and h are built from that one splitting:
    both sides then refine to the tops V_b of f with p(b) = c, in splitting
    order, so alpha is the identity.  g and h read their own splittings off
    their blocks, so ``level_assemble`` splits neither by elimination.
    """
    if not is_level_fibration_morphism(p):
        raise ValueError("not a level graduation morphism")
    splittings = _standardize(f)
    if f.fibration != p.source:
        raise ValueError("functor does not live on the source of the morphism")
    g = _induce_split(f, splittings, p.target, p.map_at).functor
    h = _induce_split(f, splittings, graded_fibration(p), _identity_at).functor
    alpha = {}
    for x in p.target.base.objects:
        px = p.map_at(x)
        s = splittings[x]
        for c in p.target.fiber(x).elements:
            alpha[(x, c)] = Matrix.identity(sum(s.dims[b] for b in s.order if px(b) == c))
    return g, h, alpha


def level_assemble(p: FibrationMorphism, g: StokesFunctor, h: StokesFunctor, alpha: dict) -> StokesFunctor:
    """Reassemble the level-induction square objectwise as exact kernels.

    The value at (x, a) presents the fiber product of g at p(a) and h at a
    over the common graduation, glued through alpha; structure maps are the
    induced maps on kernels, solved exactly.
    """
    if not is_level_fibration_morphism(p):
        raise ValueError("not a level graduation morphism")
    # the graduation of g over the target, and the induction of h to the
    # underlying sets of the target, read off one splitting of each (kept on
    # pieces from level_disassemble, found by elimination on any others)
    if g.fibration != p.target:
        raise ValueError("g does not live on the target of the morphism")
    split_g = _standardize(g)
    if h.fibration != graded_fibration(p):
        raise ValueError("h does not live on the graded fibration of the morphism")
    split_h = _standardize(h)
    src = p.source
    objects = {(x, c) for x in p.target.base.objects for c in p.target.fiber(x).elements}
    odd = sorted(objects.symmetric_difference(alpha))
    if odd:
        raise ValueError(f"alpha {'has no entry at' if odd[0] in objects else 'names no total object'} {odd[0]}")
    for key, m in alpha.items():
        if not is_invertible(m):
            raise ValueError(f"alpha at {key} is not invertible")

    kernels = {}
    spaces = {}
    for x in src.base.objects:
        px = p.map_at(x)
        s_g, s_h = split_g[x], split_h[x]
        le_g, le_h = g.fibration.fiber(x).le, h.fibration.fiber(x).le
        # g at c onto its top, through alpha: once per c, for every a above it
        q_sides = {c: alpha[(x, c)] @ _project(s_g, le_g, c, _BlockIndex([c], s_g.dims)) for c in s_g.order}
        for a in src.fiber(x).elements:
            c = px(a)
            same_class = _BlockIndex([b for b in s_h.order if px(b) == c], s_h.dims)
            r_side = _project(s_h, le_h, a, same_class)
            glue = q_sides[c].hstack(-r_side)
            k = kernel_basis(glue)
            kernels[(x, a)] = k
            spaces[(x, a)] = k.cols

    def induced_on_kernels(src_key, tgt_key, gm: Matrix, hm: Matrix) -> Matrix:
        big = block_diag([gm, hm])
        sol = mat_solve(kernels[tgt_key], big @ kernels[src_key])
        if sol is None:
            raise ArithmeticError("structure map does not preserve the assembled kernels")
        return sol

    # h on the source of p, with zero maps across level jumps
    h_src = grade_right_adjoint(p, h).arrows
    arrows = {}
    for x in src.base.objects:
        px = p.map_at(x)
        for a, b in src.fiber(x).covers():
            aid = cover_arrow_id(x, a, b)
            # p sends a cover to a cover or to one element: a d with p(a) < p(d) < p(b) has a < d < b
            gm = Matrix.identity(g.dim(x, px(a))) if px(a) == px(b) else g.cover_matrix(x, px(a), px(b))
            arrows[aid] = induced_on_kernels((x, a), (x, b), gm, h_src[aid])
    for arr in src.base.arrows:
        f_i = src.transition(arr.name)
        px = p.map_at(arr.source)
        for a in src.fiber(arr.source).elements:
            aid = lift_arrow_id(arr.name, a)
            arrows[aid] = induced_on_kernels(
                (arr.source, a), (arr.target, f_i(a)), g.lift_matrix(arr.name, px(a)), h_src[aid]
            )
    return StokesFunctor(src, spaces, arrows)


# ---------------------------------------------------------------------------
# global splitting


@dataclass(frozen=True)
class GlobalSplitting:
    """A functor on the set fibration plus the natural iso onto the input."""

    graded: StokesFunctor
    iso: dict  # (x, a) -> invertible Matrix from the ordered sum of tops


def top_functor(f: StokesFunctor, splittings: dict) -> StokesFunctor:
    """The graduation of f as a functor on the underlying set fibration:
    the induction onto it along the identity, so each value is one top."""
    return _induce_split(f, splittings, fiberwise_set(f.fibration), _identity_at).functor


def split_global(f: StokesFunctor) -> GlobalSplitting | None:
    """A global splitting, or None when the natural-section system is infeasible.

    Splitness is the existence of a section of the canonical map from the
    restriction of f to the set fibration onto its graduation, natural over
    every base arrow; feasibility is one exact linear solve.
    """
    splittings = punctual_splittings(f)
    if splittings is None:
        return None
    fib = f.fibration
    # the tops, with the quotients q: F(x, a) -> V_a as the units
    induced = _induce_split(f, splittings, fiberwise_set(fib), _identity_at)
    tops = induced.functor
    # sigma: tops -> f restricted to the set fibration, natural over every base arrow
    on_sets = StokesFunctor(tops.fibration, f.spaces, {k: f.arrows[k] for k in tops.arrows})
    naturality, var_offset, total = _naturality_rows(tops, on_sets)
    rhs_col = total
    rows: list[dict] = []
    # q . sigma = identity at every total object (sigma_(x, a) is row-major, d_top wide)
    for key, q in induced.units.items():
        d_top, off = q.rows, var_offset[key]
        for r, line in enumerate(_sparse_lines(q, False)):
            for c in range(d_top):
                row = {off + k * d_top + c: v for k, v in line}
                if r == c:
                    row[rhs_col] = Fraction(-1)
                rows.append(row)
    rows.extend(naturality)
    sol = sparse_solve(rows, rhs_col)
    if sol is None:
        return None
    sigmas = _read_eta(dict(sol), var_offset, tops, on_sets)
    iso = {}
    for x in fib.base.objects:
        fibx = fib.fiber(x)
        s = splittings[x]
        for a in fibx.elements:
            th = _comparison(f, x, a, [(b, sigmas[(x, b)]) for b in s.blocks(fibx.le, a)])
            if not is_invertible(th):
                raise ArithmeticError("feasible section produced a singular comparison")
            iso[(x, a)] = th
    return GlobalSplitting(tops, iso)


# ---------------------------------------------------------------------------
# natural transformations, Ext and tangent dimensions


def _naturality_rows(f: StokesFunctor, g: StokesFunctor) -> tuple[list, dict, int]:
    """The equations eta_tgt . F(m) = G(m) . eta_src over every generating arrow m.

    Returns (sparse rows, offsets, number of unknowns); the entries of
    eta_(x, a) start at ``offsets[(x, a)]``.
    """
    fib = f.fibration
    offsets = {}
    total = 0
    for x in fib.base.objects:
        for a in fib.fiber(x).elements:
            # eta_(x, a) has shape g.spaces x f.spaces, row-major
            offsets[(x, a)] = total
            total += f.spaces[(x, a)] * g.spaces[(x, a)]
    rows: list[dict] = []
    for arrow_id, (tgt, src) in generating_arrow_shapes(fib).items():
        f_cols = _sparse_lines(f.arrows[arrow_id], True)
        g_rows = _sparse_lines(g.arrows[arrow_id], False)
        at_tgt, w_tgt = offsets[tgt], f.spaces[tgt]
        at_src, w_src = offsets[src], f.spaces[src]
        # (eta_tgt . F(m) - G(m) . eta_src)[r, c] = 0; a generating arrow is
        # never an endomorphism, so the two terms share no unknown
        for r, g_row in enumerate(g_rows):
            for c, f_col in enumerate(f_cols):
                row = {at_tgt + r * w_tgt + k: v for k, v in f_col}
                row.update((at_src + k * w_src + c, -v) for k, v in g_row)
                if row:
                    rows.append(row)
    return rows, offsets, total


def _read_eta(vec: dict, offsets: dict, f: StokesFunctor, g: StokesFunctor) -> dict:
    """The matrices eta_(x, a): F(x, a) -> G(x, a) of a solution vector of
    ``_naturality_rows(f, g)``, given as {unknown: value}."""
    eta = {}
    for key, off in offsets.items():
        d_g, d_f = g.spaces[key], f.spaces[key]
        eta[key] = Matrix(
            d_g, d_f, tuple(vec.get(off + i * d_f + j, Fraction(0)) for i in range(d_g) for j in range(d_f))
        )
    return eta


def natural_transformation_basis(f: StokesFunctor, g: StokesFunctor) -> list[dict]:
    """A basis of the space of natural transformations f -> g."""
    if f.fibration != g.fibration:
        raise ValueError("functors live on different fibrations")
    rows, offsets, total = _naturality_rows(f, g)
    return [_read_eta(vec, offsets, f, g) for vec in sparse_kernel_basis(rows, total)]


def natural_isomorphism(f: StokesFunctor, g: StokesFunctor) -> dict | None:
    """A natural isomorphism f -> g found by exact solve, or None.

    Up to 64 draws (seed 7) of integer combinations of a basis of natural
    transformations, with coefficients of size 1 to 8 (growing every 8 draws).
    """
    import random

    if f.fibration != g.fibration:
        return None
    keys = [(x, a) for x in f.fibration.base.objects for a in f.fibration.fiber(x).elements]
    if any(f.spaces[k] != g.spaces[k] for k in keys):
        return None
    if all(f.spaces[k] == 0 for k in keys):
        return {k: Matrix.zeros(0, 0) for k in keys}
    rows, offsets, total = _naturality_rows(f, g)
    basis = sparse_kernel_basis(rows, total)
    if not basis:
        return None
    rng = random.Random(7)
    for attempt in range(64):
        bound = 1 + attempt // 8
        coeffs = [Fraction(rng.randint(-bound, bound)) for _ in basis]
        vec: dict = {}
        for co, b in zip(coeffs, basis):
            if co:
                for col, v in b.items():
                    vec[col] = vec.get(col, Fraction(0)) + co * v
        eta = _read_eta(vec, offsets, f, g)
        if all(is_invertible(eta[k]) for k in keys):
            return eta
    return None


@dataclass
class HomComplex:
    """A finite cochain complex over Q, supported in degrees >= 0.

    ``rows[i]`` holds the differential C^i -> C^(i+1) as sparse rows,
    ``{row index: {column: Fraction}}`` in increasing row order; rows that
    vanish are absent.
    """

    dims: list
    rows: list

    @property
    def differentials(self) -> list:
        """The differentials as dense matrices, built afresh on each read."""
        out = []
        for i, sparse in enumerate(self.rows):
            nr, nc = self.dims[i + 1], self.dims[i]
            ent = [Fraction(0)] * (nr * nc)
            for r, row in sparse.items():
                for c, v in row.items():
                    ent[r * nc + c] = v
            out.append(Matrix(nr, nc, tuple(ent)))
        return out

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * d for i, d in enumerate(self.dims))

    def cohomology_dims(self) -> list:
        ranks = [sparse_rank(d.values()) for d in self.rows]
        out = []
        for i, dim in enumerate(self.dims):
            r_out = ranks[i] if i < len(ranks) else 0
            r_in = ranks[i - 1] if i >= 1 else 0
            out.append(dim - r_out - r_in)
        return out


def _sparse_lines(m: Matrix, by_column: bool) -> list:
    """Nonzero entries of each column (or row) of m as (index, value) pairs."""
    lines = [m.entries[s :: m.cols] for s in range(m.cols)] if by_column else map(m.row, range(m.rows))
    return [[(i, v) for i, v in enumerate(line) if v] for line in lines]


def hom_complex(f: StokesFunctor, g: StokesFunctor) -> HomComplex:
    """Hom(P, G) for a minimal projective resolution P of F over the total category.

    P_n sums representables P_w = Q[Hom(w, -)], and Hom(P_w, G) = G(w).  Each
    module is a basis at every object v: in F(v), then in the coordinates
    (j, h), h: w_j -> v, of the last cover, which m relabels to (j, m h).  Its
    generators t_j complete the images of the nonidentity morphisms into w_j
    to a basis, and the cover sends (j, h) to M(h) t_j.  The t_j at one object
    are independent modulo those images, so no vector of the cover's kernel,
    the next module, has a (j, identity) coordinate: only nonidentity h are
    coordinates.  A next generator sum c (j, h) gives the rows sum c G(h) of
    the differential.  Zero terms pad the complex to the nerve's length: the
    longest chain of nonidentity morphisms, plus one.
    """
    if f.fibration != g.fibration:
        raise ValueError("functors live on different fibrations")
    total_cat = TotalCategory.of(f.fibration)
    into: dict = {v: [] for v in total_cat.objects}
    for m in total_cat.nonidentity():
        into[m.target].append(m)
    height: dict = {}  # the longest chain of nonidentity morphisms into v
    for v in TopologicalSorter({v: {m.source for m in ms} for v, ms in into.items()}).static_order():
        height[v] = max((height[m.source] + 1 for m in into[v]), default=0)

    mats: dict = {}  # one structure matrix per nonidentity morphism and functor, by columns

    def columns(functor: StokesFunctor, m) -> list:
        if (id(functor), m) not in mats:
            mats[id(functor), m] = _sparse_lines(functor.morphism_matrix(m), True)
        return mats[id(functor), m]

    def combine(terms) -> dict:
        """The sum of (coordinate, value) terms, without its zeros."""
        out: dict = {}
        for k, v in terms:
            out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v}

    def act(m, vec: dict) -> dict:
        """The module being resolved, on a vector at the source of m."""
        if labels is None:
            return combine((r, c * x) for i, c in vec.items() for r, x in columns(f, m)[i])
        where = index[m.target]
        return combine((where[j, total_cat.compose(h, m)], c) for i, c in vec.items() for j, h in [labels[m.source][i]])

    basis = {v: [{i: Fraction(1)} for i in range(f.spaces[v])] for v in total_cat.objects}
    labels, dims, all_rows = None, [], []
    for _ in range(max(height.values(), default=0) + 1):
        tops = []
        for w in total_cat.objects:
            ech = _echelon(act(m, b) for m in into[w] for b in basis[m.source])
            tops += [(w, b) for b in basis[w] if ech.insert(b) is not None]
        starts = list(accumulate((g.spaces[w] for w, _ in tops), initial=0))
        if labels is not None:
            terms = [(start, labels[u][i], c) for start, (u, vec) in zip(starts, tops) for i, c in vec.items()]
            entries = combine(
                ((start + r, offsets[j] + s), c * x)
                for start, (j, h), c in terms
                for s, col in enumerate(columns(g, h))
                for r, x in col
            )
            rows: dict = {}
            for (r, s), x in sorted(entries.items()):
                rows.setdefault(r, {})[s] = x
            all_rows.append(rows)
        dims.append(starts[-1])
        # the cover, with coordinates (j, h) at each object; its kernel is the next module
        gens_at = {w: [j for j, (u, _) in enumerate(tops) if u == w] for w in total_cat.objects}
        cover = {v: [(j, h) for h in into[v] for j in gens_at[h.source]] for v in total_cat.objects}
        basis = {}
        for v, coords in cover.items():
            images = [act(h, tops[j][1]) for j, h in coords]
            eqs = {r: {col: im[r] for col, im in enumerate(images) if r in im} for r in set().union(*images)}
            basis[v] = sparse_kernel_basis(eqs.values(), len(coords))
        labels, offsets = cover, starts
        index = {v: {lab: i for i, lab in enumerate(coords)} for v, coords in cover.items()}
    return HomComplex(dims, all_rows)


def ext_dims(f: StokesFunctor, g: StokesFunctor) -> list:
    """Exact cohomology dimensions of the hom complex."""
    return hom_complex(f, g).cohomology_dims()


def tangent_dims(f: StokesFunctor) -> list:
    """Self-Ext dimensions reported one degree down; index 0 is degree -1."""
    return list(ext_dims(f, f))


# ---------------------------------------------------------------------------
# pullback of functors along base functors


def pullback_functor(bf: BaseFunctor, f: StokesFunctor) -> StokesFunctor:
    """Restrict a functor along a base functor (generators to generators)."""
    fib = pullback_fibration(bf, f.fibration)
    spaces = {}
    arrows = {}
    for x in fib.base.objects:
        for a in fib.fiber(x).elements:
            spaces[(x, a)] = f.dim(bf.object_map[x], a)
    for x in fib.base.objects:
        for a, b in fib.fiber(x).covers():
            arrows[cover_arrow_id(x, a, b)] = f.cover_matrix(bf.object_map[x], a, b)
    for arr in fib.base.arrows:
        img = bf.arrow_map.get(arr.name)
        for a in fib.fiber(arr.source).elements:
            if img is None:
                arrows[lift_arrow_id(arr.name, a)] = Matrix.identity(spaces[(arr.source, a)])
            else:
                arrows[lift_arrow_id(arr.name, a)] = f.lift_matrix(img, a)
    return StokesFunctor(fib, spaces, arrows)
