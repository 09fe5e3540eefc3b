"""Exact computation with finite Stokes structures.

The library builds stratified circles and sign-vector posets carrying
finite poset fibrations, decides splitting and cocartesianness of their
rational representations, performs graduation and level induction, and
computes Ext/tangent dimensions, all in exact rational arithmetic.
"""

from .exactmath import (
    GaussianRational,
    Matrix,
    inverse,
    is_invertible,
    kernel_basis,
    mat_rank,
    mat_solve,
    solve_column,
)
from .directions import (
    ExactAngle,
    StokesDirection,
    angles_equal,
    compare_angles,
    compare_directions,
    cyclically_between,
    pair_sign_at,
    rational_angle_between,
    sort_angles,
)
from .posets import (
    FinPoset,
    MonotoneMap,
    down_set,
    graded_poset,
    is_level_morphism,
    underlying_set,
    validate_poset,
)
from .bases import (
    BaseCategory,
    BaseFunctor,
    base_arrow_id,
    circle_cover_functor,
    make_circle_base,
    make_poset_base,
    sub_interval_functor,
)
from .fibrations import (
    CocartesianSection,
    FibrationMorphism,
    LevelStructure,
    StokesFibration,
    TotalCategory,
    cocartesian_sections,
    collapse_refinement,
    fiberwise_set,
    graded_fibration,
    is_level_fibration_morphism,
    nondegenerate_chains,
    pullback_fibration,
    stokes_locus,
    terminal_fibration,
    terminal_morphism,
    validate_fibration,
)
from .functors import (
    GlobalSplitting,
    HomComplex,
    Splitting,
    StokesFunctor,
    cover_arrow_id,
    ext_dims,
    grade,
    grade_right_adjoint,
    hom_complex,
    induce,
    is_cocartesian_at,
    is_punctually_split,
    is_stokes,
    level_assemble,
    level_disassemble,
    lift_arrow_id,
    natural_isomorphism,
    natural_transformation_basis,
    pullback_functor,
    specialization_matrix,
    split_fiber,
    split_global,
    stokes_witness,
    tangent_dims,
    top_functor,
    validate_functor,
)
from .geometry import (
    AffineForm,
    Arc,
    CircleSpace,
    ExponentialData,
    IrregularValue,
    PolyhedralSpace,
    build_circle_space,
    build_polyhedral_space,
    check_polyhedral_elementarity,
    elementary_cover,
    is_elementary_arc,
    kummer_pullback,
    leading_data,
    order_at,
    pole_level_structure,
    restrict_functor_to_arc,
    restrict_to_arc,
    stokes_directions,
)
from . import fixtures, serial

__all__ = [name for name in dir() if not name.startswith("_")]
