"""Exact computation with left-orderings of countable groups.

Positive cones are deterministic sign oracles over word contexts with
confluent normal forms; everything downstream (orbits, Conradian and
convexity certificates, kernel rewriting, the ball-cone census) is exact
integer or quadratic-surd arithmetic, never floating point.
"""

from .surd import Mat2, QuadNum, mat2, mobius_apply, quad, quad_cmp, rational, sqrt_of
from .words import (
    AbelianImage, DirectProductCtx, FreeCtx, FreeProductCtx, GroupCtx,
    KleinCtx, SemidirectCtx, ShortExactSeq, Word, ZPowCtx,
    direct_product_ses, semidirect_ses, validate_ses,
)
from .cones import (
    Cone, ConjugateCone, DetectResult, DynamicalCone, Embedding, KleinCone,
    LexCone, QuadSlopeCone, RestrictionCone, Slope, SlopeCone, ZSignCone,
    check_cone_axioms_on_ball, cyclic_embedding, detect_slope, dynamical_cone,
    klein_cones, lex_cone, quad_slope_cone, restrict_cone,
    ses_kernel_embedding, slope_cone, z_cone,
)
from .actions import (
    ConstantConeMap, EqualityResult, OrbitReport, cone_equal, conj_cone,
    diag_conj, equivariance_check, kernel_conj_cone, orbit,
    restricted_orbit_sample,
)
from .conrad import (
    cofinality_witness, conradian_check, convexity_check, cyclic_subgroup,
    order_hom_check,
)
from .freeprod import (
    KernelBasisWord, basis_word, conj_basis, expand, exponent_sum,
    fp_project, kernel_decompose, normal_closure_criterion,
)
from .amalgam import (
    AmalgamCtx, amalgam_normal_form, in_factor, malnormality_check,
)
from .census import (
    BallCone, census_digest, enumerate_ball_cones, extendable_filter,
    restriction_ball_cone,
)

__version__ = "0.1.0"
