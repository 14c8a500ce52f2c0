"""Max-plus (idempotent) probability measures on finite spaces.

Measures are normalized weight tables over the semiring (R ∪ {-inf},
max, +); integration solves an optimization problem instead of averaging.
The package covers the functorial action on maps, the measure-of-measures
multiplication with tensor products and marginals, tropical barycenters,
Lipschitz-dual pseudometrics, openness-style sequence lifting, coupling
feasibility and gaps, and a finite-depth Milyutin-style selection builder.
"""

from .core import (
    NEG_INF,
    FiniteFunction,
    FiniteSpace,
    Label,
    MaxPlusWeight,
    MetricSpace,
    ProductSpace,
    flatten_space,
    metric_closure,
    odot,
    oplus,
    pointwise_max,
    product_space,
    space,
    weight_distance,
)
from .measures import (
    IdempotentMeasure,
    convex_combination,
    dirac,
    integrate,
    normalize,
    pointwise_sup,
    support,
)
from .functor import (
    PointMap,
    identity_map,
    lies_in_subspace,
    lift_along_surjection,
    precompose,
    pushforward,
)
from .monad import (
    ClosedSet,
    FuzzySet,
    OuterMeasure,
    dirac_lift,
    flatten_measure,
    fuzzy_embed,
    hyperspace_embed,
    hyperspace_square,
    hyperspace_union,
    map_outer,
    marginal,
    multiply,
    outer_dirac,
    outer_eval,
    projection,
    tensor,
    tensor_many,
)
from .convexity import (
    PointCloudSpace,
    TropicalPoint,
    affine_map_check,
    algebra_law_check,
    barycenter,
    hull_membership,
)
from .metrics import (
    dhat,
    dhat_oracle,
    dtilde,
    grid_gap,
    maxmin_gap,
    outer_dtilde,
)
from .openness import (
    CollapseMap,
    CoverPair,
    GapResult,
    InfeasibleError,
    MilyutinLevel,
    TightPattern,
    bicommutative_lift,
    coupling_feasible,
    coupling_gap,
    counterexample_gap,
    counterexample_instance,
    factor_surjection,
    lift_open_collapse,
    lift_open_surjection,
    milyutin_build,
    pattern_max_coupling,
    tight_patterns,
)
from .laws import (
    LawReport,
    check_monad_laws,
    run_all_laws,
)

__version__ = "0.1.0"
