"""Max-plus (idempotent) probability measures on finite spaces.

Measures are normalized weight tables over the semiring (R ∪ {-inf},
max, +); integration solves an optimization problem instead of averaging.
The package covers the functorial action on maps, the measure-of-measures
multiplication with tensor products and marginals, tropical barycenters,
Lipschitz-dual pseudometrics, openness-style sequence lifting, coupling
feasibility and gaps, and a finite-depth Milyutin-style selection builder.

The names below are the core types and the constructions the examples
use; every other helper is imported from its module (`maslov.monad`,
`maslov.laws`, ...).
"""

from .core import (
    NEG_INF,
    FiniteFunction,
    FiniteSpace,
    MetricSpace,
    ProductSpace,
    metric_closure,
    odot,
    oplus,
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
    lift_along_surjection,
    pushforward,
)
from .monad import (
    ClosedSet,
    FuzzySet,
    OuterMeasure,
    fuzzy_embed,
    hyperspace_embed,
    marginal,
    multiply,
    tensor,
)
from .convexity import (
    PointCloudSpace,
    algebra_law_check,
    barycenter,
    hull_membership,
)
from .metrics import (
    dhat,
    dhat_oracle,
    dtilde,
)
from .openness import (
    CollapseMap,
    CoverPair,
    InfeasibleError,
    MilyutinLevel,
    bicommutative_lift,
    coupling_feasible,
    coupling_gap,
    counterexample_gap,
    counterexample_instance,
    lift_open_collapse,
    milyutin_build,
    pattern_max_coupling,
    tight_patterns,
)

__version__ = "0.1.0"
