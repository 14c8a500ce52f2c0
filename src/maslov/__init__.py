"""Max-plus (idempotent) probability measures on finite spaces.

Measures are normalized weight tables over the semiring (R ∪ {-inf},
max, +); integration solves an optimization problem instead of averaging.
The package covers the functorial action on maps, the measure-of-measures
multiplication with tensor products and marginals, tropical barycenters,
Lipschitz-dual pseudometrics, openness-style sequence lifting, coupling
feasibility and gaps, and a finite-depth Milyutin-style selection builder.

The names below are the core types and the constructions the examples
use; every other helper is imported from its module (`maslov.monad`,
`maslov.laws`, ...).  A name resolves on first use, importing only the
module that defines it, and is then bound in the package like any other;
so `import maslov` alone loads no submodule, and a CLI subcommand loads
only the modules of its own kernels.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "core": (
        "NEG_INF", "FiniteFunction", "FiniteSpace", "InfeasibleError", "MetricSpace",
        "ProductSpace", "metric_closure", "odot", "oplus", "product_space", "space",
        "weight_distance",
    ),
    "measures": (
        "IdempotentMeasure", "convex_combination", "dirac", "integrate", "normalize",
        "pointwise_sup", "support",
    ),
    "functor": ("PointMap", "lift_along_surjection", "pushforward"),
    "monad": (
        "ClosedSet", "FuzzySet", "OuterMeasure", "fuzzy_embed", "hyperspace_embed",
        "marginal", "multiply", "tensor",
    ),
    "convexity": ("PointCloudSpace", "algebra_law_check", "barycenter", "hull_membership"),
    "metrics": ("dhat", "dhat_oracle", "dtilde"),
    "openness": (
        "CollapseMap", "CoverPair", "MilyutinLevel", "bicommutative_lift",
        "coupling_feasible", "coupling_gap", "counterexample_gap", "counterexample_instance",
        "lift_open_collapse", "milyutin_build", "pattern_max_coupling", "tight_patterns",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Resolve a public name from its module and bind it here (PEP 562).

    Any other name raises AttributeError, so `from maslov import io` goes
    on to import the submodule.
    """
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
