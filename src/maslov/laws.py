"""Seeded random instance generators and the algebraic law harness.

Weights and function values are drawn from dyadic rationals (quarters) in
small ranges, where float max/+ are exact, so every law below is checked
with exact equality.  Each suite is written as one case: it draws an
instance and returns None, or the counterexample text.  `_suite` makes it a
checker `check_*(seed=0, cases=200, max_points=4)`, which reports the first
counterexample it finds or the number of cases that passed.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Union

from .convexity import PointCloudSpace, algebra_law_check, barycenter, hull_membership
from .core import NEG_INF, FiniteFunction, FiniteSpace, _Value, pointwise_max
from .functor import PointMap, identity_map, lies_in_subspace, pushforward
from .measures import IdempotentMeasure, dirac, integrate, normalize, support
from .monad import (
    ClosedSet,
    OuterMeasure,
    dirac_lift,
    hyperspace_embed,
    hyperspace_square,
    marginal,
    multiply,
    outer_dirac,
    outer_eval,
    tensor,
    tensor_many,
    flatten_measure,
)


class LawReport(_Value):
    __slots__ = ("name", "cases", "ok", "counterexample")
    name: str
    cases: int
    ok: bool
    counterexample: str | None

    def __init__(self, name: str, cases: int, ok: bool, counterexample: str | None = None) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "counterexample", counterexample)

    @property
    def status(self) -> str:
        return "ok" if self.ok else f"violated: {self.counterexample}"


# A checker's seed: an int or str seeds a fresh generator; a Random is drawn from.
Seed = Union[int, str, random.Random]


def _rng(seed: Seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


# ---------------------------------------------------------------- generators

def rand_weight(rng: random.Random) -> float:
    """A dyadic weight in [-4, 0], or -inf with probability 0.2."""
    if rng.random() < 0.2:
        return NEG_INF
    return -rng.randrange(0, 17) / 4.0


def rand_space(rng: random.Random, max_points: int, prefix: str = "p") -> FiniteSpace:
    n = rng.randint(1, max_points)
    return FiniteSpace(tuple(f"{prefix}{i}" for i in range(n)))


def rand_measure(rng: random.Random, space: FiniteSpace) -> IdempotentMeasure:
    raw = [rand_weight(rng) for _ in space.points]
    if max(raw) == NEG_INF:
        raw[rng.randrange(len(raw))] = -rng.randrange(0, 17) / 4.0
    return normalize(space, raw)


def rand_function(rng: random.Random, space: FiniteSpace) -> FiniteFunction:
    return FiniteFunction(space, tuple(rng.randrange(-16, 17) / 4.0 for _ in space.points))


def rand_map(rng: random.Random, source: FiniteSpace, target: FiniteSpace) -> PointMap:
    return PointMap(source, target, {x: rng.choice(target.points) for x in source.points})


def _rand_top_weights(rng: random.Random, k: int) -> tuple[float, ...]:
    """k weights of a measure over measures, shifted so the largest is 0."""
    raw = [rand_weight(rng) for _ in range(k)]
    if max(raw) == NEG_INF:
        raw[rng.randrange(k)] = 0.0
    top = max(raw)
    return tuple(w - top if w > NEG_INF else NEG_INF for w in raw)


def rand_outer(rng: random.Random, space: FiniteSpace) -> OuterMeasure:
    """An outer measure with one to three inner measures."""
    k = rng.randint(1, 3)
    inner = tuple(rand_measure(rng, space) for _ in range(k))
    return OuterMeasure(space, inner, _rand_top_weights(rng, k))


def rand_nested(rng: random.Random, space: FiniteSpace) -> list[tuple[float, OuterMeasure]]:
    """A normalized measure over one or two outer measures."""
    weights = _rand_top_weights(rng, rng.randint(1, 2))
    return [(w, rand_outer(rng, space)) for w in weights]


def rand_closed_set(rng: random.Random, space: FiniteSpace) -> ClosedSet:
    members = [p for p in space.points if rng.random() < 0.5]
    if not members:
        members = [rng.choice(space.points)]
    return ClosedSet(space, frozenset(members))


def rand_cloud(rng: random.Random, space: FiniteSpace, dim: int = 3) -> PointCloudSpace:
    return PointCloudSpace(
        space,
        {p: tuple(rng.randrange(-16, 17) / 4.0 for _ in range(dim)) for p in space.points},
    )


def separating_family(space: FiniteSpace) -> list[FiniteFunction]:
    """Indicator-like functions: 0 at one point, -4 elsewhere.

    Scaled past the weight spread of rand_weight they recover atom weights
    one by one; a {0, -1} family does not separate weights below -1.
    """
    out = []
    for i in range(len(space)):
        out.append(
            FiniteFunction(space, tuple(0.0 if j == i else -4.0 for j in range(len(space))))
        )
    return out


# ------------------------------------------------------------------ checkers

# The law suites by name, in the order `run_all_laws` runs them.
_CHECKERS: dict[str, Callable[[Seed, int, int], LawReport]] = {}
# A suite's case function: (rng, max_points) -> None, or a counterexample.
Case = Callable[[random.Random, int], Optional[str]]


def _suite(name: str) -> Callable[[Case], Callable[..., LawReport]]:
    """Register a case function as the law suite `name`; return its runner.

    The case function draws one instance from `rng` (spaces of at most
    `max_points` points) and returns None, or the counterexample text when
    a law fails on it.  The runner `(seed=0, cases=200, max_points=4)`
    checks its bounds, runs `cases` cases on the one stream `_rng(seed)` and
    reports the first counterexample, with the number of cases that passed
    before it, or that every case passed.  The runner takes the case
    function's name and docstring but not `__wrapped__`, so its signature
    is its own.
    """
    def register(case: Case) -> Callable[..., LawReport]:
        def check(seed: Seed = 0, cases: int = 200, max_points: int = 4) -> LawReport:
            for bound, value in (("cases", cases), ("max_points", max_points)):
                if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                    raise ValueError(f"{bound} must be at least 1, got {value!r}")
            rng = _rng(seed)
            for k in range(cases):
                counterexample = case(rng, max_points)
                if counterexample is not None:
                    return LawReport(name, k, False, counterexample)
            return LawReport(name, cases, True)

        check.__name__ = check.__qualname__ = case.__name__
        check.__doc__ = case.__doc__
        _CHECKERS[name] = check
        return check

    return register


@_suite("monad")
def check_monad_laws(rng: random.Random, max_points: int) -> str | None:
    """Both unit laws, the defining mixing identity, and associativity."""
    space = rand_space(rng, max_points)
    mu = rand_measure(rng, space)
    if multiply(outer_dirac(mu)) != mu:
        return f"outer unit law fails for {mu!r}"
    if multiply(dirac_lift(mu)) != mu:
        return f"inner unit law fails for {mu!r}"

    M = rand_outer(rng, space)
    zeta = multiply(M)
    for phi in separating_family(space) + [rand_function(rng, space)]:
        if integrate(zeta, phi) != outer_eval(M, phi):
            return f"mixing identity fails for {M!r} at phi={phi.values}"

    xi = rand_nested(rng, space)
    side_a = multiply(
        OuterMeasure(space, tuple(multiply(M) for _, M in xi), tuple(l for l, _ in xi))
    )
    inner = []
    weights = []
    for lam, M in xi:
        for kap, m in zip(M.weights, M.inner):
            inner.append(m)
            weights.append(lam + kap)
    side_b = multiply(OuterMeasure(space, tuple(inner), tuple(weights)))
    if side_a != side_b:
        return f"associativity fails for nested instance over {space.points}"


@_suite("maslov")
def check_maslov_axioms(rng: random.Random, max_points: int) -> str | None:
    """Normalization, shift homogeneity and max-additivity of the integral."""
    space = rand_space(rng, max_points)
    mu = rand_measure(rng, space)
    phi = rand_function(rng, space)
    psi = rand_function(rng, space)
    c = rng.randrange(-16, 17) / 4.0
    if integrate(mu, FiniteFunction.constant(space, c)) != c:
        return f"mu(c)!=c for mu={mu!r}, c={c}"
    if integrate(mu, phi.shift(c)) != c + integrate(mu, phi):
        return f"shift homogeneity fails for mu={mu!r}, c={c}, phi={phi.values}"
    if integrate(mu, pointwise_max(phi, psi)) != max(integrate(mu, phi), integrate(mu, psi)):
        return f"max-additivity fails for mu={mu!r}"


@_suite("algebra")
def check_algebra_laws(rng: random.Random, max_points: int) -> str | None:
    """Barycenter laws: unit, mixing compatibility, and span membership."""
    space = rand_space(rng, max_points)
    cloud = rand_cloud(rng, space)
    for p in space.points:
        if barycenter(cloud, dirac(space, p)) != cloud.point(p):
            return f"barycenter of a Dirac differs from the point {p!r}"
    M = rand_outer(rng, space)
    if not algebra_law_check(cloud, M):
        return f"barycenter/mixing compatibility fails over {space.points}"
    mu = rand_measure(rng, space)
    member, _ = hull_membership(
        [cloud.point(p) for p in sorted(support(mu), key=space.index)],
        barycenter(cloud, mu),
    )
    if not member:
        return f"barycenter escapes the span of the support for {mu!r}"


@_suite("tensor")
def check_tensor_laws(rng: random.Random, max_points: int) -> str | None:
    """Tensor marginals recover the factors; tensor is associative."""
    X = rand_space(rng, max_points, "x")
    Y = rand_space(rng, max_points, "y")
    mu, nu = rand_measure(rng, X), rand_measure(rng, Y)
    t = tensor(mu, nu)
    if marginal(t, 0) != mu or marginal(t, 1) != nu:
        return f"tensor marginals fail for {mu!r}, {nu!r}"
    Z = rand_space(rng, max_points, "z")
    tau = rand_measure(rng, Z)
    left = flatten_measure(tensor(tensor(mu, nu), tau))
    right = flatten_measure(tensor(mu, tensor(nu, tau)))
    if left != right or left != tensor_many([mu, nu, tau]):
        return "tensor associativity fails"


@_suite("hyperspace")
def check_hyperspace_laws(rng: random.Random, max_points: int) -> str | None:
    """The set-family mixing square commutes; singletons embed as Diracs."""
    space = rand_space(rng, max_points)
    family = [rand_closed_set(rng, space) for _ in range(rng.randint(1, 3))]
    mixed, embedded_union = hyperspace_square(family)
    if mixed != embedded_union:
        return f"hyperspace square fails for {family!r}"
    for p in space.points:
        if hyperspace_embed(ClosedSet(space, frozenset([p]))) != dirac(space, p):
            return f"singleton embedding differs from Dirac at {p!r}"


@_suite("functor")
def check_functor_laws(rng: random.Random, max_points: int) -> str | None:
    """Identity/composition functoriality and the support image law."""
    X = rand_space(rng, max_points, "x")
    Y = rand_space(rng, max_points, "y")
    Z = rand_space(rng, max_points, "z")
    f = rand_map(rng, X, Y)
    g = rand_map(rng, Y, Z)
    mu = rand_measure(rng, X)
    if pushforward(identity_map(X), mu) != mu:
        return "identity law fails"
    if pushforward(g, pushforward(f, mu)) != pushforward(f.then(g), mu):
        return "composition law fails"
    if support(pushforward(f, mu)) != frozenset(map(f, support(mu))):
        return "support image law fails"


@_suite("preimage")
def check_preimage_intersection(rng: random.Random, max_points: int) -> str | None:
    """Support containment commutes with preimages and intersections."""
    X = rand_space(rng, max_points, "x")
    Y = rand_space(rng, max_points, "y")
    f = rand_map(rng, X, Y)
    mu = rand_measure(rng, X)
    B = frozenset(y for y in Y.points if rng.random() < 0.5)
    if lies_in_subspace(pushforward(f, mu), B) != lies_in_subspace(mu, f.preimage(B)):
        return f"preimage law fails for B={sorted(B)!r}"
    A1 = frozenset(x for x in X.points if rng.random() < 0.6)
    A2 = frozenset(x for x in X.points if rng.random() < 0.6)
    both = lies_in_subspace(mu, A1) and lies_in_subspace(mu, A2)
    if lies_in_subspace(mu, A1 & A2) != both:
        return "intersection law fails"


def run_all_laws(seed: int | str = 0, cases: int = 200, max_points: int = 4) -> dict[str, LawReport]:
    """Run every law suite, each on its own stream "<seed>/<suite>".

    The seed is an int or a str, whose text is the same in every process.
    """
    if not isinstance(seed, (int, str)):
        raise TypeError(f"run_all_laws takes an int or str seed, got {type(seed).__name__}")
    return {name: check(f"{seed}/{name}", cases, max_points) for name, check in _CHECKERS.items()}
