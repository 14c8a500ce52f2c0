import itertools
import random

from hypothesis import strategies as st

from maslov import NEG_INF, FiniteFunction, FiniteSpace, PointMap

pytest_plugins = ["pytester"]

# Dyadic quarters: float max/+ are exact on these, so law tests can use ==.
dyadic = st.integers(-16, 16).map(lambda k: k / 4.0)
dyadic_weight = st.one_of(st.just(NEG_INF), st.integers(-16, 0).map(lambda k: k / 4.0))


def weight_tables(size: int):
    """Raw weight tuples with at least one finite entry."""
    return st.tuples(*([dyadic_weight] * size)).filter(lambda t: max(t) > NEG_INF)


def function_grid(space: FiniteSpace, values=(-2.0, -1.0, 0.0, 1.0)):
    """Every function with values in a small set; brute-force test family."""
    return [
        FiniteFunction(space, vals)
        for vals in itertools.product(values, repeat=len(space))
    ]


def rand_surjection(rng: random.Random, source: FiniteSpace, target: FiniteSpace) -> PointMap:
    """A random map onto target; source has at least as many points."""
    xs = list(source.points)
    rng.shuffle(xs)
    table = dict(zip(xs, target.points))
    for x in xs[len(target):]:
        table[x] = rng.choice(target.points)
    return PointMap(source, target, table)
