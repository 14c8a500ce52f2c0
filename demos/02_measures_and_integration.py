# Idempotent measures are weight tables with maximum 0; integrating a
# function means solving the optimization max_x (phi(x) + weight(x)).

from maslov import (
    FiniteFunction,
    IdempotentMeasure,
    convex_combination,
    dirac,
    integrate,
    normalize,
    pointwise_sup,
    space,
    support,
)

X = space("abc")

# normalize shifts a raw table so its maximum is exactly 0
mu = normalize(X, {"a": -3, "b": -5, "c": float("-inf")})
print("normalized:", mu)
print("support:", sorted(support(mu)))

# the Maslov integral is a best-case value, not an average
phi = FiniteFunction.from_mapping(X, {"a": 3.0, "b": 5.0, "c": 0.0})
print("mu(phi) =", integrate(mu, phi), " (max of 3+0 and 5-2)")

# Dirac measures integrate to point evaluation
print("dirac(b)(phi) =", integrate(dirac(X, "b"), phi))

# max-plus convex combinations mix best cases; coefficients max to 0
combo = convex_combination(0.0, dirac(X, "a"), -1.0, dirac(X, "b"))
print("0*delta_a (+) -1*delta_b:", combo)

# the pointwise supremum of measures is again a measure
print("sup:", pointwise_sup([normalize(X, {"a": 0, "b": -2}), normalize(X, {"a": -1, "b": 0})]))

# measures over an n-point space are exactly the weight tuples with maximum
# 0 (a tropical simplex): the weights in point order are the coordinates
print("coordinates:", mu.weights, "-> back:", IdempotentMeasure(X, mu.weights) == mu)
