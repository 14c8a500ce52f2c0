# Three constructions around open maps: lifting measure sequences and
# couplings through surjections, the coupling correspondence that cannot be
# tracked continuously, and fiber-supported measure selections.

from maslov import (
    CoverPair,
    IdempotentMeasure,
    MilyutinLevel,
    PointMap,
    bicommutative_lift,
    coupling_feasible,
    counterexample_gap,
    counterexample_instance,
    coupling_gap,
    dirac,
    marginal,
    metric_closure,
    milyutin_build,
    pushforward,
    space,
    support,
    tensor,
)
from maslov.openness import lift_open_surjection

# --- lifting a convergent sequence through a surjection -------------------
# two doubled fibers: {x0, x1} over y1 and {x2, x3} over y2
src, tgt = space(["x0", "x1", "x2", "x3"]), space(["y1", "y2"])
f = PointMap(src, tgt, {"x0": "y1", "x1": "y1", "x2": "y2", "x3": "y2"})
mu0 = IdempotentMeasure(src, (0.0, -1.0, -0.5, -0.25))
nus = [IdempotentMeasure(tgt, (-1.0 / k, 0.0)) for k in (1, 2, 10, 100)]
for nu_k, mu_k in zip(nus, lift_open_surjection(f, mu0, nus)):
    print("lift of", nu_k.weights, "->", mu_k.weights, "(pushes back:", pushforward(f, mu_k) == nu_k, ")")

# --- lifting a coupling through the same surjection on both axes ----------
coupling = tensor(pushforward(f, mu0), IdempotentMeasure(tgt, (-0.5, 0.0)))
lifted = bicommutative_lift(f, mu0, coupling)
both = PointMap(lifted.space, coupling.space, {(x, z): (f(x), f(z)) for x, z in lifted.space.points})
print("lifted coupling: first marginal is mu0:", marginal(lifted, 0) == mu0,
      " (f x f) image is the coupling:", pushforward(both, lifted) == coupling)

# --- couplings with prescribed max-marginals ------------------------------
mu1, mu2, target = counterexample_instance(10)
print("tensor coupling feasible:", coupling_feasible(tensor(mu1, mu2), mu1, mu2))

# every feasible coupling is forced to put weight 0 where the target puts
# -inf, so the best approximation stays at gap 1 no matter how small the
# marginal perturbation is
for l in (1, 10, 100):
    print(f"gap at l={l}:", counterexample_gap(l))
print("gap at the target's own marginals:", counterexample_gap(float("inf")))
best = coupling_gap(mu1, mu2, target)
print("witness cell (x2,y1) weight in the best coupling:", best.coupling.weight(("x2", "y1")))

# --- a fiber-product cover space with a measure-valued selection ----------
Y = space("abc")
metric = metric_closure(Y, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
level = MilyutinLevel(
    (CoverPair(frozenset("ab"), frozenset("ab")), CoverPair(frozenset("bc"), frozenset("bc")))
)
X, proj, s = milyutin_build(metric, [level], 1)
print("cover space:", X.points)
for y in Y.points:
    print(f"s({y}) atoms:", sorted(support(s[y])), " image:", pushforward(proj, s[y]) == dirac(Y, y))
