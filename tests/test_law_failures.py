"""Every law suite reports a real failure: the case index and the counterexample.

Each test breaks one kernel that a suite reads through the `laws` namespace,
on the first call of one later case only, and checks the whole report.  The
case index is counted from the draws: every suite's case begins with a
`rand_space` call of prefix "p" or "x".
"""

import random

import pytest

from maslov import laws
from maslov.measures import support
from maslov.monad import marginal

FAIL_AT = 3


def _broken(returned):
    return lambda result: returned


def _tensor_message(args):
    t, _ = args
    return f"tensor marginals fail for {marginal(t, 0)!r}, {marginal(t, 1)!r}"


def _algebra_message(args):
    [p] = support(args[1])
    return f"barycenter of a Dirac differs from the point {p!r}"


# suite, checker, kernel, what the broken call returns, the expected message
SUITES = [
    ("maslov", "check_maslov_axioms", "integrate", _broken(None),
     lambda args: f"mu(c)!=c for mu={args[0]!r}, c={args[1].values[0]}"),
    ("monad", "check_monad_laws", "multiply", _broken(None),
     lambda args: f"outer unit law fails for {args[0].inner[0]!r}"),
    ("algebra", "check_algebra_laws", "barycenter", lambda point: tuple(x + 1.0 for x in point),
     _algebra_message),
    ("tensor", "check_tensor_laws", "marginal", _broken(None), _tensor_message),
    ("hyperspace", "check_hyperspace_laws", "hyperspace_square", lambda pair: (pair[0], None),
     lambda args: f"hyperspace square fails for {args[0]!r}"),
    ("functor", "check_functor_laws", "pushforward", _broken(None),
     lambda args: "identity law fails"),
    ("preimage", "check_preimage_intersection", "lies_in_subspace", lambda inside: not inside,
     lambda args: f"preimage law fails for B={sorted(args[1])!r}"),
]


@pytest.mark.parametrize("suite, checker, kernel, wrong, message", SUITES, ids=[s[0] for s in SUITES])
@pytest.mark.parametrize("seed", [0, "s", 11])
def test_a_broken_kernel_fails_its_suite(monkeypatch, suite, checker, kernel, wrong, message, seed):
    case = [-1]
    broken_args = []
    rand_space, original = laws.rand_space, getattr(laws, kernel)

    def counting(rng, max_points, prefix="p"):
        if prefix in ("p", "x"):
            case[0] += 1
        return rand_space(rng, max_points, prefix)

    def breaking(*args):
        result = original(*args)
        if case[0] == FAIL_AT and not broken_args:
            broken_args.append(args)
            return wrong(result)
        return result

    monkeypatch.setattr(laws, "rand_space", counting)
    monkeypatch.setattr(laws, kernel, breaking)
    report = getattr(laws, checker)(seed=seed, cases=10, max_points=4)
    [args] = broken_args
    assert case[0] == FAIL_AT  # no case is drawn after the counterexample
    assert report == laws.LawReport(suite, FAIL_AT, False, message(args))
    assert report.status == f"violated: {message(args)}"


def test_a_failure_reaches_run_all_laws(monkeypatch):
    # only the hyperspace suite embeds singletons; its first one is p0 of case 0
    monkeypatch.setattr(laws, "hyperspace_embed", lambda closed: None)
    reports = laws.run_all_laws(seed=0, cases=10)
    assert list(reports) == ["monad", "maslov", "algebra", "tensor", "hyperspace", "functor", "preimage"]
    assert reports.pop("hyperspace") == laws.LawReport(
        "hyperspace", 0, False, "singleton embedding differs from Dirac at 'p0'"
    )
    assert reports == {name: laws.LawReport(name, 10, True) for name in reports}


@pytest.mark.parametrize("seed", [random.Random(1), 1.0, None, b"1", (1,)])
def test_run_all_laws_rejects_a_seed_without_a_stable_text(seed):
    # each stream is seeded from f"{seed}/{suite}"; an object's text may hold its address
    with pytest.raises(TypeError, match="^run_all_laws takes an int or str seed, got "):
        laws.run_all_laws(seed=seed, cases=1)


@pytest.mark.parametrize("seed", [7, "7", -3, True])
def test_run_all_laws_accepts_int_and_str_seeds(seed):
    reports = laws.run_all_laws(seed=seed, cases=3)
    assert reports == laws.run_all_laws(seed=seed, cases=3)
    assert all(r.ok and r.cases == 3 for r in reports.values())
