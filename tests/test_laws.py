import inspect
import random
import sys

import pytest

from maslov import laws


def test_max_points_reaches_every_suite(monkeypatch):
    drawn = []
    rand_space = laws.rand_space

    def recording(rng, max_points, prefix="p"):
        drawn.append((sys._getframe(1).f_code.co_name, max_points))
        return rand_space(rng, max_points, prefix)

    monkeypatch.setattr(laws, "rand_space", recording)
    reports = laws.run_all_laws(seed=5, cases=10, max_points=1)
    assert all(r.ok for r in reports.values())
    suites = {name for name, _ in drawn}
    assert suites == {
        "check_maslov_axioms",
        "check_monad_laws",
        "check_algebra_laws",
        "check_tensor_laws",
        "check_hyperspace_laws",
        "check_functor_laws",
        "check_preimage_intersection",
    }
    assert {m for _, m in drawn} == {1}


def test_checkers_share_one_signature():
    signatures = {name: inspect.signature(check) for name, check in laws._CHECKERS.items()}
    assert list(signatures)[0] == "monad"
    assert len(signatures) == 7
    assert len(set(signatures.values())) == 1
    params = signatures["monad"].parameters.values()
    assert [(p.name, p.default) for p in params] == [("seed", 0), ("cases", 200), ("max_points", 4)]


def test_seed_forms():
    rng = random.Random(3)
    assert laws._rng(rng) is rng
    for seed in (7, "7/monad"):
        assert laws._rng(seed).getstate() == random.Random(seed).getstate()


@pytest.mark.parametrize("suite", [*laws._CHECKERS, "all"])
def test_bounds_rejected(suite):
    check = laws._CHECKERS.get(suite, laws.run_all_laws)
    with pytest.raises(ValueError, match="^cases must be at least 1, got 0$"):
        check(seed=0, cases=0)
    with pytest.raises(ValueError, match="^max_points must be at least 1, got 0$"):
        check(seed=0, cases=5, max_points=0)


def _rand_nested_inline(rng, space):
    """rand_nested with rand_outer's weight normalisation written out in both."""
    def outer(rng, space):
        k = rng.randint(1, 3)
        inner = tuple(laws.rand_measure(rng, space) for _ in range(k))
        raw = [laws.rand_weight(rng) for _ in range(k)]
        if max(raw) == laws.NEG_INF:
            raw[rng.randrange(k)] = 0.0
        top = max(raw)
        weights = tuple(w - top if w > laws.NEG_INF else laws.NEG_INF for w in raw)
        return laws.OuterMeasure(space, inner, weights)

    k = rng.randint(1, 2)
    raw = [laws.rand_weight(rng) for _ in range(k)]
    if max(raw) == laws.NEG_INF:
        raw[rng.randrange(k)] = 0.0
    top = max(raw)
    return [(w - top if w > laws.NEG_INF else laws.NEG_INF, outer(rng, space)) for w in raw]


def test_nested_draws_keep_their_order():
    # the same values from the same draws, and the generator left in the same state
    for seed in range(300):
        got, want = random.Random(seed), random.Random(seed)
        space = laws.rand_space(random.Random(-seed), 3)
        assert laws.rand_nested(got, space) == _rand_nested_inline(want, space)
        assert got.getstate() == want.getstate()
