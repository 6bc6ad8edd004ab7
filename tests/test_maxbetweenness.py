from fractions import Fraction

import pytest

from chronopath.errors import InvalidParameterError
from chronopath.fen import count_fen
from chronopath.maxbetweenness import (
    amplification_runs,
    estimate_max_betweenness,
    zero_check,
)
from chronopath.oracle import count_paths_bf, optimal_paths
from chronopath.reductions import betweenness_exact

from conftest import I1, I4, make_graph, random_instance


def zero_check_definitional(g, star):
    for s in range(g.n):
        for z in range(g.n):
            if s == z:
                continue
            for p in optimal_paths(g, s, z, star):
                if p.length >= 2:
                    return False
    return True


def test_zero_check_examples():
    assert zero_check(I4, "foremost") and zero_check(I4, "fastest")
    assert not zero_check(I1, "foremost")
    assert zero_check(make_graph(3, []), "foremost")


def test_zero_check_matches_definition(rng):
    for _ in range(80):
        g = random_instance(rng, n_hi=7, m_hi=12)
        for star in ("foremost", "fastest"):
            assert zero_check(g, star) == zero_check_definitional(g, star)


def test_param_validation():
    with pytest.raises(InvalidParameterError):
        estimate_max_betweenness(I1, "foremost", 1.5, 0.1, count_paths_bf)
    with pytest.raises(InvalidParameterError):
        estimate_max_betweenness(I1, "foremost", 0.5, 0.0, count_paths_bf)
    for cap in (0, -3):
        with pytest.raises(InvalidParameterError):
            estimate_max_betweenness(I1, "foremost", 0.5, 0.1, count_paths_bf, ell_cap=cap)


def test_zero_instance_returns_exact_zero():
    est = estimate_max_betweenness(I4, "fastest", 0.5, 0.2, count_paths_bf, ell_cap=50)
    assert est.value == 0 and est.argmax_vertex is None and est.trials == 0


def test_estimate_on_unique_middle_vertex():
    est = estimate_max_betweenness(
        I1, "foremost", 0.5, 0.2, count_paths_bf, seed=3, ell_cap=400
    )
    # the unique foremost path of the only connected pair passes vertex 1
    assert est.argmax_vertex == 1
    (truth,) = betweenness_exact(I1, [1], "foremost", count_fen)
    assert abs(est.value - truth) <= Fraction(1, 2) * truth


def test_single_run_mode():
    est = estimate_max_betweenness(
        I1, "foremost", 0.5, 0.2, count_paths_bf, seed=3, ell_cap=200, amplify=False
    )
    assert est.trials == 1


def test_amplification_runs():
    assert amplification_runs(0.1) == 8
    assert amplification_runs(0.01) == 16


def test_determinism():
    kwargs = dict(seed=12, ell_cap=100)
    a = estimate_max_betweenness(I1, "foremost", 0.5, 0.2, count_paths_bf, **kwargs)
    b = estimate_max_betweenness(I1, "foremost", 0.5, 0.2, count_paths_bf, **kwargs)
    assert a == b


def test_precondition_on_nonzero_instances(rng):
    # Non-zero instances have a vertex with betweenness >= 1/(n(T+1)).
    found = 0
    for _ in range(40):
        g = random_instance(rng, n_hi=6, m_hi=10)
        for star in ("foremost", "fastest"):
            if zero_check(g, star):
                continue
            found += 1
            best = max(betweenness_exact(g, range(g.n), star, count_fen))
            assert best >= Fraction(1, g.n * (g.lifetime + 1))
    assert found > 10
