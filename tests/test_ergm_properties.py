"""Property suite: on random dyad-independent specs the estimators agree.

Without a `mutual` term the pseudolikelihood is the likelihood, so MPLE
must reproduce the exact-dyad fit to rounding; the Monte-Carlo MLE's
log-likelihood is exact at its estimate, so it can sit below the
exact-dyad maximum by its sampling error but never above it.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from legnet import (Edges, ErgmSpec, McmleControl, NodeCovariate, NodeMatch,  # noqa: E402
                    fit_exact_dyad, fit_mcmle, fit_mple)

from conftest import graph_from_matrix  # noqa: E402


@st.composite
def cases(draw):
    """(graph, spec, seed): a digraph on 8-30 nodes with edges, a sender
    covariate that is not constant and a uniform match on two or more
    levels present, so that no two terms are aliased."""
    n = draw(st.integers(8, 30))
    density = draw(st.floats(0.05, 0.6))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    y = (rng.random((n, n)) < density) & ~np.eye(n, dtype=bool)
    y[0, 1], y[1, 0] = True, False  # a tie and a non-tie: `edges` is estimable
    x = rng.integers(0, 5, size=n).astype(float)
    x[0] = x[1] + 1.0
    levels = rng.integers(0, draw(st.integers(2, 4)), size=n)
    levels[:2] = (0, 1)
    spec = ErgmSpec([Edges(), NodeCovariate("x", x, role="sender"),
                     NodeMatch("group", [f"g{v}" for v in levels])])
    return graph_from_matrix(y), spec, seed


def assert_same_held_terms(a, b):
    """The same terms inestimable (NaN) and separated (the same signed infinity)."""
    assert np.array_equal(np.isnan(a.theta), np.isnan(b.theta))
    infinite = np.isinf(a.theta)
    assert np.array_equal(infinite, np.isinf(b.theta))
    assert np.array_equal(a.theta[infinite], b.theta[infinite])


@settings(max_examples=50, deadline=None)
@given(cases())
def test_mple_reproduces_the_exact_dyad_fit(case):
    graph, spec, _ = case
    exact, mple = fit_exact_dyad(graph, spec), fit_mple(graph, spec)
    assert_same_held_terms(exact, mple)
    finite = np.isfinite(exact.theta)
    np.testing.assert_allclose(mple.theta[finite], exact.theta[finite],
                               rtol=1e-8, atol=1e-8)
    assert mple.log_likelihood == pytest.approx(exact.log_likelihood, rel=1e-8)


@settings(max_examples=30, deadline=None)
@given(cases())
def test_mcmle_reaches_the_exact_maximum_within_its_sampling_error(case):
    graph, spec, seed = case
    exact = fit_exact_dyad(graph, spec)
    mcmle = fit_mcmle(graph, spec, McmleControl(seed=seed))
    assert_same_held_terms(exact, mcmle)
    ll, best = mcmle.log_likelihood, exact.log_likelihood
    assert ll <= best + 1e-9 * abs(best)
    assert ll >= best - 0.1
