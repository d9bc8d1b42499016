"""Model fitting against closed forms and a full-enumeration oracle."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import chi2, norm

import legnet
import legnet.ergm.fit as fit_module
from legnet import DataError, EstimationError, Graph
from legnet.ergm import (AbsDiff, Edges, ErgmSpec, Mutual, NodeCovariate,
                         NodeMatch, expected_statistics, fit_exact_dyad,
                         fit_mple, likelihood_ratio_test, report_effects)

from conftest import (enumerate_graphs, graph_from_matrix, graph_with_a_sink, matrix_of,
                      oracle_mle, oracle_statistics, random_digraph)


def logit(p):
    return math.log(p / (1 - p))


def test_edges_only_is_logit_density():
    for seed in range(5):
        g = random_digraph(12, p=0.35, seed=seed)
        fit = fit_exact_dyad(g, ErgmSpec([Edges()]))
        p = g.edge_count / (g.n * (g.n - 1))
        assert fit.theta[0] == pytest.approx(logit(p), abs=1e-8)


def test_single_edge_three_nodes():
    g = Graph([("a", "b", 0.9)], nodes=["a", "b", "c"])
    fit = fit_exact_dyad(g, ErgmSpec([Edges()]))
    assert fit.theta[0] == pytest.approx(logit(1 / 6), abs=1e-8)
    assert fit.n_obs == 6


def test_exact_fit_matches_enumeration_oracle():
    # each case pairs a spec with a graph whose statistics stay interior
    # (a statistic at an achievable extreme has no finite MLE)
    cases = [
        (np.array([[0, 1, 0], [1, 0, 0], [1, 0, 0]], bool),
         [Edges(), Mutual()],
         [("edges",), ("mutual",)]),
        (np.array([[0, 1, 1], [0, 0, 1], [0, 1, 0]], bool),
         [Edges(), NodeCovariate("x", (0.0, 1.0, 2.0), "sender")],
         [("edges",), ("cov", (0.0, 1.0, 2.0), "sender")]),
        (np.array([[0, 0, 0], [1, 0, 1], [1, 0, 0]], bool),
         [Edges(), NodeMatch("g", ("u", "u", "v"))],
         [("edges",), ("match", ("u", "u", "v"), None)]),
        (np.array([[0, 1, 1], [0, 0, 0], [1, 1, 0]], bool),
         [Edges(), AbsDiff("x", (0.0, 1.0, 3.0))],
         [("edges",), ("absdiff", (0.0, 1.0, 3.0))]),
    ]
    for y, spec_terms, oracle_terms in cases:
        g = graph_from_matrix(y)
        fit = fit_exact_dyad(g, ErgmSpec(spec_terms))
        theta_star, ll_star = oracle_mle(y, oracle_terms)
        assert not any(fit.separation), spec_terms
        assert np.allclose(fit.theta, theta_star, atol=1e-5), spec_terms
        assert fit.log_likelihood == pytest.approx(ll_star, abs=1e-6)


def test_exact_fit_matches_oracle_on_four_nodes():
    y = np.array([[0, 1, 1, 0],
                  [1, 0, 0, 0],
                  [0, 1, 0, 1],
                  [0, 0, 1, 0]], bool)
    g = graph_from_matrix(y)
    x = (0.5, 1.5, 0.25, 2.0)
    spec = ErgmSpec([Edges(), Mutual(), NodeCovariate("x", x, "sum")])
    fit = fit_exact_dyad(g, spec)
    theta_star, ll_star = oracle_mle(y, [("edges",), ("mutual",),
                                         ("cov", x, "sum")])
    assert np.allclose(fit.theta, theta_star, atol=1e-5)
    assert fit.log_likelihood == pytest.approx(ll_star, abs=1e-6)


def test_mle_moment_condition():
    for seed in range(4):
        g = random_digraph(10, p=0.3, seed=seed + 5, mutual_boost=0.4)
        rng = np.random.default_rng(seed)
        x = tuple(rng.uniform(0, 3, 10))
        lab = tuple(["u", "v"][i % 2] for i in range(10))
        spec = ErgmSpec([Edges(), Mutual(), NodeCovariate("x", x, "receiver"),
                         NodeMatch("g", lab)])
        fit = fit_exact_dyad(g, spec)
        mean = expected_statistics(g, spec, np.asarray(fit.theta))
        obs = legnet.global_statistics(g, spec)
        assert np.allclose(mean, obs, atol=1e-6)


def test_dyad_moments_match_enumeration():
    # every one of the 4^6 dyad states of a 4-node graph, one term of
    # each kind; the log normalizing constant, mean and covariance of g
    from legnet.ergm import DyadDesign
    from legnet.ergm.fit import _dyad_moments

    n = 4
    rng = np.random.default_rng(3)
    x, z = tuple(rng.uniform(0, 2, n)), tuple(rng.uniform(0, 2, n))
    lab = ("u", "v", "u", "v")
    spec = ErgmSpec([Edges(), Mutual(), NodeCovariate("x", x, "sender"),
                     NodeCovariate("x", x, "receiver"), NodeCovariate("z", z, "sum"),
                     NodeMatch("g", lab), NodeMatch("g", lab, level="v"),
                     AbsDiff("z", z)])
    terms = [("edges",), ("mutual",), ("cov", x, "sender"), ("cov", x, "receiver"),
             ("cov", z, "sum"), ("match", lab, None), ("match", lab, "v"),
             ("absdiff", z)]
    stats = np.array([oracle_statistics(y, terms) for y in enumerate_graphs(n)])
    assert stats.shape == (4 ** 6, spec.k)
    design = DyadDesign(n, spec)
    thetas = [rng.uniform(-1, 1, spec.k),
              # near the separation bound the per-dyad max-shift carries
              # the weights, and most states are near certainty
              np.array([24.6, -24.9, 0.3, -0.2, 0.1, -24.7, 0.4, -0.3]),
              np.array([-24.8, 24.9, -0.1, 0.2, -0.4, 24.5, -24.6, 0.2])]
    for theta in thetas:
        a = stats @ theta
        top = int(a.argmax())
        w = np.exp(a - a[top])
        # moments about the most likely state's statistic: no cancellation
        d = stats - stats[top]
        total = 1.0 + np.delete(w, top).sum()
        shift = (w @ d) / total
        want_cov = d.T @ (w[:, None] * d) / total - np.outer(shift, shift)
        want_log_kappa = a[top] + math.log1p(np.delete(w, top).sum())
        log_kappa, mean, cov = _dyad_moments(design, theta)
        assert log_kappa == pytest.approx(want_log_kappa, rel=1e-12, abs=0)
        assert np.allclose(mean, stats[top] + shift, rtol=1e-12, atol=0)
        # covariances against the scale of their two variances
        scale = np.sqrt(np.outer(np.diag(want_cov), np.diag(want_cov)))
        assert np.all(np.abs(cov - want_cov) <= 1e-12 * scale)


def test_mple_equals_exact_for_dyad_independent_models():
    rng = np.random.default_rng(123)
    for trial in range(50):
        n = int(rng.integers(6, 12))
        g = random_digraph(n, p=float(rng.uniform(0.15, 0.5)),
                           seed=int(rng.integers(1 << 30)))
        x = tuple(rng.uniform(0, 2, n))
        lab = tuple(["u", "v", "w"][i % 3] for i in range(n))
        spec = ErgmSpec([Edges(), NodeCovariate("x", x, "sender"),
                         NodeMatch("g", lab)])
        exact = fit_exact_dyad(g, spec)
        pseudo = fit_mple(g, spec)
        if any(exact.separation):
            continue
        assert np.allclose(exact.theta, pseudo.theta, atol=1e-6), trial
        assert exact.log_likelihood == pytest.approx(pseudo.log_likelihood,
                                                     abs=1e-6)


def test_standard_errors_match_numerical_fisher():
    g = random_digraph(12, p=0.3, seed=77, mutual_boost=0.5)
    spec = ErgmSpec([Edges(), Mutual()])
    fit = fit_exact_dyad(g, spec)
    theta = np.asarray(fit.theta)
    eps = 1e-5
    k = len(theta)
    fisher = np.zeros((k, k))
    for a in range(k):
        up, dn = theta.copy(), theta.copy()
        up[a] += eps
        dn[a] -= eps
        # the gradient of the log-likelihood is g_obs - E[g]
        fisher[a] = (expected_statistics(g, spec, up)
                     - expected_statistics(g, spec, dn)) / (2 * eps)
    se = np.sqrt(np.diag(np.linalg.inv(fisher)))
    assert np.allclose(fit.std_err, se, rtol=1e-4)
    z = np.asarray(fit.theta) / np.asarray(fit.std_err)
    assert np.array_equal(fit.p_values, 2 * norm.sf(np.abs(z)))


def test_information_criteria_arithmetic():
    g = random_digraph(9, p=0.3, seed=2)
    fit = fit_exact_dyad(g, ErgmSpec([Edges(), Mutual()]))
    assert fit.aic == pytest.approx(-2 * fit.log_likelihood + 2 * 2)
    assert fit.bic == pytest.approx(-2 * fit.log_likelihood
                                    + 2 * math.log(9 * 8))
    assert fit.n_obs == 72


def test_complete_separation_is_pinned_and_flagged():
    # complete within-group dyads, nothing across: the match term has
    # no finite maximizer
    n = 6
    lab = tuple("uuuvvv")
    y = np.zeros((n, n), bool)
    for i in range(n):
        for j in range(n):
            if i != j and lab[i] == lab[j]:
                y[i, j] = True
    g = graph_from_matrix(y)
    spec = ErgmSpec([Edges(), NodeMatch("g", lab)])
    fit = fit_exact_dyad(g, spec)
    assert fit.separation[1]
    assert fit.theta[1] == math.inf
    assert fit.std_err[1] == 0.0 and fit.p_values[1] == 0.0
    assert not fit.separation[0] and math.isfinite(fit.theta[0])
    # effect report mirrors the limit
    rows = report_effects(fit)
    assert rows[1]["exp"] == math.inf and rows[1]["expit"] == 1.0


def test_negative_separation_reports_minus_infinity():
    # a level that never sends or receives any tie
    n = 6
    lab = tuple("uuuuvv")
    y = np.zeros((n, n), bool)
    for i in range(4):
        for j in range(4):
            if i != j:
                y[i, j] = True
    g = graph_from_matrix(y)
    spec = ErgmSpec([Edges(), NodeMatch("g", lab, level="v")])
    fit = fit_exact_dyad(g, spec)
    assert fit.separation[1]
    assert fit.theta[1] == -math.inf
    rows = report_effects(fit)
    assert rows[1]["exp"] == 0.0 and rows[1]["expit"] == 0.0


def test_report_effects_values():
    g = random_digraph(8, p=0.35, seed=30, mutual_boost=0.5)
    fit = fit_exact_dyad(g, ErgmSpec([Edges(), Mutual()]))
    rows = report_effects(fit)
    assert [r["term"] for r in rows] == ["edges", "mutual"]
    for r, theta in zip(rows, fit.theta):
        assert r["exp"] == pytest.approx(math.exp(theta))
        assert r["expit"] == pytest.approx(1 / (1 + math.exp(-theta)))


def test_report_effects_of_an_inestimable_coefficient_are_nan():
    # a match on all-distinct labels is 0 on every dyad: its estimate is NaN
    g = random_digraph(6, p=0.4, seed=17)
    fit = fit_exact_dyad(g, ErgmSpec([Edges(), NodeMatch("tag", tuple("abcdef"))]))
    rows = report_effects(fit)
    assert math.isnan(rows[1]["theta"])
    assert math.isnan(rows[1]["exp"]) and math.isnan(rows[1]["expit"])
    assert rows[0]["exp"] == pytest.approx(math.exp(fit.theta[0]))


def test_inestimable_term_is_nan_and_leaves_the_rest_alone():
    # a level with a single member matches no pair: its term is 0 on
    # every dyad, so the data say nothing about its coefficient
    n = 12
    g = random_digraph(n, p=0.3, seed=8, mutual_boost=0.4)
    x = tuple(np.random.default_rng(8).uniform(0, 2, n))
    lab = tuple(["u", "v"][i % 2] for i in range(n - 1)) + ("solo",)
    without = [Edges(), Mutual(), NodeCovariate("x", x, "sender"), NodeMatch("g", lab)]
    with_term = without[:2] + [NodeMatch("g", lab, level="solo")] + without[2:]
    for fit_fn in (fit_exact_dyad, fit_mple):
        fit = fit_fn(g, ErgmSpec(with_term))
        ref = fit_fn(g, ErgmSpec(without))
        assert np.isnan(fit.theta[2]) and np.isnan(fit.std_err[2])
        assert np.isnan(fit.p_values[2])
        assert not fit.separation.any() and fit.theta_pinned[2] == 0.0
        keep = [0, 1, 3, 4]
        for got, want in ((fit.theta, ref.theta), (fit.std_err, ref.std_err),
                          (fit.p_values, ref.p_values)):
            assert np.allclose(got[keep], want, rtol=1e-10, atol=0), fit_fn
        assert fit.log_likelihood == pytest.approx(ref.log_likelihood, rel=1e-12)
        assert fit.converged and fit.iterations == ref.iterations
        rows = report_effects(fit)
        assert math.isnan(rows[2]["exp"]) and math.isnan(rows[2]["expit"])


def test_likelihood_ratio_test_against_chi2():
    g = random_digraph(12, p=0.3, seed=44, mutual_boost=0.6)
    null = fit_exact_dyad(g, ErgmSpec([Edges()]))
    full = fit_exact_dyad(g, ErgmSpec([Edges(), Mutual()]))
    stat, df, p = likelihood_ratio_test(full, null)
    assert stat == pytest.approx(2 * (full.log_likelihood - null.log_likelihood))
    assert df == 1
    assert p == chi2.sf(stat, 1)
    # a null that scores higher (a fit stopped short) gives a negative statistic
    worse = dataclasses.replace(full, log_likelihood=null.log_likelihood - 1.0)
    stat, _, p = likelihood_ratio_test(worse, null)
    assert stat < 0 and p == chi2.sf(stat, 1) == 1.0


def test_likelihood_ratio_test_rejects_mismatches():
    g1 = random_digraph(10, p=0.3, seed=45)
    g2 = random_digraph(10, p=0.3, seed=46)
    null = fit_exact_dyad(g1, ErgmSpec([Edges()]))
    other = fit_exact_dyad(g2, ErgmSpec([Edges(), Mutual()]))
    with pytest.raises(DataError):
        likelihood_ratio_test(other, null)
    same_k = fit_exact_dyad(g1, ErgmSpec([Edges()]))
    with pytest.raises(DataError):
        likelihood_ratio_test(same_k, null)


def test_published_census_converges_to_p1_closed_form(monkeypatch):
    # the published chamber's dyad census: 475 members, 13,300 ties,
    # 3,059 mutual dyads. On 112,575 dyads the gradient's rounding floor
    # sits above 1e-8, so convergence rests on the Newton decrement.
    n, mutual, asym = 475, 3059, 7182
    rng = np.random.default_rng(0)
    i, j = np.triu_indices(n, k=1)
    pick = rng.permutation(i.shape[0])[:mutual + asym]
    i, j = i[pick], j[pick]
    flip = rng.random(asym) < 0.5
    src = np.concatenate([i[:mutual], j[:mutual], np.where(flip, j[mutual:], i[mutual:])])
    dst = np.concatenate([j[:mutual], i[:mutual], np.where(flip, i[mutual:], j[mutual:])])
    g = Graph(zip(src.tolist(), dst.tolist(), [1.0] * src.shape[0]), nodes=range(n))
    calls = []
    real = fit_module._dyad_loglik

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fit_module, "_dyad_loglik", counted)
    fit = fit_exact_dyad(g, ErgmSpec([Edges(), Mutual()]))

    dyads = n * (n - 1) // 2
    null = dyads - mutual - asym
    theta = [math.log(asym / (2 * null)), math.log(4 * mutual * null / asym**2)]
    ll = (mutual * math.log(mutual / dyads) + asym * math.log(asym / (2 * dyads))
          + null * math.log(null / dyads))
    assert fit.converged
    assert np.allclose(fit.theta, theta, rtol=1e-11, atol=0.0)
    assert fit.log_likelihood == pytest.approx(ll, rel=1e-14)
    # one evaluation per step: the last step, whose predicted gain is
    # below the rounding of ll, is taken once and not halved
    assert len(calls) <= fit.iterations + 1


def test_stalled_line_search_is_not_convergence():
    # the reported gradient points uphill but the objective falls along
    # it, so halving ends in forced tiny steps that lower ll each time
    from legnet.ergm.fit import _newton

    def objective(theta):
        return -5e4 - 1e3 * theta[0], np.array([1e-2]), np.eye(1)

    with pytest.raises(EstimationError, match="no convergence"):
        _newton(objective, 1, tol=1e-8, max_iter=20)


@pytest.mark.parametrize("fit", [fit_exact_dyad, fit_mple])
def test_newton_budget_out_is_no_convergence(monkeypatch, fit):
    monkeypatch.setattr(fit_module, "_NEWTON_MAX_ITER", 1)
    g = random_digraph(12, p=0.35, seed=3, mutual_boost=0.3)
    with pytest.raises(EstimationError, match="^no convergence after 1 iterations"):
        fit(g, ErgmSpec([Edges(), Mutual()]))


def test_step_within_rounding_is_taken_once():
    # near the optimum ll moves only in its last digits: each evaluation
    # reads 1e-11 lower, below the rounding 16 eps |ll| = 1.8e-10 of ll.
    # The step's predicted gain (5e-17) is within that rounding, so it is
    # evaluated once, accepted and ends the iteration, where halving
    # would chase the noise.
    from legnet.ergm.fit import _newton

    calls = []

    def objective(theta):
        calls.append(theta.copy())
        return -5e4 - 1e-11 * len(calls), np.array([1e-6]), np.array([[1e4]])

    theta, frozen, _, _, it = _newton(objective, 1, tol=1e-8, max_iter=20)
    assert it == 1 and len(calls) == 2
    assert theta[0] == pytest.approx(1e-10, rel=1e-12) and not frozen.any()


@pytest.mark.parametrize("fit", [fit_exact_dyad, fit_mple])
@pytest.mark.parametrize("term", [
    lambda x: AbsDiff("closeness", x),
    lambda x: NodeCovariate("closeness", x, "sum"),
], ids=["absdiff", "covariate"])
def test_non_finite_covariate_is_a_data_error(fit, term):
    g = graph_with_a_sink()
    x = legnet.closeness(g)
    assert np.isnan(x[0]) and np.isfinite(x[1:]).all()
    with pytest.raises(DataError, match="covariate 'closeness' contains non-finite values"):
        fit(g, ErgmSpec([Edges(), term(tuple(x))]))
