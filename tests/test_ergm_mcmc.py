"""Network sampler, Monte-Carlo fitting, and chain diagnostics."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import softmax

import legnet
from legnet import ConfigError, DataError, EstimationError
from legnet.ergm import (DyadDesign, Edges, ErgmSpec, McmleControl, Mutual,
                         NodeCovariate, NodeMatch, SimControl, ess,
                         expected_statistics, fit_exact_dyad, fit_mcmle,
                         fit_mple, geweke_z, integrated_autocorr_time,
                         mcmc_diagnostics, sample_states, simulate)

from conftest import (enumerate_graphs, graph_from_matrix, matrix_of,
                      oracle_statistics, random_digraph)


def exact_moments(n, oracle_terms, theta):
    """Mean and sd of the statistics by full enumeration."""
    stats = np.array([oracle_statistics(y, oracle_terms)
                      for y in enumerate_graphs(n)])
    w = softmax(stats @ theta)
    mean = w @ stats
    var = w @ (stats - mean) ** 2
    return mean, np.sqrt(var)


def test_sampler_matches_enumerated_distribution():
    theta = np.array([-1.0, 1.5])
    spec = ErgmSpec([Edges(), Mutual()])
    mean, sd = exact_moments(3, [("edges",), ("mutual",)], theta)
    result, _ = simulate(spec, theta, graph_size=3,
                         control=SimControl(burnin=300, interval=6,
                                            sample_size=4000, seed=2))
    sim_mean = result.stats.mean(axis=0)
    # 4000 thinned draws: allow five standard errors
    bound = 5 * sd / math.sqrt(4000)
    assert np.all(np.abs(sim_mean - mean) < bound)


def test_sampler_edges_only_is_independent_bernoulli():
    p = 0.3
    theta = np.array([math.log(p / (1 - p))])
    result, _ = simulate(ErgmSpec([Edges()]), theta, graph_size=8,
                         control=SimControl(burnin=200, interval=4,
                                            sample_size=3000, seed=7))
    counts = result.stats[:, 0]
    d = 8 * 7
    assert counts.mean() == pytest.approx(d * p, abs=5 * math.sqrt(d * p * (1 - p) / 3000))
    assert counts.var() == pytest.approx(d * p * (1 - p), rel=0.15)


def test_sampler_is_seed_deterministic():
    spec = ErgmSpec([Edges(), Mutual()])
    theta = np.array([-0.5, 0.8])
    control = SimControl(burnin=50, interval=2, sample_size=40, seed=11)
    a, _ = simulate(spec, theta, graph_size=6, control=control)
    b, _ = simulate(spec, theta, graph_size=6, control=control)
    assert np.array_equal(a.stats, b.stats)


def test_sampled_states_reproduce_their_statistics():
    g = random_digraph(7, p=0.3, seed=3, mutual_boost=0.4)
    spec = ErgmSpec([Edges(), Mutual()])
    result, design = simulate(spec, np.array([-0.8, 1.0]), graph=g,
                              control=SimControl(burnin=40, interval=3,
                                                 sample_size=12, seed=5))
    for index in range(12):
        rebuilt = result.graph(design, index)
        assert np.allclose(legnet.global_statistics(rebuilt, spec),
                           result.stats[index])


def test_sim_control_validation():
    with pytest.raises(ConfigError):
        SimControl(burnin=-1)
    with pytest.raises(ConfigError):
        SimControl(interval=0)
    with pytest.raises(ConfigError):
        simulate(ErgmSpec([Edges()]), np.array([0.0]))
    with pytest.raises(ConfigError):
        simulate(ErgmSpec([Edges()]), np.array([np.nan]), graph_size=4)
    with pytest.raises(ConfigError):
        simulate(ErgmSpec([Edges(), Mutual()]), np.array([0.0]), graph_size=4)


def p1_loglik(y, theta):
    """Closed-form edges + mutual log-likelihood from the dyad census."""
    n = y.shape[0]
    mutual = int((y & y.T).sum()) // 2
    asym = int(y.sum()) - 2 * mutual
    a, m = theta
    log_z = np.logaddexp.reduce([0.0, a, a, 2 * a + m])
    return a * (asym + 2 * mutual) + m * mutual - n * (n - 1) / 2 * log_z


def test_mcmle_recovers_the_exact_mle():
    g = random_digraph(16, p=0.22, seed=9, mutual_boost=0.5)
    spec = ErgmSpec([Edges(), Mutual()])
    exact = fit_exact_dyad(g, spec)
    fit = fit_mcmle(g, spec, McmleControl(seed=4, sample_size=600,
                                          burnin=150, interval=5))
    mc_se = np.asarray(fit.diagnostics["mc_std_err"])
    gap = np.abs(np.asarray(fit.theta) - np.asarray(exact.theta))
    assert np.all(gap < np.maximum(3 * mc_se, 0.05))
    assert fit.method == "mcmle"
    assert fit.converged
    # the reported log-likelihood is the exact one at the MCMLE's own theta
    assert fit.log_likelihood == pytest.approx(p1_loglik(matrix_of(g), fit.theta),
                                               rel=1e-9)
    assert fit.aic == pytest.approx(-2 * fit.log_likelihood + 4, rel=1e-12)


def test_mcmle_lands_within_monte_carlo_error_of_the_exact_mle():
    # a sender covariate makes the pseudolikelihood start miss the MLE by
    # many Monte-Carlo standard errors, so the phases have to move theta
    g = random_digraph(16, p=0.22, seed=9, mutual_boost=0.5)
    x = tuple(np.random.default_rng(0).normal(size=16))
    spec = ErgmSpec([Edges(), Mutual(), NodeCovariate("x", x, "sender")])
    exact = fit_exact_dyad(g, spec)
    start = fit_mple(g, spec)
    fit = fit_mcmle(g, spec, McmleControl(seed=4, sample_size=600,
                                          burnin=150, interval=5))
    mc_se = np.asarray(fit.diagnostics["mc_std_err"])
    assert np.any(np.abs(start.theta - exact.theta) > 3 * mc_se)
    assert np.all(np.abs(fit.theta - exact.theta) < 3 * mc_se)
    # an exact log-likelihood cannot exceed its maximum
    assert fit.log_likelihood <= exact.log_likelihood


def test_mcmle_standard_errors_use_the_exact_fisher_information():
    from legnet.ergm.fit import _dyad_moments

    g = random_digraph(16, p=0.22, seed=9, mutual_boost=0.5)
    spec = ErgmSpec([Edges(), Mutual()])
    fit = fit_mcmle(g, spec, McmleControl(seed=4, sample_size=200,
                                          burnin=100, interval=5))
    cov = _dyad_moments(DyadDesign.from_graph(g, spec), fit.theta_pinned)[2]
    expected = np.sqrt(np.diag(np.linalg.inv(cov)))
    assert np.allclose(fit.std_err, expected, rtol=1e-12, atol=0.0)


def test_simulated_means_match_expected_statistics():
    g = random_digraph(12, p=0.3, seed=41, mutual_boost=0.4)
    party = tuple("DR"[i % 2] for i in range(12))
    x = tuple(np.linspace(-1.0, 1.0, 12))
    spec = ErgmSpec([Edges(), Mutual(), NodeMatch("party", party),
                     NodeCovariate("x", x, "receiver")])
    theta = np.array([-1.2, 1.4, 0.6, -0.8])
    result, _ = simulate(spec, theta, graph=g,
                         control=SimControl(burnin=100, interval=3,
                                            sample_size=3000, seed=13))
    want = expected_statistics(g, spec, theta)
    for k in range(spec.k):
        col = result.stats[:, k]
        se = col.std(ddof=1) / math.sqrt(ess(col))
        assert abs(col.mean() - want[k]) < 5 * se


# -- the k-step draws against the per-sweep chain -------------------------------

def reference_sweeps(w, state, sweeps, rng):
    """The per-sweep Metropolis chain over dyad states s = y1 + 2 y2.

    Every dyad proposes to toggle one tie, picked by a fair coin, and
    accepts with probability min(1, exp(w[new] - w[old])). Returns the
    final states and the number of accepted proposals.
    """
    dyads = np.arange(len(state))
    accepted = 0
    for _ in range(sweeps):
        proposal = state ^ np.where(rng.random(len(state)) < 0.5, 1, 2)
        accept = np.log(rng.random(len(state))) < w[dyads, proposal] - w[dyads, state]
        state = np.where(accept, proposal, state)
        accepted += int(accept.sum())
    return state, accepted


def one_sweep_kernel(w):
    p = np.zeros((len(w), 4, 4))
    for s in range(4):
        for t in (s ^ 1, s ^ 2):
            p[:, s, t] = 0.5 * np.minimum(1.0, np.exp(w[:, t] - w[:, s]))
        p[:, s, s] = 1.0 - p[:, s].sum(axis=1)
    return p


def test_k_step_draws_have_the_law_of_the_sweep_chain():
    n, burnin, interval, size = 3, 7, 2, 20000
    x = (0.3, -1.1, 0.8)
    terms = [("edges",), ("mutual",), ("cov", np.asarray(x), "sender")]
    spec = ErgmSpec([Edges(), Mutual(), NodeCovariate("x", x, "sender")])
    theta = np.array([-0.4, 1.2, 0.9])
    design = DyadDesign(n, spec)
    # state log-weights from the statistic definitions: a dyad alone in state s
    w = np.zeros((design.n_dyads, 4))
    for d, (i, j) in enumerate(zip(design.iu, design.ju)):
        for s in range(4):
            y = np.zeros((n, n), bool)
            y[i, j], y[j, i] = s & 1, s >> 1
            w[d, s] = theta @ oracle_statistics(y, terms)
    p = one_sweep_kernel(w)
    pk = np.linalg.matrix_power(p, interval)
    pi = softmax(w, axis=1)
    joint_want = pi[:, :, None] * pk

    drawn = sample_states(design, theta, SimControl(burnin, interval, size, seed=5),
                          init="empty", keep_states=True)
    lib = np.array([y1 + 2 * y2 for y1, y2 in drawn.states], dtype=np.int64)

    rng = np.random.default_rng(6)
    state, _ = reference_sweeps(w, np.zeros(design.n_dyads, np.int64), burnin, rng)
    ref = [state]
    accepted = 0
    for _ in range(size - 1):
        state, acc = reference_sweeps(w, state, interval, rng)
        ref.append(state)
        accepted += acc
    ref = np.array(ref)

    dyads = np.arange(design.n_dyads)
    for states in (lib, ref):
        for d in dyads:
            marginal = np.bincount(states[:, d], minlength=4) / size
            se = np.sqrt(pi[d] * (1 - pi[d]) / size)
            assert np.all(np.abs(marginal - pi[d]) < 6 * se + 1e-3)
            joint = np.zeros((4, 4))
            np.add.at(joint, (states[:-1, d], states[1:, d]), 1.0)
            joint /= size - 1
            se = np.sqrt(joint_want[d] * (1 - joint_want[d]) / size)
            assert np.all(np.abs(joint - joint_want[d]) < 6 * se + 1e-3)
    # exact acceptance at the drawn states, and the sweep chain's own rate
    stay = p[dyads, lib, lib]
    assert drawn.acceptance_rate == pytest.approx(float((1 - stay).mean()), rel=1e-12)
    ref_rate = accepted / ((size - 1) * interval * design.n_dyads)
    assert ref_rate == pytest.approx(drawn.acceptance_rate, abs=0.01)
    # the draws carry the statistics of their states
    for k in (0, 1, size - 1):
        y = np.zeros((n, n), bool)
        y[design.iu, design.ju] = lib[k] & 1
        y[design.ju, design.iu] = lib[k] >> 1
        assert np.allclose(drawn.stats[k], oracle_statistics(y, terms))


def test_dyad_blocks_split_the_draws_consistently(monkeypatch):
    # 21 dyads in blocks of 5: statistics and acceptance sum across blocks
    monkeypatch.setattr(legnet.ergm.sampler, "_BLOCK", 5)
    g = random_digraph(7, p=0.3, seed=3, mutual_boost=0.4)
    spec = ErgmSpec([Edges(), Mutual(), NodeCovariate("x", tuple(range(7)), "sum")])
    theta = np.array([-0.9, 1.1, 0.1])
    result, design = simulate(spec, theta, graph=g,
                              control=SimControl(burnin=20, interval=2,
                                                 sample_size=2000, seed=8))
    codes = np.array([y1 + 2 * y2 for y1, y2 in result.states], dtype=np.int64)
    for index in (0, 999, 1999):
        assert np.allclose(legnet.global_statistics(result.graph(design, index), spec),
                           result.stats[index])
    p = one_sweep_kernel(design.state_log_weights(theta))
    stay = p[np.arange(design.n_dyads), codes, codes]
    assert result.acceptance_rate == pytest.approx(float((1 - stay).mean()), rel=1e-12)
    want = legnet.expected_statistics(g, spec, theta)
    for k in range(spec.k):
        col = result.stats[:, k]
        assert abs(col.mean() - want[k]) < 5 * col.std(ddof=1) / math.sqrt(ess(col))


def test_mcmle_is_seed_deterministic():
    g = random_digraph(10, p=0.3, seed=21, mutual_boost=0.4)
    spec = ErgmSpec([Edges(), Mutual()])
    control = McmleControl(seed=8, sample_size=300, burnin=80)
    a = fit_mcmle(g, spec, control)
    b = fit_mcmle(g, spec, control)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.diagnostics["trace"], b.diagnostics["trace"])


def test_mcmle_flags_degenerate_simulation():
    # a match over all-distinct labels can never vary: the simulated
    # statistic is constant and the term cannot be calibrated
    g = random_digraph(6, p=0.4, seed=17)
    labels = tuple(f"L{i}" for i in range(6))
    spec = ErgmSpec([Edges(), NodeMatch("tag", labels)])
    with pytest.raises(EstimationError, match="match\\(tag\\)"):
        fit_mcmle(g, spec, McmleControl(seed=1, sample_size=64, burnin=30,
                                        max_phases=3))


def test_mcmle_rejects_fully_separated_start():
    n = 5
    y = np.ones((n, n), bool)
    np.fill_diagonal(y, False)
    g = graph_from_matrix(y)
    with pytest.raises(EstimationError):
        fit_mcmle(g, ErgmSpec([Edges()]), McmleControl(seed=1, sample_size=64))


def test_iact_and_ess_on_known_chains():
    rng = np.random.default_rng(0)
    iid = rng.normal(size=4000)
    tau = integrated_autocorr_time(iid)
    assert 0.5 < tau < 1.5
    assert ess(iid) == pytest.approx(4000, rel=0.5)
    # AR(1) with rho=0.9 has integrated time (1+rho)/(1-rho) = 19
    rho = 0.9
    ar = np.empty(60000)
    ar[0] = 0.0
    noise = rng.normal(size=60000)
    for t in range(1, 60000):
        ar[t] = rho * ar[t - 1] + noise[t]
    tau_ar = integrated_autocorr_time(ar)
    assert 12 < tau_ar < 28
    assert math.isnan(integrated_autocorr_time(np.ones(500)))


def test_geweke_on_stationary_and_drifting_chains():
    rng = np.random.default_rng(1)
    stationary = rng.normal(size=5000)
    assert abs(geweke_z(stationary)) < 3.0
    drifting = np.linspace(0, 5, 5000) + rng.normal(size=5000)
    assert abs(geweke_z(drifting)) > 3.0


def test_mcmc_diagnostics_rows():
    g = random_digraph(10, p=0.3, seed=33, mutual_boost=0.5)
    spec = ErgmSpec([Edges(), Mutual()])
    fit = fit_mcmle(g, spec, McmleControl(seed=2, sample_size=400, burnin=100))
    rows = mcmc_diagnostics(fit)
    assert [r["term"] for r in rows] == ["edges", "mutual"]
    for row in rows:
        assert row["min"] <= row["q25"] <= row["median"] <= row["q75"] <= row["max"]
        assert row["ess"] > 10
        assert isinstance(row["stationarity_flag"], bool)
    exact = fit_exact_dyad(g, spec)
    with pytest.raises(DataError):
        mcmc_diagnostics(exact)
