"""Exact network sampler, Monte-Carlo fitting, and its diagnostics."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import softmax

import legnet
import legnet.ergm.mcmle as mcmle_module
from legnet import ConfigError, DataError, EstimationError
from legnet.ergm import (DyadDesign, Edges, ErgmSpec, McmleControl, Mutual,
                         NodeCovariate, NodeMatch, SimControl,
                         expected_statistics, fit_exact_dyad, fit_mcmle,
                         fit_mple, mcmc_diagnostics, sample_states)

from conftest import (enumerate_graphs, graph_from_matrix, matrix_of,
                      oracle_statistics, random_digraph, write_toy)


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
    result = sample_states(DyadDesign(3, spec), theta,
                           SimControl(sample_size=4000, seed=2))
    sim_mean = result.stats.mean(axis=0)
    # 4000 independent draws: allow five standard errors
    bound = 5 * sd / math.sqrt(4000)
    assert np.all(np.abs(sim_mean - mean) < bound)


def test_sampler_edges_only_is_independent_bernoulli():
    p = 0.3
    theta = np.array([math.log(p / (1 - p))])
    result = sample_states(DyadDesign(8, ErgmSpec([Edges()])), theta,
                           SimControl(sample_size=3000, seed=7))
    counts = result.stats[:, 0]
    d = 8 * 7
    assert counts.mean() == pytest.approx(d * p, abs=5 * math.sqrt(d * p * (1 - p) / 3000))
    assert counts.var() == pytest.approx(d * p * (1 - p), rel=0.15)


def test_sampler_is_seed_deterministic():
    spec = ErgmSpec([Edges(), Mutual()])
    theta = np.array([-0.5, 0.8])
    control = SimControl(sample_size=40, seed=11)
    a = sample_states(DyadDesign(6, spec), theta, control)
    b = sample_states(DyadDesign(6, spec), theta, control)
    assert np.array_equal(a.stats, b.stats)


def test_sampled_states_reproduce_their_statistics():
    g = random_digraph(7, p=0.3, seed=3, mutual_boost=0.4)
    spec = ErgmSpec([Edges(), Mutual()])
    design = DyadDesign.from_graph(g, spec)
    result = sample_states(design, np.array([-0.8, 1.0]),
                           SimControl(sample_size=12, seed=5), keep_states=True)
    for index in range(12):
        rebuilt = result.graph(design, index)
        assert np.allclose(DyadDesign.from_graph(rebuilt, spec).statistics(),
                           result.stats[index])


def test_a_draw_that_was_not_kept_is_a_data_error():
    design = DyadDesign(5, ErgmSpec([Edges()]))
    bare = sample_states(design, np.array([-0.5]), SimControl(sample_size=2))
    with pytest.raises(DataError, match=r"^no states were kept: draw with keep_states=True$"):
        bare.graph(design, 0)
    kept = sample_states(design, np.array([-0.5]), SimControl(sample_size=2),
                         keep_states=True)
    for index in (5, 2, -1):
        with pytest.raises(DataError, match=rf"^draw index {index} out of range for 2 draws$"):
            kept.graph(design, index)
    assert kept.graph(design, 1).n == 5


def test_sim_control_validation():
    # every field is an integer in its range; a numpy integer counts
    for field, value in (("seed", -1), ("seed", 1.0), ("seed", True),
                         ("sample_size", 2.5), ("sample_size", 0),
                         ("sample_size", np.float64(5))):
        with pytest.raises(ConfigError, match=f"^SimControl.{field} must be an integer"):
            SimControl(**{field: value})
    assert SimControl(seed=np.int64(3), sample_size=np.int32(4)).seed == 3
    # an integer too long for repr is named by its digit count
    with pytest.raises(ConfigError, match="got <integer of 5001 digits>$"):
        SimControl(seed=-10**5000)
    with pytest.raises(ConfigError):
        sample_states(DyadDesign(4, ErgmSpec([Edges()])), np.array([np.nan]),
                      SimControl())
    with pytest.raises(ConfigError):
        sample_states(DyadDesign(4, ErgmSpec([Edges(), Mutual()])), np.array([0.0]),
                      SimControl())


def test_removed_sampler_and_term_settings_are_refused():
    # the draws are exact, so there is no burn-in or thinning to set, and
    # a term's label is derived from the term
    for field in ("burnin", "interval"):
        with pytest.raises(TypeError):
            SimControl(**{field: 1})
    with pytest.raises(TypeError):
        NodeCovariate("x", (1.0,), label="y")


def test_kept_states_are_one_byte_per_pair_per_draw():
    spec = ErgmSpec([Edges(), Mutual()])
    theta = np.array([-0.5, 0.8])
    design = DyadDesign(9, spec)
    result = sample_states(design, theta, SimControl(sample_size=30, seed=4),
                           keep_states=True)
    assert result.states.dtype == np.int8
    assert result.states.shape == (30, design.n_dyads)
    assert result.states.nbytes == 30 * design.n_dyads
    assert set(np.unique(result.states)) <= {0, 1, 2, 3}
    # a draw made without keeping states keeps none, and has the same statistics
    bare = sample_states(design, theta, SimControl(sample_size=30, seed=4))
    assert bare.states is None
    assert np.array_equal(bare.stats, result.stats)


def test_mcmle_control_validation():
    for field, value in (("seed", -1), ("seed", 0.0), ("sample_size", 2.5),
                         ("sample_size", 1), ("sample_size", True), ("sample_size", None)):
        with pytest.raises(ConfigError, match=f"^McmleControl.{field} must be an integer"):
            McmleControl(**{field: value})
    assert McmleControl(sample_size=np.int64(2), seed=np.uint8(0)).sample_size == 2


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
    fit = fit_mcmle(g, spec, McmleControl(seed=4, sample_size=600))
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
    fit = fit_mcmle(g, spec, McmleControl(seed=4, sample_size=600))
    mc_se = np.asarray(fit.diagnostics["mc_std_err"])
    assert np.any(np.abs(start.theta - exact.theta) > 3 * mc_se)
    assert np.all(np.abs(fit.theta - exact.theta) < 3 * mc_se)
    # an exact log-likelihood cannot exceed its maximum
    assert fit.log_likelihood <= exact.log_likelihood


def test_mcmle_standard_errors_use_the_exact_fisher_information():
    from legnet.ergm.fit import _dyad_moments

    g = random_digraph(16, p=0.22, seed=9, mutual_boost=0.5)
    spec = ErgmSpec([Edges(), Mutual()])
    fit = fit_mcmle(g, spec, McmleControl(seed=4, sample_size=200))
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
    result = sample_states(DyadDesign.from_graph(g, spec), theta,
                           SimControl(sample_size=3000, seed=13))
    want = expected_statistics(g, spec, theta)
    for k in range(spec.k):
        col = result.stats[:, k]
        se = col.std(ddof=1) / math.sqrt(len(col))
        assert abs(col.mean() - want[k]) < 5 * se


# -- the exact draws against the per-dyad law ----------------------------------

def test_exact_draws_have_the_per_dyad_law():
    n, size = 3, 20000
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
    pi = softmax(w, axis=1)

    drawn = sample_states(design, theta, SimControl(sample_size=size, seed=5),
                          keep_states=True)
    states = drawn.states.astype(np.int64)
    for d in range(design.n_dyads):
        marginal = np.bincount(states[:, d], minlength=4) / size
        se = np.sqrt(pi[d] * (1 - pi[d]) / size)
        assert np.all(np.abs(marginal - pi[d]) < 6 * se)
        # consecutive draws are independent: their joint law is the product
        want = np.outer(pi[d], pi[d])
        joint = np.zeros((4, 4))
        np.add.at(joint, (states[:-1, d], states[1:, d]), 1.0)
        joint /= size - 1
        se = np.sqrt(want * (1 - want) / (size - 1))
        assert np.all(np.abs(joint - want) < 6 * se)
    assert drawn.acceptance_rate == 1.0
    # the draws carry the statistics of their states
    for k in (0, 1, size - 1):
        y = np.zeros((n, n), bool)
        y[design.iu, design.ju] = states[k] & 1
        y[design.ju, design.iu] = states[k] >> 1
        assert np.allclose(drawn.stats[k], oracle_statistics(y, terms))


def test_mcmle_is_seed_deterministic():
    g = random_digraph(10, p=0.3, seed=21, mutual_boost=0.4)
    spec = ErgmSpec([Edges(), Mutual()])
    control = McmleControl(seed=8, sample_size=300)
    a = fit_mcmle(g, spec, control)
    b = fit_mcmle(g, spec, control)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.diagnostics["trace"], b.diagnostics["trace"])


def test_mcmle_flags_degenerate_simulation():
    # a match over all-distinct labels can never vary: the term is 0 on
    # every dyad, so it is held at 0 and reported as NaN, and the rest of
    # the model is still estimated
    g = random_digraph(6, p=0.4, seed=17)
    labels = tuple(f"L{i}" for i in range(6))
    spec = ErgmSpec([Edges(), NodeMatch("tag", labels)])
    fit = fit_mcmle(g, spec, McmleControl(seed=1, sample_size=400))
    exact = fit_exact_dyad(g, spec)
    assert fit.labels[1] == "match(tag)"
    assert math.isnan(fit.theta[1]) and math.isnan(fit.std_err[1])
    assert math.isnan(fit.diagnostics["mc_std_err"][1])
    assert not fit.separation[1]
    mc_se = fit.diagnostics["mc_std_err"][0]
    assert mc_se > 0
    assert abs(fit.theta[0] - exact.theta[0]) < 3 * mc_se
    assert [row["degenerate"] for row in mcmc_diagnostics(fit)] == [False, True]


def test_mcmle_rejects_fully_separated_start():
    n = 5
    y = np.ones((n, n), bool)
    np.fill_diagonal(y, False)
    g = graph_from_matrix(y)
    with pytest.raises(EstimationError):
        fit_mcmle(g, ErgmSpec([Edges()]), McmleControl(seed=1, sample_size=64))


def test_mcmc_diagnostics_rows():
    g = random_digraph(10, p=0.3, seed=33, mutual_boost=0.5)
    spec = ErgmSpec([Edges(), Mutual()])
    fit = fit_mcmle(g, spec, McmleControl(seed=2, sample_size=400))
    rows = mcmc_diagnostics(fit)
    assert [r["term"] for r in rows] == ["edges", "mutual"]
    trace = fit.diagnostics["trace"]
    for k, row in enumerate(rows):
        assert set(row) == {"term", "mean", "sd", "min", "q25", "median", "q75",
                            "max", "degenerate"}
        assert row["min"] <= row["q25"] <= row["median"] <= row["q75"] <= row["max"]
        assert row["sd"] == pytest.approx(trace[:, k].std(ddof=1), rel=1e-12)
        assert row["degenerate"] is False
    exact = fit_exact_dyad(g, spec)
    with pytest.raises(DataError):
        mcmc_diagnostics(exact)


# Phase counts of this fit depend on its draws; the first test checks
# that it does take more than one phase at the fixed rules.
def _multi_phase_fit():
    g = random_digraph(20, p=0.1, seed=1, mutual_boost=0.95)
    return g, ErgmSpec([Edges(), Mutual()]), McmleControl(seed=1, sample_size=200)


def test_phase_budget_out_is_an_estimation_error(monkeypatch):
    g, spec, control = _multi_phase_fit()
    assert fit_mcmle(g, spec, control).diagnostics["phases"] > 1
    monkeypatch.setattr(mcmle_module, "_MAX_PHASES", 1)
    with pytest.raises(EstimationError,
                       match=r"^estimating equations not met after 1 phases"):
        fit_mcmle(g, spec, control)


def test_loose_estimating_equation_tolerance_stops_after_one_phase(monkeypatch):
    g, spec, control = _multi_phase_fit()
    monkeypatch.setattr(mcmle_module, "_EE_TOL", 1e6)
    fit = fit_mcmle(g, spec, control)
    assert fit.diagnostics["phases"] == fit.iterations == 1
    assert len(fit.diagnostics["ee_history"]) == 1


@pytest.mark.parametrize("seed", range(5))
def test_ten_draws_per_phase_converge_near_the_exact_mle(tmp_path, seed):
    # A phase mean of 10 draws has Monte-Carlo sd 1/sqrt(10) simulated sd,
    # so the stopping rule widens from 0.1 to 0.316 sd; at 0.1 all five
    # seeds ran out of phases. Bound stated before the run: each coefficient
    # within one exact-fit standard error of the exact MLE, since a 10-draw
    # fit's own Monte-Carlo error is about a third of that.
    g = legnet.load_edge_list(write_toy(tmp_path)[0])
    spec = ErgmSpec([Edges(), Mutual()])
    exact = fit_exact_dyad(g, spec)
    fit = fit_mcmle(g, spec, McmleControl(sample_size=10, seed=seed))
    assert fit.diagnostics["ee_history"][-1] < 1 / math.sqrt(10)
    assert np.all(np.abs(fit.theta - exact.theta) < exact.std_err)


@pytest.mark.parametrize("field", ["max_phases", "ee_tol", "step_max", "min_ess_frac"])
def test_fixed_rules_are_not_control_fields(field):
    assert [f.name for f in dataclasses.fields(McmleControl)] == ["sample_size", "seed"]
    with pytest.raises(TypeError):
        McmleControl(**{field: 1})


# -- the update: partial stepping toward a target inside the hull of the draws --

@pytest.mark.parametrize("points, xi, inside", [
    ([[0, 0], [1, 0], [0, 1], [1, 1]], [0.5, 0.5], True),
    ([[0, 0], [1, 0], [0, 1], [1, 1]], [1.0, 1.0], False),   # a vertex
    ([[0, 0], [1, 0], [0, 1], [1, 1]], [0.5, 1.0], False),   # on an edge
    ([[0, 0], [1, 0], [0, 1], [1, 1]], [1.5, 0.5], False),
    # draws on a line: inside is the open segment of that line
    ([[0, 0], [1, 1], [2, 2]], [0.5, 0.5], True),
    ([[0, 0], [1, 1], [2, 2]], [0.5, 0.6], False),
])
def test_inside_hull_is_the_relative_interior(points, xi, inside):
    assert mcmle_module._inside_hull(np.array(points, float), np.array(xi)) is inside


def _update(g_obs, sample):
    """The MCMLE update of one phase with every coefficient free:
    (target, gamma, delta, ratio gradient at delta, pinned)."""
    from legnet.ergm.fit import _newton

    free = np.ones(sample.shape[1], bool)
    xi, gamma = mcmle_module._hull_target(g_obs, sample, free)
    delta, pinned, *_ = _newton(lambda d: mcmle_module._ratio_loglik(sample, xi, d),
                                sample.shape[1])
    return xi, gamma, delta, mcmle_module._ratio_loglik(sample, xi, delta)[1], pinned


def test_update_aims_at_the_observed_statistics_inside_the_hull():
    from legnet.ergm.fit import _NEWTON_TOL

    rng = np.random.default_rng(3)
    sample = rng.poisson((400.0, 60.0, 90.0), size=(200, 3)).astype(float)
    g_obs = sample.mean(axis=0) + (4.0, -2.0, 3.0)
    xi, gamma, delta, grad, pinned = _update(g_obs, sample)
    assert gamma == 1.0 and np.array_equal(xi, g_obs)
    assert not pinned.any() and np.all(np.isfinite(delta)) and np.any(delta != 0)
    # the weighted draws match g_obs at delta
    assert np.abs(grad).max() < _NEWTON_TOL * np.abs(sample).max()


def test_update_aims_short_of_observed_statistics_outside_the_hull():
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(5)
    draws = rng.normal(size=(10, 2)) * (3.0, 1.0) + (20.0, 4.0)
    g_obs = draws.max(axis=0) + (1.0, 0.5)
    xi, gamma, delta, _, pinned = _update(g_obs, draws)
    assert 0.0 < gamma < 1.0
    assert not pinned.any() and np.all(np.isfinite(delta))
    # an oracle independent of the LP: the target is in a Delaunay simplex
    assert Delaunay(draws).find_simplex(xi) >= 0
    # the unhalved step would have aimed outside
    assert Delaunay(draws).find_simplex(g_obs) < 0


def test_small_sample_update_does_not_overshoot(tmp_path, monkeypatch):
    # ten draws per phase on the toy graph once sent one update from
    # (-2.08, 3.35) to (27.6, -43.9), after which every draw was [435, 0].
    # Seed 3 is the one of seeds 0-4 whose first phase misses the widened
    # stopping rule, so its updates are the ones checked here.
    edges, _ = write_toy(tmp_path)
    g = legnet.load_edge_list(edges)
    spec = legnet.build_model("model2", g, None, None)
    exact = fit_exact_dyad(g, spec)
    visited = []
    sample_states = mcmle_module.sample_states

    def recording(design, theta, control):
        visited.append(np.array(theta))
        return sample_states(design, theta, control)

    monkeypatch.setattr(mcmle_module, "sample_states", recording)
    try:
        fit = fit_mcmle(g, spec, McmleControl(sample_size=10, seed=3))
    except EstimationError as exc:
        assert not str(exc).startswith("degenerate simulation")
    else:
        mc_se = fit.diagnostics["mc_std_err"]
        assert np.all(np.abs(fit.theta - exact.theta) < 3 * mc_se)
    assert len(visited) > 1
    assert max(np.abs(theta).max() for theta in visited) < 25.0


def test_gamma_history_has_one_entry_per_update():
    g, spec, control = _multi_phase_fit()
    fit = fit_mcmle(g, spec, control)
    gammas = fit.diagnostics["gamma_history"]
    assert len(gammas) == fit.diagnostics["phases"] - 1
    assert all(gamma in {0.0, *(0.5 ** j for j in range(mcmle_module._HALVINGS))}
               for gamma in gammas)
