"""Latent blockmodel: recovery, likelihood bounds, and model choice."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.cluster.vq import kmeans2
from scipy.special import xlogy

import legnet
from legnet import DataError, adjusted_rand, classification_icl, fit_q, select_q
from legnet.sbm import SbmFit, community_summary


def planted(n_per_block, q, p_in, p_out, seed):
    rng = np.random.default_rng(seed)
    n = n_per_block * q
    truth = np.repeat(np.arange(q), n_per_block)
    prob = np.where(truth[:, None] == truth[None, :], p_in, p_out)
    y = (rng.random((n, n)) < prob)
    np.fill_diagonal(y, False)
    return y.astype(np.int8), truth


def test_recovers_planted_blocks():
    for seed in (0, 1, 2):
        y, truth = planted(20, 3, 0.4, 0.04, seed)
        fit = fit_q(y, 3, seed=seed, restarts=3)
        assert adjusted_rand(fit.labels.tolist(), truth.tolist()) == 1.0


def test_icl_selects_the_planted_block_count():
    y, _ = planted(20, 3, 0.4, 0.04, seed=5)
    best, curve = select_q(y, range(1, 6), restarts=3, seed=5)
    assert best.q == 3
    assert len(curve) == 5
    assert max(curve, key=lambda t: t[1])[0] == 3


def test_scan_recovers_a_pure_sbm(pure_sbm_graph):
    # bound stated before the first run: with 12.25 expected within-block
    # ties per member against 3 across, the scan should find Q = 3 and
    # misplace at most a few members, so ARI >= 0.9
    graph, blocks = pure_sbm_graph
    best, curve = select_q(graph, range(1, 6), restarts=3)
    assert best.q == 3 and max(curve, key=lambda t: t[1])[0] == 3
    assert adjusted_rand(best.labels.tolist(), blocks.tolist()) >= 0.9


def test_elbo_trace_never_decreases():
    rng = np.random.default_rng(8)
    y = (rng.random((40, 40)) < 0.15).astype(np.int8)
    np.fill_diagonal(y, 0)
    for q in (2, 4):
        fit = fit_q(y, q, seed=3)
        diffs = np.diff(np.asarray(fit.elbo_trace))
        assert np.all(diffs >= -1e-7)


def test_single_block_closed_form():
    rng = np.random.default_rng(4)
    y = (rng.random((25, 25)) < 0.2).astype(np.int8)
    np.fill_diagonal(y, 0)
    n = 25
    m = float(y.sum())
    d = n * (n - 1)
    p = m / d
    fit = fit_q(y, 1, seed=0)
    assert fit.pi[0, 0] == pytest.approx(p)
    expected_icl = (float(xlogy(m, p) + xlogy(d - m, 1 - p))
                    - 0.5 * math.log(d))
    assert fit.icl == pytest.approx(expected_icl)
    assert classification_icl(y, np.zeros(n, dtype=int)) == pytest.approx(expected_icl)


def test_classification_icl_matches_hand_computation():
    y, truth = planted(6, 2, 0.5, 0.1, seed=9)
    n = 12
    counts = np.bincount(truth)
    z = np.eye(2)[truth]
    m = z.T @ y @ z
    dmat = np.outer(counts, counts) - np.diag(counts)
    pi = m / dmat
    ll = float((xlogy(m, pi) + xlogy(dmat - m, 1 - pi)).sum())
    mix = float(xlogy(counts, counts / n).sum())
    penalty = (4 / 2) * math.log(n * (n - 1)) + (1 / 2) * math.log(n)
    expected = ll + mix - penalty
    assert classification_icl(y, truth) == pytest.approx(expected)


def test_labels_numbered_by_decreasing_size():
    rng = np.random.default_rng(12)
    sizes = [30, 12, 6]
    truth = np.repeat(np.arange(3), sizes)
    prob = np.where(truth[:, None] == truth[None, :], 0.45, 0.03)
    y = (rng.random((48, 48)) < prob).astype(np.int8)
    np.fill_diagonal(y, 0)
    fit = fit_q(y, 3, seed=1, restarts=3)
    counts = np.bincount(fit.labels, minlength=fit.q)
    assert list(counts) == sorted(counts, reverse=True)


def test_posterior_and_rate_matrices_are_proper():
    y, _ = planted(10, 2, 0.4, 0.1, seed=3)
    fit = fit_q(y, 2, seed=2)
    assert np.allclose(fit.tau.sum(axis=1), 1.0)
    assert fit.alpha.sum() == pytest.approx(1.0)
    assert np.all((fit.pi >= 0) & (fit.pi <= 1))
    assert fit.tau.shape == (20, 2) and fit.pi.shape == (2, 2)


def test_collapse_consistency_and_warning(monkeypatch):
    y, truth = planted(15, 2, 0.5, 0.02, seed=6)

    def init_leaving_class_empty(b, q, spectral, rng):
        # the planted labels on the first two of q classes; the rest get no mass
        tau = np.zeros((b.n, q))
        tau[np.arange(b.n), truth] = 1.0
        return tau

    monkeypatch.setattr(legnet.sbm, "_init_tau", init_leaving_class_empty)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_q(y, 4, seed=0, restarts=2)
    assert fit.requested_q == 4
    assert fit.collapsed
    assert fit.q < fit.requested_q
    assert fit.q == 2
    assert all(run["collapsed"] for run in fit.meta["runs"])
    assert sum("pruned 2 empty class(es) at Q=4" in str(w.message) for w in caught) == 2
    assert adjusted_rand(fit.labels.tolist(), truth.tolist()) == 1.0


def test_restarts_cannot_hurt_the_bound():
    y, _ = planted(12, 3, 0.35, 0.05, seed=7)
    single = fit_q(y, 3, seed=5, restarts=1)
    multi = fit_q(y, 3, seed=5, restarts=6)
    assert multi.elbo >= single.elbo - 1e-9


def test_seed_determinism():
    y, _ = planted(12, 3, 0.35, 0.05, seed=10)
    a = fit_q(y, 3, seed=4, restarts=2)
    b = fit_q(y, 3, seed=4, restarts=2)
    assert np.array_equal(a.labels, b.labels)
    assert a.elbo == b.elbo


def test_random_init_also_recovers(monkeypatch):
    # with the spectral start failing, restart 0 falls back to random
    # labels too, so every start is random
    y, truth = planted(20, 2, 0.4, 0.05, seed=11)

    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh", failing_eigh)
    with pytest.warns(UserWarning, match="spectral start failed at Q=2"):
        fit = fit_q(y, 2, restarts=5, seed=3)
    assert adjusted_rand(fit.labels.tolist(), truth.tolist()) == 1.0


def test_graph_input_equals_matrix_input():
    from conftest import graph_from_matrix
    y, _ = planted(8, 2, 0.45, 0.1, seed=13)
    g = graph_from_matrix(y.astype(bool))
    a = fit_q(y, 2, seed=6)
    b = fit_q(g, 2, seed=6)
    assert np.array_equal(a.labels, b.labels)
    assert a.elbo == pytest.approx(b.elbo)


def test_input_validation():
    with pytest.raises(DataError):
        fit_q(np.ones((3, 4)), 2)
    with pytest.raises(DataError):
        fit_q(np.full((4, 4), 0.5), 2)
    bad_diag = np.eye(4)
    with pytest.raises(DataError):
        fit_q(bad_diag, 2)
    y = np.zeros((4, 4), dtype=np.int8)
    y[0, 1] = 1
    with pytest.raises(DataError):
        fit_q(y, 9)
    with pytest.raises(DataError):
        fit_q(y, 0)
    with pytest.raises(DataError):
        select_q(y, [], seed=0)
    for labels in ([0, 1, 1], [0, 1, 1, 0, 1]):  # one node short, one too many
        with pytest.raises(DataError, match=f"{len(labels)} labels for 4 nodes"):
            classification_icl(y, labels)


@pytest.mark.parametrize("qs, message", [
    (range(1, 70), "Q range 1:69 outside [1, 60]"),
    (range(0, 4), "Q range 0:3 outside [1, 60]"),
    ([3, 61, 2], "Q range 2:61 outside [1, 60]"),
])
def test_a_q_range_outside_the_graph_is_refused_before_any_fit(monkeypatch, qs, message):
    from conftest import graph_from_matrix
    y, _ = planted(20, 3, 0.3, 0.05, seed=2)
    calls = []
    monkeypatch.setattr(legnet.sbm, "fit_q", lambda *args, **kwargs: calls.append(args))
    for adjacency in (y, graph_from_matrix(y.astype(bool))):
        with pytest.raises(DataError) as exc:
            select_q(adjacency, qs, restarts=2)
        assert str(exc.value) == message
    assert calls == []


def test_block_rates_and_dominant_levels():
    y, truth = planted(10, 2, 0.45, 0.05, seed=14)
    fit = fit_q(y, 2, seed=1, restarts=2)
    attrs = legnet.AttributeTable(
        tuple(f"v{i}" for i in range(20)),
        {"party": ["Blue" if t == 0 else "Gold" for t in truth],
         "chamber": ["Upper" if i % 4 == 0 else "Lower" for i in range(20)]},
        {})
    rows = community_summary(fit, attrs, None)
    assert fit.pi.shape == (2, 2)
    assert fit.pi[0, 0] > fit.pi[0, 1] and fit.pi[1, 1] > fit.pi[1, 0]
    assert len(rows) == 2
    parties = {row["party_dominant"] for row in rows}
    assert parties == {"Blue", "Gold"}
    assert all(row["size"] == 10 for row in rows)


def hand_fit(labels, q):
    """An SbmFit with the given hard labels; only `q` and `labels` are read."""
    labels = np.asarray(labels)
    tau = np.eye(q)[labels]
    return SbmFit(q=q, tau=tau, alpha=tau.mean(axis=0), pi=np.full((q, q), 0.5),
                  labels=labels, icl=0.0, elbo=0.0, elbo_trace=(0.0,), converged=True,
                  iterations=1, requested_q=q)


def test_dominant_level_tie_goes_to_the_first_level_in_sorted_order():
    # community 1 meets Gold first and holds two of each; community 2 is 3:1 Red
    fit = hand_fit([0, 0, 0, 0, 1, 1, 1, 1], 2)
    attrs = legnet.AttributeTable(
        tuple(f"v{i}" for i in range(8)),
        {"party": ["Gold", "Blue", "Gold", "Blue", "Red", "Gold", "Red", "Red"],
         "chamber": ["Upper"] * 8}, {})
    rows = community_summary(fit, attrs, None)
    assert [(row["party_dominant"], row["party_share"]) for row in rows] == [
        ("Blue", 0.5), ("Red", 0.75)]
    assert [(row["chamber_dominant"], row["chamber_share"]) for row in rows] == [
        ("Upper", 1.0), ("Upper", 1.0)]


def test_a_community_without_members_gets_no_dominant_level():
    fit = hand_fit([0, 0, 2, 2, 2], 3)
    attrs = legnet.AttributeTable(
        tuple(f"v{i}" for i in range(5)),
        {"party": ["Blue", "Blue", "Gold", "Blue", "Gold"]}, {})
    rows = community_summary(fit, attrs, None)
    assert [row["size"] for row in rows] == [2, 0, 3]
    assert rows[1] == {"community": 2, "size": 0, "share": 0.0}
    assert (rows[0]["party_dominant"], rows[0]["party_share"]) == ("Blue", 1.0)
    assert (rows[2]["party_dominant"], rows[2]["party_share"]) == ("Gold", 2 / 3)


def test_community_summary_rows():
    y, truth = planted(10, 2, 0.45, 0.05, seed=15)
    fit = fit_q(y, 2, seed=2)
    attrs = legnet.AttributeTable(
        tuple(f"v{i}" for i in range(20)),
        {"party": ["Blue" if t == 0 else "Gold" for t in truth]}, {})
    rows = community_summary(fit, attrs, None)
    with pytest.raises(DataError, match="cover 20 and 19 nodes"):
        community_summary(fit, legnet.AttributeTable(attrs.node_ids[:19],
                                                     {"party": ["Blue"] * 19}), None)
    assert len(rows) == 2
    assert rows[0]["size"] + rows[1]["size"] == 20
    assert rows[0]["community"] == 1
    for row in rows:
        assert 0.0 <= row["share"] <= 1.0
        assert row["party_share"] >= 0.5


# -- dense reference: the complement-matrix formulation of the same EM ---------


def _dense_elbo(y, tau, alpha, pi):
    s = tau.sum(axis=0)
    n_qr = tau.T @ y @ tau
    s_qr = np.outer(s, s) - tau.T @ tau
    ll = xlogy(n_qr, pi).sum() + xlogy(s_qr - n_qr, 1.0 - pi).sum()
    return float(ll + xlogy(tau, alpha[None, :]).sum() - xlogy(tau, tau).sum())


def _dense_logs(pi, alpha):
    return (np.log(np.clip(pi, 1e-12, None)), np.log(np.clip(1.0 - pi, 1e-12, None)),
            np.log(np.clip(alpha, 1e-12, None)))


def _complement(y):
    yc = 1.0 - y
    np.fill_diagonal(yc, 0.0)
    return yc


def _dense_field(y, tau, alpha, pi):
    yc = _complement(y)
    l1, l0, log_alpha = _dense_logs(pi, alpha)
    f = y @ (tau @ l1.T) + yc @ (tau @ l0.T) + y.T @ (tau @ l1) + yc.T @ (tau @ l0)
    return f + log_alpha[None, :]


def _dense_damped(y, tau, target, alpha, pi, before):
    """The first of tau + (target - tau) / 2**k, k = 1, 2, ..., whose bound
    is not below `before`; tau itself when none of the halvings is."""
    for k in range(1, legnet.sbm._DAMP_HALVINGS + 1):
        trial = tau + 2.0 ** -k * (target - tau)
        if _dense_elbo(y, trial, alpha, pi) >= before - 1e-10:
            return trial
    return tau


def _dense_mstep(y, tau):
    s = tau.sum(axis=0)
    n_qr = tau.T @ y @ tau
    s_qr = np.outer(s, s) - tau.T @ tau
    pi = np.divide(n_qr, s_qr, out=np.zeros_like(n_qr), where=s_qr > 0)
    return s / y.shape[0], np.clip(pi, 1e-12, 1.0 - 1e-12)


def _dense_softmax(f):
    t = np.exp(f - f.max(axis=1, keepdims=True))
    return t / t.sum(axis=1, keepdims=True)


def _dense_fit_q(y, q, restarts, seed, max_iter=500, tol=1e-6):
    """(fitted Q, labels, ICL, each restart's facts) of the dense EM."""
    from legnet.sbm import _as_binary, _init_tau, _renumber_by_size, _SpectralStart
    best = None
    runs = []
    for r in range(restarts):
        rng = np.random.default_rng((seed * 1_000_003 + r) % 2**63)
        tau = _init_tau(_as_binary(y), q, _SpectralStart(q) if r == 0 else None, rng)
        alpha, pi = _dense_mstep(y, tau)
        trace = [_dense_elbo(y, tau, alpha, pi)]
        facts = {"iterations": 0, "converged": False, "collapsed": False,
                 "damped_esteps": 0}
        for it in range(1, max_iter + 1):
            facts["iterations"] = it
            before = _dense_elbo(y, tau, alpha, pi)
            candidate = _dense_softmax(_dense_field(y, tau, alpha, pi))
            if _dense_elbo(y, candidate, alpha, pi) < before - 1e-10:
                candidate = _dense_damped(y, tau, candidate, alpha, pi, before)
                facts["damped_esteps"] += 1
            tau = candidate
            dead = tau.sum(axis=0) < 1e-8
            if dead.any():
                tau = tau[:, ~dead]
                tau /= tau.sum(axis=1, keepdims=True)
                facts["collapsed"] = True
            alpha, pi = _dense_mstep(y, tau)
            trace.append(_dense_elbo(y, tau, alpha, pi))
            if trace[-1] - trace[-2] < tol and trace[-1] >= trace[-2] - 1e-7:
                facts["converged"] = True
                break
        runs.append(facts)
        if best is None or trace[-1] > best[3][-1]:
            best = (tau, alpha, pi, trace)
    tau, _, _, _ = best
    _, _, _, labels = _renumber_by_size(tau, best[1], best[2])
    return tau.shape[1], labels, classification_icl(y, labels), runs


def _random_state(n=60, q=4, seed=21, runs=1, density=0.12):
    """A graph and `runs` random states of one Q on it."""
    rng = np.random.default_rng(seed)
    y = (rng.random((n, n)) < density).astype(np.float64)
    np.fill_diagonal(y, 0.0)
    tau = rng.dirichlet(np.full(q, 0.7), size=(runs, n))
    alpha = rng.dirichlet(np.ones(q), size=runs)
    pi = rng.uniform(0.02, 0.6, size=(runs, q, q))
    return y, tau, alpha, pi


def _stack(y, tau, alpha, pi):
    """The class-major moments and parameters of node-major states."""
    from legnet.sbm import _as_binary, _moments, _params
    return (_moments(_as_binary(y), np.ascontiguousarray(tau.transpose(0, 2, 1))),
            _params(alpha, pi))


def test_sparse_field_and_bound_match_dense_formulas():
    from legnet.sbm import _elbo, _field
    for seed in range(4):
        y, tau, alpha, pi = _random_state(seed=30 + seed, runs=3)
        m, p = _stack(y, tau, alpha, pi)
        field, bound = _field(m, p), _elbo(m, p)
        for r in range(3):
            assert np.allclose(field[r].T, _dense_field(y, tau[r], alpha[r], pi[r]),
                               rtol=1e-12, atol=1e-12)
            dense = _dense_elbo(y, tau[r], alpha[r], pi[r])
            assert bound[r] == pytest.approx(dense, rel=1e-12)


def test_entropy_from_the_normalizers_matches_xlogy():
    from legnet.sbm import _softmax
    rng = np.random.default_rng(5)
    # the last stack's spread leaves some responsibilities at 0 or subnormal
    for scale in (0.1, 3.0, 40.0, 400.0):
        tau, entropy = _softmax(scale * rng.standard_normal((3, 6, 50)))
        np.testing.assert_allclose(tau.sum(axis=1), 1.0, rtol=1e-15)
        np.testing.assert_allclose(entropy, -xlogy(tau, tau).sum(axis=(1, 2)),
                                   rtol=1e-12, atol=0.0)


# Random (alpha, pi), not those of an M-step, on which the simultaneous
# update lowers the bound (n=40, density 0.15, one run per state).
_LOWERING_SEEDS = (17, 21, 60, 75, 138, 152)


def test_damped_step_matches_the_dense_step_and_spares_the_other_run():
    from legnet.sbm import _as_binary, _elbo, _estep, _field, _softmax
    # the simultaneous update lowers the bound of run 1 and raises that of run 0
    y, tau, alpha, pi = _random_state(n=40, seed=56, runs=2, density=0.15)
    m, p = _stack(y, tau, alpha, pi)
    before = _elbo(m, p)
    simultaneous, _ = _softmax(_field(m, p))
    new, damped = _estep(_as_binary(y), m, p, before)
    assert damped == [1]
    assert np.array_equal(new.tau[0], simultaneous[0])
    target = _dense_softmax(_dense_field(y, tau[1], alpha[1], pi[1]))
    want = _dense_damped(y, tau[1], target, alpha[1], pi[1],
                         _dense_elbo(y, tau[1], alpha[1], pi[1]))
    assert not np.array_equal(want, tau[1])
    np.testing.assert_allclose(new.tau[1].T, want, rtol=0.0, atol=1e-12)
    assert _elbo(new, p)[1] >= before[1]


def _assert_moments_are_fresh(y, m):
    """Every cached product of the stack `m` equals its recomputation
    from m.tau, run by run."""
    for r, tau in enumerate(m.tau.transpose(0, 2, 1)):
        s = tau.sum(axis=0)
        fresh = {"out": (y @ tau).T, "inn": (y.T @ tau).T, "sizes": s,
                 "edges": tau.T @ y @ tau, "pairs": np.outer(s, s) - tau.T @ tau,
                 "entropy": -xlogy(tau, tau).sum()}
        for name, want in fresh.items():
            np.testing.assert_allclose(getattr(m, name)[r], want, rtol=1e-12, atol=0.0,
                                       err_msg=name)


def test_cached_moments_match_a_fresh_recomputation(monkeypatch):
    from legnet.sbm import _as_binary, _estep
    y, tau, alpha, pi = _random_state(seed=44, runs=2)
    m, p = _stack(y, tau, alpha, pi)
    new, damped = _estep(_as_binary(y), m, p, np.array([-math.inf, math.inf]))
    assert damped == [1]
    _assert_moments_are_fresh(y, new)

    # after pruning: record every state the M-step reads during a collapsing fit
    y, truth = planted(15, 2, 0.5, 0.02, seed=6)
    y = y.astype(np.float64)

    def init_leaving_class_empty(b, q, spectral, rng):
        tau = np.zeros((b.n, q))
        tau[np.arange(b.n), truth] = 1.0
        return tau

    seen = []
    mstep = legnet.sbm._mstep

    def recording_mstep(m):
        seen.append(m)
        return mstep(m)

    monkeypatch.setattr(legnet.sbm, "_init_tau", init_leaving_class_empty)
    monkeypatch.setattr(legnet.sbm, "_mstep", recording_mstep)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_q(y, 4, seed=0, restarts=1)
    assert fit.collapsed and len(seen) >= 2
    assert [m.tau.shape[1] for m in seen] == [4] + [2] * (len(seen) - 1)
    for m in seen:
        _assert_moments_are_fresh(y, m)


def _svd_init_labels(y, q, rng):
    """Reference spectral start: k-means on the full SVD's leading directions."""
    a = y - y.mean()
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    emb = np.hstack([u[:, :q] * s[:q], vt[:q, :].T * s[:q]])
    _, labels = kmeans2(emb, q, minit="++", seed=np.random.default_rng(rng.integers(2**32)))
    return labels


def test_spectral_init_matches_the_full_svd_embedding():
    # one start serves every Q, as in a scan: each Q slices the top-20 solve
    from legnet.sbm import _as_binary, _init_tau, _SpectralStart
    rng = np.random.default_rng(29)
    dense = (rng.random((300, 300)) < 0.5).astype(np.float64)
    np.fill_diagonal(dense, 0.0)
    for y in (planted(30, 5, 0.3, 0.04, seed=17)[0].astype(np.float64), dense):
        b = _as_binary(y)
        spectral = _SpectralStart(20)
        for q in range(2, 21):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tau = _init_tau(b, q, spectral, np.random.default_rng(q))
                labels = _svd_init_labels(y, q, np.random.default_rng(q))
            assert np.array_equal(tau.argmax(axis=1), labels), q


def test_select_q_matches_dense_reference():
    y, _ = planted(30, 5, 0.3, 0.04, seed=17)
    y = y.astype(np.float64)
    best, curve = select_q(y, range(1, 8), restarts=2, seed=3)
    ref_curve = []
    ref_best = None
    for q in range(1, 8):
        fitted_q, labels, icl, runs = _dense_fit_q(y, q, restarts=2, seed=3 + 7919 * q)
        assert fit_q(y, q, restarts=2, seed=3 + 7919 * q).meta["runs"] == runs
        ref_curve.append((q, icl))
        if ref_best is None or icl > ref_best[2]:
            ref_best = (fitted_q, labels, icl)
    assert [q for q, _ in curve] == [q for q, _ in ref_curve]
    assert np.allclose([v for _, v in curve], [v for _, v in ref_curve], rtol=1e-9, atol=0.0)
    assert best.q == ref_best[0]
    assert np.array_equal(best.labels, ref_best[1])


def test_one_restart_prunes_while_the_other_does_not(monkeypatch):
    y, truth = planted(15, 3, 0.5, 0.03, seed=8)
    y = y.astype(np.float64)
    random_init = legnet.sbm._init_tau

    def init(b, q, spectral, rng):
        if not spectral:
            return random_init(b, q, spectral, rng)
        # the spectral restart starts with the last class empty
        tau = np.zeros((b.n, q))
        tau[np.arange(b.n), np.minimum(truth, q - 2)] = 1.0
        return tau

    monkeypatch.setattr(legnet.sbm, "_init_tau", init)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_q(y, 3, seed=2, restarts=2)
    runs = fit.meta["runs"]
    assert [run["collapsed"] for run in runs] == [True, False]
    assert [str(w.message) for w in caught] == ["pruned 1 empty class(es) at Q=3"]
    assert runs == _dense_fit_q(y, 3, restarts=2, seed=2)[3]


def test_restart_facts_are_recorded():
    y, _ = planted(15, 2, 0.5, 0.02, seed=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_q(y, 5, seed=0, restarts=3)
    runs = fit.meta["runs"]
    assert len(runs) == 3
    assert set(runs[0]) == {"iterations", "converged", "collapsed", "damped_esteps"}
    assert {"iterations": fit.iterations, "converged": fit.converged,
            "collapsed": fit.collapsed} in [
        {k: r[k] for k in ("iterations", "converged", "collapsed")} for r in runs]


def test_e_step_budget_stops_runs_unconverged(monkeypatch):
    monkeypatch.setattr(legnet.sbm, "_EM_MAX_ITER", 2)
    y, _ = planted(15, 3, 0.4, 0.05, seed=4)
    fit = fit_q(y, 3, seed=0, restarts=3)
    assert not fit.converged and fit.iterations == 2 and len(fit.elbo_trace) == 3
    assert all(run["iterations"] == 2 and not run["converged"] for run in fit.meta["runs"])
    assert fit.meta["runs"] == _dense_fit_q(y, 3, restarts=3, seed=0, max_iter=2)[3]


def test_failed_spectral_start_warns_and_starts_at_random(monkeypatch):
    y, _ = planted(10, 3, 0.4, 0.04, seed=3)

    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh", failing_eigh)
    with pytest.warns(UserWarning, match=r"spectral start failed at Q=3 "
                      r"\(eigenvalues did not converge\); random start used"):
        fit = fit_q(y, 3, seed=1, restarts=2)
    assert fit.requested_q == 3 and fit.labels.shape == (30,)


def test_scan_solves_once_and_a_failed_start_warns_at_every_q(monkeypatch):
    y, _ = planted(10, 3, 0.4, 0.04, seed=3)
    calls = []
    eigh = scipy.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(kwargs["subset_by_index"])
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
    select_q(y, range(1, 6), restarts=1, seed=2)
    assert calls == [[25, 29]]

    def failing_eigh(*args, **kwargs):
        calls.append(kwargs["subset_by_index"])
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    calls.clear()
    monkeypatch.setattr(scipy.linalg, "eigh", failing_eigh)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        select_q(y, range(1, 6), restarts=1, seed=2)
    assert calls == [[25, 29]]
    assert [str(w.message) for w in caught if "spectral" in str(w.message)] == [
        f"spectral start failed at Q={q} (eigenvalues did not converge); random start used"
        for q in range(2, 6)]


def test_a_graph_without_ties_starts_at_random():
    # the centred adjacency is zero, so the embedding carries no signal:
    # the spectral start fails, and k-means never sees the zero embedding
    g = legnet.Graph([], nodes=["a", "b", "c", "d"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        best, curve = select_q(g, range(1, 4), restarts=2, seed=0)
    assert [str(w.message) for w in caught] == [
        f"spectral start failed at Q={q} (the centred adjacency is zero); random start used"
        for q in (2, 3)]
    assert [q for q, _ in curve] == [1, 2, 3]
    assert best.q == 1


def test_other_spectral_start_errors_propagate(monkeypatch):
    y, _ = planted(10, 3, 0.4, 0.04, seed=3)

    def broken_eigh(*args, **kwargs):
        raise ValueError("broken input")

    monkeypatch.setattr(scipy.linalg, "eigh", broken_eigh)
    with pytest.raises(ValueError, match="broken input"):
        fit_q(y, 3, seed=1, restarts=2)


def test_monotone_guard_never_lowers_the_bound():
    from legnet.sbm import _as_binary, _elbo, _estep, _moments, _mstep
    y, _ = planted(10, 3, 0.3, 0.06, seed=12)
    b = _as_binary(y.astype(np.float64))
    rng = np.random.default_rng(12)
    tau = rng.dirichlet(np.full(4, 0.5), size=(20, b.n)).transpose(0, 2, 1)
    m = _moments(b, np.ascontiguousarray(tau))
    p = _mstep(m)
    before = _elbo(m, p)
    new, _ = _estep(b, m, p, before)
    assert np.all(_elbo(new, p) >= before - 1e-10)
    for seed in _LOWERING_SEEDS:
        y, tau, alpha, pi = _random_state(n=40, seed=seed, density=0.15)
        m, p = _stack(y, tau, alpha, pi)
        before = _elbo(m, p)
        new, damped = _estep(_as_binary(y), m, p, before)
        assert damped == [0], seed
        assert _elbo(new, p)[0] >= before[0], seed
        # an unreachable bound: no step passes, and the run keeps tau and its moments
        new, damped = _estep(_as_binary(y), m, p, np.array([math.inf]))
        assert damped == [0]
        for name, kept, old in zip(m._fields, new, m):
            assert np.array_equal(kept, old), (seed, name)
