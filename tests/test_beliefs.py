"""Conjugate-update correctness and the exchangeability/martingale property suite."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranksel import experiment
from ranksel.beliefs import (
    BetaBelief,
    GaussianBelief,
    GroundTruth,
    beta_update,
    normal_batch_posterior,
    normal_predictive,
    normal_update,
    posterior_arrays,
)
from ranksel.experiment import Scenario

RTOL = 1e-12


class TestBetaUpdates:
    def test_single_success(self):
        b = beta_update(BetaBelief(alpha=1, beta=1, count=0, successes=0), 1)
        assert (b.alpha, b.beta, b.count, b.successes) == (2, 1, 1, 1)

    def test_uninformative_prior_recovers_sample_mean(self):
        """From alpha = beta = 0 the posterior holds exactly the sample's successes and
        failures, so its mean alpha / (alpha + beta) is the sample mean."""
        b = BetaBelief(alpha=0, beta=0, count=0, successes=0)
        for obs in (1, 1, 0):
            b = beta_update(b, obs)
        assert (b.alpha, b.beta, b.count, b.successes) == (2, 1, 3, 2)

    def test_posterior_adds_counts_exactly(self):
        b = BetaBelief(alpha=2.5, beta=0.5, count=0, successes=0)
        seq = [1, 0, 0, 1, 1, 1, 0]
        for obs in seq:
            b = beta_update(b, obs)
        assert b.alpha == 2.5 + sum(seq)
        assert b.beta == 0.5 + len(seq) - sum(seq)
        assert b.count == len(seq)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            beta_update(BetaBelief(alpha=1, beta=1, count=0, successes=0), 2)


class TestNormalUpdates:
    def test_unit_example(self):
        b = normal_update(GaussianBelief.from_prior(0.0, 1.0, 1.0), 2.0)
        assert b.post_var == pytest.approx(0.5, rel=RTOL)
        assert b.post_mean == pytest.approx(1.0, rel=RTOL)
        assert b.count == 1

    def test_observing_current_mean_is_fixed_point(self):
        b = GaussianBelief.from_prior(1.3, 2.0, 2.0)
        assert normal_update(b, 1.3).post_mean == pytest.approx(1.3, rel=RTOL)

    def test_uninformative_prior(self):
        b = normal_update(GaussianBelief.uninformative(sampling_var=4.0), 7.0)
        assert b.post_mean == pytest.approx(7.0, rel=RTOL)
        assert b.post_var == pytest.approx(4.0, rel=RTOL)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            normal_update(GaussianBelief.from_prior(0.0, 1.0, 1.0), math.nan)

    def test_predictive_sum(self):
        belief = GaussianBelief(post_mean=1.0, post_var=0.5, count=3, sampling_var=1.0)
        assert normal_predictive(belief) == (1.0, 1.5)

    def test_predictive_known_mean(self):
        belief = GaussianBelief(post_mean=2.0, post_var=0.0, count=5, sampling_var=3.0)
        assert normal_predictive(belief) == (2.0, 3.0)

    def test_predictive_unit_prior(self):
        belief = GaussianBelief(post_mean=0.0, post_var=1.0, count=0, sampling_var=1.0)
        assert normal_predictive(belief) == (0.0, 2.0)

    def test_predictive_rejected_on_zero_data_uninformative(self):
        with pytest.raises(ValueError):
            normal_predictive(GaussianBelief.uninformative(sampling_var=1.0))


class TestBatchPosterior:
    def test_empty_batch_is_prior(self):
        b = normal_batch_posterior(0.3, 2.0, 1.5, 0, 0.0)
        assert (b.post_mean, b.post_var, b.count) == (0.3, 2.0, 0)

    def test_single_matches_update(self):
        b = normal_batch_posterior(0.0, 1.0, 1.0, 1, 2.0)
        assert b.post_mean == pytest.approx(1.0, rel=RTOL)
        assert b.post_var == pytest.approx(0.5, rel=RTOL)

    def test_three_observations(self):
        b = normal_batch_posterior(0.0, 1.0, 1.0, 3, 1.0)
        assert b.post_mean == pytest.approx(0.75, rel=RTOL)
        assert b.post_var == pytest.approx(0.25, rel=RTOL)

    def test_zero_prior_variance_pins_prior_mean(self):
        b = normal_batch_posterior(0.0, 0.0, 1.0, 3, 1.0)
        assert (b.post_mean, b.post_var, b.count, b.sum_obs) == (0.0, 0.0, 3, 3.0)

    def test_matches_array_core_bitwise(self):
        """The scalar posterior is the engine's array core, row by row."""
        rng = np.random.default_rng(8)
        m = 500
        prior_means = rng.normal(size=m)
        prior_vars = np.where(rng.random(m) < 0.1, np.inf, rng.uniform(0.01, 5, size=m))
        prior_vars[:10] = 0.0
        svars = rng.uniform(0.1, 5, size=m)
        counts = rng.integers(1, 50, size=m)
        sample_means = rng.normal(size=m)
        post_mean, post_var = posterior_arrays(
            prior_means, prior_vars, counts.astype(float), counts * sample_means, svars)
        for i in range(m):
            b = normal_batch_posterior(float(prior_means[i]), float(prior_vars[i]),
                                       float(svars[i]), int(counts[i]), float(sample_means[i]))
            assert np.float64(b.post_mean).tobytes() == post_mean[i].tobytes()
            assert np.float64(b.post_var).tobytes() == post_var[i].tobytes()

    def test_matches_sequential_fold(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            prior_mean, prior_var = rng.normal(), rng.uniform(0.1, 5)
            svar = rng.uniform(0.1, 5)
            obs = rng.normal(size=rng.integers(1, 8))
            b = GaussianBelief.from_prior(prior_mean, prior_var, svar)
            for x in obs:
                b = normal_update(b, x)
            batch = normal_batch_posterior(prior_mean, prior_var, svar, len(obs), obs.mean())
            assert batch.post_mean == pytest.approx(b.post_mean, rel=RTOL, abs=1e-12)
            assert batch.post_var == pytest.approx(b.post_var, rel=RTOL)


class TestConjugacyProperties:
    """Exchangeability, martingale, and variance-monotonicity invariants."""

    def test_beta_exchangeability_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            seq = rng.integers(0, 2, size=rng.integers(1, 10))
            perm = rng.permutation(seq)
            b1 = BetaBelief(alpha=0.7, beta=1.1, count=0, successes=0)
            b2 = BetaBelief(alpha=0.7, beta=1.1, count=0, successes=0)
            for x in seq:
                b1 = beta_update(b1, int(x))
            for x in perm:
                b2 = beta_update(b2, int(x))
            assert b1.alpha == b2.alpha and b1.beta == b2.beta

    def test_normal_exchangeability(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            obs = rng.normal(size=rng.integers(2, 8))
            perm = rng.permutation(obs)
            b1 = GaussianBelief.from_prior(0.5, 2.0, 1.3)
            b2 = GaussianBelief.from_prior(0.5, 2.0, 1.3)
            for x in obs:
                b1 = normal_update(b1, x)
            for x in perm:
                b2 = normal_update(b2, x)
            assert b1.post_mean == pytest.approx(b2.post_mean, rel=RTOL, abs=1e-12)
            assert b1.post_var == pytest.approx(b2.post_var, rel=RTOL)

    def test_martingale_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            b = GaussianBelief(
                post_mean=rng.normal(),
                post_var=rng.uniform(0.01, 5),
                count=int(rng.integers(0, 5)),
                sampling_var=rng.uniform(0.01, 5),
            )
            mean, _ = normal_predictive(b)
            assert normal_update(b, mean).post_mean == pytest.approx(
                b.post_mean, rel=RTOL, abs=1e-12
            )

    def test_posterior_variance_strictly_decreases(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            b = GaussianBelief(
                post_mean=rng.normal(),
                post_var=rng.uniform(0.01, 5),
                count=0,
                sampling_var=rng.uniform(0.01, 5),
            )
            updated = normal_update(b, rng.normal())
            assert updated.post_var < b.post_var
            assert updated.count == b.count + 1

    @given(
        prior_mean=st.floats(-10, 10),
        prior_var=st.floats(0.01, 10),
        svar=st.floats(0.01, 10),
        obs=st.floats(-10, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_update_interpolates_mean(self, prior_mean, prior_var, svar, obs):
        """The posterior mean always lies between prior mean and observation."""
        b = normal_update(GaussianBelief.from_prior(prior_mean, prior_var, svar), obs)
        lo, hi = min(prior_mean, obs), max(prior_mean, obs)
        assert lo - 1e-9 <= b.post_mean <= hi + 1e-9


def engine_truths(monkeypatch, scenario, indices):
    """The ``(k, n)`` true means that ``experiment._replications`` draws for the rows
    ``indices`` and hands to the simulation engine (which is not run) for its one score
    function."""
    seen = []
    monkeypatch.setattr(experiment, "_engine", lambda score_fn, truth, *rest: seen.append(truth))
    experiment._replications(scenario, [None], list(indices))
    return seen[0]


def prior_scenario(prior_means, prior_stds, master_seed=0):
    k = len(prior_means)
    return Scenario(prior_means=prior_means, prior_stds=prior_stds, sampling_stds=(1.0,) * k,
                    horizon=2 * k, n0=2, master_seed=master_seed)


class TestGroundTruth:
    """``GroundTruth``, and the ground truths the engine draws from the scenario prior."""

    def test_requires_two_alternatives(self):
        with pytest.raises(ValueError):
            GroundTruth(means=[1.0], variances=[1.0])

    def test_degenerate_prior_returns_prior_means(self, monkeypatch):
        truth = engine_truths(monkeypatch, prior_scenario((1.0, 2.0), (0.0, 0.0)), range(5))
        np.testing.assert_array_equal(truth, [[1.0] * 5, [2.0] * 5])

    def test_negative_prior_std_rejected(self):
        with pytest.raises(ValueError, match="prior_stds must be nonnegative"):
            prior_scenario((0.0, 0.0), (1.0, -1.0))

    def test_same_seed_same_truth(self, monkeypatch):
        """A row's truth depends on the master seed and its index alone."""
        sc = prior_scenario((0.0,) * 3, (1.0,) * 3, master_seed=42)
        a = engine_truths(monkeypatch, sc, range(5))
        assert a.tobytes() == engine_truths(monkeypatch, sc, range(5)).tobytes()
        assert a[:, 3].tobytes() == engine_truths(monkeypatch, sc, [3])[:, 0].tobytes()

    def test_prior_moments(self, monkeypatch):
        """Empirical mean/std of drawn means match the prior within 3 standard errors."""
        n = 20_000
        first = engine_truths(monkeypatch, prior_scenario((0.0,) * 2, (1.0,) * 2, 6), range(n))[0]
        assert abs(first.mean()) < 3 / math.sqrt(n)
        assert abs(first.std() - 1.0) < 3 / math.sqrt(2 * n)
