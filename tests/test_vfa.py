"""Weight fitting: gradient identities, projection, oracle agreement."""

import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ranksel import experiment
from ranksel.experiment import Scenario, replication_features
from ranksel.policies import ACTIVATIONS, apply_activation
from ranksel.vfa import (
    DEFAULT_BOX_BOUND,
    SaConfig,
    VfaWeights,
    gmcl_fit,
    gmcl_gradient,
    linear_lsq_oracle,
    load_weights,
    sa_minimize,
    save_weights,
    vfa_eval,
)


class TestVfaEval:
    def test_zero_weights(self):
        g = np.array([1.3, 0.2])
        assert vfa_eval(VfaWeights(np.zeros(2)), g) == 0.0
        assert vfa_eval(VfaWeights(np.zeros(2), activation="expm"), g) == 0.0

    def test_gap_feature_recovery(self):
        w = VfaWeights(np.array([1.0, 0.0]))
        assert vfa_eval(w, np.array([0.37, 9.9])) == pytest.approx(0.37, rel=1e-12)

    def test_exponential_half(self):
        w = VfaWeights(np.array([1.0, 1.0]), activation="expm")
        g = np.array([math.log(2.0) / 2.0, math.log(2.0) / 2.0])
        assert vfa_eval(w, g) == pytest.approx(0.5, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vfa_eval(VfaWeights(np.ones(2)), np.ones(3))

    @pytest.mark.parametrize("activation", ["linear", "expm"])
    def test_zero_weight_drops_infinite_feature(self, activation):
        """As in the policy's score: a zero weight drops its feature, so an infinite
        gap feature under a zero weight scores K(w2 * g2), not K(0 * inf) = NaN."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = vfa_eval(VfaWeights(np.array([0.0, 1.0]), activation), [math.inf, 0.5])
        assert got == apply_activation(0.5, activation)

    def test_expm_bounded(self):
        # 1 - exp(-z) saturates to exactly 1.0 in float64 beyond z ~ 37;
        # test strict boundedness within the representable range.
        rng = np.random.default_rng(0)
        w = VfaWeights(rng.uniform(0, 2, size=2), activation="expm")
        for _ in range(100):
            val = vfa_eval(w, rng.uniform(0, 8, size=2))
            assert 0.0 <= val < 1.0


class TestGradient:
    def test_zero_residual_zero_gradient(self):
        w = VfaWeights(np.array([0.5, 0.5]))
        g = np.array([1.0, 1.0])  # score = 1.0
        np.testing.assert_array_equal(gmcl_gradient(g, 1.0, w), np.zeros(2))

    def test_zero_weights_zero_indicator(self):
        w = VfaWeights(np.zeros(2))
        np.testing.assert_array_equal(gmcl_gradient(np.ones(2), 0.0, w), np.zeros(2))

    def test_linear_example(self):
        # residual (1*2 + 0*3) - 1 = 1, times the score gradient (2, 3)
        w = VfaWeights(np.array([1.0, 0.0]))
        np.testing.assert_allclose(
            gmcl_gradient(np.array([2.0, 3.0]), 1.0, w), [2.0, 3.0], rtol=1e-12
        )

    def test_expm_chain_rule(self):
        w = VfaWeights(np.array([0.4, 0.3]), activation="expm")
        g = np.array([1.5, 2.0])
        z = w.w @ g
        expected = ((1 - math.exp(-z)) - 0.0) * math.exp(-z) * g
        np.testing.assert_allclose(gmcl_gradient(g, 0.0, w), expected, rtol=1e-12)

    def test_mean_gradient_equals_empirical_objective_gradient(self):
        """The averaged single-sample gradient is exactly half the gradient of
        the empirical squared error (linear activation)."""
        rng = np.random.default_rng(1)
        G = rng.uniform(0, 2, size=(500, 2))
        y = rng.integers(0, 2, size=500).astype(float)
        w = VfaWeights(np.array([0.7, 0.2]))
        mean_d = np.mean([gmcl_gradient(G[i], y[i], w) for i in range(500)], axis=0)
        resid = G @ w.w - y
        analytic_half_grad = (G.T @ resid) / len(y)
        np.testing.assert_allclose(mean_d, analytic_half_grad, atol=1e-10)


class TestLsqOracle:
    def test_all_zero_indicators_give_zero_weights(self):
        rng = np.random.default_rng(2)
        G = rng.uniform(0.1, 2, size=(200, 2))
        w = linear_lsq_oracle(G, np.zeros(200))
        np.testing.assert_allclose(w, np.zeros(2), atol=1e-12)

    def test_constant_feature_regression(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, size=400).astype(float)
        G = np.ones((400, 1))
        w = linear_lsq_oracle(G, y)
        assert w[0] == pytest.approx(y.mean(), abs=1e-10)

    def test_interior_matches_normal_equations(self):
        rng = np.random.default_rng(4)
        G = rng.uniform(0.5, 2.0, size=(300, 2))
        w_true = np.array([0.8, 0.4])
        y = G @ w_true + 0.01 * rng.standard_normal(300)
        w = linear_lsq_oracle(G, y)
        unconstrained = np.linalg.lstsq(G, y, rcond=None)[0]
        np.testing.assert_allclose(w, unconstrained, atol=1e-10)

    def test_singular_design_rejected(self):
        G = np.column_stack([np.ones(50), np.ones(50)])
        with pytest.raises(ValueError):
            linear_lsq_oracle(G, np.zeros(50))

    def test_hessian_psd_always(self):
        rng = np.random.default_rng(5)
        G = rng.uniform(0, 1, size=(100, 2))
        hess = 2 * (G.T @ G) / 100
        assert np.linalg.eigvalsh(hess).min() >= -1e-10


class TestSaConfig:
    def test_step_schedule(self):
        cfg = SaConfig(step_scale=10.0, step_exponent=2 / 3)
        assert cfg.step(1) == pytest.approx(10.0)
        assert cfg.step(8) == pytest.approx(10.0 / 4.0)

    def test_exponent_bounds(self):
        with pytest.raises(ValueError):
            SaConfig(step_exponent=0.5)
        with pytest.raises(ValueError):
            SaConfig(step_exponent=1.01)

    @pytest.mark.parametrize("step_scale", [0.0, -1.0, math.inf, math.nan])
    def test_step_scale_positive_and_finite(self, step_scale):
        with pytest.raises(ValueError, match="step_scale must be positive and finite"):
            SaConfig(step_scale=step_scale)

    def test_weight_box_validation(self):
        with pytest.raises(ValueError):
            VfaWeights(np.array([-0.1, 0.0]))
        with pytest.raises(ValueError):
            VfaWeights(np.array([0.1, 200.0]))

    @pytest.mark.parametrize("changes, message", [
        ({"initial_w": (1.0, 1.0, 1.0)}, "two-factor policy needs exactly two weights"),
        ({"initial_w": (200.0, 1.0)}, "weights must lie in [0, 100], got [200.0, 1.0]"),
        ({"activation": "relu"}, "unknown activation 'relu'"),
    ])
    def test_start_weights_and_activation_checked_when_built(self, changes, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SaConfig(**changes)

    @pytest.mark.parametrize("name, value", [
        ("iterations", 2.5), ("iterations", True), ("seed", True), ("seed", 1.5),
    ])
    def test_integer_settings_must_be_integers(self, name, value):
        """A float ``iterations`` used to fail later inside ``range``; a bool seed fitted."""
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            SaConfig(**{name: value})

    def test_numpy_integer_settings_accepted(self):
        cfg = SaConfig(iterations=np.int64(3), seed=np.uint32(4))
        assert (cfg.iterations, cfg.seed) == (3, 4)


class TestVfaWeights:
    @pytest.mark.parametrize("w", [[], [1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_exactly_two_weights(self, w):
        """A third weight is an error, not silently ignored by the score."""
        with pytest.raises(ValueError, match="two-factor policy needs exactly two weights"):
            VfaWeights(w)


class TestSaMinimize:
    def test_degenerate_regression_converges(self):
        """Indicators identically 1 with g = (1, 0): the first weight must
        approach 1."""
        cfg = SaConfig(step_scale=1.0, step_exponent=2 / 3, iterations=10_000,
                       initial_w=(0.0, 0.0))
        w = sa_minimize(np.array([[1.0, 0.0]]), np.array([1.0]), cfg)
        assert abs(w.w[0] - 1.0) < 0.05
        assert w.w[1] == 0.0

    def test_iterates_stay_in_box(self):
        """A target far above the box pushes both weights onto its upper face."""
        cfg = SaConfig(step_scale=50.0, step_exponent=0.6, iterations=500,
                       initial_w=(1.0, 1.0))
        w = sa_minimize(np.array([[1.0, 1.0]]), np.array([500.0]), cfg)
        assert w.w.tolist() == [100.0, 100.0]

    def test_objective_trend_decreases(self):
        """Running-average squared error late in the run is below the early one."""
        rng = np.random.default_rng(6)
        G = rng.uniform(0.2, 1.5, size=(2000, 2))
        w_true = np.array([0.9, 0.3])
        y = (rng.uniform(size=2000) < np.clip(G @ w_true, 0, 1)).astype(float)
        cfg = SaConfig(step_scale=1.0, iterations=10_000, initial_w=(0.0, 0.0))
        errs = []
        w = np.array([0.0, 0.0])
        for l in range(1, cfg.iterations + 1):
            g, yy = G[(l - 1) % 2000], y[(l - 1) % 2000]
            errs.append(((w @ g) - yy) ** 2)
            w = np.clip(w - cfg.step(l) * ((w @ g) - yy) * g, 0.0, 100.0)
        assert np.mean(errs[5000:]) < np.mean(errs[:1000])

    def test_frozen_cycle_matches_oracle_on_well_conditioned_problem(self):
        rng = np.random.default_rng(7)
        G = rng.uniform(0.2, 1.5, size=(1000, 2))
        w_true = np.array([0.6, 0.5])
        y = (rng.uniform(size=1000) < np.clip(G @ w_true, 0, 1)).astype(float)
        oracle = linear_lsq_oracle(G, y)
        w = sa_minimize(
            G, y, SaConfig(step_scale=2.0, iterations=50_000), average_tail=0.25
        )
        np.testing.assert_allclose(w.w, oracle, atol=0.05)

    def test_non_finite_iterate_detected(self):
        cfg = SaConfig(step_scale=1.0, iterations=10, initial_w=(1.0, 0.0))
        with pytest.raises(RuntimeError, match="diverged"):
            sa_minimize(np.array([[math.nan, 0.0]]), np.array([0.0]), cfg)

    @pytest.mark.parametrize("rows, indicators", [(3, 2), (2, 3), (0, 0)])
    def test_rows_must_match_and_be_nonempty(self, rows, indicators):
        with pytest.raises(ValueError, match="one indicator per feature row"):
            sa_minimize(np.ones((rows, 2)), np.ones(indicators), SaConfig(iterations=5))


def reference_sa_minimize(sample_fn, config, average_tail=0.0, path=None):
    """The SA loop with a checked ``VfaWeights`` and a public gradient call per
    iteration, over a callback ``sample_fn(l)``; appends each iterate to ``path``."""
    activation, box_bound = config.activation, 100.0
    w = VfaWeights(config.initial_w, activation).w
    tail_start = config.iterations - int(config.iterations * average_tail)
    acc = np.zeros_like(w)
    tail_count = 0
    for l in range(1, config.iterations + 1):
        g, y = sample_fn(l)
        weights = VfaWeights(w, activation)
        g = np.asarray(g, dtype=float)
        z = float(weights.w[0] * g[0] + weights.w[1] * g[1])
        d = (apply_activation(z, activation) - y) * (ACTIVATIONS[activation][1](z) * g)
        w = np.clip(w - config.step(l) * d, 0.0, box_bound)
        if path is not None:
            path.append(w)
        if not np.all(np.isfinite(w)):
            raise RuntimeError(
                f"stochastic approximation diverged at iteration {l}: w={w!r}, "
                f"features={np.asarray(g)!r}, indicator={y!r}"
            )
        if l > tail_start:
            acc += w
            tail_count += 1
    if tail_count:
        w = acc / tail_count
    return VfaWeights(w, activation)


class TestSaMatchesReferenceLoop:
    """``sa_minimize`` over frozen arrays reproduces the per-iteration-object
    loop over the same rows bit for bit."""

    @staticmethod
    def frozen(seed, n=500):
        """Targets far outside [0, 1] on exponential features, so that with a large
        step the iterates hit both faces of the box."""
        rng = np.random.default_rng(seed)
        return rng.exponential(size=(n, 2)), rng.uniform(-1000.0, 1000.0, size=n)

    @staticmethod
    def sampler(G, y):
        n = len(y)
        return lambda l: (G[(l - 1) % n], float(y[(l - 1) % n]))

    @pytest.mark.parametrize("activation", ["linear", "expm"])
    @pytest.mark.parametrize("average_tail", [0.0, 0.3])
    def test_weights_bitwise(self, activation, average_tail):
        G, y = self.frozen(11)
        cfg = SaConfig(step_scale=30.0, step_exponent=0.7, iterations=3000,
                       initial_w=(0.5, 2.0), activation=activation)
        got = sa_minimize(G, y, cfg, average_tail=average_tail)
        path = []
        want = reference_sa_minimize(self.sampler(G, y), cfg, average_tail, path)
        assert got.w.tobytes() == want.w.tobytes()
        assert got.activation == activation
        path = np.array(path)
        assert (path == 0.0).any() and (path == DEFAULT_BOX_BOUND).any()

    @pytest.mark.parametrize("activation", ["linear", "expm"])
    def test_divergence_at_same_iteration_with_same_message(self, activation):
        G, y = self.frozen(12)
        G[36, 1] = math.nan
        cfg = SaConfig(step_scale=1.0, iterations=100, initial_w=(1.0, 1.0),
                       activation=activation)
        with pytest.raises(RuntimeError) as got:
            sa_minimize(G, y, cfg)
        with pytest.raises(RuntimeError) as want:
            reference_sa_minimize(self.sampler(G, y), cfg)
        assert "diverged at iteration 37" in str(got.value)
        assert str(got.value) == str(want.value)


def reference_gmcl_fit(scenario, config, batch=2048):
    """Per-iteration sampler: history l is drawn when SA iteration l asks for it,
    from a cached block of ``batch`` replications of namespace 1."""
    scenario = replace(scenario, master_seed=config.seed)
    cache = {}

    def sample(l):
        block, row = divmod(l - 1, batch)
        if block not in cache:
            cache.clear()
            rows = range(block * batch, (block + 1) * batch)
            cache[block] = replication_features(scenario, "ea", rows, namespace=1)
        feats, inds = cache[block]
        return feats[row], float(inds[row])

    return reference_sa_minimize(sample, config)


class TestGmclFit:
    SCENARIO = Scenario(prior_means=(0.0, 0.1, 0.2), prior_stds=(1.0, 0.5, 1.0),
                        sampling_stds=(1.0, 2.0, 1.0), horizon=12, n0=2, master_seed=5)

    @pytest.mark.parametrize("activation", ["linear", "expm"])
    @pytest.mark.parametrize("iterations", [1, 2, 2047, 2048, 2049, 4096, 4097])
    def test_matches_per_iteration_sampler_bitwise(self, iterations, activation):
        config = SaConfig(step_scale=1.0, iterations=iterations, seed=9, activation=activation)
        got = gmcl_fit(self.SCENARIO, config=config)
        want = reference_gmcl_fit(self.SCENARIO, config)
        assert got.w.tobytes() == want.w.tobytes()
        assert got.activation == activation

    @pytest.mark.parametrize("iterations", [1, 4096, 4097])
    def test_simulates_exactly_the_histories_it_uses(self, monkeypatch, iterations):
        """The engine draws exactly one stream per SA iteration, in batches of at
        most ``_CHUNK`` rows."""
        rows = []
        block_normals = experiment._block_normals

        def spy(master_seed, namespace, indices, width):
            rows.append(len(indices))
            return block_normals(master_seed, namespace, indices, width)

        monkeypatch.setattr(experiment, "_block_normals", spy)
        gmcl_fit(self.SCENARIO, config=SaConfig(step_scale=1.0, iterations=iterations))
        assert sum(rows) == iterations
        assert max(rows) <= experiment._CHUNK

    @pytest.mark.parametrize("horizon", [0, 5])
    def test_horizon_below_warmup_rejected(self, horizon):
        """A given horizon, 0 included, replaces the scenario's and meets its checks."""
        with pytest.raises(ValueError, match="horizon must cover the warmup"):
            gmcl_fit(self.SCENARIO, horizon=horizon, config=SaConfig(iterations=2))

    def test_infinite_feature_rejected(self):
        """Zero prior stds with known variances leave zero posterior variances,
        so the gap feature of every history is +inf; the fit must refuse it
        as bad input instead of diverging."""
        sc = Scenario(prior_means=(1, 0), prior_stds=(0, 0), sampling_stds=(1, 1), horizon=8,
                      n0=2, variance_mode="known")
        with pytest.raises(ValueError, match=r"history 1 has non-finite features \[inf, 0.0\]"):
            gmcl_fit(sc, config=SaConfig(iterations=20))


class TestWeightsIO:
    def test_round_trip(self, tmp_path):
        w = VfaWeights(np.array([0.98, 0.42]), activation="expm")
        path = tmp_path / "weights.json"
        save_weights(w, str(path), config=SaConfig(seed=31, activation="expm"))
        loaded = load_weights(str(path))
        np.testing.assert_array_equal(loaded.w, w.w)
        assert loaded.activation == "expm"
        payload = json.loads(path.read_text())
        assert payload["box_bound"] == 100.0  # the one box, for readers that expect the key
        assert payload["config"]["activation"] == "expm"

    @pytest.mark.parametrize("box", [{}, {"box_bound": 100}, {"box_bound": 100.0}])
    def test_box_bound_absent_or_the_one_box(self, tmp_path, box):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"weights": [0.0, 100.0], **box}))
        assert load_weights(str(path)).w.tolist() == [0.0, 100.0]
