"""Harness determinism, warmup behavior, estimator correctness, config round-trips."""

import hashlib
import json
import re
import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from ranksel.beliefs import GaussianBelief, GroundTruth, posterior_arrays, sample_variances
from ranksel.experiment import (
    BUILTIN_SCENARIOS,
    VARIANCE_MODES,
    IpcsCurve,
    Scenario,
    builtin_scenario,
    estimate_ipcs,
    parse_config,
    replication_features,
    run_fixed_truths,
    run_specs,
    write_results,
)
from ranksel import experiment
from ranksel import policies as pol
from ranksel.policies import BatchState, decide, make_policy
from ranksel.vfa import VfaWeights


def small_scenario(**overrides):
    base = Scenario(
        prior_means=(0.0, 0.0, 0.0),
        prior_stds=(1.0, 1.0, 1.0),
        sampling_stds=(1.0, 1.0, 1.0),
        horizon=30,
        n0=3,
        macro_reps=64,
        master_seed=99,
    )
    return replace(base, **overrides) if overrides else base


def run_config(config, workers=1):
    """Every policy of a config mapping run on its scenario, as ``run-experiment`` runs them."""
    scenario, specs, _ = parse_config(config)
    return run_specs(scenario, specs, workers)


def weights_for(policy_id):
    """Test weights for two_factor, the one policy that reads weights; None for the rest."""
    return VfaWeights(np.array([0.98, 0.42])) if policy_id == "two_factor" else None


class TestScenarioValidation:
    def test_horizon_must_cover_warmup(self):
        with pytest.raises(ValueError):
            small_scenario(horizon=5)

    def test_plugin_needs_two_warmup_samples(self):
        with pytest.raises(ValueError):
            small_scenario(n0=1)

    def test_known_variance_allows_single_warmup(self):
        sc = small_scenario(n0=1, variance_mode="known", horizon=30)
        assert sc.warmup == 3

    @pytest.mark.parametrize("name, value", [
        ("horizon", 30.0), ("n0", 3.0), ("n0", True), ("macro_reps", True),
        ("macro_reps", 2.5), ("master_seed", 1.5), ("master_seed", True),
    ])
    def test_integer_settings_must_be_integers(self, name, value):
        """A float master_seed used to run as its integer part; a bool macro_reps
        reached the CSV as ``True``."""
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            small_scenario(**{name: value})

    def test_numpy_integer_settings_accepted(self):
        sc = small_scenario(horizon=np.int64(30), n0=np.int32(3), macro_reps=np.int16(4),
                            master_seed=np.uint64(5))
        assert (sc.horizon, sc.n0, sc.macro_reps, sc.master_seed) == (30, 3, 4, 5)

    def test_zero_prior_stds_require_distinct_means(self):
        with pytest.raises(ValueError):
            small_scenario(prior_stds=(0.0, 0.0, 1.0))

    def test_builtin_scenario_constants(self):
        ex1 = BUILTIN_SCENARIOS["example1"]
        assert ex1.k == 10 and ex1.horizon == 400 and ex1.n0 == 10
        assert ex1.prior_means == (0.0,) * 10
        assert ex1.prior_stds == (1.0,) * 10
        assert ex1.sampling_stds == (1.0,) * 10
        ex2 = BUILTIN_SCENARIOS["example2-lowconf"]
        assert ex2.horizon == 200 and ex2.n0 == 10
        assert ex2.prior_stds == (0.02,) + (0.01,) * 9
        ex3 = BUILTIN_SCENARIOS["example2-midconf"]
        assert ex3.prior_stds == (0.08,) + (0.04,) * 9

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_scenario("nope")


def one_replication(scenario, policy_id, rep_index=0):
    """Correctness bits of one macro replication; element j is at warmup + j samples."""
    return experiment._correct_counts(scenario, [make_policy(policy_id)], [rep_index])[0]


class TestMacroReplication:
    def test_repeatable(self):
        sc = small_scenario()
        a = one_replication(sc, "aoap", rep_index=3)
        b = one_replication(sc, "aoap", rep_index=3)
        np.testing.assert_array_equal(a, b)

    def test_bit_vector_span(self):
        sc = small_scenario()
        bits = one_replication(sc, "ea")
        assert bits.shape == (sc.horizon - sc.warmup + 1,)

    def test_zero_prior_spread_always_correct(self):
        sc = small_scenario(
            prior_means=(1.0, 0.0, -1.0),
            prior_stds=(0.0, 0.0, 0.0),
            variance_mode="known",
            n0=1,
        )
        for pid in ("ea", "aoap", "kg"):
            bits = one_replication(sc, pid, rep_index=1)
            assert bits.min() == 1

    def test_ea_counts_balanced(self):
        sc = small_scenario(horizon=31)  # not a multiple of k
        from ranksel.experiment import _last, _replications

        _, (states,) = _replications(sc, [make_policy("ea")], [0, 1, 2])
        counts = _last(states).counts
        assert counts.sum() == 3 * sc.horizon
        assert np.all(np.isin(counts, (sc.horizon // sc.k, sc.horizon // sc.k + 1)))

    def test_warmup_shared_across_policies(self):
        """Policy curves may differ only after the warmup step."""
        sc = small_scenario()
        first_bits = {
            pid: one_replication(sc, pid, rep_index=7)[0]
            for pid in ("ea", "aoap", "ocba", "kg")
        }
        assert len(set(first_bits.values())) == 1


class TestEstimateIpcs:
    def test_single_replication_equals_bit_vector(self):
        sc = small_scenario(macro_reps=1)
        curve = estimate_ipcs(sc, "aoap")
        bits = one_replication(sc, "aoap", rep_index=0)
        np.testing.assert_array_equal(curve.ipcs, bits.astype(float))
        assert curve.macro_reps == 1

    def test_stderr_formula(self):
        sc = small_scenario()
        curve = estimate_ipcs(sc, "ea")
        expected = np.sqrt(curve.ipcs * (1 - curve.ipcs) / sc.macro_reps)
        np.testing.assert_allclose(curve.stderr, expected, rtol=1e-12)

    def test_worker_invariance(self, monkeypatch):
        sc = small_scenario(macro_reps=70)
        monkeypatch.setattr(experiment, "_CHUNK", 16)
        one = estimate_ipcs(sc, "aoap", workers=1)
        many = estimate_ipcs(sc, "aoap", workers=4)
        np.testing.assert_array_equal(one.ipcs, many.ipcs)

    @pytest.mark.parametrize("workers", [0, -3])
    @pytest.mark.parametrize("chunk", [16, 4])  # one block, then several
    def test_workers_below_one_rejected(self, workers, chunk, monkeypatch):
        sc = small_scenario(macro_reps=16)
        monkeypatch.setattr(experiment, "_CHUNK", chunk)
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            estimate_ipcs(sc, "ea", workers=workers)

    def test_chunk_invariance(self, monkeypatch):
        sc = small_scenario(macro_reps=50)
        monkeypatch.setattr(experiment, "_CHUNK", 7)
        a = estimate_ipcs(sc, "kg")
        monkeypatch.setattr(experiment, "_CHUNK", 50)
        b = estimate_ipcs(sc, "kg")
        np.testing.assert_array_equal(a.ipcs, b.ipcs)

    def test_two_alternative_post_warmup_pcs_matches_integration(self):
        """Selection right after warmup: correctness probability has a closed
        integral form, used as an oracle for the whole pipeline."""
        n0 = 12
        sc = Scenario(
            prior_means=(0.0, 0.0),
            prior_stds=(1.0, 1.0),
            sampling_stds=(1.0, 1.0),
            horizon=2 * n0,
            n0=n0,
            macro_reps=20_000,
            master_seed=5,
            variance_mode="known",
        )
        curve = estimate_ipcs(sc, "ea")
        # With known variances, selection compares posterior means; correctness
        # means the posterior-mean gap and the true gap share their sign.
        # gap_true ~ N(0, 2 prior_var); posterior-mean gap | truth is normal
        # around c * gap_true where c is the shrinkage factor n0/(n0 + 1).
        shrink = n0 / (n0 + 1.0)
        gap_sd = np.sqrt(2.0)  # prior variance of the true gap
        noise_sd = np.sqrt(2.0 * shrink / (n0 + 1.0))

        def integrand(g):
            p_same_sign = stats.norm.cdf(shrink * abs(g) / noise_sd)
            return p_same_sign * stats.norm.pdf(g, scale=gap_sd)

        expected, _ = integrate.quad(integrand, -12, 12, limit=200)
        assert abs(curve.ipcs[0] - expected) < 3 * max(curve.stderr[0], 1e-4)

    def test_ea_curve_nondecreasing_within_noise(self):
        sc = small_scenario(macro_reps=3000, horizon=40)
        curve = estimate_ipcs(sc, "ea")
        slack = 3 * np.hypot(curve.stderr[:-1], curve.stderr[1:])
        assert np.all(np.diff(curve.ipcs) >= -slack)


def test_two_factor_zero_weight_on_infinite_gap_feature():
    """Zero prior stds leave zero posterior variances, so the gap feature is
    +inf on distinct means; a zero weight on it must not make the state
    look degenerate."""
    sc = Scenario(prior_means=(1, 0), prior_stds=(0, 0), sampling_stds=(1, 1), horizon=8,
                  n0=2, variance_mode="known", macro_reps=16)
    curve = estimate_ipcs(sc, "two_factor", VfaWeights(np.array([0.0, 1.0])))
    assert np.all(curve.ipcs == 1.0)


class TestEngineMatchesScalarPolicies:
    """Batched decisions must agree with ``decide`` on each row as one belief state."""

    def _random_state(self, rng, n=40, k=4):
        means = rng.normal(size=(n, k))
        post_vars = rng.uniform(0.05, 2.0, size=(n, k))
        svars = rng.uniform(0.2, 3.0, size=(n, k))
        counts = rng.integers(2, 20, size=(n, k)).astype(float)
        sums = rng.normal(size=(n, k))
        # drawn row by row, held alternative-major like the engine's state
        arrays = (means, post_vars, svars, counts, sums)
        return BatchState(*(a.T.copy() for a in arrays))

    def _row_beliefs(self, state, r):
        k = state.means.shape[0]
        return pol.BeliefVector(
            tuple(
                GaussianBelief(
                    post_mean=float(state.means[i, r]),
                    post_var=float(state.post_vars[i, r]),
                    count=int(state.counts[i, r]),
                    sampling_var=float(state.sampling_vars[i, r]),
                    sum_obs=float(state.sums[i, r]),
                )
                for i in range(k)
            )
        )

    def test_aoap_agreement(self):
        rng = np.random.default_rng(21)
        state = self._random_state(rng)
        score_fn = make_policy("aoap")
        batch = decide(score_fn, state, 0)
        for r in range(len(batch)):
            assert batch[r] == decide(score_fn, self._row_beliefs(state, r), 0)

    def test_kg_agreement(self):
        rng = np.random.default_rng(22)
        state = self._random_state(rng)
        score_fn = make_policy("kg")
        batch = decide(score_fn, state, 0)
        for r in range(len(batch)):
            assert batch[r] == decide(score_fn, self._row_beliefs(state, r), 0)

    def test_ocba_agreement(self):
        rng = np.random.default_rng(23)
        state = self._random_state(rng)
        score_fn = make_policy("ocba")
        batch = decide(score_fn, state, 0)
        for r in range(len(batch)):
            assert batch[r] == decide(score_fn, self._row_beliefs(state, r), 0)

    def test_two_factor_agreement(self):
        rng = np.random.default_rng(24)
        state = self._random_state(rng)
        w = VfaWeights(np.array([0.98, 0.42]))
        score_fn = make_policy("two_factor", w)
        batch = decide(score_fn, state, 0)
        for r in range(len(batch)):
            assert batch[r] == decide(score_fn, self._row_beliefs(state, r), 0)

    def test_multistep_depth1_agreement(self):
        rng = np.random.default_rng(25)
        state = self._random_state(rng, n=10)
        a = decide(make_policy("aoap_ms1"), state, 0)
        b = decide(make_policy("aoap"), state, 0)
        np.testing.assert_array_equal(a, b)

    def test_multistep_depth2_agreement(self):
        rng = np.random.default_rng(26)
        state = self._random_state(rng, n=20)
        score_fn = make_policy("aoap_ms2")
        batch = decide(score_fn, state, 0)
        for r in range(len(batch)):
            assert batch[r] == decide(score_fn, self._row_beliefs(state, r), 0)

    @pytest.mark.parametrize("policy_id", ["aoap", "two_factor", "aoap_ms2"])
    def test_degenerate_row_raises_on_batch_and_scalar_paths(self, policy_id):
        """A row with tied top means and zero variances has no defined
        score; both paths must refuse it instead of picking alternative 0."""
        rng = np.random.default_rng(27)
        state = self._random_state(rng, n=6, k=3)
        state.means[:, 2] = [0.5, 0.5, -1.0]
        state.post_vars[:, 2] = 0.0
        score_fn = make_policy(policy_id, weights_for(policy_id))
        with pytest.raises(ValueError, match="degenerate state"):
            decide(score_fn, state, 0)
        with pytest.raises(ValueError, match="degenerate state"):
            decide(score_fn, self._row_beliefs(state, 2), 0)


def reference_engine(score_fn, true_means, true_sds, true_vars, noise, prior_means, prior_vars,
                     variance_mode, n0, horizon):
    """The engine as a full recompute: every step rebuilds the posterior, the
    plug-in variances of all (k, n) entries from the running sums.  Yields
    (state, decision), decision None at the horizon."""
    k, n = true_means.shape
    cols = np.arange(n)
    counts, sums, sumsqs = np.zeros((k, n)), np.zeros((k, n)), np.zeros((k, n))

    def observe(alt, t):
        obs = true_means[alt, cols] + true_sds[alt, cols] * noise[:, t]
        counts[alt, cols] += 1.0
        sums[alt, cols] += obs
        sumsqs[alt, cols] += obs**2

    for t in range(k * n0):
        observe(np.full(n, t % k), t)
    svars = true_vars if variance_mode == "known" else sample_variances(counts, sums, sumsqs)
    for t in range(k * n0, horizon + 1):
        if variance_mode == "plugin_refresh":
            svars = sample_variances(counts, sums, sumsqs)
        means, post_vars = posterior_arrays(prior_means[:, None], prior_vars[:, None], counts,
                                            sums, svars)
        state = BatchState(means, post_vars, svars, counts.copy(), sums.copy())
        alt = decide(score_fn, state, t) if t < horizon else None
        yield state, alt
        if alt is not None:
            observe(alt, t)


class TestIncrementalStep:
    """The engine updates only each row's sampled entry per step; that must
    give, bit for bit, the state a full recompute gives."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 6),
        n=st.integers(1, 7),
        mode=st.sampled_from(VARIANCE_MODES),
        policy_id=st.sampled_from(["ea", "aoap", "ocba", "kg", "two_factor", "aoap_ms2"]),
        prior_kinds=st.lists(st.sampled_from(["zero", "finite", "inf"]), min_size=6, max_size=6),
        steps=st.integers(0, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_full_recompute_bitwise(self, seed, k, n, mode, policy_id, prior_kinds,
                                            steps):
        rng = np.random.default_rng(seed)
        n0 = 1 if mode == "known" else 2
        horizon = k * n0 + steps
        true_means = rng.normal(size=(k, n))
        true_sds = rng.uniform(0.3, 2.0, size=(k, n))
        noise = rng.normal(size=(n, horizon))
        # Distinct prior means, so zero-variance alternatives never tie.
        prior_means = rng.permutation(k) * 0.37 - 0.5
        prior_vars = np.array([{"zero": 0.0, "finite": rng.uniform(0.1, 2.0), "inf": np.inf}[kind]
                               for kind in prior_kinds[:k]])
        score_fn = make_policy(policy_id, weights_for(policy_id))
        args = (score_fn, true_means, true_sds, true_sds**2, noise, prior_means, prior_vars,
                mode, n0, horizon)
        fields = ("means", "post_vars", "sampling_vars", "counts", "sums")
        for t, (state, (ref, ref_alt)) in enumerate(
                zip(experiment._engine(*args), reference_engine(*args), strict=True),
                start=k * n0):
            for name in fields:
                assert getattr(state, name).tobytes() == getattr(ref, name).tobytes(), (t, name)
            if ref_alt is not None:
                assert decide(score_fn, state, t).tobytes() == ref_alt.tobytes()


class TestScaleInvariance:
    @given(
        j=st.integers(-4, 4),
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(VARIANCE_MODES),
    )
    @settings(max_examples=12, deadline=None)
    def test_power_of_two_scaling_gives_identical_curves(self, j, seed, mode):
        """Scaling prior means and all stds by 2^j scales every intermediate
        quantity exactly, so each batch policy selects identically."""
        c = 2.0**j
        base = small_scenario(
            prior_means=(0.3, -0.2, 0.1), prior_stds=(1.0, 0.5, 2.0),
            sampling_stds=(1.0, 1.5, 0.7), macro_reps=24, horizon=24,
            master_seed=seed, variance_mode=mode,
        )
        scaled = replace(
            base,
            prior_means=tuple(c * x for x in base.prior_means),
            prior_stds=tuple(c * x for x in base.prior_stds),
            sampling_stds=tuple(c * x for x in base.sampling_stds),
        )
        for pid in ("ea", "aoap", "ocba", "kg", "two_factor"):
            a = estimate_ipcs(base, pid, weights_for(pid))
            b = estimate_ipcs(scaled, pid, weights_for(pid))
            assert a.ipcs.tobytes() == b.ipcs.tobytes(), pid
            assert a.stderr.tobytes() == b.stderr.tobytes(), pid


def reference_row(master_seed, namespace, index, width):
    seq = np.random.SeedSequence([master_seed, namespace, index])
    return np.random.Generator(np.random.PCG64(seq)).standard_normal(width)


class TestBlockNormals:
    """Each row of a block is the stream of its own seeded generator."""

    @settings(max_examples=60, deadline=None)
    @given(
        master_seed=st.integers(0, 2**70 - 1),
        namespace=st.sampled_from([0, 1, 2]),
        indices=st.lists(st.one_of(st.sampled_from([0, 2**32 - 1, 2**32]),
                                   st.integers(0, 2**33)), min_size=1, max_size=6),
        width=st.integers(1, 40),
    )
    def test_rows_match_per_row_generators(self, master_seed, namespace, indices, width):
        block = experiment._block_normals(master_seed, namespace, indices, width)
        want = np.stack([reference_row(master_seed, namespace, i, width) for i in indices])
        assert block.tobytes() == want.tobytes()

    def test_row_independent_of_block_size(self):
        block = experiment._block_normals(20260802, 1, range(4096), 12)
        for i in (0, 1, 2047, 4095):
            alone = experiment._block_normals(20260802, 1, [i], 12)
            assert alone.tobytes() == block[i].tobytes()

    @pytest.mark.parametrize("master_seed, indices", [(-1, [0]), (0, [-1]), (0, [3, -2])])
    def test_negative_entropy_rejected(self, master_seed, indices):
        message = (f"seed must be >= 0, got {master_seed}" if master_seed < 0
                   else f"replication index must be >= 0, got {min(indices)}")
        with pytest.raises(ValueError, match=re.escape(message)):
            experiment._block_normals(master_seed, 0, indices, 4)

    def test_negative_fixed_truth_seed_rejected(self):
        truth = GroundTruth(means=[0.0, 1.0], variances=[1.0, 1.0])
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            experiment.run_fixed_truths([truth], "aoap", steps=2, seed=-1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"steps": -3}, "steps must be >= 0, got -3"),
        ({"steps": 2.5}, "steps must be an integer, got 2.5"),
    ])
    def test_fixed_truth_seed_and_steps_must_be_integers(self, kwargs, message):
        """``seed=1.5`` used to run as seed 1; ``steps=-3`` and ``steps=2.5`` failed
        inside NumPy or at ``range``."""
        truth = GroundTruth(means=[0.0, 1.0], variances=[1.0, 1.0])
        with pytest.raises(ValueError, match=re.escape(message)):
            experiment.run_fixed_truths([truth], "aoap", **{"steps": 2, "seed": 1, **kwargs})

    @pytest.mark.parametrize("rep_index", [2.5, True])
    def test_replication_index_must_be_an_integer(self, rep_index):
        """Index 2.5 used to run replication 2, and ``True`` replication 1."""
        with pytest.raises(ValueError, match=re.escape(
                f"replication index must be an integer, got {rep_index!r}")):
            one_replication(small_scenario(macro_reps=8), "aoap", rep_index=rep_index)

    def test_feature_indices_and_namespace_must_be_integers(self):
        """Index 0.5 used to run as index 0, and ``True`` as index 1."""
        sc = small_scenario(macro_reps=8)
        with pytest.raises(ValueError, match="replication index must be an integer, got 0.5"):
            replication_features(sc, "aoap", [0.5, 1])
        with pytest.raises(ValueError, match="replication index must be an integer, got True"):
            replication_features(sc, "aoap", [0, True])
        with pytest.raises(ValueError, match="namespace must be an integer, got 1.5"):
            replication_features(sc, "aoap", [0, 1], namespace=1.5)

    def test_numpy_integer_entropy_accepted(self):
        block = experiment._block_normals(np.uint64(7), np.int32(1), [np.int64(3), 2**64], 5)
        assert block.tobytes() == np.stack([reference_row(7, 1, i, 5) for i in (3, 2**64)]).tobytes()


C03_TRUTHS = [  # the fixed truths of acceptance criterion c03
    GroundTruth(means=[4.0, 3.0, 2.0, 1.0, 0.0], variances=[1.0] * 5),
    GroundTruth(means=[4.0, 3.0, 2.0, 1.0, 0.0], variances=[4.0, 1.0, 2.25, 1.0, 6.25]),
    GroundTruth(means=[2.0, 1.6, 1.2, 0.8, 0.0], variances=[1.0, 2.25, 0.64, 1.44, 4.0]),
]


class TestFixedTruthGoldenBytes:
    """``run_fixed_truths`` keeps its output bits: the sha256 of the counts and
    selections of 2,000 steps on c03's truths, seed 1, as first recorded."""

    SELECTIONS = "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"

    @pytest.mark.parametrize("policy_id, counts_sha256", [
        ("ea", "be6b09f2ef09e61a3de5d8516d9dc2db090b6f3a5fc61e6e9f566f08098aeb6c"),
        ("ocba", "e8750bc3d8a907648554301315a879a5eceeb647435e4fab31efba4f565b4503"),
        ("kg", "be6b09f2ef09e61a3de5d8516d9dc2db090b6f3a5fc61e6e9f566f08098aeb6c"),
        ("aoap", "933db9975d0b47191c1960c195687fcf4159ad8f660420cc57178334de81cf0e"),
        ("aoap_ms2", "03bc254a40a3658eb9e0e678df8f2435ebb0b13d7aaebcec91b7d8a3cbdb0049"),
        ("two_factor", "f03a26c889d57f54defa29c78898937d70006a67a5f5b4f028bac1f470881c19"),
    ])
    def test_counts_and_selections(self, policy_id, counts_sha256, monkeypatch):
        make = pol.make_policy  # run_fixed_truths takes no weights: bind two_factor's here
        monkeypatch.setattr(pol, "make_policy", lambda pid: make(pid, weights_for(pid)))
        run = experiment.run_fixed_truths(C03_TRUTHS, policy_id, steps=2000, seed=1)
        assert run.counts.dtype == np.float64 and run.counts.shape == (3, 5)
        assert run.selections.dtype == np.intp and run.selections.shape == (3,)
        assert hashlib.sha256(run.counts.tobytes()).hexdigest() == counts_sha256
        assert hashlib.sha256(run.selections.tobytes()).hexdigest() == self.SELECTIONS


class TestReplicationFeatures:
    def test_shapes_and_ranges(self):
        sc = small_scenario(macro_reps=32)
        G, y = replication_features(sc, "ea", range(32))
        assert G.shape == (32, 2) and y.shape == (32,)
        assert np.all(G[:, 0] >= 0)
        assert np.all((G[:, 1] >= 0) & (G[:, 1] <= 1))
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_indicator_matches_curve_tail(self):
        sc = small_scenario(macro_reps=16)
        G, y = replication_features(sc, "ea", range(16))
        curve = estimate_ipcs(sc, "ea")
        assert curve.ipcs[-1] == pytest.approx(y.mean())

    def test_runs_in_engine_batches_matching_single_rows(self, monkeypatch):
        sc = small_scenario()
        rows = []
        block_normals = experiment._block_normals

        def spy(master_seed, namespace, indices, width):
            rows.append(len(indices))
            return block_normals(master_seed, namespace, indices, width)

        monkeypatch.setattr(experiment, "_block_normals", spy)
        G, y = replication_features(sc, "ea", range(5000))
        assert sum(rows) == 5000 and max(rows) <= experiment._CHUNK
        for i in (0, 4095, 4096, 4999):
            g1, y1 = replication_features(sc, "ea", [i])
            assert G[i].tobytes() == g1[0].tobytes() and y[i] == y1[0]

    def test_accepts_any_iterable_of_indices(self):
        sc = small_scenario()
        G, y = replication_features(sc, "ea", iter(range(3, 9)))
        g, z = replication_features(sc, "ea", range(3, 9))
        assert G.tobytes() == g.tobytes() and y.tobytes() == z.tobytes()

    def test_namespace_separates_streams(self):
        sc = small_scenario(macro_reps=8)
        g0, y0 = replication_features(sc, "ea", range(8), namespace=0)
        g1, y1 = replication_features(sc, "ea", range(8), namespace=1)
        assert not np.array_equal(g0, g1)


class TestConfigAndResults:
    def config_dict(self, tmp_path):
        return {
            "scenario": {
                "k": 3,
                "prior_means": [0.0, 0.0, 0.0],
                "prior_stds": [1.0, 1.0, 1.0],
                "sampling_stds": [1.0, 1.0, 1.0],
                "T": 24,
                "n0": 4,
                "macro_reps": 32,
                "master_seed": 11,
                "variance_mode": "plugin_refresh",
            },
            "policies": ["ea", "aoap"],
            "output": {"path": str(tmp_path / "out.csv"), "downsample": 1},
        }

    def test_parse_round_trip(self, tmp_path):
        config = self.config_dict(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        scenario, specs, output = parse_config(json.loads(path.read_text()))
        assert scenario.horizon == 24 and scenario.k == 3
        assert [s["id"] for s in specs] == ["ea", "aoap"]
        assert output["downsample"] == 1

    def test_missing_policies_rejected(self):
        with pytest.raises(ValueError):
            parse_config({"scenario": "example1", "policies": []})

    def test_two_factor_requires_weights(self):
        with pytest.raises(ValueError):
            parse_config({"scenario": "example1", "policies": ["two_factor"]})

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("sobol")

    def test_lookahead_depth_bounded_by_post_warmup_budget(self, tmp_path):
        """T = 24 and 3 x 4 warmup samples leave 12: aoap_ms12 parses, aoap_ms13 does not,
        and the generator path of a fit checks the same rule."""
        config = self.config_dict(tmp_path)
        config["policies"] = ["aoap_ms12"]
        scenario, specs, _ = parse_config(config)
        assert [s["id"] for s in specs] == ["aoap_ms12"]
        message = "policy 'aoap_ms13' looks 13 samples ahead, but only 12 follow the warmup"
        config["policies"] = ["ea", "aoap_ms13"]
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(config)
        with pytest.raises(ValueError, match=re.escape(message)):
            replication_features(scenario, "aoap_ms13", range(4))

    def test_lookahead_depth_bounded_before_any_simulation(self):
        """estimate_ipcs and run_fixed_truths (whose budget is ``steps``) check the same
        rule before they simulate, so a depth of 10^9 raises at once instead of spending
        O(d^2) on each decision; the alarm fails the test if it does not."""
        scenario = Scenario(prior_means=(0, 1), prior_stds=(1, 1), sampling_stds=(1, 1),
                            horizon=6, n0=2, macro_reps=4)
        truth = GroundTruth(means=[0.0, 1.0], variances=[1.0, 1.0])
        deep = "aoap_ms1000000000"

        def expire(signum, frame):
            raise TimeoutError(f"{deep} was simulated")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        try:
            with pytest.raises(ValueError, match=re.escape(
                    f"policy '{deep}' looks 1000000000 samples ahead, but only 2 follow")):
                estimate_ipcs(scenario, deep)
            with pytest.raises(ValueError, match=re.escape(
                    f"policy '{deep}' looks 1000000000 samples ahead, but only 4 follow")):
                run_fixed_truths([truth], deep, 4)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert estimate_ipcs(scenario, "aoap_ms2").macro_reps == 4
        assert run_fixed_truths([truth], "aoap_ms4", 4).counts.sum() == 8

    def test_run_experiment_and_write(self, tmp_path):
        config = self.config_dict(tmp_path)
        results = run_config(config)
        out = tmp_path / "res.csv"
        write_results(results, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "policy,t,ipcs,stderr,macro_reps"
        grid = 24 - 12 + 1
        assert len(lines) == 1 + 2 * grid
        assert lines[1].startswith("aoap,12,")  # sorted by policy then t

    def test_write_empty_table(self, tmp_path):
        out = tmp_path / "empty.csv"
        write_results({}, str(out))
        assert out.read_text() == "policy,t,ipcs,stderr,macro_reps\n"

    def test_byte_identical_reruns(self, tmp_path):
        config = self.config_dict(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(run_config(config), str(a))
        write_results(run_config(config, workers=3), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_downsample(self, tmp_path):
        config = self.config_dict(tmp_path)
        results = run_config(config)
        out = tmp_path / "ds.csv"
        write_results(results, str(out), downsample=4)
        lines = out.read_text().splitlines()
        grid = len(range(0, 24 - 12 + 1, 4))
        assert len(lines) == 1 + 2 * grid

    def test_two_factor_with_weights_file(self, tmp_path):
        from ranksel.vfa import save_weights

        wpath = tmp_path / "w.json"
        save_weights(VfaWeights(np.array([0.98, 0.42])), str(wpath))
        config = self.config_dict(tmp_path)
        config["policies"] = [{"id": "two_factor", "weights_file": str(wpath)}]
        results = run_config(config)
        assert "two_factor" in results

    def test_two_factor_with_inline_fit(self, tmp_path):
        config = self.config_dict(tmp_path)
        config["policies"] = [{"id": "two_factor", "fit": {"iterations": 60}}]
        results = run_config(config)
        curve = results["two_factor"]
        assert np.all((curve.ipcs >= 0) & (curve.ipcs <= 1))

    def test_fit_stage_seeded_from_master_seed(self, tmp_path):
        from ranksel.experiment import parse_config
        from ranksel.vfa import gmcl_fit

        config = self.config_dict(tmp_path)
        config["policies"] = [{"id": "two_factor", "fit": {"iterations": 40}}]
        scenario, specs, _ = parse_config(config)
        w1 = gmcl_fit(scenario, config=specs[0]["fit"])
        w2 = gmcl_fit(scenario, config=specs[0]["fit"])
        np.testing.assert_array_equal(w1.w, w2.w)


class TestBlockMajorRuns:
    """``run_specs`` draws each block's noise once and runs every policy on it; the curves
    are those each policy gets alone from ``estimate_ipcs``."""

    CONFIG = {
        "scenario": {"prior_means": [0.0, 0.2, 0.4], "prior_stds": [1.0, 1.0, 1.0],
                     "sampling_stds": [1.0, 2.0, 1.5], "T": 14, "n0": 2, "macro_reps": 8200,
                     "master_seed": 17},
        "policies": ["ea", "ocba", "kg", "aoap", "aoap_ms2",
                     {"id": "two_factor", "label": "tf", "fit": {"iterations": 64}}],
    }

    @staticmethod
    def count_blocks(monkeypatch):
        calls = []
        block_normals = experiment._block_normals

        def spy(master_seed, namespace, indices, width):
            calls.append((namespace, len(indices)))
            return block_normals(master_seed, namespace, indices, width)

        monkeypatch.setattr(experiment, "_block_normals", spy)
        return calls

    @pytest.mark.parametrize("workers", [1, 2])
    def test_curves_match_each_policy_alone(self, workers):
        from ranksel.vfa import gmcl_fit

        scenario, specs, _ = parse_config(self.CONFIG)
        together = run_specs(scenario, specs, workers)
        assert list(together) == ["ea", "ocba", "kg", "aoap", "aoap_ms2", "tf"]
        for spec in specs:
            weights = gmcl_fit(scenario, config=spec["fit"]) if "fit" in spec else None
            alone = estimate_ipcs(scenario, spec["id"], weights)
            got = together[spec["label"]]
            assert got.macro_reps == alone.macro_reps == 8200
            for name in ("steps", "ipcs", "stderr"):
                assert getattr(got, name).tobytes() == getattr(alone, name).tobytes(), spec
        assert len({c.ipcs.tobytes() for c in together.values()}) == len(together)

    @pytest.mark.parametrize("policies", [["ea"], ["ea", "ocba", "kg", "aoap"]])
    def test_one_noise_draw_per_block(self, monkeypatch, policies):
        """8,200 replications are three blocks: three draws in namespace 0, however many
        policies run; an inline fit draws its own histories in namespace 1."""
        calls = self.count_blocks(monkeypatch)
        scenario, specs, _ = parse_config({**self.CONFIG, "policies": policies})
        run_specs(scenario, specs, 1)
        assert calls == [(0, 4096), (0, 4096), (0, 8)]
        calls.clear()
        scenario, specs, _ = parse_config({**self.CONFIG, "policies": policies + [
            {"id": "two_factor", "fit": {"iterations": 5000}}]})
        run_specs(scenario, specs, 2)
        assert sorted(calls) == [(0, 8), (0, 4096), (0, 4096), (1, 904), (1, 4096)]

    def test_every_spec_checked_before_any_fit(self, monkeypatch):
        """A look-ahead beyond the budget, listed after an inline fit, is refused before
        the fit or any replication runs."""
        from ranksel.vfa import SaConfig

        def forbidden(*args, **kwargs):
            raise AssertionError("a fit or a simulation ran before every spec was checked")

        monkeypatch.setattr(experiment, "gmcl_fit", forbidden)
        monkeypatch.setattr(experiment, "_block_normals", forbidden)
        scenario, _, _ = parse_config(self.CONFIG)
        specs = [{"id": "two_factor", "label": "tf", "fit": SaConfig(iterations=2)},
                 {"id": "aoap_ms1000000000", "label": "deep"}]
        with pytest.raises(ValueError, match=re.escape(
                "policy 'aoap_ms1000000000' looks 1000000000 samples ahead, but only 8 follow")):
            run_specs(scenario, specs, 1)
        with pytest.raises(ValueError, match="unknown policy id 'sobol'"):
            run_specs(scenario, specs[:1] + [{"id": "sobol", "label": "s"}], 1)


class TestMidConfidenceScenario:
    """Deterministic integration check of the intermediate built-in scenario."""

    def test_robust_orderings(self):
        from ranksel.vfa import SaConfig, gmcl_fit

        sc = replace(builtin_scenario("example2-midconf"), macro_reps=4000)
        weights = gmcl_fit(sc, config=SaConfig(seed=sc.master_seed))
        curves = {
            "ea": estimate_ipcs(sc, "ea"),
            "ocba": estimate_ipcs(sc, "ocba"),
            "kg": estimate_ipcs(sc, "kg"),
            "two_factor": estimate_ipcs(sc, "two_factor", weights),
        }
        kg, tf = curves["kg"], curves["two_factor"]
        for pid in ("ea", "ocba"):
            c = curves[pid]
            margin = (kg.ipcs[-1] - c.ipcs[-1]) / np.hypot(kg.stderr[-1], c.stderr[-1])
            assert margin > 3.0
        # the correlation-aware policy at least matches the improvement policy
        tf_margin = (tf.ipcs[-1] - kg.ipcs[-1]) / np.hypot(tf.stderr[-1], kg.stderr[-1])
        assert tf_margin > -3.0


class TestIpcsCurve:
    def test_validates_grid(self):
        with pytest.raises(ValueError):
            IpcsCurve(steps=[3, 2], ipcs=[0.5, 0.5], stderr=[0.1, 0.1], macro_reps=4)

    def test_validates_range(self):
        with pytest.raises(ValueError):
            IpcsCurve(steps=[1, 2], ipcs=[0.5, 1.5], stderr=[0.1, 0.1], macro_reps=4)
