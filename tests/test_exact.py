"""Exact solver: posterior arithmetic, oracle equivalence, state-space counting."""

import functools
import itertools
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from ranksel.exact import (
    BernoulliPriorSpec,
    DiscreteModel,
    DiscreteState,
    NormalPriorSpec,
    brute_force_value,
    discretize_prior,
    load_model,
    save_model,
    solve_bellman,
    state_space_bounds,
    state_space_size,
)
from ranksel.exact import _signed_type, _sum_over_points


def two_point_model(p_high=0.8, p_low=0.2, reward="PCS"):
    """Two Bernoulli alternatives; alternative 1 is fair, alternative 0 is either
    strong or weak depending on which prior point is true."""
    return DiscreteModel(
        support=[(0.0, 1.0), (0.0, 1.0)],
        prior_points=[(p_high, 0.5), (p_low, 0.5)],
        prior_pmf=[0.5, 0.5],
        sampling_pmf=[
            [(1 - p_high, p_high), (0.5, 0.5)],
            [(1 - p_low, p_low), (0.5, 0.5)],
        ],
        reward=reward,
    )


def random_model(rng, reward="PCS", k=None, size=None):
    k = k or int(rng.integers(2, 4))
    sizes = [size or int(rng.integers(2, 4)) for _ in range(k)]
    r = int(rng.integers(2, 4))
    support = [tuple(sorted(rng.normal(size=s))) for s in sizes]
    prior = rng.dirichlet(np.ones(r))
    sampling = [
        [tuple(rng.dirichlet(np.ones(s))) for s in sizes]
        for _ in range(r)
    ]
    return DiscreteModel(
        support=support,
        prior_points=[f"p{m}" for m in range(r)],
        prior_pmf=prior,
        sampling_pmf=sampling,
        reward=reward,
    )


def symmetric_model():
    """Two identical Bernoulli alternatives: every allocation ties."""
    return DiscreteModel(
        support=[(0.0, 1.0), (0.0, 1.0)],
        prior_points=["hi", "lo"],
        prior_pmf=[0.5, 0.5],
        sampling_pmf=[
            [(0.2, 0.8), (0.2, 0.8)],
            [(0.8, 0.2), (0.8, 0.2)],
        ],
    )


def pruned_model():
    """Outcome 2 of alternative 0 is impossible under every prior point, and
    one failure of alternative 1 rules out point "b"."""
    return DiscreteModel(
        support=[(0.0, 1.0, 2.0), (0.0, 1.0)],
        prior_points=["a", "b"],
        prior_pmf=[0.3, 0.7],
        sampling_pmf=[
            [(0.4, 0.6, 0.0), (0.5, 0.5)],
            [(0.1, 0.9, 0.0), (0.0, 1.0)],
        ],
        reward="EOC",
    )


def bench_model(seed):
    """The benchmark's sequential-exact model: k=2, binary outcomes, a 2-point prior."""
    rng = np.random.default_rng(seed)
    p = float(rng.uniform(0.2, 0.8))
    a = np.sort(rng.uniform(0.1, 0.9, size=(2, 2)), axis=1)
    q = [(float(a[0, 1]), float(a[0, 0])), (float(a[1, 0]), float(a[1, 1]))]
    return DiscreteModel(
        support=[(0.0, 1.0), (0.0, 1.0)],
        prior_points=["a0 best", "a1 best"],
        prior_pmf=[p, 1.0 - p],
        sampling_pmf=[[(1.0 - qi, qi) for qi in point] for point in q],
    )


def subnormal_model():
    """Outcome 1 of alternative 1 has probability 2.5e-162, so a few samples of it
    drive a weight subnormal, and a few more to 0 on one route to a state but not on
    another."""
    return DiscreteModel(
        support=[(0.0, 1.0), (0.0, 1.0)],
        prior_points=["only"],
        prior_pmf=[1.0],
        sampling_pmf=[[(0.25, 0.75), (1.0, 2.5e-162)]],
    )


def _lsum(terms):
    """Float sum from 0.0, left to right (``sum`` before Python 3.12)."""
    acc = 0.0
    for x in terms:
        acc += x
    return acc


def scalar_pmfs(model):
    """``q[m][i][j]``: the probability of outcome j of alternative i under point m."""
    bounds = np.cumsum((0, *model.support_sizes)).tolist()
    return [[row[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            for row in model.sampling_pmf.tolist()]


def scalar_rewards(model):
    """``rewards[m][i]`` by a loop over ``support`` and the pmfs, never ``model.rewards``."""
    rewards = []
    for pmfs in scalar_pmfs(model):
        means = [_lsum(y * p for y, p in zip(model.support[i], pmfs[i])) for i in range(model.k)]
        best = max(means)
        if model.reward == "PCS":
            rewards.append([1.0 if mean == best else 0.0 for mean in means])
        else:
            rewards.append([mean - best for mean in means])
    return rewards


# One state's posterior, predictive and terminal value: a second posterior formula,
# independent of the solver's level arrays, that the tests check the solver against.
def posterior_pmf(model, state):
    """Posterior over the prior support points given the observed counts."""
    if tuple(map(len, state.counts)) != model.support_sizes:
        raise ValueError("state counts do not match the model support")
    likelihoods = np.prod(model.sampling_pmf ** np.concatenate(state.counts), axis=1)
    weights = model.prior_pmf[None] * likelihoods
    total = _sum_over_points(weights, np.ones((model.r, 1)))[0, 0]
    if total <= 0.0:
        raise ValueError("state has zero probability under every prior point")
    return weights[0] / total


def predictive_pmf(model, state, i):
    """Predictive distribution of the next observation from alternative i."""
    if not 0 <= i < model.k:
        raise IndexError(f"alternative index {i} out of range")
    pred = _sum_over_points(posterior_pmf(model, state)[None], model.sampling_pmf)[0]
    return pred[np.repeat(np.arange(model.k), model.support_sizes) == i]


def terminal_value(model, state, i):
    """Expected terminal reward of selecting alternative i at this state."""
    if not 0 <= i < model.k:
        raise IndexError(f"alternative index {i} out of range")
    return float(_sum_over_points(posterior_pmf(model, state)[None], model.rewards)[0, i])


def assert_same_model(got, want):
    """Field by field; the arrays bit for bit, shape included."""
    for name in ("support", "prior_points", "reward"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("prior_pmf", "sampling_pmf", "rewards"):
        got_array, want_array = getattr(got, name), getattr(want, name)
        assert (got_array.shape, got_array.tobytes()) == (want_array.shape, want_array.tobytes())


BINARY, FAIR = ((0.0, 1.0), (0.0, 1.0)), ((0.5, 0.5), (0.5, 0.5))


class TestModelValidation:
    @pytest.mark.parametrize("changes, message", [
        ({"reward": "X"}, "reward must be 'PCS' or 'EOC', got 'X'"),
        ({"support": BINARY[:1], "sampling_pmf": [FAIR[:1]] * 2}, "need at least two"),
        ({"prior_pmf": [1.0]}, "prior support, pmf, and sampling pmfs must align"),
        ({"prior_pmf": [0.5, 0.6]}, "prior pmf must sum to 1"),
        ({"prior_pmf": [1.5, -0.5]}, "prior pmf entries must lie in [0, 1]"),
        ({"prior_pmf": [math.nan, 1.0]}, "prior pmf entries must lie in [0, 1]"),
        ({"sampling_pmf": [FAIR, FAIR[:1]]}, "sampling pmf must cover every alternative"),
        ({"sampling_pmf": [FAIR, (FAIR[0], (1.0,))]}, "must match the outcome support"),
        ({"sampling_pmf": [FAIR, (FAIR[0], (0.5, 0.6))]}, "point 1, alternative 1 must sum to 1"),
        ({"sampling_pmf": [FAIR, (FAIR[0], (math.nan, 1.0))]}, "must lie in [0, 1]"),
        # The first faulty (point, alternative) pair, point-major, names the fault.
        ({"sampling_pmf": [(FAIR[0], (1.5, -0.5)), ((0.5, 0.6), FAIR[1])]}, "must lie in [0, 1]"),
        ({"sampling_pmf": [(FAIR[0], (0.5, 0.6)), ((1.5, -0.5), FAIR[1])]},
         "point 0, alternative 1 must sum to 1"),
        # JSON's Infinity and NaN load unchecked; without these checks EOC solved to nan,
        # PCS to 0.5, and a NaN outcome to 0.
        ({"support": ((0.0, math.inf), BINARY[1]), "reward": "EOC"},
         "support values must be finite"),
        ({"support": ((0.0, math.inf), BINARY[1])}, "support values must be finite"),
        ({"support": ((0.0, math.nan), BINARY[1])}, "support values must be finite"),
        ({"support": ((1.7e308, 1.7e308), (-1.7e308, -1.7e308)), "reward": "EOC"},
         "rewards must be finite"),
    ])
    def test_each_fault_keeps_its_message(self, changes, message):
        """No NumPy warning comes out before the message, as from the overflowing rewards."""
        model = {"support": BINARY, "prior_points": ["a", "b"], "prior_pmf": [0.5, 0.5],
                 "sampling_pmf": [FAIR, FAIR], **changes}
        with warnings.catch_warnings(), pytest.raises(ValueError, match=re.escape(message)):
            warnings.simplefilter("error")
            DiscreteModel(**model)

    def test_stores_float_arrays(self):
        """Support sizes may differ, and NumPy or int entries are stored as float64 arrays,
        the pmfs as one (r, D) matrix with alternative i's outcomes side by side."""
        model = DiscreteModel(support=[(0, 1), np.arange(3)], prior_points=[0, 1],
                              prior_pmf=np.array([0.25, 0.75]),
                              sampling_pmf=[[(0.5, 0.5), (0.2, 0.3, 0.5)],
                                            [np.array([1.0, 0.0]), (0, 0, 1)]])
        assert model.support == ((0.0, 1.0), (0.0, 1.0, 2.0))
        assert {type(x) for x in itertools.chain(*model.support)} == {float}
        for array, shape in ((model.prior_pmf, (2,)), (model.sampling_pmf, (2, 5)),
                             (model.rewards, (2, 2))):
            assert array.dtype == np.float64 and array.shape == shape
            assert not array.flags.writeable
        assert model.prior_pmf.tolist() == [0.25, 0.75]
        assert model.sampling_pmf.tolist() == [[0.5, 0.5, 0.2, 0.3, 0.5],
                                               [1.0, 0.0, 0.0, 0.0, 1.0]]
        assert model.rewards.tolist() == [[0.0, 1.0], [0.0, 1.0]]  # means 0.5, 1.3; 0, 2


class TestPosteriorPmf:
    def test_empty_state_returns_prior(self):
        model = two_point_model()
        post = posterior_pmf(model, model.empty_state())
        np.testing.assert_allclose(post, [0.5, 0.5], rtol=1e-12)

    def test_one_success_bayes_update(self):
        model = two_point_model()
        post = posterior_pmf(model, DiscreteState(((0, 1), (0, 0))))
        np.testing.assert_allclose(post, [0.8, 0.2], rtol=1e-12)

    def test_zero_likelihood_point_gets_zero_mass(self):
        model = two_point_model(p_high=1.0, p_low=0.3)
        post = posterior_pmf(model, DiscreteState(((1, 0), (0, 0))))  # one failure
        assert post[0] == 0.0
        assert post[1] == pytest.approx(1.0, rel=1e-12)

    def test_impossible_state_rejected(self):
        model = two_point_model(p_high=1.0, p_low=1.0)
        with pytest.raises(ValueError):
            posterior_pmf(model, DiscreteState(((1, 0), (0, 0))))

    def test_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            model = random_model(rng)
            counts = tuple(
                tuple(int(rng.integers(0, 3)) for _ in s) for s in model.support
            )
            post = posterior_pmf(model, DiscreteState(counts))
            assert abs(post.sum() - 1.0) < 1e-12

    def test_order_free_sufficiency(self):
        """Histories with equal counts give identical posteriors regardless of order."""
        model = two_point_model()
        # History A: alt0 sees (1, 0), then alt1 sees 1.  History B interleaves.
        state = model.empty_state()
        for i, j in [(0, 1), (0, 0), (1, 1)]:
            state = state.bump(i, j)
        state_b = model.empty_state()
        for i, j in [(1, 1), (0, 0), (0, 1)]:
            state_b = state_b.bump(i, j)
        assert state.counts == state_b.counts
        np.testing.assert_array_equal(
            posterior_pmf(model, state), posterior_pmf(model, state_b)
        )


class TestPredictivePmf:
    def test_single_point_prior(self):
        model = two_point_model(p_high=0.7, p_low=0.7)
        pred = predictive_pmf(model, model.empty_state(), 0)
        np.testing.assert_allclose(pred, [0.3, 0.7], rtol=1e-12)

    def test_uniform_prior_symmetric_pmf(self):
        model = two_point_model(p_high=0.8, p_low=0.2)
        pred = predictive_pmf(model, model.empty_state(), 0)
        np.testing.assert_allclose(pred, [0.5, 0.5], rtol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            model = random_model(rng)
            for i in range(model.k):
                pred = predictive_pmf(model, model.empty_state(), i)
                assert abs(pred.sum() - 1.0) < 1e-12


class TestTerminalValue:
    def test_certain_best_pcs(self):
        model = two_point_model(p_high=0.9, p_low=0.9)
        assert terminal_value(model, model.empty_state(), 0) == pytest.approx(1.0)

    def test_eoc_zero_for_dominant(self):
        model = two_point_model(p_high=0.9, p_low=0.9, reward="EOC")
        assert terminal_value(model, model.empty_state(), 0) == pytest.approx(0.0)

    def test_uniform_two_point_half(self):
        model = two_point_model(p_high=0.8, p_low=0.2)
        assert terminal_value(model, model.empty_state(), 0) == pytest.approx(0.5)

    def test_eoc_nonpositive(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = random_model(rng, reward="EOC")
            for i in range(model.k):
                assert terminal_value(model, model.empty_state(), i) <= 1e-15


class TestPerStateFunctionsMatchPointLoops:
    """The per-state functions, which run the solver's kernels, against a
    scalar loop over prior points.  The likelihood is now multiplied out in
    another order, so they agree to a few ulps: every term is one-signed, so
    64 machine epsilons of relative error is ample."""

    RTOL = 64 * np.finfo(float).eps

    @staticmethod
    def loop_posterior(model, state):
        q, weights = scalar_pmfs(model), []
        for m in range(model.r):
            w = model.prior_pmf[m]
            for i in range(model.k):
                for j, c in enumerate(state.counts[i]):
                    if c:
                        w *= q[m][i][j] ** c
            weights.append(w)
        return [w / sum(weights) for w in weights]

    def test_random_models_and_states(self):
        rng = np.random.default_rng(21)
        for reward in ("PCS", "EOC"):
            for _ in range(30):
                model = random_model(rng, reward=reward)
                state = DiscreteState(
                    tuple(tuple(int(rng.integers(0, 4)) for _ in s) for s in model.support)
                )
                post = self.loop_posterior(model, state)
                q, rewards = scalar_pmfs(model), scalar_rewards(model)
                np.testing.assert_allclose(posterior_pmf(model, state), post, rtol=self.RTOL)
                for i in range(model.k):
                    pred = [sum(q[m][i][j] * post[m] for m in range(model.r))
                            for j in range(len(model.support[i]))]
                    np.testing.assert_allclose(predictive_pmf(model, state, i), pred,
                                               rtol=self.RTOL)
                    value = sum(rewards[m][i] * post[m] for m in range(model.r))
                    assert terminal_value(model, state, i) == pytest.approx(value, rel=self.RTOL)

    @pytest.mark.parametrize("counts", [((0, 1),), ((0, 1), (0, 0), (1, 0)), ((0, 1), (0,))],
                             ids=["too-few", "too-many", "short-row"])
    def test_state_shape_checked(self, counts):
        with pytest.raises(ValueError, match="do not match the model support"):
            posterior_pmf(two_point_model(), DiscreteState(counts))

    @pytest.mark.parametrize("fn", [predictive_pmf, terminal_value])
    @pytest.mark.parametrize("i", [-1, 2])
    def test_alternative_index_checked(self, fn, i):
        model = two_point_model()
        with pytest.raises(IndexError):
            fn(model, model.empty_state(), i)


def enumerate_policy_trees(model, horizon):
    """Literal maximum over all deterministic adaptive policy trees.

    Only tractable for the tiniest models; validates that the expectimax
    recursion in ``brute_force_value`` equals a true policy enumeration.
    """
    q, rewards = scalar_pmfs(model), scalar_rewards(model)
    histories = [()]
    for _ in range(horizon):
        histories = [
            h + ((i, j),)
            for h in histories
            for i in range(model.k)
            for j in range(len(model.support[i]))
        ]
    internal = [()]
    for t in range(1, horizon):
        internal += [
            h + ((i, j),)
            for h in internal
            if len(h) == t - 1
            for i in range(model.k)
            for j in range(len(model.support[i]))
        ]

    def history_prob_and_posterior(h):
        weights = []
        for m in range(model.r):
            w = model.prior_pmf[m]
            for i, j in h:
                w *= q[m][i][j]
            weights.append(w)
        return sum(weights), weights

    best = -math.inf
    node_keys = internal
    for actions in itertools.product(range(model.k), repeat=len(node_keys)):
        tree = dict(zip(node_keys, actions))
        total = 0.0
        for h in histories:
            # The path is consistent with the tree iff every prefix's action
            # matches the sampled alternative recorded in the history.
            prob = 1.0
            weights = [model.prior_pmf[m] for m in range(model.r)]
            consistent = True
            for step, (i, j) in enumerate(h):
                if tree[h[:step]] != i:
                    consistent = False
                    break
                denom = sum(weights)
                pred = sum(q[m][i][j] * weights[m] for m in range(model.r))
                prob *= pred / denom
                weights = [weights[m] * q[m][i][j] for m in range(model.r)]
            if not consistent or prob == 0.0:
                continue
            denom = sum(weights)
            post = [w / denom for w in weights]
            reward = max(
                sum(rewards[m][i] * post[m] for m in range(model.r)) for i in range(model.k)
            )
            total += prob * reward
        best = max(best, total)
    return best


class TestSolver:
    def test_horizon_zero_is_pure_selection(self):
        model = two_point_model()
        policy = solve_bellman(model, 0)
        expected = max(terminal_value(model, model.empty_state(), i) for i in range(2))
        assert policy.value == pytest.approx(expected, abs=1e-12)
        assert policy.value == brute_force_value(model, 0)

    def test_matches_brute_force_small(self):
        model = two_point_model()
        for horizon in (1, 2):
            assert solve_bellman(model, horizon).value == pytest.approx(
                brute_force_value(model, horizon), abs=1e-10
            )

    def test_brute_force_matches_policy_tree_enumeration(self):
        model = two_point_model()
        for horizon in (1, 2):
            assert brute_force_value(model, horizon) == pytest.approx(
                enumerate_policy_trees(model, horizon), abs=1e-10
            )

    def test_value_nondecreasing_in_horizon(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            model = random_model(rng)
            values = [solve_bellman(model, T).value for T in range(4)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_pcs_values_in_unit_interval(self):
        rng = np.random.default_rng(7)
        model = random_model(rng)
        policy = solve_bellman(model, 3)
        assert list(policy.values) == [0, 1, 2, 3]
        for level in policy.values.values():
            assert len(level) > 0
            assert np.all((-1e-12 <= level) & (level <= 1 + 1e-12))

    def test_symmetric_model_indifferent_first_allocation(self):
        """With identical alternatives, the expected value is the same no
        matter which alternative receives the first sample."""
        model = symmetric_model()
        policy = solve_bellman(model, 1)
        empty = model.empty_state()
        per_action = []
        for i in range(model.k):
            pred = predictive_pmf(model, empty, i)
            per_action.append(
                sum(
                    pred[j] * policy.values[1][policy.row(1, empty.bump(i, j))]
                    for j in range(2)
                    if pred[j] > 0
                )
            )
        assert per_action[0] == pytest.approx(per_action[1], abs=1e-12)
        assert policy.value == pytest.approx(max(per_action), abs=1e-12)
        assert policy.value == pytest.approx(brute_force_value(model, 1), abs=1e-12)

    def test_policy_rollout_achieves_value(self):
        """Following the solved allocation and selection maps over every
        sample path must earn exactly the computed optimal value."""
        rng = np.random.default_rng(8)
        for reward in ("PCS", "EOC"):
            model = random_model(rng, reward=reward)
            horizon = 2
            policy = solve_bellman(model, horizon)

            def rollout(state, prob, t):
                if prob == 0.0:
                    return 0.0
                if t == horizon:
                    return prob * terminal_value(model, state, policy.selection_at(state))
                i = policy.allocation_at(t, state)
                pred = predictive_pmf(model, state, i)
                return sum(
                    rollout(state.bump(i, j), prob * pred[j], t + 1)
                    for j in range(len(model.support[i]))
                )

            achieved = rollout(model.empty_state(), 1.0, 0)
            assert achieved == pytest.approx(policy.value, abs=1e-10)

    def test_eoc_solver_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            model = random_model(rng, reward="EOC")
            for horizon in (1, 2):
                assert solve_bellman(model, horizon).value == pytest.approx(
                    brute_force_value(model, horizon), abs=1e-10
                )

    def test_state_cap_enforced(self):
        model = two_point_model()
        with pytest.raises(RuntimeError, match="state space"):
            solve_bellman(model, 10, state_cap=5)

    def test_state_count_past_fixed_width_refused_before_any_array(self):
        """About 1.7e20 states at horizon 10^7, past 2^63: whatever the cap, no row
        type holds the ranks, so the solver raises before it builds a level."""
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match=re.escape(
                    "state space too large: 166666766666685000001 states at the final step "
                    "exceeds the cap of 9223372036854775807")):
                solve_bellman(two_point_model(), 10**7, state_cap=10**30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_state_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="state_cap must be >= 1, got 0"):
            solve_bellman(two_point_model(), 2, state_cap=0)

    def test_path_cap_enforced(self):
        """Two binary alternatives at horizon 9 have 4^9 = 262,144 > 10^5 histories."""
        model = two_point_model()
        with pytest.raises(RuntimeError, match="262144 exceeds the cap of 100000"):
            brute_force_value(model, 9)

    @pytest.mark.parametrize("call, message", [
        (lambda m, s: solve_bellman(m, True), "horizon must be an integer, got True"),
        (lambda m, s: solve_bellman(m, 2.5), "horizon must be an integer, got 2.5"),
        (lambda m, s: solve_bellman(m, 2, state_cap=2.5), "state_cap must be an integer, got 2.5"),
        (lambda m, s: brute_force_value(m, 2.5), "horizon must be an integer, got 2.5"),
        (lambda m, s: discretize_prior(s, 2.5), "grid_points must be an integer, got 2.5"),
        (lambda m, s: discretize_prior(s, 3, obs_grid_points=2.5),
         "obs_grid_points must be an integer, got 2.5"),
    ], ids=["horizon-bool", "horizon-float", "state-cap", "brute-force-horizon", "grid-points",
            "obs-grid-points"])
    def test_sizes_must_be_integers(self, call, message):
        """A bool horizon used to solve horizon 1; the floats ended in a TypeError at
        ``range``, a RecursionError, a cap message or a pmf mismatch."""
        spec = NormalPriorSpec(prior_means=(0.0, 0.2), prior_stds=(1.0, 1.0),
                               sampling_stds=(1.0, 1.0))
        with pytest.raises(ValueError, match=re.escape(message)):
            call(two_point_model(), spec)

    def test_allocation_covers_reachable_states(self):
        model = two_point_model()
        policy = solve_bellman(model, 2)
        assert policy.allocation_at(0, model.empty_state()) in (0, 1)
        # every level-1 state reachable from the empty state has an entry
        for i in range(2):
            for j in range(2):
                child = model.empty_state().bump(i, j)
                assert policy.allocation_at(1, child) in (0, 1)

    def test_unreachable_state_raises_key_error(self):
        model = pruned_model()  # outcome 2 of alternative 0 is impossible
        policy = solve_bellman(model, 2)
        impossible = model.empty_state().bump(0, 2)
        with pytest.raises(KeyError):
            policy.allocation_at(1, impossible)
        with pytest.raises(KeyError):
            policy.selection_at(impossible.bump(1, 0))
        with pytest.raises(KeyError):  # reachable, but no allocation at the horizon
            policy.allocation_at(2, impossible.bump(0, 0).bump(0, 0))
        with pytest.raises(KeyError):  # the counts of another model's support
            policy.allocation_at(0, DiscreteState(((0, 0), (0, 0, 0))))
        reachable = model.empty_state().bump(0, 1).bump(1, 0)
        assert type(policy.selection_at(reachable)) is int
        assert type(policy.allocation_at(0, model.empty_state())) is int

    @pytest.mark.parametrize("count", [257, 2**64 + 1, 2**70])
    def test_count_beyond_the_narrow_type_raises_key_error(self, count):
        """Counts are int8 at horizon 2.  257 and 2^64 + 1 would wrap to the reachable
        count 1, and 2^70 overflows even an int64: no such state is found."""
        model = two_point_model()
        policy = solve_bellman(model, 2)
        assert policy.counts[1].dtype == np.int8
        assert policy.row(1, DiscreteState(((0, 1), (0, 0)))) >= 0
        state = DiscreteState(((0, count), (0, 0)))
        with pytest.raises(KeyError):
            policy.row(1, state)
        with pytest.raises(KeyError):
            policy.allocation_at(1, state)

    @pytest.mark.parametrize("n, dtype", [
        (0, np.int8), (127, np.int8), (128, np.int16), (2**15 - 1, np.int16),
        (2**15, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)])
    def test_narrowest_signed_type_holds_the_bound(self, n, dtype):
        """The solver's count and child-row type: the narrowest that holds n, chosen
        without solving a horizon that large."""
        assert _signed_type(n) == dtype
        assert np.iinfo(_signed_type(n)).max >= n


class TestStateSpaceSize:
    def test_no_samples_single_state(self):
        for k in range(1, 5):
            assert state_space_size(0, k, [2] * k) == 1

    def test_bernoulli_two_by_two(self):
        assert state_space_size(2, 2, [2, 2]) == 10

    def test_single_alternative_linear(self):
        for t in range(10):
            assert state_space_size(t, 1, [2]) == t + 1

    def test_matches_direct_enumeration(self):
        def enumerate_states(t, sizes):
            per_alt = []
            for s in sizes:
                per_alt.append(
                    [c for c in itertools.product(range(t + 1), repeat=s) if sum(c) <= t]
                )
            count = 0
            for combo in itertools.product(*per_alt):
                if sum(sum(c) for c in combo) == t:
                    count += 1
            return count

        for t in range(0, 9):
            for k in (1, 2, 3):
                for sizes in itertools.product((2, 3), repeat=k):
                    assert state_space_size(t, k, sizes) == enumerate_states(t, sizes)

    def test_respects_bounds(self):
        for t in range(13):
            for k in (1, 2, 3, 4):
                for sizes in itertools.product((2, 3), repeat=k):
                    val = state_space_size(t, k, sizes)
                    lower, upper = state_space_bounds(t, k, sizes)
                    assert lower <= val <= upper

    def test_balanced_budget_lower_bound_is_tight_form(self):
        """When k divides t the floor and ceiling forms coincide, so the
        (ceil(t/k)+1)^k expression is a valid bound exactly there."""
        for k in (2, 3, 4):
            for mult in range(5):
                t = k * mult
                val = state_space_size(t, k, [2] * k)
                assert val >= (math.ceil(t / k) + 1) ** k

    def test_bernoulli_specific_bounds(self):
        """All-binary case: lower (floor(t/k)+1)^k, upper (t+k-1)^(2k)/(k-1)!."""
        for t in range(13):
            for k in (2, 3, 4):
                val = state_space_size(t, k, [2] * k)
                assert val >= (t // k + 1) ** k
                assert val * math.factorial(k - 1) <= (t + k - 1) ** (2 * k)

    def test_rejects_small_support(self):
        with pytest.raises(ValueError):
            state_space_size(2, 2, [1, 2])

    def test_large_horizon_closed_form(self):
        """C(t + D - 1, D - 1) with D = 9 cells; a per-level sum is O(t^2) here."""
        assert state_space_size(10**6, 3, (2, 3, 4)) == math.comb(10**6 + 8, 8)

    def test_no_alternatives(self):
        assert [state_space_size(t, 0, ()) for t in range(3)] == [1, 0, 0]

    @pytest.mark.parametrize("t, supports", [(2**18, [2, 2**18]), (2**40, [2, 2**40])])
    def test_count_too_large_refused_before_it_is_formed(self, t, supports):
        """C(t + D - 1, D - 1) has at most min(t, D - 1) * bit_length(t + D - 1) bits; past
        10^5 of them the count raises at once (the exact product took seconds at 2^18,
        and did not finish at 2^40)."""
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="state space too large: .* exceeds the cap"):
            state_space_size(t, 2, supports)
        assert time.perf_counter() - start < 1.0


class TestDiscretizePrior:
    def test_rejects_single_point_grid(self):
        spec = BernoulliPriorSpec(alphas=(1.0, 1.0), betas=(1.0, 1.0))
        with pytest.raises(ValueError):
            discretize_prior(spec, 1)

    def test_symmetric_beta_grid_symmetric(self):
        spec = BernoulliPriorSpec(alphas=(2.0, 2.0), betas=(2.0, 2.0))
        model = discretize_prior(spec, 5)
        probs = sorted({p[0] for p in model.prior_points})
        np.testing.assert_allclose(probs, [1 - p for p in probs[::-1]], rtol=1e-9)

    def test_normal_grid_mean_near_prior_mean(self):
        spec = NormalPriorSpec(
            prior_means=(0.7, -0.2),
            prior_stds=(1.0, 2.0),
            sampling_stds=(1.0, 1.0),
        )
        model = discretize_prior(spec, 101, obs_grid_points=5)
        first_marginal = sorted({p[0] for p in model.prior_points})
        assert np.mean(first_marginal) == pytest.approx(0.7, abs=1e-3)

    def test_bernoulli_model_solvable(self):
        spec = BernoulliPriorSpec(alphas=(1.0, 1.0), betas=(1.0, 1.0))
        model = discretize_prior(spec, 3)
        policy = solve_bellman(model, 2)
        assert policy.value == pytest.approx(brute_force_value(model, 2), abs=1e-10)

    def test_normal_model_valid_pmfs(self):
        spec = NormalPriorSpec(
            prior_means=(0.0, 0.0), prior_stds=(1.0, 1.0), sampling_stds=(1.0, 1.0)
        )
        model = discretize_prior(spec, 3, obs_grid_points=4)
        assert model.k == 2 and model.r == 9
        # constructor revalidates pmf sums; spot-check one predictive too
        pred = predictive_pmf(model, model.empty_state(), 0)
        assert abs(pred.sum() - 1.0) < 1e-9

    def test_unsupported_family(self):
        with pytest.raises(ValueError):
            discretize_prior(object(), 5)

    @pytest.mark.parametrize("obs_grid_points", [0, 1, -3])
    def test_obs_grid_below_two_rejected(self, obs_grid_points):
        """0 used to fall back to ``grid_points`` cells, as if it were not given."""
        spec = NormalPriorSpec(prior_means=(0.0, 0.2), prior_stds=(1.0, 1.0),
                               sampling_stds=(1.0, 1.0))
        with pytest.raises(ValueError, match="obs_grid_points must be >= 2"):
            discretize_prior(spec, 3, obs_grid_points=obs_grid_points)

    @pytest.mark.parametrize("grid_points, obs_grid_points, message", [
        (2**70, None, "product prior grid exceeds 100000 points"),
        (317, None, "product prior grid exceeds 100000 points"),  # 317^2 > 10^5
        (3, 2**70, "observation grid exceeds 100000 cells"),
        (3, 10**5 + 1, "observation grid exceeds 100000 cells"),
    ])
    def test_grid_caps_checked_before_any_array(self, grid_points, obs_grid_points, message):
        """A grid of 2^70 points used to fail inside NumPy's ``arange``."""
        spec = NormalPriorSpec(prior_means=(0.0, 0.2), prior_stds=(1.0, 1.0),
                               sampling_stds=(1.0, 1.0))
        with pytest.raises(RuntimeError, match=message):
            discretize_prior(spec, grid_points, obs_grid_points=obs_grid_points)

    def test_bernoulli_golden(self):
        """Exact model of a small Beta prior, pinned bit for bit."""
        model = discretize_prior(BernoulliPriorSpec((1.0, 2.0), (1.0, 1.0)), 2)
        r3 = 0.8660254037844387
        assert_same_model(model, DiscreteModel(
            support=((0.0, 1.0), (0.0, 1.0)),
            prior_points=((0.25, 0.5), (0.25, r3), (0.75, 0.5), (0.75, r3)),
            prior_pmf=(0.25,) * 4,
            sampling_pmf=(
                ((0.75, 0.25), (0.5, 0.5)),
                ((0.75, 0.25), (0.1339745962155613, r3)),
                ((0.25, 0.75), (0.5, 0.5)),
                ((0.25, 0.75), (0.1339745962155613, r3)),
            ),
        ))

    def test_normal_golden(self):
        """Exact model of a small normal prior with binned outcomes, pinned bit for bit."""
        spec = NormalPriorSpec((0.0, 0.5), (1.0, 1.0), (1.0, 2.0))
        model = discretize_prior(spec, 2, reward="EOC", obs_grid_points=3)
        q = 0.6744897501960817
        lo = (0.5260520793829009, 0.3743122210219536, 0.09963569959514551)
        hi = (0.09963569959514557, 0.3743122210219535, 0.5260520793829009)
        b_lo = (0.4426227537775316, 0.3509305858757812, 0.20644666034668724)
        b_hi = b_lo[::-1]
        assert_same_model(model, DiscreteModel(
            support=((-1.3681406993132454, 0.0, 1.3681406993132454),
                     (-1.66322038470271, 0.5, 2.66322038470271)),
            prior_points=((-q, -0.1744897501960817), (-q, 1.1744897501960816),
                          (q, -0.1744897501960817), (q, 1.1744897501960816)),
            prior_pmf=(0.25,) * 4,
            sampling_pmf=((lo, b_lo), (lo, b_hi), (hi, b_lo), (hi, b_hi)),
            reward="EOC",
        ))


def reference_discretize(spec, grid_points, obs_grid_points=None):
    """Per-point discretization with scalar SciPy calls: (support, prior_points, sampling_pmf).

    One ppf call per quantile, and one cdf call per prior point, alternative
    and bin edge.  ``outcome_pmf`` is memoized on (alternative, value), which
    changes no float and keeps the 101-point grid fast.
    """
    from scipy import stats

    def quantile_grid(ppf, n):
        return [float(ppf((2 * m + 1) / (2 * n))) for m in range(n)]

    if isinstance(spec, BernoulliPriorSpec):
        ppfs = [stats.beta(a, b).ppf for a, b in zip(spec.alphas, spec.betas)]
        support = [(0.0, 1.0)] * len(ppfs)

        def outcome_pmf(i, p):
            return (1.0 - p, p)

    else:
        obs_points = grid_points if obs_grid_points is None else obs_grid_points
        ppfs = [stats.norm(m, s).ppf for m, s in zip(spec.prior_means, spec.prior_stds)]
        support, boundaries = [], []
        for m, s, sd in zip(spec.prior_means, spec.prior_stds, spec.sampling_stds):
            predictive = stats.norm(m, math.hypot(s, sd))
            support.append(tuple(quantile_grid(predictive.ppf, obs_points)))
            inner = [float(predictive.ppf(j / obs_points)) for j in range(1, obs_points)]
            boundaries.append([-math.inf, *inner, math.inf])

        @functools.cache
        def outcome_pmf(i, mean):
            sd = spec.sampling_stds[i]
            cdf = [float(stats.norm.cdf((b - mean) / sd)) for b in boundaries[i]]
            return tuple(cdf[j + 1] - cdf[j] for j in range(obs_points))

    prior_points = list(itertools.product(*(quantile_grid(ppf, grid_points) for ppf in ppfs)))
    pmfs = [tuple(outcome_pmf(i, x) for i, x in enumerate(point)) for point in prior_points]
    return tuple(support), tuple(prior_points), tuple(pmfs)


DISCRETIZE_SPECS = {
    "normal-101": (NormalPriorSpec((0.7, -0.2), (1.0, 2.0), (1.0, 1.0)), 101, 5),
    "normal-r9": (NormalPriorSpec((0.0, 0.3), (1.0, 1.0), (1.0, 2.0)), 3, 4),
    "normal-eoc": (NormalPriorSpec((0.0, 0.5), (1.0, 1.0), (1.0, 2.0)), 2, 3),
    "beta-k3": (BernoulliPriorSpec((1.0, 2.0, 1.0), (1.0, 1.0, 2.0)), 2, None),
    "beta-symmetric": (BernoulliPriorSpec((2.0, 2.0), (2.0, 2.0)), 5, None),
    "normal-k3": (NormalPriorSpec((0.1, -0.4, 2.0), (1.0, 0.5, 3.0), (0.7, 1.3, 2.0)), 7, 6),
    "normal-obs-default": (NormalPriorSpec((0.1, -0.4), (1.0, 0.5), (0.7, 1.3)), 4, None),
}


@pytest.mark.parametrize("name", list(DISCRETIZE_SPECS))
def test_discretize_prior_matches_per_point_reference(name):
    """Same floats, bit for bit (``repr`` tells -0.0 and NumPy scalars apart); each
    point's reference pmfs are flattened alternative by alternative, as one matrix row."""
    spec, grid_points, obs_grid_points = DISCRETIZE_SPECS[name]
    model = discretize_prior(spec, grid_points, obs_grid_points=obs_grid_points)
    got = (model.support, model.prior_points, model.sampling_pmf.tolist())
    support, prior_points, pmfs = reference_discretize(spec, grid_points, obs_grid_points)
    want = (support, prior_points, [[p for pmf in point for p in pmf] for point in pmfs])
    assert repr(got) == repr(want), "a field differs"  # a diff of the reprs would take minutes


class TestModelIO:
    def test_round_trip(self, tmp_path):
        model = two_point_model()
        path = tmp_path / "model.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert_same_model(loaded, model)
        save_model(loaded, str(tmp_path / "again.json"))
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_policy_table_dump(self, tmp_path):
        model = two_point_model()
        policy = solve_bellman(model, 1)
        out = tmp_path / "policy.tsv"
        policy.dump_table(str(out))
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# horizon=1")
        assert any(line.startswith("allocate\t0") for line in lines)
        assert any(line.startswith("select\t1") for line in lines)

    def test_policy_table_golden(self, tmp_path):
        """Row order (sorted count tuples) and float formatting (repr) are fixed."""
        out = tmp_path / "policy.tsv"
        solve_bellman(two_point_model(), 2).dump_table(str(out))
        assert out.read_text() == GOLDEN_TABLE_T2


GOLDEN_TABLE_T2 = """\
# horizon=2 reward=PCS value=0.8000000000000002
# kind\tt\tstate\taction\tvalue
allocate\t0\t0,0;0,0\t0\t0.8000000000000002
allocate\t1\t0,0;0,1\t0\t0.8
allocate\t1\t0,0;1,0\t0\t0.8
allocate\t1\t0,1;0,0\t0\t0.8000000000000002
allocate\t1\t1,0;0,0\t0\t0.8000000000000002
select\t2\t0,0;0,2\t0\t0.5
select\t2\t0,0;1,1\t0\t0.5
select\t2\t0,0;2,0\t0\t0.5
select\t2\t0,1;0,1\t0\t0.8
select\t2\t0,1;1,0\t0\t0.8
select\t2\t0,2;0,0\t0\t0.9411764705882353
select\t2\t1,0;0,1\t1\t0.8
select\t2\t1,0;1,0\t1\t0.8
select\t2\t1,1;0,0\t1\t0.5000000000000001
select\t2\t2,0;0,0\t1\t0.9411764705882353
"""


def reference_solve(model, horizon):
    """Per-state backward induction over dict levels in order of discovery.

    Returns (value, values, allocation, selection) shaped like
    ``SolvedPolicy``; argmax ties go to the lowest index.
    """
    q, rewards, points = scalar_pmfs(model), scalar_rewards(model), range(model.r)
    moves = [(i, j) for i in range(model.k) for j in range(len(model.support[i]))]

    def pred(w, i, j):
        return _lsum(q[m][i][j] * w[m] for m in points) / _lsum(w)

    levels = [{model.empty_state().counts: model.prior_pmf.tolist()}]
    for _ in range(horizon):
        nxt = {}
        for key, w in levels[-1].items():
            for i, j in moves:
                child = DiscreteState(key).bump(i, j).counts
                if pred(w, i, j) > 0.0 and child not in nxt:
                    nxt[child] = [w[m] * q[m][i][j] for m in points]
        levels.append(nxt)

    def argmax(scores):
        return max(range(len(scores)), key=scores.__getitem__)

    values = {t: {} for t in range(horizon + 1)}
    allocation = {t: {} for t in range(horizon)}
    selection = {}
    for key, w in levels[horizon].items():
        post = [x / _lsum(w) for x in w]
        scores = [
            _lsum(rewards[m][i] * post[m] for m in points)
            for i in range(model.k)
        ]
        selection[key] = argmax(scores)
        values[horizon][key] = scores[selection[key]]
    for t in range(horizon - 1, -1, -1):
        for key, w in levels[t].items():
            state = DiscreteState(key)
            scores = [
                _lsum(
                    pred(w, i, j) * values[t + 1][state.bump(i, j).counts]
                    for j in range(len(model.support[i]))
                    if pred(w, i, j) > 0.0
                )
                for i in range(model.k)
            ]
            allocation[t][key] = argmax(scores)
            values[t][key] = scores[allocation[t][key]]
    return values[0][model.empty_state().counts], values, allocation, selection


def oracle_models():
    rng = np.random.default_rng(12)
    return {
        "pcs-k3": random_model(rng, "PCS", k=3, size=3),
        "eoc-k3": random_model(rng, "EOC", k=3, size=3),
        "pruned": pruned_model(),
        "normal-r9": discretize_prior(
            NormalPriorSpec((0.0, 0.3), (1.0, 1.0), (1.0, 2.0)), 3, obs_grid_points=4
        ),
        "beta": discretize_prior(BernoulliPriorSpec((1.0, 2.0, 1.0), (1.0, 1.0, 2.0)), 2),
        "symmetric": symmetric_model(),
    }


class TestSolverMatchesPerStateRecursion:
    """The level-array solver reproduces the per-state recursion exactly:
    same floats, same actions, same state order."""

    @pytest.mark.parametrize("name", list(oracle_models()))
    def test_bit_identical(self, name):
        model = oracle_models()[name]
        bounds = np.cumsum((0, *model.support_sizes)).tolist()
        for horizon in range(7):
            value, values, allocation, selection = reference_solve(model, horizon)
            solved = solve_bellman(model, horizon)
            assert type(solved.value) is float and solved.value == value
            keys = {
                t: [tuple(tuple(row[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
                    for row in level.tolist()]
                for t, level in solved.counts.items()
            }
            assert keys == {t: list(level) for t, level in values.items()}
            for got, want in ((solved.values, values), (solved.allocation, allocation)):
                assert list(got) == list(want)
                for t in want:
                    assert got[t].tolist() == list(want[t].values())
            assert solved.selection.tolist() == list(selection.values())

    def test_rewards_match_scalar_loop(self):
        """``model.rewards``, bit for bit, against the oracles' own loop."""
        models = oracle_models()
        for name, model in models.items():
            assert model.rewards.tobytes() == np.array(scalar_rewards(model)).tobytes(), name
        assert (models["symmetric"].rewards == 1.0).all()  # a PCS tie: equal means
        assert models["eoc-k3"].reward == "EOC" and (models["eoc-k3"].rewards < 0.0).any()
        # Signed zeros and point masses: a mean of -0.0 terms is the +0.0 of a loop from
        # 0.0, so an EOC reward is +0.0 - +0.0, never -0.0.
        zeros = DiscreteModel(support=[(-0.0, -0.0), (-0.0, 1.0)], prior_points=["a", "b"],
                              prior_pmf=[0.5, 0.5], reward="EOC",
                              sampling_pmf=[[(0.5, 0.5), (1.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)]])
        assert zeros.rewards.tobytes() == np.array(scalar_rewards(zeros)).tobytes()
        assert not np.signbit(zeros.rewards[0]).any()

    @pytest.mark.parametrize("name", ["pcs-k3", "eoc-k3", "normal-r9", "beta"])
    def test_level_sizes_match_state_space_size(self, name):
        model = oracle_models()[name]
        solved = solve_bellman(model, 6)
        for t, level in solved.values.items():
            assert len(level) == state_space_size(t, model.k, model.support_sizes)

    def test_zero_probability_outcomes_pruned(self):
        model = pruned_model()
        solved = solve_bellman(model, 4)
        for t in range(1, 5):
            assert len(solved.values[t]) < state_space_size(t, model.k, model.support_sizes)
            assert len(solved.counts[t]) == len(solved.values[t])
            assert np.all(solved.counts[t][:, 2] == 0)  # outcome 2 of alternative 0


def level_rows(solved, t):
    return [tuple(row) for row in solved.counts[t].tolist()]


def flat_counts(key):
    """A ``DiscreteState.counts`` key as one row of a level's count matrix."""
    return tuple(c for per_alt in key for c in per_alt)


def assert_levels_descending(solved):
    """Every level lists its states in strictly descending lexicographic order."""
    for t in solved.counts:
        rows = level_rows(solved, t)
        assert all(a > b for a, b in zip(rows, rows[1:])), t


def count_vectors(total, cells):
    """Every vector of ``cells`` nonnegative integers that sum to ``total``."""
    if cells == 1:
        return [(total,)]
    return [(head, *tail) for head in range(total + 1)
            for tail in count_vectors(total - head, cells - 1)]


class TestLevelOrder:
    """Each level's rows are its states in descending lexicographic order of their
    counts, whatever order the forward pass reaches them in."""

    @pytest.mark.parametrize("name", list(oracle_models()))
    def test_oracle_models_descending(self, name):
        for horizon in range(7):
            assert_levels_descending(solve_bellman(oracle_models()[name], horizon))

    def test_bench_model_descending(self):
        assert_levels_descending(solve_bellman(bench_model(1), 36))

    @pytest.mark.parametrize("model, horizon", [
        (two_point_model(), 12), (oracle_models()["pcs-k3"], 6)], ids=["two-point", "pcs-k3"])
    def test_unpruned_level_is_every_count_vector(self, model, horizon):
        """No pmf entry is 0, so level t holds every count vector of sum t."""
        solved = solve_bellman(model, horizon)
        n_cols = sum(model.support_sizes)
        for t in range(horizon + 1):
            assert level_rows(solved, t) == sorted(count_vectors(t, n_cols), reverse=True)

    @pytest.mark.parametrize("horizon", [6, 7, 8])
    def test_subnormal_weights_match_reference_by_counts(self, horizon):
        """Here the per-state recursion reaches some states first from a parent other
        than the lexicographically largest one, as in exact arithmetic it would not, so
        its level 6 in order of first discovery is not descending.  Keyed by counts,
        every value, allocation and selection is the recursion's."""
        model = subnormal_model()
        value, values, allocation, selection = reference_solve(model, horizon)
        discovered = [flat_counts(key) for key in values[6]]
        assert discovered != sorted(discovered, reverse=True)
        solved = solve_bellman(model, horizon)
        assert_levels_descending(solved)
        assert solved.value == value
        for t in range(horizon + 1):
            rows = {row: n for n, row in enumerate(level_rows(solved, t))}
            keys = {flat_counts(key): key for key in values[t]}
            assert rows.keys() == keys.keys()
            got = solved.allocation[t] if t < horizon else solved.selection
            want = allocation[t] if t < horizon else selection
            for row, key in keys.items():
                assert solved.values[t][rows[row]] == values[t][key]
                assert got[rows[row]] == want[key]
