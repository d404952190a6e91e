"""Allocation/selection policies: hand-checked values, invariances, MC oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq

from ranksel.beliefs import GaussianBelief, GroundTruth
from ranksel.policies import (
    BatchState,
    BeliefVector,
    RatioVector,
    _argmax,
    _brentq,
    _ratio_terms,
    _sum_alternatives,
    aoap_candidate_values,
    aoap_multistep_values,
    apply_activation,
    argmax_with_tiebreak,
    correlation_squared_min,
    decide,
    distance_squared,
    features,
    kg_candidate_values,
    make_policy,
    ocba_ratio_core,
    optimal_ratios,
    ratio_residuals,
    shrunk_variance,
    state_features,
    two_factor_candidate_values,
)
from ranksel.vfa import VfaWeights, vfa_eval


def belief_vector(means, post_vars, sampling_vars=None, counts=None):
    k = len(means)
    sampling_vars = [1.0] * k if sampling_vars is None else sampling_vars
    counts = [0] * k if counts is None else counts
    return BeliefVector(
        tuple(
            GaussianBelief(
                post_mean=float(m),
                post_var=float(v),
                count=int(c),
                sampling_var=float(s),
                sum_obs=float(m) * int(c),
            )
            for m, v, s, c in zip(means, post_vars, sampling_vars, counts)
        )
    )


def random_belief_vector(rng, k=None):
    k = k or int(rng.integers(2, 6))
    return belief_vector(
        means=rng.normal(size=k),
        post_vars=rng.uniform(0.05, 3.0, size=k),
        sampling_vars=rng.uniform(0.2, 4.0, size=k),
        counts=rng.integers(1, 30, size=k),
    )


def lookahead_batch(rng, n, k):
    """Belief batches with the closed form's edge cases: tied top means, ties
    among the largest challenger variances, zero incumbent variance, and
    (tied top means with zero variances) degenerate rows.  Drawn row by row,
    returned alternative-major: (k, n) arrays, one column per row."""
    means = rng.normal(size=(n, k))
    rows = np.arange(n)
    tied = rows % 3 == 0
    top = means.argmax(axis=1)
    means[tied, (top[tied] + 1) % k] = means[tied, top[tied]]
    post_vars = rng.uniform(0.05, 3.0, size=(n, k))
    few = rows % 2 == 0
    post_vars[few] = rng.choice([0.25, 0.5, 1.0], size=(few.sum(), k))
    zero_vb = rows % 5 == 1
    post_vars[zero_vb, means[zero_vb].argmax(axis=1)] = 0.0
    post_vars[rows % 17 == 3] = 0.0
    sampling_vars = rng.uniform(0.2, 4.0, size=(n, k))
    return tuple(a.T.copy() for a in (means, post_vars, sampling_vars))


def pairwise_correlation_squared_min(post_vars, is_b, v_b):
    """Smallest v_b^2 / ((v_b + v_i)(v_b + v_j)) over challenger pairs i < j."""
    k = post_vars.shape[0]
    out = np.zeros(post_vars.shape[1:]) if k == 2 else np.full(post_vars.shape[1:], np.inf)
    for i, j in itertools.combinations(range(k), 2):
        with np.errstate(divide="ignore", invalid="ignore"):
            rho2 = v_b**2 / ((v_b + post_vars[i]) * (v_b + post_vars[j]))
        out = np.where(is_b[i] | is_b[j], out, np.minimum(out, rho2))
    return np.where(v_b == 0.0, 0.0, out)


def reference_two_factor_values(means, post_vars, sampling_vars, w1, w2, activation="linear"):
    """Per-candidate loop: shrink one candidate's variance, recompute both features.

    A zero weight drops its feature, so 0 * inf never turns a score into NaN.
    """
    k = means.shape[0]
    b = np.argmax(means, axis=0)
    is_b = np.arange(k).reshape((k,) + (1,) * (means.ndim - 1)) == b
    new_vars = shrunk_variance(post_vars, sampling_vars)
    rows = []
    for cand in range(k):
        vars_c = np.array(post_vars, copy=True, dtype=float)
        vars_c[cand] = new_vars[cand]
        g1 = distance_squared(means, vars_c)
        v_b = np.take_along_axis(vars_c, b[None], 0)[0]
        g2 = correlation_squared_min(vars_c, is_b, v_b)
        weighted = (w1 * g1 if w1 else np.zeros_like(g1)) + (w2 * g2 if w2 else 0.0)
        rows.append(apply_activation(weighted, activation))
    return np.stack(rows)


def same_bits(a, b):
    """Byte equality, with every NaN (degenerate rows) read as the same NaN:
    the sign bit of a NaN depends on which operation propagated it."""
    return np.where(np.isnan(a), np.nan, a).tobytes() == np.where(np.isnan(b), np.nan, b).tobytes()


def aoap_values(b):
    """The one-step look-ahead values of one belief state."""
    return aoap_candidate_values(b.means, b.post_vars, b.sampling_vars)


def kg_values(b):
    """The knowledge-gradient values of one belief state."""
    return kg_candidate_values(b.means, b.post_vars, b.sampling_vars)


class TestSelectionRules:
    """The engine selects the largest posterior mean, lowest index on ties: ``_argmax``,
    which ``experiment._correct_counts`` reads against the true best."""

    def test_max_mean_basic(self):
        assert _argmax(belief_vector([1.0, 0.0, -1.0], [1, 1, 1]).means) == 0

    def test_max_mean_tie_lowest_index(self):
        assert _argmax(belief_vector([0.5, 0.5, 0.5], [1, 1, 1]).means) == 0

    def test_max_mean_shift_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            b = random_belief_vector(rng)
            shifted = belief_vector(
                b.means + 3.7, b.post_vars, b.sampling_vars, b.counts
            )
            assert _argmax(b.means) == _argmax(shifted.means)


class TestEocValue:
    def test_selection_is_max_mean(self):
        """Under the opportunity-cost reward the largest posterior mean is the optimal
        selection whatever the variances, and it is the engine's."""
        b = belief_vector([0.2, 0.9, -1.0], [2.0, 0.1, 0.4])
        assert _argmax(b.means) == 1


class TestDistanceFeature:
    """The squared-gap feature of one belief state."""

    def test_two_alternative_value(self):
        b = belief_vector([1.0, 0.0], [1.0, 1.0])
        assert distance_squared(b.means, b.post_vars) == pytest.approx(0.5, rel=1e-12)

    def test_tied_top_means_zero(self):
        b = belief_vector([0.7, 0.7, 0.0], [1.0, 1.0, 1.0])
        assert distance_squared(b.means, b.post_vars) == 0.0

    def test_scale_invariance(self):
        b = belief_vector([2.0, 1.0, -1.0], [1.0, 0.5, 2.0])
        c = 3.0
        scaled = belief_vector(b.means * c, b.post_vars * c**2, b.sampling_vars, b.counts)
        assert distance_squared(scaled.means, scaled.post_vars) == pytest.approx(
            distance_squared(b.means, b.post_vars), rel=1e-12)

    def test_degenerate_pair_rejected(self):
        b = belief_vector([1.0, 1.0], [0.0, 0.0])
        assert np.isnan(distance_squared(b.means, b.post_vars))
        with pytest.raises(ValueError, match="degenerate state"):
            features(b)


class TestInducedCorrelation:
    """The squared correlation the incumbent induces between two challengers' gaps: the
    correlation feature of a three-alternative state."""

    def test_equal_variances_half(self):
        b = belief_vector([1.0, 0.0, -1.0], [0.8, 0.8, 0.8])
        assert state_features(b.means, b.post_vars)[1] == pytest.approx(0.25, rel=1e-12)

    def test_vanishing_incumbent_variance(self):
        b = belief_vector([1.0, 0.0, -1.0], [0.0, 0.8, 0.8])
        assert state_features(b.means, b.post_vars)[1] == 0.0

    def test_zero_challenger_variances_one(self):
        b = belief_vector([1.0, 0.0, -1.0], [0.8, 0.0, 0.0])
        assert state_features(b.means, b.post_vars)[1] == pytest.approx(1.0, rel=1e-12)


class TestFeatures:
    def test_correlation_feature_quarter(self):
        g1, g2 = features(belief_vector([1.0, 0.0, 0.0], [0.5, 0.5, 0.5]))
        assert g2 == pytest.approx(0.25, rel=1e-12)

    def test_tied_top_means_zero_gap_feature(self):
        g1, _ = features(belief_vector([1.0, 1.0, 0.0], [0.5, 0.5, 0.5]))
        assert g1 == 0.0

    def test_two_alternatives_correlation_zero(self):
        _, g2 = features(belief_vector([1.0, 0.0], [0.5, 0.5]))
        assert g2 == 0.0

    def test_degenerate_state_raises(self):
        """Tied top means with zero variances have no defined gap feature."""
        b = belief_vector([0.5, 0.5, -1.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="degenerate state"):
            features(b)
        with pytest.raises(ValueError, match="degenerate state"):
            vfa_eval(VfaWeights(np.array([0.98, 0.42])), features(b))

    def test_correlation_min_matches_pair_enumeration(self):
        rng = np.random.default_rng(30)
        for k in (2, 3, 4, 10):
            means, post_vars, _ = lookahead_batch(rng, 300, k)
            b = np.argmax(means, axis=0)
            is_b = np.arange(k)[:, None] == b
            v_b = np.take_along_axis(post_vars, b[None], 0)[0]
            got = correlation_squared_min(post_vars, is_b, v_b)
            assert got.tobytes() == pairwise_correlation_squared_min(post_vars, is_b, v_b).tobytes()

    def test_gap_feature_grows_linearly_under_equal_allocation(self):
        # With a fixed mean gap and variances ~ s^2/t, the squared-gap
        # feature scales like t along an equal-allocation trajectory.
        gap, svar = 1.0, 2.0
        g_at = {}
        for t in (400, 800):
            b = belief_vector([gap, 0.0], [svar / t, svar / t])
            g_at[t], _ = features(b)
        assert 1.8 <= g_at[800] / g_at[400] <= 2.2


class TestAoap:
    def test_symmetric_example_ties(self):
        vals = aoap_values(belief_vector([1.0, 0.0], [1.0, 1.0]))
        np.testing.assert_allclose(vals, [2.0 / 3.0, 2.0 / 3.0], rtol=1e-12)

    def test_unequal_variance_example(self):
        b = belief_vector([1.0, 0.0], [1.0, 4.0])
        np.testing.assert_allclose(aoap_values(b), [2.0 / 9.0, 5.0 / 9.0], rtol=1e-12)
        assert decide(make_policy("aoap"), b, 0) == 1

    def test_shift_invariance_of_values(self):
        rng = np.random.default_rng(6)
        b = random_belief_vector(rng)
        shifted = belief_vector(b.means + 5.5, b.post_vars, b.sampling_vars, b.counts)
        np.testing.assert_allclose(aoap_values(shifted), aoap_values(b), rtol=1e-9)

    def test_exact_tie_prefers_fewer_samples_then_lower_index(self):
        b = belief_vector([1.0, 0.0], [1.0, 1.0], counts=[5, 2])
        assert decide(make_policy("aoap"), b, 0) == 1
        b2 = belief_vector([1.0, 0.0], [1.0, 1.0], counts=[3, 3])
        assert decide(make_policy("aoap"), b2, 0) == 0

    def test_values_dominate_current_distance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            b = random_belief_vector(rng)
            g1 = distance_squared(b.means, b.post_vars)
            assert np.all(aoap_values(b) >= g1 - 1e-12)

    @given(
        shift=st.floats(-20, 20),
        scale=st.floats(0.1, 10),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_decision_invariance(self, shift, scale, seed):
        """Adding a constant to means or scaling means and stds jointly by c > 0
        leaves the allocation decision unchanged."""
        b = random_belief_vector(np.random.default_rng(seed))
        moved = belief_vector(
            b.means * scale + shift,
            b.post_vars * scale**2,
            b.sampling_vars * scale**2,
            b.counts,
        )
        assert decide(make_policy("aoap"), moved, 0) == decide(make_policy("aoap"), b, 0)


def multiset_counts(k, size):
    """Count vectors of every multiset of ``size`` alternatives, as a (k, M) matrix:
    the k - 1 bar positions among size + k - 1 stars-and-bars slots."""
    slots = size + k - 1
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(slots), k - 1)),
                       dtype=np.int64).reshape(-1, k - 1)
    edges = np.column_stack([np.full(len(bars), -1), bars, np.full(len(bars), slots)])
    return (np.diff(edges, axis=1) - 1).T.copy()


def multiset_values(means, post_vars, sampling_vars, depth):
    """Reference look-ahead values: the largest squared-gap feature over every multiset of
    ``depth`` samples holding the candidate, scored by the formulas the policy uses."""
    if depth == 1:
        return aoap_candidate_values(means, post_vars, sampling_vars)
    counts = multiset_counts(means.shape[0], depth)
    extra = counts.reshape(counts.shape + (1,) * (means.ndim - 1))
    with np.errstate(invalid="ignore"):  # 0/0 where a zero sampling variance meets no sample
        vars_new = shrunk_variance(post_vars[:, None], sampling_vars[:, None], extra)
    vars_new = np.where(extra > 0, vars_new, post_vars[:, None])
    vals = distance_squared(np.broadcast_to(means[:, None], vars_new.shape), vars_new)
    return np.where(extra > 0, vals, -np.inf).max(axis=1)


_VARIANCES = st.sampled_from([0.0, np.inf, 1.0, 49.0]) | st.floats(1e-3, 1e3)


@st.composite
def multistep_states(draw):
    """Belief states, one (k,) state or a (k, n) batch, with tied top means, zero and
    infinite variances (so NaN values: tied means with zero variances), and
    sampling-to-posterior variance ratios above 2^53."""
    k = draw(st.integers(2, 6))
    shape = draw(st.sampled_from([(k,), (k, draw(st.integers(1, 5)))]))
    means = draw(hnp.arrays(float, shape, elements=st.sampled_from([-1.0, 0.0, 0.5])
                            | st.floats(-3.0, 3.0)))
    post_vars = draw(hnp.arrays(float, shape, elements=_VARIANCES))
    ratios = draw(hnp.arrays(float, shape, elements=st.just(0.0) | st.floats(2.0**53, 1e300)))
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = post_vars * ratios
    sampling_vars = np.where(ratios > 0, scaled, draw(hnp.arrays(float, shape, elements=_VARIANCES)))
    return means, post_vars, sampling_vars


def degenerate_batch(rng, shape):
    """A seeded (k, n) batch of the kinds of states ``multistep_states`` draws: tied
    means, zero and infinite variances, sampling-to-posterior ratios above 2^53."""

    def variances():
        u = rng.random(shape)
        return np.select([u < 0.15, u < 0.3], [0.0, np.inf], rng.exponential(size=shape))

    means = np.where(rng.random(shape) < 0.5, rng.integers(0, 2, shape), rng.normal(size=shape))
    post_vars = variances()
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = post_vars * 2.0 ** rng.uniform(53, 1000, shape)
    return means, post_vars, np.where(rng.random(shape) < 0.5, scaled, variances())


class TestAoapMultistep:
    def test_depth_one_reproduces_single_step(self):
        """Depth 1 runs the water-filling loop with no sample to pour; its values are
        aoap's bit for bit, NaN included, also on tied means and zero and infinite
        variances."""
        rng = np.random.default_rng(8)
        for _ in range(100):
            b = random_belief_vector(rng)
            assert decide(make_policy("aoap_ms1"), b, 0) == decide(make_policy("aoap"), b, 0)
            args = (b.means, b.post_vars, b.sampling_vars)
            assert (aoap_multistep_values(*args, 1).tobytes()
                    == aoap_candidate_values(*args).tobytes())
        for k in range(2, 12):
            args = degenerate_batch(rng, (k, 512))
            values = aoap_candidate_values(*args)
            assert np.isnan(values).any()  # some state has tied means and zero variances
            assert aoap_multistep_values(*args, 1).tobytes() == values.tobytes(), k

    def test_depth_two_matches_pair_enumeration(self):
        """Depths 2 and 3 against a brute-force loop over every ordered
        continuation of the first sample."""
        rng = np.random.default_rng(9)
        for k, depth in itertools.product((2, 3, 4), (2, 3)):
            for _ in range(15):
                b = random_belief_vector(rng, k=k)
                per_first = np.full(k, -math.inf)
                for i in range(k):
                    for rest in itertools.product(range(k), repeat=depth - 1):
                        extra = np.bincount((i,) + rest, minlength=k)
                        v = shrunk_variance(b.post_vars, b.sampling_vars, extra)
                        v = np.where(extra > 0, v, b.post_vars)
                        per_first[i] = max(per_first[i], float(distance_squared(b.means, v)))
                # same tie rule as the policy: best value, then fewest samples,
                # then lowest index
                ties = np.flatnonzero(per_first == per_first.max())
                best_pair = min(ties, key=lambda i: (b.counts[i], i))
                assert decide(make_policy(f"aoap_ms{depth}"), b, 0) == best_pair

    def test_translation_invariance(self):
        rng = np.random.default_rng(10)
        b = random_belief_vector(rng, k=3)
        shifted = belief_vector(b.means - 2.2, b.post_vars, b.sampling_vars, b.counts)
        ms3 = make_policy("aoap_ms3")
        assert decide(ms3, shifted, 0) == decide(ms3, b, 0)

    @given(state=multistep_states(), depth=st.integers(1, 4))
    @settings(max_examples=400, deadline=None)
    # Found with the plain greedy, which pours every sample into the least current term:
    # - a NaN reachable only through the later of two tied challengers;
    @example(state=(np.array([1.0, 1.0, 1.0]), np.array([0.0, 1.0, 1.0]),
                    np.array([1.0, 1.0, 0.0])), depth=2)
    # - a first sample that lowers a term by an ulp (sampling/posterior ratio ~1e48).
    @example(state=(np.array([-0.6777386180580328, 0.6565102470319913, -1.8812158404175985]),
                    np.array([0.0, 0.050516717409154366, 0.7727760415529281]),
                    np.array([0.16808048042727336, 9.167678346940528e+46, 9.788175821155597e+116])),
             depth=2)
    def test_matches_multiset_enumeration_bitwise(self, state, depth):
        means, post_vars, sampling_vars = state
        expected = multiset_values(means, post_vars, sampling_vars, depth)
        got = aoap_multistep_values(means, post_vars, sampling_vars, depth)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected, equal_nan=True)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_matches_multiset_enumeration_on_wide_batches(self, k):
        """Seeded (k, 2048) batches of the same kinds of states reach corners that a few
        hundred hypothesis examples rarely do: each greedy failure pinned above shows
        up here too."""
        means, post_vars, sampling_vars = degenerate_batch(np.random.default_rng(k), (k, 2048))
        for depth in (2, 3, 4):
            expected = multiset_values(means, post_vars, sampling_vars, depth)
            got = aoap_multistep_values(means, post_vars, sampling_vars, depth)
            assert np.array_equal(got, expected, equal_nan=True), depth

    def test_depth_beyond_the_former_multiset_cap(self):
        """Depth 180 at k=4 spans C(183, 3) = 1,004,731 multisets, more than the 10^6
        the enumeration would score."""
        b = random_belief_vector(np.random.default_rng(11), k=4)
        args = (b.means, b.post_vars, b.sampling_vars, 180)
        assert math.comb(4 + 180 - 1, 180) == 1_004_731
        expected = multiset_values(*args)
        assert np.array_equal(aoap_multistep_values(*args), expected)
        assert decide(make_policy("aoap_ms180"), b, 0) == int(np.argmax(expected))


class TestTwoFactor:
    def test_zero_correlation_weight_reduces_to_aoap(self):
        rng = np.random.default_rng(12)
        w = VfaWeights(np.array([1.0, 0.0]))
        for _ in range(100):
            b = random_belief_vector(rng)
            assert decide(make_policy("two_factor", w), b, 0) == decide(make_policy("aoap"), b, 0)

    def test_zero_correlation_weight_exponential_activation(self):
        rng = np.random.default_rng(13)
        w = VfaWeights(np.array([1.0, 0.0]), activation="expm")
        for _ in range(50):
            b = random_belief_vector(rng)
            assert decide(make_policy("two_factor", w), b, 0) == decide(make_policy("aoap"), b, 0)

    def test_two_alternatives_reduce_to_aoap(self):
        rng = np.random.default_rng(14)
        w = VfaWeights(np.array([0.98, 0.42]))
        for _ in range(50):
            b = random_belief_vector(rng, k=2)
            assert decide(make_policy("two_factor", w), b, 0) == decide(make_policy("aoap"), b, 0)

    def test_monotone_activation_preserves_decision(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            b = random_belief_vector(rng)
            w_lin = VfaWeights(np.array([0.7, 0.9]))
            w_exp = VfaWeights(np.array([0.7, 0.9]), activation="expm")
            assert (decide(make_policy("two_factor", w_lin), b, 0)
                    == decide(make_policy("two_factor", w_exp), b, 0))

    def test_zero_weight_drops_infinite_feature(self):
        """With zero variances the gap feature is +inf; a zero weight on it
        must drop it rather than turn the score into 0 * inf = NaN."""
        b = belief_vector([1.0, 0.0], [0.0, 0.0])
        w = VfaWeights(np.array([0.0, 1.0]))
        assert features(b) == (math.inf, 0.0)
        assert vfa_eval(w, features(b)) == 0.0
        vals = two_factor_candidate_values(b.means, b.post_vars, b.sampling_vars, 0.0, 1.0,
                                           "linear")
        assert vals.tolist() == [0.0, 0.0]
        assert decide(make_policy("two_factor", w), b, 0) == 0

    def test_zero_weight_keeps_finite_scores_bitwise(self):
        """Dropping a zero-weight feature adds +0.0 instead of 0 * g, which is
        exact wherever the plain weighted sum w1 * g1 + w2 * g2 is finite."""
        rng = np.random.default_rng(16)
        state = lookahead_batch(rng, 400, 4)
        g1 = reference_two_factor_values(*state, 1.0, 0.0)
        g2 = reference_two_factor_values(*state, 0.0, 1.0)
        for w1, w2 in ((0.0, 0.42), (0.98, 0.0)):
            got = two_factor_candidate_values(*state, w1, w2, "linear")
            with np.errstate(invalid="ignore"):
                plain = w1 * g1 + w2 * g2
            finite = np.isfinite(plain)
            assert finite.mean() > 0.9
            assert got[finite].tobytes() == plain[finite].tobytes()

    def test_value_at_state(self):
        b = belief_vector([1.0, 0.0, 0.0], [0.5, 0.5, 0.5])
        w = VfaWeights(np.array([2.0, 4.0]))
        g1, g2 = features(b)
        assert vfa_eval(w, features(b)) == pytest.approx(2 * g1 + 4 * g2, rel=1e-12)

    @pytest.mark.parametrize("activation", ["linear", "expm"])
    @pytest.mark.parametrize("k", [2, 3, 4, 10])
    def test_closed_form_matches_loop_bits(self, k, activation):
        rng = np.random.default_rng(100 + k)
        means, post_vars, sampling_vars = lookahead_batch(rng, 400, k)
        args = (means, post_vars, sampling_vars, 0.98, 0.42, activation)
        got = two_factor_candidate_values(*args)
        assert 0 < np.isnan(got).any(axis=0).sum() < got.shape[1]  # some degenerate rows, not all
        assert same_bits(got, reference_two_factor_values(*args))

    @pytest.mark.parametrize(
        "challenger_vars",
        [
            [3.0, 2.0, 1.5, 0.5],  # distinct: sampling the 1st, 2nd, 3rd largest
            [2.0, 2.0, 1.0, 0.5],  # top two tied
            [3.0, 1.5, 1.5, 0.5],  # second and third tied
            [1.0, 1.0, 1.0, 1.0],  # all tied
            [3.0, 2.0],  # k = 3: no third challenger
        ],
    )
    @pytest.mark.parametrize("v_b", [1.0, 0.0])
    def test_closed_form_by_sampled_challenger_rank(self, challenger_vars, v_b):
        k = len(challenger_vars) + 1
        means = np.array([[1.0] + [0.0] * (k - 1)]).T
        post_vars = np.array([[v_b] + challenger_vars]).T
        sampling_vars = np.full((k, 1), 0.7)
        args = (means, post_vars, sampling_vars, 0.3, 5.0, "linear")
        assert same_bits(two_factor_candidate_values(*args), reference_two_factor_values(*args))

    @given(
        data=st.data(),
        k=st.sampled_from([2, 3, 4, 10]),
        activation=st.sampled_from(["linear", "expm"]),
        w=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_loop_bits_hypothesis(self, data, k, activation, w):
        """Values from small sets, so ties between top means and among the
        largest variances are common."""
        shape = (k, 4)
        means = data.draw(hnp.arrays(float, shape, elements=st.sampled_from([-1.0, 0.0, 0.5, 1.0])
                                     | st.floats(-2.0, 2.0)))
        post_vars = data.draw(hnp.arrays(float, shape, elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])
                                         | st.floats(0.0, 4.0)))
        sampling_vars = data.draw(hnp.arrays(float, shape, elements=st.floats(0.1, 4.0)))
        args = (means, post_vars, sampling_vars, w[0], w[1], activation)
        # Subnormal variances overflow 1/v.
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(two_factor_candidate_values(*args), reference_two_factor_values(*args))


def reference_optimal_ratios(truth):
    """The damped fixed-point solver optimal_ratios replaced: the incumbent's
    share is iterated to 1e-10, each step solving the challenger subsystem by
    a root find on the common rate level."""
    means, svars = truth.means, truth.variances
    k = len(means)
    order = np.lexsort((np.arange(k), -means))
    best, others = int(order[0]), order[1:]
    gaps = means[best] - means[others]
    svar_b, svar_o = svars[best], svars[others]

    def challengers(x):
        z_max = float(x * np.min(gaps**2) / svar_b)

        def total(z):
            return float((svar_o / (gaps**2 / z - svar_b / x)).sum()) - (1.0 - x)

        z = brentq(total, z_max * 1e-18, z_max * (1.0 - 1e-13), xtol=1e-300, rtol=8.9e-16,
                   maxiter=300)
        return svar_o / (gaps**2 / z - svar_b / x)

    x, lo_x, hi_x = 1.0 / k, 1e-12, 1.0 - 1e-12
    for _ in range(10**5):
        r_o = challengers(x)
        target = math.sqrt(svar_b) * math.sqrt(float((r_o**2 / svar_o).sum()))
        if abs(x - target) < 1e-10:
            break
        if x < target:
            lo_x = max(lo_x, x)
        else:
            hi_x = min(hi_x, x)
        proposal = x + 0.5 * (target - x)
        x = proposal if lo_x < proposal < hi_x else 0.5 * (lo_x + hi_x)
    else:
        raise RuntimeError("reference ratio iteration did not converge")
    ratios = np.empty(k)
    ratios[best], ratios[others] = x, r_o
    return ratios / ratios.sum()


@st.composite
def ratio_truths(draw, max_k=10):
    """k = 2..max_k distinct means in [-10, 10], at least 1e-3 apart, and stds in e^[-6, 6]."""
    k = draw(st.integers(2, max_k))
    means = draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k, unique=True)
                 .filter(lambda m: np.diff(np.sort(m)).min() >= 1e-3))
    log_stds = draw(st.lists(st.floats(-6.0, 6.0), min_size=k, max_size=k))
    return GroundTruth(means=means, variances=np.exp(2.0 * np.array(log_stds)))


class TestOptimalRatios:
    def test_equal_stds_split_evenly(self):
        truth = GroundTruth(means=[1.0, 0.0], variances=[1.0, 1.0])
        ratios, _ = optimal_ratios(truth)
        np.testing.assert_allclose(ratios.ratios, [0.5, 0.5], atol=1e-9)

    def test_two_to_one_stds(self):
        truth = GroundTruth(means=[1.0, 0.0], variances=[4.0, 1.0])
        ratios, _ = optimal_ratios(truth)
        np.testing.assert_allclose(ratios.ratios, [2 / 3, 1 / 3], atol=1e-9)

    def test_residuals_small(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            k = int(rng.integers(2, 7))
            means = np.sort(rng.normal(size=k) * 2)[::-1]
            means[0] = means[1] + rng.uniform(0.2, 1.0)
            truth = GroundTruth(means=means, variances=rng.uniform(0.3, 4.0, size=k))
            ratios, _ = optimal_ratios(truth)
            spread, defect = ratio_residuals(truth, ratios)
            assert spread < 1e-8 and defect < 1e-8

    @given(truth=ratio_truths())
    @settings(max_examples=200, deadline=None)
    # Tied challenger gaps: the root is the bracket's upper end ||sig||_2.
    @example(truth=GroundTruth(means=[1.0, 0.0, 0.0, 0.0], variances=[1.0, 1.0, 4.0, 9.0]))
    # Gaps tied in rounding and one dominant challenger std: the bracket
    # collapses to a point.
    @example(truth=GroundTruth(means=[1e50, 1.0, 0.0], variances=[1.0, 1.0, 1e-18]))
    def test_matches_damped_reference(self, truth):
        ratios, _ = optimal_ratios(truth)
        np.testing.assert_allclose(ratios.ratios, reference_optimal_ratios(truth), rtol=0,
                                   atol=1e-9)
        spread, defect = ratio_residuals(truth, ratios)
        assert spread < 1e-12 and defect < 1e-12

    @given(truth=ratio_truths(), mean_exp=st.integers(-60, 60), std_exp=st.integers(-60, 60))
    @settings(max_examples=150, deadline=None)
    def test_power_of_two_scaling_is_byte_identical(self, truth, mean_exp, std_exp):
        scaled = GroundTruth(means=truth.means * 2.0**mean_exp,
                             variances=truth.variances * 4.0**std_exp)
        ratios, scaled_ratios = optimal_ratios(truth)[0].ratios, optimal_ratios(scaled)[0].ratios
        assert scaled_ratios.tobytes() == ratios.tobytes()

    @given(truth=ratio_truths(), shift=st.floats(-1e6, 1e6))
    @settings(max_examples=150, deadline=None)
    def test_location_shift(self, truth, shift):
        shifted = GroundTruth(means=truth.means + shift, variances=truth.variances)
        np.testing.assert_allclose(optimal_ratios(shifted)[0].ratios,
                                   optimal_ratios(truth)[0].ratios, rtol=0, atol=1e-8)

    @given(log_stds=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
           log_gap=st.floats(-100.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_two_alternatives_closed_form(self, log_stds, log_gap):
        """k = 2: r_b = sigma_b / (sigma_b + sigma_1), for stds and gaps in [1e-100, 1e100]."""
        variances = [10.0 ** (2.0 * x) for x in log_stds]
        truth = GroundTruth(means=[10.0**log_gap, 0.0], variances=variances)
        s_b, s_1 = (math.sqrt(v) for v in variances)
        np.testing.assert_allclose(optimal_ratios(truth)[0].ratios,
                                   [s_b / (s_b + s_1), s_1 / (s_b + s_1)], rtol=1e-12, atol=0)

    def test_no_overflow_when_stds_span_1e300(self):
        """Tied gaps, sig = (1e-150, 1e150): a bracket starting at the first
        challenger's sig would square w_2 = 1e300 there."""
        truth = GroundTruth(means=[1.0, 0.0, 0.0], variances=[1.0, 1e-300, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratios, _ = optimal_ratios(truth)
        np.testing.assert_allclose(ratios.ratios, [1e-150, 0.0, 1.0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("means, stds, ratios", [
        ([1.0, 0.0, -1e150], [1.0, 1.0, 1e-100], [0.5, 0.5, 0.0]),
        ([1.0, 0.0, 0.0], [1.0, 1e-150, 1e150], [1e-150, 0.0, 1.0]),
    ])
    def test_underflowed_ratio_left_out_of_rate_spread(self, means, stds, ratios):
        """A challenger whose true ratio is ~1e-500 gets 0; its rate term is not
        formed, so the spread is not read as a solver failure."""
        truth = GroundTruth(means=means, variances=[s * s for s in stds])
        got, _ = optimal_ratios(truth)
        np.testing.assert_allclose(got.ratios, ratios, rtol=1e-12, atol=0)
        assert ratio_residuals(truth, got) == (0.0, 0.0)

    @pytest.mark.parametrize("means, variances, ratios, iterations", [
        ([4.0, 3.0, 2.0, 1.0, 0.0], [1.0] * 5, [0.4504558366830608, 0.44488950109393466,
         0.06389401982532819, 0.02632304214345578, 0.01443760025422072], 7),
        ([4.0, 3.0, 2.0, 1.0, 0.0], [4.0, 1.0, 2.25, 1.0, 6.25], [0.5907834910557035,
         0.2914116509623158, 0.06610201473976554, 0.011757857928336904,
         0.039944985313878335], 8),
        ([2.0, 1.6, 1.2, 0.8, 0.0], [1.0, 2.25, 0.64, 1.44, 4.0], [0.37128628972781014,
         0.5535835301226019, 0.026296621305595385, 0.024773528296905267,
         0.024060030547087535], 7),
    ])
    def test_c03_truths_pinned(self, means, variances, ratios, iterations):
        """c03's truths, recorded with scipy.optimize.brentq as the root finder."""
        got, iters = optimal_ratios(GroundTruth(means=means, variances=variances))
        assert (got.ratios.tolist(), iters) == (ratios, iterations)

    def test_tied_best_rejected(self):
        truth = GroundTruth(means=[1.0, 1.0, 0.0], variances=[1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            optimal_ratios(truth)

    def test_overflowing_gap_ratio_rejected(self):
        """(gap_2 / gap_1)^2 = 1e400 is not a float."""
        truth = GroundTruth(means=[1.0, 0.0, -1e200], variances=[1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="within the float range"):
            optimal_ratios(truth)



def ratio_excess(truth):
    """optimal_ratios' excess function sum w_i^2 - 1 and its bracket (lo, hi)."""
    _, _, q, sig = _ratio_terms(truth)

    def excess(t):
        return float(np.square(sig / ((q - 1.0) + q * t)).sum()) - 1.0

    return excess, float(np.max((sig - (q - 1.0)) / q)), math.hypot(*sig)


@st.composite
def interior_root_truths(draw):
    """k = 3..11 means scaled by 10^[-3, 3] and variances in 10^[-4, 4], kept when the
    root of the excess lies strictly inside the bracket, so the root finder runs."""
    k = draw(st.integers(3, 11))
    means = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    log_vars = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k)))
    truth = GroundTruth(means=means * scale, variances=10.0 ** log_vars)
    try:
        excess, lo, hi = ratio_excess(truth)
    except ValueError:  # tied or out-of-range gaps
        assume(False)
    assume(excess(lo) > 0.0 > excess(hi))
    return truth


def scipy_brentq(f, a, b, xtol):
    root, info = brentq(f, a, b, xtol=xtol, full_output=True)
    return root, info.iterations


def outcome(solver, f, a, b, xtol):
    try:
        root, iters = solver(f, a, b, xtol)
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)
    return root.hex(), iters


class TestBrentq:
    """``_brentq`` against ``scipy.optimize.brentq``: the root's bits, the iteration
    count and the errors."""

    @given(truth=interior_root_truths())
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_on_ratio_brackets(self, truth):
        excess, lo, hi = ratio_excess(truth)
        root, iters = _brentq(excess, lo, hi, math.ulp(lo))
        want, want_iters = scipy_brentq(excess, lo, hi, math.ulp(lo))
        assert (root.hex(), iters) == (want.hex(), want_iters)
        assert optimal_ratios(truth)[1] == iters

    @pytest.mark.parametrize("f, a, b, xtol", [
        (lambda x: x**3 - 2 * x - 5, 2.0, 3.0, 1e-12),
        (lambda x: x**3 - 2 * x - 5, -1.95, 2.79, 1e-12),  # a step C's MIN(spre, bound) rejects
        (lambda x: math.tanh(50 * (x - 0.1)), -3.0, 2.0, 1e-300),
        (lambda x: math.copysign(1.0, x - 0.3), -1.0, 2.0, 1e-300),  # flat: steps divide by 0
        (lambda x: 1e-300 * (x - 0.123), 1.0, -1.0, 1e-12),  # reversed bracket
        (lambda x: (x - 0.2) ** 5, -1.0, 2.0, 1e-300),  # 100 iterations do not converge
        (lambda x: x - 0.7, 1.0, 2.0, 1e-12),  # sign error
        (lambda x: math.nan, 0.0, 1.0, 1e-12),  # NaN at a bracket end
        (lambda x: math.nan if 0.5 < x < 1.0 else x - 0.7, 0.0, 1.0, 1e-12),  # NaN inside
    ], ids=["cubic", "cubic-wide", "tanh", "flat-steps", "reversed", "no-convergence",
            "sign-error", "nan-end", "nan-inside"])
    def test_matches_scipy(self, f, a, b, xtol):
        assert outcome(_brentq, f, a, b, xtol) == outcome(scipy_brentq, f, a, b, xtol)

    def test_errors(self):
        with pytest.raises(ValueError, match=r"^f\(a\) and f\(b\) must have different signs$"):
            _brentq(lambda x: x - 0.7, 1.0, 2.0, 1e-12)
        with pytest.raises(ValueError, match=r"^The function value at x=1.0 is NaN; solver"):
            _brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12)
        with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
            _brentq(lambda x: (x - 0.2) ** 5, -1.0, 2.0, 1e-300)

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x, 0.0, 1.0), (lambda x: x - 1.0, 0.0, 1.0), (lambda x: x, -0.0, 1.0)],
        ids=["root-at-a", "root-at-b", "root-at-minus-zero"])
    def test_bracket_end_root_takes_no_iteration(self, f, a, b):
        """SciPy returns the same end, but leaves its iteration count unset there."""
        root, iters = _brentq(f, a, b, 1e-12)
        assert (root.hex(), iters) == (scipy_brentq(f, a, b, 1e-12)[0].hex(), 0)


class TestOcba:
    def test_two_alternative_ratio(self):
        ratios = ocba_ratio_core(np.array([1.0, 0.0]), np.array([2.0, 1.0]) ** 2)
        assert ratios[0] / ratios[1] == pytest.approx(2.0, rel=1e-12)

    def test_ratios_sum_to_one(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            means = rng.normal(size=k)
            means[0] += 2.0
            ratios = ocba_ratio_core(means, rng.uniform(0.2, 3.0, size=k) ** 2)
            assert abs(ratios.sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("means, stds", [
        ([1.0, 0.0], [1e200, 1.0]),             # the incumbent's variance overflows
        ([1.0, 0.0, -1.0], [1e-200, 1.0, 1.0]),  # its variance underflows to 0
    ])
    def test_non_finite_ratios_rejected(self, means, stds):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ratios = ocba_ratio_core(np.array(means), np.array(stds) ** 2)
        with pytest.raises(ValueError, match="ratios must be finite"):
            RatioVector(ratios)

    @pytest.mark.parametrize("ratios", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0]])
    def test_ratio_vector_rejects_non_finite(self, ratios):
        with pytest.raises(ValueError, match="ratios must be finite"):
            RatioVector(np.array(ratios))

    def test_deficits_vanish_at_proportional_counts(self):
        """Counts exactly proportional to the target ratios leave every
        deficit at zero; the tie then goes to the lowest index."""
        from ranksel.policies import ocba_deficits

        means = np.array([1.0, 0.3, 0.0])
        svars = np.array([1.0, 2.0, 0.5])
        ratios = ocba_ratio_core(means, svars)
        total = float(ratios.sum()) * 120.0
        counts = total * ratios / ratios.sum()
        deficits = ocba_deficits(means, svars, counts)
        np.testing.assert_allclose(deficits, 0.0, atol=1e-10)
        assert argmax_with_tiebreak(np.zeros(3), np.full(3, 40.0)) == 0

    def test_most_starving_feeds_underfunded_alternative(self):
        b = belief_vector([1.0, 0.0, 0.0], [0.5] * 3, counts=[9, 1, 1])
        assert decide(make_policy("ocba"), b, 0) in (1, 2)

    def test_unobserved_alternative_rejected(self):
        """Plug-in sample means need at least one observation each."""
        b = belief_vector([1.0, 0.0, 0.0], [0.5] * 3, counts=[3, 0, 2])
        assert (b.counts[1], b.sums[1]) == (0.0, 0.0)
        with pytest.raises(ValueError, match="sample mean undefined"):
            decide(make_policy("ocba"), b, 0)


class TestKnowledgeGradient:
    def test_identical_beliefs_tie_to_first(self):
        b = belief_vector([0.5] * 3, [1.0] * 3, counts=[2, 2, 2])
        assert decide(make_policy("kg"), b, 0) == 0

    def test_factors_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            assert np.all(kg_values(random_belief_vector(rng)) >= 0)

    def test_factor_matches_monte_carlo(self):
        b = belief_vector([0.3, 0.0], [0.8, 0.5], sampling_vars=[1.0, 2.0])
        factors = kg_values(b)
        rng = np.random.default_rng(20)
        n = 10**6
        z = rng.standard_normal(n)
        for i in (0, 1):
            new_var = shrunk_variance(b.post_vars, b.sampling_vars)[i]
            s = math.sqrt(b.post_vars[i] - new_var)
            new_mean = b.means[i] + s * z
            other = b.means[1 - i]
            improvement = np.maximum(new_mean, other) - max(b.means)
            mc = improvement.mean()
            se = improvement.std(ddof=1) / math.sqrt(n)
            assert abs(factors[i] - mc) < 3 * se

    def test_all_zero_variance_scores_zero(self):
        """No alternative can learn, so every value is 0 and the tie-break decides."""
        b = belief_vector([1.0, 0.0], [0.0, 0.0], counts=[2, 1])
        assert kg_values(b).tolist() == [0.0, 0.0]
        assert decide(make_policy("kg"), b, 0) == 1

    @pytest.mark.parametrize("k", range(2, 12))
    def test_live_entries_reproduce_the_full_formula(self, k):
        """Computing only the entries with z >= -39 (and s > 0) changes no bit: the far
        tail is +0.0 either way, and infinite and NaN entries stay where they were.  (A
        NaN's sign bit follows the SIMD lane that made it, so ``same_bits`` reads every
        NaN as one; a NaN score raises in ``decide`` whatever its sign.)"""
        rng = np.random.default_rng(300 + k)
        means, post_vars, sampling_vars = kg_tail_batch(rng, k, 4096)
        got = kg_candidate_values(means, post_vars, sampling_vars)
        want = reference_kg_values(means, post_vars, sampling_vars)
        assert got.shape == want.shape and same_bits(got, want)
        assert np.isnan(got).any() and np.isinf(got).any() and (got > 0).any()
        for i in range(3):  # one (k,) state at a time
            state = [x[:, i] for x in (means, post_vars, sampling_vars)]
            want = reference_kg_values(*[x[:, None] for x in state])[:, 0]
            assert same_bits(kg_candidate_values(*state), want)
        edge = np.array([[0.0, 0.0, 0.0, 0.0], [-39.0, np.nextafter(-39.0, 0),
                                                np.nextafter(-39.0, -np.inf), -38.6]])
        twos = np.full(edge.shape, 2.0)
        got = kg_candidate_values(edge, twos, twos)
        assert got.tobytes() == reference_kg_values(edge, twos, twos).tobytes()
        assert got[1, 0] == got[1, 2] == 0.0 and not np.signbit(got[1]).any()

    def test_far_tail_terms_are_exact_zeros(self):
        """Both terms of z * Phi(z) + phi(z) are exactly 0 below z = -39: on a fine grid
        down to -60, on a coarse one to -1e300 and at -inf."""
        from scipy.special import ndtr

        z = np.concatenate([
            np.nextafter(-39.0, -np.inf) - np.arange(10**6) * 2.1e-5,
            -np.geomspace(60, 1e300, 10**4), [-np.inf]])
        assert (z < -39.0).all()
        assert not ndtr(z).any()
        with np.errstate(over="ignore"):
            assert not np.exp(np.square(z) * -0.5).any()
        # Above it, each term leaves 0 (subnormal) at its own point: ndtr near -37.68,
        # exp near -38.60.
        assert ndtr(-37.67) > 0.0 and np.exp(-0.5 * 38.6**2) > 0.0


def reference_kg_values(means, post_vars, sampling_vars):
    """kg's closed form over every entry, far tail included: the formula that computing
    only the entries at or above z = -39 must reproduce bit for bit."""
    from scipy.special import ndtr

    s = post_vars - shrunk_variance(post_vars, sampling_vars)
    np.sqrt(np.maximum(s, 0.0, out=s), out=s)
    top = means.max(axis=0)
    z = top - means
    incumbent = _argmax(means)
    columns = np.arange(means[0].size).reshape(means.shape[1:])
    runner_up = np.array(means, dtype=float)
    runner_up[incumbent, columns] = -np.inf
    z[incumbent, columns] = means[incumbent, columns] - runner_up.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.negative(np.abs(z, out=z), out=z), s, out=z)
        nu = ndtr(z)
        nu *= z
        np.square(z, out=z)
        z *= -0.5
        nu += np.exp(z, out=z) / math.sqrt(2.0 * math.pi)
        nu *= s
    return np.where(s > 0.0, nu, 0.0)


def kg_tail_batch(rng, k, n):
    """A seeded (k, n) kg batch whose z = -|gap| / s spreads over [-60, 0], with the
    subnormal band (-38.7, -37), z = -39 and its neighbours hit exactly (gaps over
    s = 1: posterior and sampling variances of 2), and s = 0, infinite posterior
    variances and NaN means among them."""
    u = rng.random((k, n))
    post_vars = np.select([u < 0.05, u < 0.1, u < 0.6], [0.0, np.inf, 2.0],
                          rng.exponential(size=(k, n)))
    sampling_vars = np.where(post_vars == 2.0, 2.0, rng.exponential(size=(k, n)))
    z = np.select([u < 0.7, u < 0.75, u < 0.8, u < 0.85],
                  [rng.uniform(-60, 0, (k, n)), rng.uniform(-38.7, -37, (k, n)),
                   np.full((k, n), -39.0), np.full((k, n), np.nextafter(-39.0, 0))],
                  np.full((k, n), np.nextafter(-39.0, -np.inf)))
    with np.errstate(invalid="ignore"):
        s = np.sqrt(post_vars - shrunk_variance(post_vars, sampling_vars))
    means = np.where(np.isfinite(s) & (s > 0), z * s, -rng.exponential(size=(k, n)))
    means[0] = 0.0  # the incumbent, so each challenger's gap is -means
    means[rng.random((k, n)) < 0.01] = np.nan
    order = np.argsort(rng.random((k, n)), axis=0)
    return tuple(np.take_along_axis(x, order, axis=0) for x in (means, post_vars, sampling_vars))


def ea_decision(t, k):
    return decide(make_policy("ea"), belief_vector([0.0] * k, [1.0] * k), t)


class TestEqualAllocation:
    def test_first_step(self):
        assert ea_decision(0, 3) == 0

    def test_sixth_step(self):
        assert ea_decision(5, 3) == 2

    def test_round_robin_balance(self):
        k, m = 4, 7
        counts = np.zeros(k, dtype=int)
        for t in range(k * m):
            counts[ea_decision(t, k)] += 1
        assert np.all(counts == m)


class TestSingleStateIsOneRow:
    """A ``(k,)`` belief state decides exactly as column 0 of the same state
    as a ``(k, 1)`` batch, so one state is decided as a batch is, with no wrapper."""

    @pytest.mark.parametrize("policy_id", ["ea", "aoap", "ocba", "kg", "two_factor", "aoap_ms2"])
    def test_decide_matches_one_row_batch(self, policy_id):
        rng = np.random.default_rng(31)
        n, k = 200, 4
        means, post_vars, sampling_vars = lookahead_batch(rng, n, k)
        keep = ~np.isnan(two_factor_candidate_values(
            means, post_vars, sampling_vars, 0.98, 0.42, "linear")).any(axis=0)
        counts = rng.integers(1, 4, size=(n, k)).astype(float).T
        arrays = [a[:, keep] for a in (means, post_vars, sampling_vars, counts, means - 0.1)]
        score_fn = make_policy(policy_id, VfaWeights(np.array([0.98, 0.42]))
                               if policy_id == "two_factor" else None)
        for r in range(arrays[0].shape[1]):
            single = BatchState(*(a[:, r] for a in arrays))
            batch = BatchState(*(a[:, r:r + 1] for a in arrays))
            assert score_fn(single, r).tobytes() == score_fn(batch, r)[:, 0].tobytes()
            assert decide(score_fn, single, r) == decide(score_fn, batch, r)[0]


class TestMakePolicy:
    @pytest.mark.parametrize("policy_id", ["ea", "aoap", "ocba", "kg", "aoap_ms2"])
    def test_weights_rejected_where_unread(self, policy_id):
        """Weights given for an id other than two_factor used to be dropped silently."""
        with pytest.raises(ValueError, match=f"policy '{policy_id}' reads no weights"):
            make_policy(policy_id, VfaWeights(np.array([1.0, 1.0])))

    def test_two_factor_requires_weights(self):
        with pytest.raises(ValueError, match="two_factor policy requires fitted weights"):
            make_policy("two_factor")


class TestDecideRejectsNaN:
    """One NaN score in any column makes ``decide`` raise "degenerate state",
    whether every other column has one maximum (no tie to break) or a tie."""

    @pytest.mark.parametrize("n", [1, 3, 4096])
    @pytest.mark.parametrize("tied", [False, True])
    def test_one_nan_score_raises(self, n, tied):
        k = 3
        values = np.random.default_rng(n).normal(size=(k, n))
        if tied:
            values[1] = values[0] = values.max(axis=0) + 1.0
        state = BatchState(np.zeros((k, n)), np.ones((k, n)), np.ones((k, n)),
                           np.ones((k, n)), np.zeros((k, n)))
        assert decide(lambda s, t: values, state, 0).shape == (n,)
        for row, col in itertools.product(range(k), sorted({0, n // 2, n - 1})):
            scores = values.copy()
            scores[row, col] = np.nan
            with pytest.raises(ValueError, match="degenerate state"):
                decide(lambda s, t: scores, state, 0)


def alternative_last_tiebreak(values, counts):
    """Tie-broken argmax over the last axis of C-ordered (n, k) arrays."""
    k = values.shape[-1]
    tie = values == values.max(axis=-1, keepdims=True)
    return np.where(tie, counts * k + np.arange(k), np.inf).argmin(axis=-1)


def alternative_last_ocba_ratios(means, svars):
    """OCBA ratios over the last axis of C-ordered (n, k) arrays, summed by np.sum."""
    b = np.argmax(means, axis=-1)[:, None]
    is_b = b == np.arange(means.shape[-1])
    mean_b = np.take_along_axis(means, b, -1)
    gaps = mean_b - means
    floor = np.finfo(float).eps * np.maximum(np.abs(mean_b), 1.0)
    raw = np.where(is_b, 0.0, svars / np.maximum(gaps, floor) ** 2)
    r_b = np.sqrt(np.take_along_axis(svars, b, -1)[:, 0]) * np.sqrt((raw**2 / svars).sum(axis=-1))
    raw = np.where(is_b, r_b[:, None], raw)
    return raw / raw.sum(axis=-1, keepdims=True)


class TestAlternativeMajorReductions:
    """Reductions over axis 0 of (k, n) arrays must reproduce NumPy's last-axis
    results on the same data held as C-ordered (n, k) arrays, bit for bit:
    the tie-break, the incumbent index (NaN first, as in argmax) and the sums
    in OCBA, where NumPy sums 8 or more terms pairwise."""

    K = [2, 3, 7, 8, 9, 10, 16, 17]

    @given(data=st.data(), k=st.sampled_from(K), n=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_tiebreak_and_incumbent(self, data, k, n):
        values = data.draw(hnp.arrays(float, (n, k), elements=st.sampled_from(
            [-1.0, -0.0, 0.0, 1.0, 2.0]) | st.floats(-2.0, 2.0)))
        counts = data.draw(hnp.arrays(float, (n, k), elements=st.sampled_from([1.0, 2.0, 3.0])))
        got = argmax_with_tiebreak(np.ascontiguousarray(values.T), np.ascontiguousarray(counts.T))
        assert got.tobytes() == alternative_last_tiebreak(values, counts).tobytes()
        with_nan = values.copy()
        with_nan[data.draw(hnp.arrays(bool, (n, k)))] = np.nan
        for x in (values, with_nan):
            assert _argmax(np.ascontiguousarray(x.T)).tobytes() == np.argmax(x, axis=-1).tobytes()

    @given(data=st.data(), k=st.sampled_from(K), n=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_ocba_sums(self, data, k, n):
        means = data.draw(hnp.arrays(float, (n, k), elements=st.sampled_from([0.0, 0.5, 1.0])
                                     | st.floats(-2.0, 2.0)))
        svars = data.draw(hnp.arrays(float, (n, k), elements=st.floats(0.1, 4.0)))
        ratios = ocba_ratio_core(np.ascontiguousarray(means.T), np.ascontiguousarray(svars.T))
        assert ratios.T.tobytes() == alternative_last_ocba_ratios(means, svars).tobytes()

    @pytest.mark.parametrize("k", K + [64, 129, 300])
    def test_sum_keeps_pairwise_order(self, k):
        x = np.random.default_rng(k).lognormal(sigma=3.0, size=(50, k))
        x[::7] = -0.0
        assert _sum_alternatives(np.ascontiguousarray(x.T)).tobytes() == x.sum(axis=-1).tobytes()
