"""Sequential allocation and selection policies for independent normal beliefs.

Conventions shared by every operation here:

- Alternatives are 0-indexed.  The "incumbent" is the alternative with
  the largest posterior mean, lowest index on ties.
- Arrays are alternative-major: numeric cores take ``(k, ...)`` arrays,
  alternatives on axis 0, and broadcast over the trailing axes.  A
  ``(k,)`` array is one belief state; the simulation engine passes
  C-ordered ``(k, n)`` batches, one column per state, so every max, min
  and sum over alternatives runs along contiguous rows.  Sums over
  alternatives keep the order NumPy uses along a contiguous last axis.
- Allocation tie-breaking is always: highest value, then fewest samples,
  then lowest index.

The central quantity is the normalized mean gap to the incumbent,

    d_i = (mu_best - mu_i) / sqrt(var_best + var_i),

whose square, minimized over challengers, is a one-feature approximation
of the posterior probability that the incumbent is truly best.  The
one-step look-ahead policy scores each candidate by recomputing that
feature after shrinking the candidate's posterior variance as one more
observation would (the observation itself is replaced by its predictive
mean, which leaves every posterior mean unchanged).

There is one belief-state type, ``BatchState``, holding ``(k, ...)``
arrays; a ``BeliefVector`` is a ``BatchState`` with ``(k,)`` arrays built
from per-alternative ``GaussianBelief``s.  Each allocation policy is
defined once, as a score function ``score(state, t) -> (k, ...)``;
``POLICIES`` maps policy ids to them and ``make_policy`` resolves an id.
``decide`` turns scores into the sampled alternative of every state, so
one state is decided as a batch is: ``decide(make_policy(id, weights), b, t)``.
Only kg loads SciPy (``scipy.special``), on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._json import check_size
from .beliefs import GaussianBelief, GroundTruth

if TYPE_CHECKING:
    from .vfa import VfaWeights

__all__ = [
    "BatchState",
    "POLICIES",
    "lookup_policy",
    "make_policy",
    "decide",
    "BeliefVector",
    "RatioVector",
    "features",
    "ACTIVATIONS",
    "apply_activation",
    "optimal_ratios",
    "ratio_residuals",
    "shrunk_variance",
    "distance_squared",
    "correlation_squared_min",
    "state_features",
    "aoap_candidate_values",
    "aoap_multistep_values",
    "two_factor_candidate_values",
    "kg_candidate_values",
    "ocba_deficits",
    "argmax_with_tiebreak",
]


@dataclass(frozen=True)
class BatchState:
    """Belief states as ``(k, ...)`` arrays: one column per replication, or one state.
    ``sums`` holds each alternative's sum of observations, the statistic the engine keeps."""

    means: np.ndarray
    post_vars: np.ndarray
    sampling_vars: np.ndarray
    counts: np.ndarray
    sums: np.ndarray


class BeliefVector(BatchState):
    """A single belief state, built from per-alternative Gaussian beliefs: ``(k,)`` arrays."""

    def __init__(self, beliefs: Sequence[GaussianBelief]) -> None:
        rows = [(b.post_mean, b.post_var, b.sampling_var, b.count, b.sum_obs) for b in beliefs]
        if len(rows) < 2:
            raise ValueError("need at least two alternatives")
        super().__init__(*np.array(rows, dtype=float).T.copy())


@dataclass(frozen=True)
class RatioVector:
    """Nonnegative sampling ratios summing to one."""

    ratios: np.ndarray

    def __post_init__(self) -> None:
        ratios = np.asarray(self.ratios, dtype=float)
        object.__setattr__(self, "ratios", ratios)
        if not np.all(np.isfinite(ratios)):
            raise ValueError(f"ratios must be finite, got {ratios!r}")
        if np.any(ratios < 0):
            raise ValueError("ratios must be nonnegative")
        if abs(float(ratios.sum()) - 1.0) > 1e-10:
            raise ValueError(f"ratios must sum to 1, got {ratios.sum()!r}")


# ---------------------------------------------------------------------------
# Array cores.  All take (k, ...) arrays of one shape, alternatives on axis
# 0, and broadcast over the trailing axes: (k,) is one belief state, a
# C-ordered (k, n) batch reduces over alternatives along contiguous rows.
# A per-state alternative index (the incumbent, say) travels as the flat
# offsets of its entries (``_offsets``).
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _ranks(k: int, ndim: int) -> np.ndarray:
    """k, k-1, ..., 1 in the smallest unsigned type, shaped (k, 1, ..., 1)."""
    out = np.arange(k, 0, -1, dtype=np.min_scalar_type(k)).reshape((k,) + (1,) * (ndim - 1))
    out.setflags(write=False)
    return out


def _first(mask: np.ndarray) -> np.ndarray:
    """Lowest index at which ``mask`` holds, per state (k if never), as a max over
    axis 0: ``np.argmax`` copies into an alternative-last layout first."""
    k = mask.shape[0]
    return np.subtract(k, (mask.view(np.uint8) * _ranks(k, mask.ndim)).max(axis=0), dtype=np.intp)


def _index_of(x: np.ndarray, value: np.ndarray) -> np.ndarray:
    """First index at which ``x`` equals its max or min ``value``; a NaN comes first, as in argmax."""
    first = _first(x == value)
    if first.max(initial=0) == x.shape[0]:  # a NaN value, which no entry equals
        first = _first((x == value) | np.isnan(x))
    return first


def _argmax(x: np.ndarray) -> np.ndarray:
    return _index_of(x, x.max(axis=0))


@functools.lru_cache(maxsize=16)  # batch shapes: a few per run
def _columns(shape: tuple) -> np.ndarray:
    """0, 1, ..., size - 1 shaped ``shape``: each state's own flat offset."""
    out = np.arange(math.prod(shape)).reshape(shape)
    out.setflags(write=False)
    return out


def _offsets(b: np.ndarray) -> np.ndarray:
    """Flat offsets of the entries ``x[b[j], j]`` of a C-ordered ``(k, *b.shape)`` array
    ``x``: ``x.take`` gathers them and ``x.reshape(-1)[offsets] = ...`` scatters."""
    return b * b.size + _columns(b.shape)


def _sum_alternatives(x: np.ndarray) -> np.ndarray:
    """Sum over alternatives in NumPy's order for a contiguous axis, not axis 0's left to
    right: under 8 terms left to right; up to 128, 8 interleaved partial sums combined
    pairwise, then the rest left to right; beyond, the two halves apart."""
    k = x.shape[0]
    if k < 8:
        return x.sum(axis=0)
    if k > 128:
        half = k // 2 - (k // 2) % 8
        return _sum_alternatives(x[:half]) + _sum_alternatives(x[half:])
    acc = x[:8].copy()
    for i in range(8, k - k % 8, 8):
        acc += x[i:i + 8]
    acc = acc[0::2] + acc[1::2]
    total = (acc[0] + acc[1]) + (acc[2] + acc[3])
    for row in x[k - k % 8:]:
        total += row
    return total + 0.0  # NumPy starts from +0.0, so an all -0.0 sum is +0.0


def shrunk_variance(post_vars: np.ndarray, sampling_vars: np.ndarray, n: float = 1.0) -> np.ndarray:
    """Posterior variance after folding in ``n`` more observations."""
    with np.errstate(divide="ignore"):
        return 1.0 / (1.0 / post_vars + n / sampling_vars)


def _incumbent_geometry(means: np.ndarray):
    """Offsets of the incumbent and the gaps to it.  Subtracting from the maximum,
    not the incumbent's entry, can flip only a zero gap's sign, which no caller sees."""
    top = means.max(axis=0)
    return _offsets(_index_of(means, top)), top - means


def _gap_terms(at_b, sq, v_b, post_vars) -> np.ndarray:
    """``sq / (v_b + post_vars)``, inf at the incumbent; under errstate(divide, invalid)."""
    terms = np.add(post_vars, v_b)
    np.divide(sq, terms, out=terms)
    terms.reshape(-1)[at_b] = np.inf
    return terms


def distance_squared(means: np.ndarray, post_vars: np.ndarray) -> np.ndarray:
    """Minimum squared normalized gap between the incumbent and any challenger."""
    at_b, gaps = _incumbent_geometry(means)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _gap_terms(at_b, np.square(gaps, out=gaps), post_vars.take(at_b),
                          post_vars).min(axis=0)


def _challenger_top3(post_vars: np.ndarray, at_b: np.ndarray):
    """Challenger variances (-inf at the incumbent) and their three largest values,
    ``(v1, v2, v3)``, ties counted with multiplicity; ``v3`` is -inf for two challengers."""
    challengers = np.array(post_vars, dtype=float)
    challengers.reshape(-1)[at_b] = -np.inf
    rest = challengers.copy()
    v1 = rest.max(axis=0)
    rest.reshape(-1)[_offsets(_index_of(rest, v1))] = -np.inf
    v2 = rest.max(axis=0)
    rest.reshape(-1)[_offsets(_index_of(rest, v2))] = -np.inf
    return challengers, v1, v2, rest.max(axis=0)


def _correlation_squared(v_b: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Squared correlation the incumbent's variance induces between two challengers."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rho2 = v_b**2 / ((v_b + v1) * (v_b + v2))
    return np.where(v_b == 0.0, 0.0, rho2)


def correlation_squared_min(post_vars: np.ndarray, is_b: np.ndarray, v_b: np.ndarray) -> np.ndarray:
    """Smallest squared challenger correlation induced by the incumbent's variance.

    The minimum over challenger pairs is attained at the two largest
    challenger variances.  Returns 0 when there are fewer than two
    challengers (k = 2), by convention.
    """
    if post_vars.shape[0] == 2:
        return np.zeros(np.shape(v_b))
    _, v1, v2, _ = _challenger_top3(post_vars, _offsets(_first(is_b)))
    return _correlation_squared(v_b, v1, v2)


def state_features(means: np.ndarray, post_vars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared-gap and squared-correlation features of ``(k, ...)`` belief states."""
    at_b, _ = _incumbent_geometry(means)
    is_b = np.zeros(means.shape, dtype=bool)
    is_b.reshape(-1)[at_b] = True
    return (distance_squared(means, post_vars),
            correlation_squared_min(post_vars, is_b, post_vars.take(at_b)))


def _gap_lookahead(at_b, sq, v_b, post_vars, new_vars) -> np.ndarray:
    """Squared-gap feature after shrinking each candidate's variance to ``new_vars``;
    ``sq`` holds the squared gaps to the incumbent, whose variance is ``v_b``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        base = _gap_terms(at_b, sq, v_b, post_vars)
        m1 = base.min(axis=0)
        at_a1 = _offsets(_index_of(base, m1))
        base.reshape(-1)[at_a1] = np.inf
        m2 = base.min(axis=0)
        # Candidate = challenger j: only j's own term changes, and the least
        # other term is m1, or m2 for the minimizer a1 itself.
        out = np.add(new_vars, v_b)
        np.divide(sq, out, out=out)
        own_a1 = out.take(at_a1)
        np.minimum(out, m1, out=out)
        out.reshape(-1)[at_a1] = np.minimum(own_a1, m2)
        # Candidate = incumbent: all gap terms see the shrunk incumbent variance.
        out.reshape(-1)[at_b] = _gap_terms(at_b, sq, new_vars.take(at_b), post_vars).min(axis=0)
    return out


def aoap_candidate_values(
    means: np.ndarray, post_vars: np.ndarray, sampling_vars: np.ndarray
) -> np.ndarray:
    """One-step look-ahead value of sampling each candidate.

    Sampling the incumbent shrinks the incumbent's variance in every gap
    term; sampling a challenger shrinks only that challenger's own term.
    Every candidate value is at least the current minimum squared gap.
    """
    at_b, gaps = _incumbent_geometry(means)
    return _gap_lookahead(at_b, np.square(gaps, out=gaps), post_vars.take(at_b), post_vars,
                          shrunk_variance(post_vars, sampling_vars))


def aoap_multistep_values(
    means: np.ndarray,
    post_vars: np.ndarray,
    sampling_vars: np.ndarray,
    depth: int,
) -> np.ndarray:
    """Look-ahead value of each first sample over ``depth`` samples.

    Under certainty equivalence the posterior means never move, so the value
    of sampling ``i`` first is the largest squared-gap feature over the
    multisets of ``depth`` samples holding ``i``.  For each incumbent count
    that feature is a min of challenger terms, each set by its own count, so
    water-filling, giving each further sample to the least term, attains the
    max (Ibaraki & Katoh, *Resource Allocation Problems*, 1988).  In floating
    point a first sample can raise a variance by an ulp, so an unsampled
    challenger's variance caps its sampled one: the multiset that leaves it
    unsampled attains that term.  If some multiset makes a term NaN (tied
    means, zero variances), the value is NaN.  Each value is the float one
    multiset scores, for any depth >= 1, at O(depth^2 k^2) work per state.
    """
    check_size(depth, "depth", 1)
    # (alternative, candidate, ...) arrays; each candidate holds its own first sample
    k = means.shape[0]
    shape = (k,) + means.shape
    at_b, gaps = _incumbent_geometry(np.broadcast_to(means[:, None], shape))
    sq = np.square(gaps, out=gaps)
    p, s = (np.broadcast_to(x[:, None], shape) for x in (post_vars, sampling_vars))
    first = np.zeros(shape)
    first[range(k), range(k)] = 1.0
    cap = np.where(first > 0, np.inf, p)  # challengers may stay unsampled, the candidate not

    def levels(counts, v_b):
        v = np.where(counts > 0, np.minimum(shrunk_variance(p, s, counts), cap), p)
        return _gap_terms(at_b, sq, v_b, v)

    best = np.full(means.shape, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for extra_b in range(depth):  # incumbent samples besides the candidate's own
            c_b, p_b = first.take(at_b) + extra_b, p.take(at_b)
            v_b = np.where(c_b > 0, shrunk_variance(p_b, s.take(at_b), c_b), p_b)
            counts, free = first.copy(), depth - 1 - extra_b
            for _ in range(free):
                level = levels(counts, v_b)
                counts.reshape(-1)[_offsets(_index_of(level, level.min(axis=0)))] += 1
            # a term turns NaN only as its count grows: try each at the most it can get
            reach = levels(first + free, v_b).min(axis=0)
            value = levels(counts, v_b).min(axis=0)
            np.maximum(best, np.where(np.isnan(reach), reach, value), out=best)
    return best


def two_factor_candidate_values(
    means: np.ndarray,
    post_vars: np.ndarray,
    sampling_vars: np.ndarray,
    w1: float,
    w2: float,
    activation: str,
) -> np.ndarray:
    """One-step look-ahead value of each candidate under the two-factor score.

    The score combines the squared-gap feature with the smallest squared
    induced correlation; each candidate is evaluated on the state reached
    by shrinking its posterior variance (means are unchanged, so the
    incumbent is unchanged).  Both features are scored in closed form:
    the gap feature exactly as ``aoap_candidate_values``; the correlation
    feature depends on a challenger's variance only through the two
    largest challenger variances, so sampling challenger j moves it only
    when j holds one of them, and the three largest values suffice.
    """
    at_b, gaps = _incumbent_geometry(means)
    v_b = post_vars.take(at_b)
    new_vars = shrunk_variance(post_vars, sampling_vars)
    g1 = _gap_lookahead(at_b, np.square(gaps, out=gaps), v_b, post_vars, new_vars)
    del gaps
    if means.shape[0] == 2:
        return _two_factor_score(g1, np.zeros(g1.shape), w1, w2, activation)
    challengers, v1, v2, v3 = _challenger_top3(post_vars, at_b)
    # The two largest variances of the other challengers once j's own
    # leaves: (v2, v3) if j's is the largest, (v1, v3) if it is the
    # second largest, else (v1, v2).  Comparing values rather than
    # indices is exact under ties: a tied value leaves the same pair behind.
    hi = np.where(challengers >= v1, v2, v1)
    lo = np.where(challengers >= v2, v3, v2)
    del challengers
    # Shrinking j's variance to new_vars puts it back among them: the pair
    # becomes (max(hi, new), max(lo, min(hi, new))), and hi then holds
    # v_b^2 / ((v_b + hi)(v_b + lo)), the correlation feature.
    np.maximum(lo, np.minimum(hi, new_vars), out=lo)
    np.maximum(hi, new_vars, out=hi)
    hi += v_b
    lo += v_b
    hi *= lo
    del lo
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(v_b**2, hi, out=hi)
    np.copyto(hi, 0.0, where=v_b == 0.0)
    hi.reshape(-1)[at_b] = _correlation_squared(new_vars.take(at_b), v1, v2)
    return _two_factor_score(g1, hi, w1, w2, activation)


def kg_candidate_values(
    means: np.ndarray, post_vars: np.ndarray, sampling_vars: np.ndarray
) -> np.ndarray:
    """Expected one-step improvement of the maximal posterior mean.

    For each alternative, the posterior mean after one more observation is
    normal around its current value with standard deviation
    s_i = sqrt(var_i - var_i'); the expected improvement has the usual
    closed form s * (z * Phi(z) + phi(z)) at z = -|gap to best other| / s,
    and 0 where s is not positive.  Below z = -39 both Phi(z) and phi(z) are
    exactly 0 in float64, so the value is exactly +0.0 and only the other
    entries are computed (a NaN z among them).
    """
    from scipy.special import ndtr
    s = post_vars - shrunk_variance(post_vars, sampling_vars)
    np.sqrt(np.maximum(s, 0.0, out=s), out=s)
    # The best other mean is the incumbent's, except for the incumbent itself: the runner-up.
    at_b, z = _incumbent_geometry(means)
    runner_up = np.array(means, dtype=float)
    runner_up.reshape(-1)[at_b] = -np.inf
    z.reshape(-1)[at_b] = means.take(at_b) - runner_up.max(axis=0)
    del runner_up
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.negative(np.abs(z, out=z), out=z), s, out=z)
        live = np.flatnonzero((s > 0.0) & ~(z < -39.0))
        x, s = z.take(live), s.take(live)
        nu = ndtr(x)
        nu *= x
        np.square(x, out=x)
        x *= -0.5
        np.exp(x, out=x)
        x /= math.sqrt(2.0 * math.pi)
        nu += x
        nu *= s
    z.fill(0.0)
    z.reshape(-1)[live] = nu
    return z


def ocba_ratio_core(means: np.ndarray, sampling_vars: np.ndarray) -> np.ndarray:
    """Budget-allocation ratios from plug-in means and sampling variances.

    Challenger ratios scale as (sigma_i / gap_i)^2; the incumbent's ratio
    is sigma_b * sqrt(sum of squared challenger ratios over variances).
    Zero gaps are floored at machine-epsilon scale.
    """
    at_b, gaps = _incumbent_geometry(means)
    floor = np.finfo(float).eps * np.maximum(np.abs(means.take(at_b)), 1.0)
    raw = np.divide(sampling_vars, np.square(np.maximum(gaps, floor, out=gaps), out=gaps), out=gaps)
    raw.reshape(-1)[at_b] = 0.0
    r_b = np.sqrt(sampling_vars.take(at_b)) * np.sqrt(_sum_alternatives(raw**2 / sampling_vars))
    raw.reshape(-1)[at_b] = r_b
    return raw / _sum_alternatives(raw)


def ocba_deficits(
    means: np.ndarray, sampling_vars: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Most-starving scores: target share of the budget minus samples received."""
    return counts.sum(axis=0) * ocba_ratio_core(means, sampling_vars) - counts


def argmax_with_tiebreak(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Argmax over alternatives (axis 0); ties go to fewest samples, then lowest index.
    A NaN value raises ``ValueError``: its state has tied top means and zero variances."""
    tie = values == values.max(axis=0)
    best = _first(tie)
    if best.max() == values.shape[0]:  # a state holding a NaN has a NaN maximum, never equal
        raise ValueError("degenerate state: equal means with zero variances")
    if np.count_nonzero(tie) == best.size:  # one maximum per state: no tie to break
        return best
    fewest = np.where(tie, counts, np.inf)
    return _first(fewest == fewest.min(axis=0))  # counts are never NaN


# ---------------------------------------------------------------------------
# Policy registry.  A score function maps a BatchState and the number of
# samples taken so far to one score per (alternative, state).
# ---------------------------------------------------------------------------


def _ea_score(state: BatchState, t: int) -> np.ndarray:
    scores = np.zeros(state.counts.shape)
    scores[t % scores.shape[0]] = 1.0
    return scores


def _ocba_score(state: BatchState, t: int) -> np.ndarray:
    """Most-starving budget allocation on frequentist plug-in statistics: sample means
    (so every alternative needs an observation) and the sampling variances."""
    if not state.counts.all():
        raise ValueError("sample mean undefined with no observations")
    return ocba_deficits(state.sums / state.counts, state.sampling_vars, state.counts)


# Entries call the array cores through their module-level names.  The
# ``aoap_ms`` entry serves the ids ``aoap_ms<d>`` (look-ahead depth d >= 1).
POLICIES = {
    "ea": _ea_score,
    "aoap": lambda s, t: aoap_candidate_values(s.means, s.post_vars, s.sampling_vars),
    "ocba": _ocba_score,
    "kg": lambda s, t: kg_candidate_values(s.means, s.post_vars, s.sampling_vars),
    "two_factor": lambda s, t, weights: two_factor_candidate_values(
        s.means, s.post_vars, s.sampling_vars,
        float(weights.w[0]), float(weights.w[1]), weights.activation,
    ),
    "aoap_ms": lambda s, t, depth: aoap_multistep_values(
        s.means, s.post_vars, s.sampling_vars, depth
    ),
}


def lookup_policy(policy_id: str):
    """Registry score function of a policy id, and the depth of an ``aoap_ms<d>`` id."""
    name, depth = policy_id, None
    if isinstance(policy_id, str) and policy_id.startswith("aoap_ms"):
        name, depth = "aoap_ms", policy_id[len("aoap_ms"):]
        if not depth.isdecimal() or int(depth) < 1:
            raise ValueError(f"bad multistep policy id {policy_id!r}")
        depth = int(depth)
    if not isinstance(name, str) or name not in POLICIES:
        raise ValueError(f"unknown policy id {policy_id!r}")
    return POLICIES[name], depth


def make_policy(policy_id: str, weights: "VfaWeights | None" = None):
    """Score function of a policy id, bound to its depth or weights (two_factor's alone)."""
    score, depth = lookup_policy(policy_id)
    if policy_id == "two_factor":
        if weights is None:
            raise ValueError("two_factor policy requires fitted weights")
        return functools.partial(score, weights=weights)
    if weights is not None:
        raise ValueError(f"policy {policy_id!r} reads no weights; only two_factor does")
    return score if depth is None else functools.partial(score, depth=depth)


def _defined(values: np.ndarray) -> np.ndarray:
    """``values``, unless one is NaN: the state has tied top means and zero variances."""
    if np.isnan(values).any():
        raise ValueError("degenerate state: equal means with zero variances")
    return values


def decide(score_fn, state: BatchState, t: int) -> np.ndarray:
    """Alternative to sample next in each state: the tie-broken argmax of the scores."""
    return argmax_with_tiebreak(score_fn(state, t), state.counts)


# ---------------------------------------------------------------------------
# Value-approximation features and activations.
# ---------------------------------------------------------------------------


def features(b: BeliefVector) -> tuple[float, float]:
    """Feature pair for value approximation: (min squared gap, min squared correlation)."""
    g1, g2 = _defined(np.array(state_features(b.means, b.post_vars)))
    return float(g1), float(g2)


ACTIVATIONS = {  # name: (K, K'), identity or saturating 1 - exp(-z)
    "linear": (lambda z: z, lambda z: 1.0),
    "expm": (lambda z: 1.0 - np.exp(-z), lambda z: np.exp(-z)),
}


def _activation(name: str):
    """The (K, K') pair of an activation name."""
    if not isinstance(name, str) or name not in ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")
    return ACTIVATIONS[name]


def apply_activation(z, activation: str):
    """Activation K of weighted feature scores (``ACTIVATIONS``)."""
    return _activation(activation)[0](z)


def _two_factor_score(g1, g2, w1, w2, activation: str):
    """Activated weighted feature sum; a zero weight drops its feature (0 * inf is NaN)."""
    weighted = (w1 * g1 if w1 else np.zeros_like(g1)) + (w2 * g2 if w2 else 0.0)
    return apply_activation(weighted, activation)


# ---------------------------------------------------------------------------
# Asymptotically optimal sampling ratios.
# ---------------------------------------------------------------------------


def _ratio_terms(truth: GroundTruth) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Incumbent, challengers, q_i = (gap_i / gap_min)^2 and sig_i = sigma_i / sigma_best."""
    means, svars = truth.means, truth.variances
    if np.any(svars <= 0):
        raise ValueError("optimal ratios require strictly positive variances")
    order = np.lexsort((np.arange(len(means)), -means))
    best, others = int(order[0]), order[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = means[best] - means[others]
        if np.any(gaps <= 0):
            raise ValueError("optimal ratios require a strictly largest mean")
        q = (gaps / gaps.min()) ** 2
        sig = np.sqrt(svars[others]) / math.sqrt(svars[best])
        if not (np.all(np.isfinite(q)) and math.isfinite(sig.sum())):
            raise ValueError("optimal ratios need gap and std ratios within the float range")
    return best, others, q, sig


def optimal_ratios(truth: GroundTruth) -> tuple[RatioVector, int]:
    """Sampling ratios equalizing the false-selection decay rate across challengers.

    With the terms of ``_ratio_terms`` and a slack t > 0, the ratios
    r_i / r_b = sig_i * w_i, w_i = sig_i / ((q_i - 1) + q_i * t), make every
    rate term gap_i^2 / (sigma_i^2/r_i + sigma_b^2/r_b) equal, and the
    incumbent condition r_b = sigma_b * sqrt(sum r_i^2 / sigma_i^2) becomes
    sum w_i^2 = 1.  That sum strictly decreases in t, so one root find
    solves it, bracketed by the slack at which the largest w_i is 1 and by
    ||sig||_2 (equal for k = 2: r_b = sigma_b / (sigma_b + sigma_1)).  Only
    ratios of means and of stds enter, so common scaling changes nothing.
    Returns the ratio vector and the root finder's iteration count (0 when
    the root is a bracket end).
    """
    best, others, q, sig = _ratio_terms(truth)

    def w(t: float) -> np.ndarray:
        # (q - 1) + q*t, not q*(1 + t) - 1: a tiny slack keeps its digits.
        return sig / ((q - 1.0) + q * t)

    def excess(t: float) -> float:
        return float(np.square(w(t)).sum()) - 1.0

    lo, hi = float(np.max((sig - (q - 1.0)) / q)), math.hypot(*sig)
    if excess(lo) <= 0.0:
        t, iters = lo, 0
    elif excess(hi) >= 0.0:
        t, iters = hi, 0
    else:
        t, iters = _brentq(excess, lo, hi, math.ulp(lo))
    ratios = np.ones(len(truth.means))
    ratios[others] = sig * w(t)
    return RatioVector(ratios / ratios.sum()), iters


def _brentq(f, xa: float, xb: float, xtol: float) -> tuple[float, int]:
    """Root of ``f`` in [xa, xb] by Brent's method, and the iteration count.

    A step-for-step port of SciPy's ``brentq`` (``Zeros/brentq.c``) at its
    defaults, rtol = 4 eps and 100 iterations: the same root bits, iteration
    count and errors (ValueError on a NaN value or on f(xa), f(xb) of one
    sign; RuntimeError if not converged).  A bracket end that is a root
    returns at once with count 0, where SciPy leaves its count unset.
    """
    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if (fpre < 0.0) == (fcur < 0.0):  # neither is 0 or NaN, so this is C's signbit test
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    rtol, maxiter = 4.0 * math.ulp(1.0), 100  # ulp(1) is eps
    for iters in range(1, maxiter + 1):
        if (fpre < 0.0) != (fcur < 0.0):  # fcur != 0 here, and fpre was an earlier fcur
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iters
        stry = math.nan  # fails the short-step test below, as C's x/0 steps do
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        bound = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):  # C's MIN
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def ratio_residuals(truth: GroundTruth, ratios: RatioVector) -> tuple[float, float]:
    """Relative spread of the challenger rate terms, and |sum w_i^2 - 1| (see optimal_ratios).

    A challenger whose ratio is below the smallest normal float is left out of the
    spread (which is 0 if none is left): its ratio underflowed, so its rate term
    cannot be formed.
    """
    best, others, q, sig = _ratio_terms(truth)
    w = ratios.ratios[others] / ratios.ratios[best] / sig
    formed = ratios.ratios[others] >= np.finfo(float).tiny
    rates = (q * w / (sig + w))[formed]  # rate_i * sigma_b^2 / (gap_min^2 * r_b)
    spread = float((rates.max() - rates.min()) / rates.max()) if rates.size else 0.0
    return spread, abs(float(np.square(w).sum()) - 1.0)
