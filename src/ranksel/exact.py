"""Exact optimal sampling-and-selection policies for finite-support models.

When both the sampling distributions and the prior have finite support,
the optimal adaptive policy can be computed by backward induction.  The
sufficient statistic for the whole observation history is the vector of
per-alternative outcome counts, because the likelihood is a product over
observations and therefore order-free.  States are keyed by those counts.

``solve_bellman`` materializes only states reachable from the empty
history (forward pass) and then runs backward induction, one level (number
of samples taken) at a time on arrays.  With D = sum of the support sizes,
column ``d = s_0 + ... + s_{i-1} + j`` stands for outcome j of alternative
i.  Level t holds its S_t states as an (S_t, D) count matrix and their
unnormalized posterior weights as an (S_t, r) array; counts are kept in
the narrowest signed integer type that holds the horizon (int8 up to
127, int16 up to 2^15 - 1).  Every level lists its states in descending
lexicographic order of their counts: ascending order of rank, a state's
place among all count vectors of its sum in the combinatorial number
system.  A level's children are every parent row plus one unit vector
that has positive predictive probability; each child's rank follows from
its parent's in closed form, one sort of those ranks finds the distinct
children, and a child keeps the weights of the first (parent, column),
in parent-major then column order, that reaches it.  An (S_t, D) table
maps each (state, column) to its child's row at level t + 1, or -1 when
pruned, in the narrowest signed type that holds the final level's state
count; with the (S_t, D) predictive table it is freed as soon as the
backward pass has gathered child values through it.  Sums over prior
points run left to right, so every value equals that of the per-state
recursion bit for bit.  The result, ``SolvedPolicy``, keeps these count
matrices, with value and action arrays aligned with their rows.

An independent oracle, ``brute_force_value``, evaluates the same problem
by exhaustive expectimax over raw observation histories, never collapsing
them to counts; the two must agree to tight tolerance on any model small
enough for both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._json import anything, check_int, fields, read_object

__all__ = [
    "DiscreteModel",
    "DiscreteState",
    "SolvedPolicy",
    "solve_bellman",
    "brute_force_value",
    "state_space_size",
    "state_space_bounds",
    "BernoulliPriorSpec",
    "NormalPriorSpec",
    "discretize_prior",
    "load_model",
    "save_model",
]

_PMF_TOL = 1e-12
_PATH_CAP = 10**5  # most raw histories brute_force_value expands, (k * s_max)^T
_MAX_GRID = 10**5  # most prior points, and most observation cells, discretize_prior builds
_MAX_BOUND_BITS = 10**5  # most bits of a state count or bound, as estimated before it is formed


@dataclass(frozen=True, eq=False)
class DiscreteModel:
    """Finite-support sampling model with a finite-support prior.

    The constructor takes nested sequences and keeps read-only arrays.

    Attributes
    ----------
    support : nested tuple
        ``support[i][j]`` is the j-th possible outcome of alternative i; finite.
    prior_points : tuple
        Labels for the prior support points (display only; the model
        content lives in ``sampling_pmf``).
    prior_pmf : (r,) float array
        Prior probability of each support point; sums to 1.
    sampling_pmf : (r, D) float array
        Given point-major, ``sampling_pmf[m][i][j]`` is the probability that
        alternative i yields outcome j when the m-th parameter point is true;
        it is stored in column ``s_0 + ... + s_{i-1} + j``, where s_i is the
        support size of alternative i and D their sum.
    reward : str
        ``"PCS"`` (indicator of selecting a best-mean alternative) or
        ``"EOC"`` (selected mean minus best mean; nonpositive).
    rewards : (r, k) float array
        The finite reward of selecting alternative i if the m-th point is
        true.  Under PCS every alternative attaining the maximal mean scores 1.
    """

    support: tuple[tuple[float, ...], ...]
    prior_points: tuple
    prior_pmf: np.ndarray
    sampling_pmf: np.ndarray
    reward: str = "PCS"
    rewards: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(tuple(map(float, row)) for row in self.support))
        object.__setattr__(self, "prior_points", tuple(self.prior_points))
        prior = np.array(list(map(float, self.prior_pmf)))
        if self.reward not in ("PCS", "EOC"):
            raise ValueError(f"reward must be 'PCS' or 'EOC', got {self.reward!r}")
        if self.k < 2:
            raise ValueError("need at least two alternatives")
        if len(self.prior_points) != self.r or len(self.sampling_pmf) != self.r:
            raise ValueError("prior support, pmf, and sampling pmfs must align")
        if abs(prior.sum() - 1.0) > _PMF_TOL:
            raise ValueError("prior pmf must sum to 1")
        if not ((prior >= 0.0) & (prior <= 1.0)).all():
            raise ValueError("prior pmf entries must lie in [0, 1]")
        if set(map(len, self.sampling_pmf)) != {self.k}:
            raise ValueError("sampling pmf must cover every alternative")
        # One (r, s_i) table per alternative: support sizes may differ.
        tables = []
        for i, outcomes in enumerate(self.support):
            rows = [per_alt[i] for per_alt in self.sampling_pmf]
            if set(map(len, rows)) != {len(outcomes)}:
                raise ValueError("sampling pmf must match the outcome support")
            tables.append(np.array(rows, dtype=float).reshape(self.r, len(outcomes)))
        bad_sum = np.array([np.abs(a.sum(axis=1) - 1.0) > _PMF_TOL for a in tables]).T
        bad_range = np.array([~((a >= 0.0) & (a <= 1.0)).all(axis=1) for a in tables]).T
        bad = np.flatnonzero(bad_sum | bad_range)  # (point, alternative) order
        if bad.size:
            m, i = divmod(int(bad[0]), self.k)
            if bad_sum[m, i]:
                raise ValueError(f"sampling pmf for point {m}, alternative {i} must sum to 1")
            raise ValueError("sampling probabilities must lie in [0, 1]")
        if not np.isfinite(np.concatenate(self.support)).all():
            raise ValueError("support values must be finite")
        # Means sum over outcomes left to right, as the solver sums over prior points.
        means = np.hstack([_sum_over_points(table, np.array(outcomes)[:, None])
                           for outcomes, table in zip(self.support, tables)])
        best = means.max(axis=1, keepdims=True)
        with np.errstate(over="ignore"):  # the check below reports an overflow
            rewards = (means == best).astype(float) if self.reward == "PCS" else means - best
        if not np.isfinite(rewards).all():
            raise ValueError("rewards must be finite: the means or their differences overflow")
        sampling = np.hstack(tables)
        for name, array in (("prior_pmf", prior), ("sampling_pmf", sampling), ("rewards", rewards)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def k(self) -> int:
        return len(self.support)

    @property
    def r(self) -> int:
        return len(self.prior_pmf)

    @property
    def support_sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.support)

    def empty_state(self) -> "DiscreteState":
        return DiscreteState(tuple(tuple(0 for _ in s) for s in self.support))


@dataclass(frozen=True)
class DiscreteState:
    """Outcome counts per alternative: the sufficient statistic of a history."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        counts = tuple(map(tuple, self.counts))
        for row in counts:
            for c in row:
                check_int(c, "count", 0)
        object.__setattr__(self, "counts", tuple(tuple(map(int, row)) for row in counts))

    def bump(self, i: int, j: int) -> "DiscreteState":
        row = list(self.counts[i])
        row[j] += 1
        counts = list(self.counts)
        counts[i] = tuple(row)
        return DiscreteState(tuple(counts))


@dataclass(eq=False)
class SolvedPolicy:
    """Output of backward induction: the solver's level arrays.

    ``counts[t]`` is the (S_t, D) count matrix of the reachable states
    with ``t`` samples, in descending lexicographic order; a row holds the
    outcome counts of every alternative side by side, ``support_sizes[i]``
    columns for alternative i, in the narrowest signed integer type that
    holds ``horizon`` (int8 up to 127, int16 up to 2^15 - 1).
    ``values[t]`` (t = 0..horizon) and ``allocation[t]`` (t < horizon, the
    alternative to sample next) are aligned with those rows, and so is
    ``selection``, the alternative to select at each terminal state.
    Argmax ties break toward the lowest alternative index.  ``row`` finds
    a state's row.
    """

    horizon: int
    reward: str
    value: float
    support_sizes: tuple[int, ...]
    counts: dict[int, np.ndarray] = field(repr=False)
    values: dict[int, np.ndarray] = field(repr=False)
    allocation: dict[int, np.ndarray] = field(repr=False)
    selection: np.ndarray = field(repr=False)

    def row(self, t: int, state: DiscreteState) -> int:
        """Row of ``state`` in level t's arrays; KeyError if it is not reachable."""
        level = self.counts[t]
        if tuple(map(len, state.counts)) == self.support_sizes:
            flat = [c for per_alt in state.counts for c in per_alt]
            hits = np.flatnonzero((level == flat).all(axis=1))
            if hits.size:
                return int(hits[0])
        raise KeyError((t, state.counts))

    def allocation_at(self, t: int, state: DiscreteState) -> int:
        return int(self.allocation[t][self.row(t, state)])

    def selection_at(self, state: DiscreteState) -> int:
        return int(self.selection[self.row(self.horizon, state)])

    def dump_table(self, path: str) -> None:
        """Write a human-readable policy table, each level's states in ascending order."""
        bounds = np.cumsum((0, *self.support_sizes)).tolist()
        with open(path, "w") as fh:
            fh.write(f"# horizon={self.horizon} reward={self.reward} value={self.value!r}\n")
            fh.write("# kind\tt\tstate\taction\tvalue\n")
            levels = [("allocate", self.allocation[t]) for t in range(self.horizon)]
            for t, (kind, actions) in enumerate(levels + [("select", self.selection)]):
                # Reversed: ascending order.  .tolist() yields Python ints and floats,
                # whose reprs differ from those of numpy scalars.
                for flat, action, value in zip(
                    self.counts[t][::-1].tolist(),
                    actions[::-1].tolist(),
                    self.values[t][::-1].tolist(),
                ):
                    state = ";".join(
                        ",".join(map(str, flat[lo:hi])) for lo, hi in zip(bounds, bounds[1:])
                    )
                    fh.write(f"{kind}\t{t}\t{state}\t{action}\t{value!r}\n")


def _sum_over_points(weights: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Row-wise ``sum(weights[:, m] * factors[m] for m in range(r))``, shape (S, X).

    ``weights`` is (S, r) and ``factors`` (r, X).  Each entry accumulates
    over the prior points m left to right, as a scalar loop over one state
    would, so the two agree bit for bit; the final ``+ 0.0`` turns a sum of
    -0.0 terms into the +0.0 that a loop starting from 0.0 gives.
    """
    terms = np.empty(weights.shape)
    acc = np.empty((weights.shape[0], factors.shape[1]))
    for x in range(factors.shape[1]):
        np.multiply(weights, factors[:, x], out=terms)
        acc[:, x] = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    acc += 0.0
    return acc


def _signed_type(n: int) -> np.dtype:
    """Narrowest signed integer type that holds 0..n (int8 to 127, int16 to 2^15 - 1)."""
    return np.min_scalar_type(-n - 1)


def solve_bellman(model: DiscreteModel, horizon: int, state_cap: int = 10**7) -> SolvedPolicy:
    """Backward induction over reachable count states up to ``horizon``.

    A forward pass enumerates, level by level, every state reachable with
    positive predictive probability; backward induction then fills values,
    allocations, and the terminal selection.  Each level is a set of
    arrays (see the module docstring), its states in descending
    lexicographic order of their counts; every value, allocation and
    selection is bit-identical to the per-state recursion's.  More than
    2^63 - 1 states at the horizon raise, whatever ``state_cap`` says.
    """
    check_int(horizon, "horizon", 0)
    check_int(state_cap, "state_cap", 1)
    n_states = state_space_size(horizon, model.k, model.support_sizes)
    cap = min(state_cap, 2**63 - 1)  # ranks and rows need a fixed-width integer type
    if n_states > cap:
        raise RuntimeError(
            f"state space too large: {n_states} states at the final step "
            f"exceeds the cap of {cap}"
        )

    # Column d = offset(i) + j of a level stands for outcome j of alternative i.
    q = model.sampling_pmf
    alternative = np.repeat(np.arange(model.k), model.support_sizes)
    n_cols = len(alternative)
    ones = np.ones((model.r, 1))

    # Forward pass.  Unnormalized posterior weights propagate incrementally:
    # appending outcome j of alternative i multiplies weight m by q[m, offset(i) + j].
    # A level's rows are its states in ascending order of rank, the number of count
    # vectors of the same sum that are lexicographically larger: the sum over columns i
    # of C(A_i - 1 + r_i, r_i), where A_i is the number of samples to the right of column
    # i, r_i = D - 1 - i, and a term with A_i = 0 is 0.  Appending column d raises A_i by
    # one for each i < d, and so, by Pascal's rule, the rank by rise[A_i, i] =
    # C(A_i + r_i - 1, r_i - 1) for each.  A child keeps the weights of the first
    # (parent, column), in parent-major order, that reaches it.
    row_type = _signed_type(n_states)  # no rank, rise or row index exceeds n_states
    rise = np.array([[math.comb(a + r - 1, r - 1) for r in range(n_cols - 1, 0, -1)]
                     for a in range(horizon)], dtype=row_type)
    counts = [np.zeros((1, n_cols), dtype=_signed_type(horizon))]
    ranks = np.zeros(1, dtype=row_type)
    weights = model.prior_pmf[None]
    preds: list[np.ndarray] = []
    children: list[np.ndarray] = []
    for t in range(horizon):
        pred = _sum_over_points(weights, q) / _sum_over_points(weights, ones)
        reached = np.flatnonzero(pred > 0.0)
        right = t - np.cumsum(counts[-1][:, :-1], axis=1, dtype=counts[-1].dtype)  # A_i
        step = np.zeros(pred.shape, dtype=row_type)  # the child's rank minus the parent's
        np.cumsum(rise[right, np.arange(n_cols - 1)], axis=1, dtype=row_type, out=step[:, 1:])
        step += ranks[:, None]  # now the child's rank
        ranks, first, index = np.unique(
            step.reshape(-1)[reached], return_index=True, return_inverse=True)
        child = np.full(pred.size, -1, dtype=row_type)
        child[reached] = index
        parent, col = np.divmod(reached[first], n_cols)
        level = counts[-1][parent]
        level[np.arange(len(first)), col] += 1
        preds.append(pred)
        children.append(child.reshape(pred.shape))
        counts.append(level)
        weights = weights[parent] * q[:, col].T

    # Terminal layer: optimal selection (np.argmax takes the lowest index on ties).
    post = weights / _sum_over_points(weights, ones)
    scores = _sum_over_points(post, model.rewards)
    selection_arr = np.argmax(scores, axis=1)
    level_values = [None] * horizon + [scores[np.arange(len(scores)), selection_arr]]

    # Backward induction over allocations.
    allocation_arr: list[np.ndarray] = [None] * horizon
    for t in range(horizon - 1, -1, -1):
        pred, child = preds.pop(), children.pop()  # level t's, freed once consumed
        terms = np.where(child >= 0, pred * level_values[t + 1][child], 0.0)
        scores = np.zeros((len(pred), model.k))
        for d, i in enumerate(alternative):  # from 0.0 over outcomes j, left to right
            scores[:, i] += terms[:, d]
        allocation_arr[t] = np.argmax(scores, axis=1)
        level_values[t] = scores[np.arange(len(scores)), allocation_arr[t]]

    return SolvedPolicy(
        horizon=horizon,
        reward=model.reward,
        value=float(level_values[0][0]),  # level 0 is the empty state alone
        support_sizes=model.support_sizes,
        counts=dict(enumerate(counts)),
        values=dict(enumerate(level_values)),
        allocation=dict(enumerate(allocation_arr)),
        selection=selection_arr,
    )


def brute_force_value(model: DiscreteModel, horizon: int) -> float:
    """Expectimax over raw observation histories; oracle for ``solve_bellman``.

    Histories are never collapsed to counts and nothing is memoized: each
    node recomputes the posterior from the full raw sequence.  Exhausts
    every adaptive deterministic policy, so the root value equals the
    optimum.
    """
    check_int(horizon, "horizon", 0)
    s_max = max(model.support_sizes)
    if (model.k * s_max) ** horizon > _PATH_CAP:
        raise RuntimeError(
            f"history tree too large: (k*s_max)^T = {(model.k * s_max) ** horizon} "
            f"exceeds the cap of {_PATH_CAP}"
        )

    # A history is a tuple of columns offset(i) + j, one per observation, in order.
    prior, q, rewards = (a.tolist() for a in (model.prior_pmf, model.sampling_pmf, model.rewards))
    bounds = np.cumsum((0, *model.support_sizes)).tolist()

    def history_posterior(history: tuple[int, ...]) -> list[float]:
        weights = []
        for m, w in enumerate(prior):
            for d in history:
                w *= q[m][d]
            weights.append(w)
        total = sum(weights)
        if total <= 0.0:
            raise ValueError("history has zero probability under every prior point")
        return [w / total for w in weights]

    def value(history: tuple[int, ...]) -> float:
        post = history_posterior(history)
        if len(history) == horizon:
            return max(
                sum(rewards[m][i] * post[m] for m in range(model.r)) for i in range(model.k)
            )
        best = -math.inf
        for i in range(model.k):
            v = 0.0
            for d in range(bounds[i], bounds[i + 1]):
                pred = sum(q[m][d] * post[m] for m in range(model.r))
                if pred > 0.0:
                    v += pred * value(history + (d,))
            best = max(best, v)
        return best

    return value(())


def _count_arguments(t: int, k: int, supports: Sequence[int]) -> tuple[int, int, list[int]]:
    """``state_space_size``'s arguments as Python integers, once they pass its checks."""
    check_int(t, "t", 0)
    check_int(k, "k", 0)
    sizes = list(supports)
    for s in sizes:
        check_int(s, "support size", 2)
    if len(sizes) != k:
        raise ValueError("need one support size per alternative")
    return int(t), int(k), [int(s) for s in sizes]


def state_space_size(t: int, k: int, supports: Sequence[int]) -> int:
    """Number of distinct count states after ``t`` samples over ``k`` alternatives.

    A state spreads ``t`` samples over the D (alternative, outcome) cells,
    D the sum of the support sizes, so there are C(t + D - 1, D - 1) of
    them: exact integers, but past about 10^5 bits RuntimeError, raised before any product.
    """
    t, k, sizes = _count_arguments(t, k, supports)
    if k == 0:
        return int(t == 0)
    cells = sum(sizes)
    bits = min(t, cells - 1) * (t + cells - 1).bit_length()
    if bits > _MAX_BOUND_BITS:
        raise RuntimeError(f"state space too large: a count of up to {bits} bits exceeds the "
                           f"cap of {_MAX_BOUND_BITS}")
    return math.comb(t + cells - 1, cells - 1)


def state_space_bounds(t: int, k: int, supports: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Analytic lower/upper bounds on ``state_space_size`` (exact rationals).

    The lower bound evaluates the most balanced valid split of ``t``
    samples, so it uses floor(t/k); the ceiling variant overshoots the true
    count for small ``t`` not divisible by ``k`` (e.g. three binary
    alternatives and one sample admit 6 states, not 2^3).  Both forms agree
    whenever ``k`` divides ``t``.  Arguments are checked as ``state_space_size``'s.
    An upper numerator of more than about 10^5 bits raises RuntimeError before
    any big-integer power is taken.
    """
    t, k, sizes = _count_arguments(t, k, supports)
    if k < 1:
        raise ValueError("bounds need k >= 1")
    s_hi = max(sizes)
    bits = k * s_hi * (s_hi + t + k - 1).bit_length()
    if bits > _MAX_BOUND_BITS:
        raise RuntimeError(f"bounds too large: a numerator of up to {bits} bits exceeds the "
                           f"cap of {_MAX_BOUND_BITS}")
    s_lo = min(sizes)
    lower = (1 + Fraction(t // k, s_hi - 1)) ** (k * (s_lo - 1))
    upper = Fraction(
        (s_hi + t + k - 1) ** (k * s_hi),
        math.factorial(s_hi - 1) * math.factorial(k - 1),
    )
    return lower, upper


@dataclass(frozen=True)
class BernoulliPriorSpec:
    """Independent Beta priors over per-alternative success probabilities."""

    alphas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if len(self.alphas) != len(self.betas):
            raise ValueError("alphas and betas must have equal length")
        if any(a <= 0 for a in self.alphas) or any(b <= 0 for b in self.betas):
            raise ValueError("Beta hyper-parameters must be positive")


@dataclass(frozen=True)
class NormalPriorSpec:
    """Independent normal priors over means, known sampling variances."""

    prior_means: tuple[float, ...]
    prior_stds: tuple[float, ...]
    sampling_stds: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("prior_means", "prior_stds", "sampling_stds"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        if not len(self.prior_means) == len(self.prior_stds) == len(self.sampling_stds):
            raise ValueError("prior spec vectors must have equal length")
        if any(s <= 0 for s in self.prior_stds):
            raise ValueError("prior stds must be positive for discretization")
        if any(s <= 0 for s in self.sampling_stds):
            raise ValueError("sampling stds must be positive")


def discretize_prior(
    spec,
    grid_points: int,
    reward: str = "PCS",
    obs_grid_points: int | None = None,
) -> DiscreteModel:
    """Approximate a continuous-prior model by a finite-support one.

    Each marginal prior is replaced by an equal-probability-mass quantile
    grid with ``grid_points`` cells; the joint prior support is the product
    grid.  For normal sampling, observations are additionally binned into
    ``obs_grid_points`` cells (default ``grid_points``) of the marginal
    predictive distribution.  The result is an approximation whose quality
    improves with grid size.  A product grid of more than 10^5 prior
    points, or more than 10^5 observation cells, raises RuntimeError.
    """
    check_int(grid_points, "grid_points", 2)
    if obs_grid_points is not None:
        check_int(obs_grid_points, "obs_grid_points")
    if not isinstance(spec, (BernoulliPriorSpec, NormalPriorSpec)):
        raise ValueError(f"unsupported prior family: {type(spec).__name__}")
    normal = isinstance(spec, NormalPriorSpec)
    if int(grid_points) ** len(spec.prior_means if normal else spec.alphas) > _MAX_GRID:
        raise RuntimeError(f"product prior grid exceeds {_MAX_GRID} points")
    if normal:
        obs_points = grid_points if obs_grid_points is None else obs_grid_points
        check_int(obs_points, "obs_grid_points", 2)
        if obs_points > _MAX_GRID:
            raise RuntimeError(f"observation grid exceeds {_MAX_GRID} cells")
    from scipy import stats  # lazy: slow to import, and nothing else here needs it

    mids = (2 * np.arange(grid_points) + 1) / (2 * grid_points)
    # Each family gives, per alternative, its prior quantiles at the cell midpoints, its
    # outcome support and a table whose row m is the outcome pmf at the m-th quantile.
    if not normal:
        grids = [stats.beta.ppf(mids, a, b) for a, b in zip(spec.alphas, spec.betas)]
        support = [(0.0, 1.0)] * len(grids)
        tables = [np.column_stack([1.0 - p, p]) for p in grids]
    else:
        grids = [stats.norm.ppf(mids, m, s) for m, s in zip(spec.prior_means, spec.prior_stds)]
        # Observations are binned into equal-mass cells of the marginal predictive.  Its
        # quantiles at every half cell alternate cell midpoints (the outcome support) and
        # inner bin edges: 2j / 2n rounds to the same float as j / n.
        halves = np.arange(1, 2 * obs_points) / (2 * obs_points)
        support, tables = [], []
        for grid, m, s, sd in zip(grids, spec.prior_means, spec.prior_stds, spec.sampling_stds):
            q = stats.norm.ppf(halves, m, math.hypot(s, sd))
            edges = np.concatenate([[-np.inf], q[1::2], [np.inf]])
            support.append(q[::2])
            tables.append(np.diff(stats.norm.cdf((edges - grid[:, None]) / sd), axis=1))
    # The product grid's points in row-major order and, alongside, their (r, k, s) pmfs.
    index = np.indices((grid_points,) * len(grids)).reshape(len(grids), -1)
    prior_points = list(zip(*(grid[ix].tolist() for grid, ix in zip(grids, index))))
    return DiscreteModel(
        support=support,
        prior_points=prior_points,
        prior_pmf=[1.0 / len(prior_points)] * len(prior_points),
        sampling_pmf=np.stack([table[ix] for table, ix in zip(tables, index)], axis=1),
        reward=reward,
    )


def save_model(model: DiscreteModel, path: str) -> None:
    bounds = np.cumsum((0, *model.support_sizes)).tolist()
    payload = {
        "k": model.k,
        "support": [list(s) for s in model.support],
        "prior_support": [
            list(p) if isinstance(p, (tuple, list)) else p for p in model.prior_points
        ],
        "prior_pmf": model.prior_pmf.tolist(),
        "sampling_pmf": [
            [row[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            for row in model.sampling_pmf.tolist()
        ],
        "reward": model.reward,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def load_model(path: str) -> DiscreteModel:
    """Read a model file written by ``save_model``; malformed files raise ValueError."""
    payload = fields(read_object(path, "model file"), "model file", {
        "k": (anything,), "support": (anything,), "prior_support": (anything,),
        "prior_pmf": (anything,), "sampling_pmf": (anything,), "reward": (anything, "PCS")})
    try:
        model = DiscreteModel(
            support=payload["support"],
            prior_points=[
                tuple(p) if isinstance(p, list) else p for p in payload["prior_support"]
            ],
            prior_pmf=payload["prior_pmf"],
            sampling_pmf=payload["sampling_pmf"],
            reward=payload["reward"],
        )
    except TypeError as err:
        raise ValueError(f"malformed model file: {err}") from None
    if model.k != payload["k"]:
        raise ValueError("model file k does not match its support")
    return model
