"""Monte Carlo harness estimating the expected probability of correct selection.

A macro replication draws a ground truth from the scenario prior, spends a
round-robin warmup of ``n0`` observations per alternative, then runs one
allocation policy to the horizon, recording after every step whether the
max-posterior-mean selection matches the true best alternative.  Summing
the correct selections per step over independently seeded replications
estimates, per step, the unconditional probability of correct selection.

One engine (``_engine``) does the simulating.  Replications are the rows
of a batch, held alternative-major: every per-alternative quantity is a
C-ordered ``(k, n)`` array with one column per row, the layout of
:mod:`ranksel.policies`, whose score function decides a whole batch at
once.  A step samples one alternative per row, so it updates one entry
per column: O(n) work outside the policy, not O(n k).  Fixed-truth runs
(``run_fixed_truths``) use the same engine with given truths, a flat prior
and known variances.  Each row's randomness is the stream of
``PCG64(SeedSequence([master_seed, namespace, index]))``: one vectorized
SeedSequence pass computes every row's seed words, and NumPy seeds the
row's own PCG64 from them.  Replications, ``gmcl_fit``'s histories too,
run in batches of at most ``_CHUNK`` rows; results do not depend on batch
boundaries or worker counts, so any replication can be reproduced alone.
Runs are block-major: each batch draws its noise once and every policy of
``run_specs`` runs on it, so a config's policies share one draw per batch.
Configs are checked by the one JSON input reader (``_json``), which rejects
a key that nothing reads, by name; ``parse_config`` also reads every weights
file, so every input is checked before the first simulation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import policies as pol
from ._json import (anything, check_int, check_size, field, fields, is_int, is_list, is_number,
                    is_numbers, is_object, is_positive_int, is_str)
from .beliefs import GroundTruth, _posterior, posterior_arrays, sample_variances
from .vfa import SaConfig, VfaWeights, gmcl_fit, load_weights

__all__ = [
    "VARIANCE_MODES",
    "Scenario",
    "IpcsCurve",
    "builtin_scenario",
    "BUILTIN_SCENARIOS",
    "estimate_ipcs",
    "replication_features",
    "run_fixed_truths",
    "run_specs",
    "write_results",
    "parse_config",
    "scenario_from_config",
]

VARIANCE_MODES = ("known", "plugin_frozen", "plugin_refresh")
_N_INIT = 2  # warmup observations per alternative of a fixed-truth run
_CHUNK = 4096  # replications per engine batch
_MAX_NORMALS = 2**31  # the most noise a run may draw: 16 GiB of float64


def _check_noise(rows: int, width: int, block: int, row_arg: tuple, width_arg: tuple) -> None:
    """Refuse, before any array is built, ``rows`` rows of ``width`` normals drawn ``block``
    rows at a time; ``row_arg`` and ``width_arg`` are the (name, value) that set them.  A
    block past 2**63 bytes is a ValueError, as NumPy's "array is too big" was; past
    ``_MAX_NORMALS`` a run exceeds the cap (RuntimeError), where NumPy would allocate."""
    if block * width * 8 >= 2**63:
        name, value = width_arg
        raise ValueError(f"{name} makes a noise block of {block} x {width} normals, more than "
                         f"any array can hold, got {value!r}")
    if rows * width > _MAX_NORMALS:
        name, value = width_arg if width > _MAX_NORMALS else row_arg
        raise RuntimeError(f"{name} too large: the run's noise of {rows} x {width} normals "
                           f"exceeds the cap of 2**31 normals (16 GiB), got {value!r}")


def _check_replications(scenario: Scenario, name: str, rows) -> None:
    """``_check_noise`` for ``rows`` replications of the scenario, drawn in ``_CHUNK`` blocks."""
    _check_noise(int(rows), scenario.k + int(scenario.horizon), min(int(rows), _CHUNK),
                 (name, rows), ("horizon", scenario.horizon))


@dataclass(frozen=True)
class Scenario:
    """Experiment configuration: prior, truth-generating model, and budget."""

    prior_means: tuple[float, ...]
    prior_stds: tuple[float, ...]
    sampling_stds: tuple[float, ...]
    horizon: int
    n0: int
    macro_reps: int = 10_000
    master_seed: int = 0
    variance_mode: str = "plugin_refresh"

    def __post_init__(self) -> None:
        for name in ("prior_means", "prior_stds", "sampling_stds"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        for name in ("horizon", "n0"):  # bounded below by the checks against k and the mode
            check_size(getattr(self, name), name)
        check_size(self.macro_reps, "macro_reps", 1)
        check_int(self.master_seed, "master_seed", 0)
        k = self.k
        if k < 2:
            raise ValueError("need at least two alternatives")
        if not len(self.prior_stds) == len(self.sampling_stds) == k:
            raise ValueError("prior and sampling vectors must share one length")
        for name in ("prior_means", "prior_stds", "sampling_stds"):
            if not all(math.isfinite(x) for x in getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not all(s >= 0 and s * s < math.inf for s in self.prior_stds):
            raise ValueError("prior_stds must be nonnegative, with finite squares")
        if not all(s > 0 and 0 < s * s < math.inf for s in self.sampling_stds):
            raise ValueError("sampling_stds must be positive, with squares in the float range")
        if self.variance_mode not in VARIANCE_MODES:
            raise ValueError(f"variance_mode must be one of {VARIANCE_MODES}")
        min_n0 = 1 if self.variance_mode == "known" else 2
        if self.n0 < min_n0:
            raise ValueError(f"n0 must be >= {min_n0} for variance_mode {self.variance_mode}")
        if self.horizon < k * self.n0:
            raise ValueError("horizon must cover the warmup (horizon >= k * n0)")
        zero_prior = [i for i, s in enumerate(self.prior_stds) if s == 0]
        means = [self.prior_means[i] for i in zero_prior]
        if len(set(means)) != len(means):
            raise ValueError("alternatives with zero prior std must have distinct prior means")

    @property
    def k(self) -> int:
        return len(self.prior_means)

    @property
    def warmup(self) -> int:
        return self.k * self.n0

    @property
    def step_grid(self) -> np.ndarray:
        """Sample counts at which correctness is recorded: warmup end through horizon."""
        return np.arange(self.warmup, self.horizon + 1)


def builtin_scenario(name: str) -> Scenario:
    """A named stock scenario."""
    try:
        return BUILTIN_SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; known: {sorted(BUILTIN_SCENARIOS)}")


BUILTIN_SCENARIOS = {
    # Ten alternatives, wide prior spread relative to sampling noise: gaps
    # between true means are typically resolvable within the budget.
    "example1": Scenario(
        prior_means=(0.0,) * 10,
        prior_stds=(1.0,) * 10,
        sampling_stds=(1.0,) * 10,
        horizon=400,
        n0=10,
        master_seed=20260801,
    ),
    # Ten alternatives, tiny prior spread (the first slightly wider):
    # gaps are far below the sampling noise at this budget.
    "example2-lowconf": Scenario(
        prior_means=(0.0,) * 10,
        prior_stds=(0.02,) + (0.01,) * 9,
        sampling_stds=(1.0,) * 10,
        horizon=200,
        n0=10,
        master_seed=20260802,
    ),
    # Intermediate spread between the two cases above.
    "example2-midconf": Scenario(
        prior_means=(0.0,) * 10,
        prior_stds=(0.08,) + (0.04,) * 9,
        sampling_stds=(1.0,) * 10,
        horizon=200,
        n0=10,
        master_seed=20260803,
    ),
}


@dataclass(frozen=True)
class IpcsCurve:
    """Per-step estimate of the probability of correct selection."""

    steps: np.ndarray
    ipcs: np.ndarray
    stderr: np.ndarray
    macro_reps: int

    def __post_init__(self) -> None:
        steps = np.asarray(self.steps, dtype=int)
        ipcs = np.asarray(self.ipcs, dtype=float)
        stderr = np.asarray(self.stderr, dtype=float)
        for name, arr in (("steps", steps), ("ipcs", ipcs), ("stderr", stderr)):
            object.__setattr__(self, name, arr)
        if not (len(steps) == len(ipcs) == len(stderr)):
            raise ValueError("curve arrays must share one length")
        if np.any(np.diff(steps) <= 0):
            raise ValueError("step grid must be strictly increasing")
        if np.any((ipcs < 0) | (ipcs > 1)):
            raise ValueError("ipcs estimates must lie in [0, 1]")

    @classmethod
    def from_counts(cls, steps: np.ndarray, hits: np.ndarray, n: int) -> "IpcsCurve":
        """Curve from correct-selection counts per step over ``n`` replications."""
        p = hits / n
        return cls(steps=steps, ipcs=p, stderr=np.sqrt(p * (1.0 - p) / n), macro_reps=n)


# ---------------------------------------------------------------------------
# Simulation engine.
# ---------------------------------------------------------------------------


_MASK32 = 2**32 - 1


def _uint32_words(values: list[int]) -> tuple[list[np.ndarray], np.ndarray]:
    """SeedSequence's 32-bit words of integers >= 0 as columns, low first, and
    counts; split in ``uint64`` arithmetic, or on Python integers if one is 2^64 or more."""
    values = np.array(values, dtype=np.uint64 if max(values, default=0) < 2**64 else object)
    columns, counts = [(values & _MASK32).astype(np.uint32)], np.ones(len(values), dtype=int)
    while (values := values >> 32).any():
        columns.append((values & _MASK32).astype(np.uint32))
        counts += values > 0
    return columns, counts


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix on uint32 columns; successive calls advance one shared constant."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)  # uint32 arithmetic wraps, as the hash requires
        return value ^ value >> np.uint32(16)
    return hashmix


def _mix(x, y):
    result = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return result ^ result >> np.uint32(16)


def _seed_states(entropy: list[np.ndarray], lengths: np.ndarray) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` for rows of uint32 word columns.

    Row r's entropy is its first ``lengths[r]`` words; the rest are zeros.
    """
    pool_hash, out_hash = _hashmix(0x43B0D7E5, 0x931E8875), _hashmix(0x8B51F9DD, 0x58F38DED)
    zero = np.zeros_like(entropy[0])  # a zero word hashes as the pool's padding does
    pool = [pool_hash(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src, dst in [(src, dst) for src in range(4) for dst in range(4) if src != dst]:
        pool[dst] = _mix(pool[dst], pool_hash(pool[src]))
    for i in range(4, len(entropy)):  # words beyond the pool are mixed into every pool word
        for dst in range(4):
            pool[dst] = np.where(lengths > i, _mix(pool[dst], pool_hash(entropy[i])), pool[dst])
    state = np.stack([out_hash(pool[j % 4]) for j in range(8)], axis=1)
    return state.astype("<u4", copy=False).view("<u8")


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """One row's precomputed ``SeedSequence.generate_state(4, np.uint64)`` words."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _block_normals(master_seed: int, namespace: int, indices, width: int) -> np.ndarray:
    """Row r: the first ``width`` normals of ``PCG64(SeedSequence([master_seed, namespace, i_r]))``.

    One vectorized SeedSequence pass computes every row's seed words, and NumPy seeds
    the row's own PCG64 from them.  The seed, the namespace and every index must pass
    ``check_int`` with a lower bound of 0.
    """
    indices = list(indices)
    for name, value in [("seed", master_seed), ("namespace", namespace)] + [
            ("replication index", i) for i in indices]:
        check_int(value, name, 0)
    prefix = [column[0] for value in (master_seed, namespace)
              for column in _uint32_words([int(value)])[0]]
    columns, counts = _uint32_words([int(i) for i in indices])
    seeds = _seed_states([np.full(len(counts), word) for word in prefix] + columns,
                         len(prefix) + counts)
    z = np.empty((len(counts), width))
    for row, words in zip(z, seeds):
        np.random.Generator(np.random.PCG64(_SeedWords(words))).standard_normal(out=row)
    return z


def _checked(means: np.ndarray, post_vars: np.ndarray, prior_vars: np.ndarray) -> np.ndarray:
    """Posterior means, checked: statistics out of float range leave them NaN or infinite,
    or overflow the precision so that a posterior variance is 0 under a nonzero prior one."""
    if not np.isfinite(means).all():
        raise ValueError("posterior mean is not finite: the sample statistics left the float range")
    if ((post_vars == 0.0) & (prior_vars > 0.0)).any():
        raise ValueError("posterior variance is 0 under a nonzero prior variance: the sample "
                         "statistics left the float range")
    return means


def _engine(score_fn, true_means, true_sds, true_vars, noise, prior_means, prior_vars,
            variance_mode, n0, horizon):
    """Yield the batch state after the round-robin warmup and after every later step.

    Arrays are alternative-major, ``(k, n)`` with one column per row.  Row
    r's observation at step t of alternative a is ``true_means[a, r] +
    true_sds[a, r] * noise[r, t]``; the policy's score function picks a per
    row through ``policies.decide``.  The caller passes ``true_vars`` as
    well as ``true_sds`` because ``sqrt(v)**2`` need not equal ``v``
    bitwise.  Infinite prior variance is a flat prior.  A step changes one
    entry per row, so only that entry's statistics, plug-in variance and
    posterior are recomputed, by the same formulas on ``(n,)`` vectors gathered
    from and scattered to flat views: the bits of a full recompute.  With no zero
    prior variance, the posterior is ``_posterior`` on a precision computed once.
    The one state yielded is updated in place by later steps.  A posterior that
    left the float range raises ``ValueError`` (see ``_checked``).
    """
    k, n = true_means.shape
    counts, sums = np.zeros((k, n)), np.zeros((k, n))
    sumsqs = None if variance_mode == "known" else np.zeros((k, n))
    warmup = k * n0
    for t in range(warmup):
        a = t % k
        obs = true_means[a] + true_sds[a] * noise[:, t]
        counts[a] += 1.0
        sums[a] += obs
        if sumsqs is not None:
            sumsqs[a] += obs**2
    svars = true_vars if sumsqs is None else sample_variances(counts, sums, sumsqs)
    means, post_vars = posterior_arrays(prior_means[:, None], prior_vars[:, None], counts, sums,
                                        svars)
    state = pol.BatchState(_checked(means, post_vars, prior_vars[:, None]), post_vars, svars,
                           counts, sums)
    cols = np.arange(n)
    posterior, prior = ((posterior_arrays, prior_vars) if (prior_vars == 0.0).any()
                        else (_posterior, 1.0 / prior_vars))
    counts, sums, means, post_vars = (x.reshape(-1) for x in (counts, sums, means, post_vars))
    if variance_mode == "plugin_refresh":
        sumsqs, svars = sumsqs.reshape(-1), svars.reshape(-1)

    for t in range(warmup, horizon + 1):
        yield state
        if t == horizon:
            break
        alt = pol.decide(score_fn, state, t)
        at = alt * n + cols
        obs = true_means.take(at) + true_sds[alt, cols] * noise[:, t]  # sds may be broadcast
        c, s = counts.take(at), sums.take(at)
        c += 1.0
        s += obs
        counts[at], sums[at] = c, s
        if variance_mode == "plugin_refresh":
            q = sumsqs.take(at)
            q += obs**2
            sv = sample_variances(c, s, q)
            sumsqs[at], svars[at] = q, sv
        else:
            sv = svars.take(at)
        m, v = posterior(prior_means.take(alt), prior.take(alt), c, s, sv)
        if not (np.isfinite(m).all() and v.all()):  # a bad mean, or a zero variance
            _checked(m, v, prior_vars.take(alt))
        means[at], post_vars[at] = m, v


def _last(states):
    for state in states:
        pass
    return state


def _blocks(indices) -> list:
    """Replication indices in consecutive engine batches of at most ``_CHUNK`` rows
    (slices of a ``range``, which lists no index)."""
    idx = indices if isinstance(indices, range) else list(indices)
    return [idx[lo:lo + _CHUNK] for lo in range(0, len(idx), _CHUNK)]


def _replications(scenario: Scenario, score_fns, indices, namespace=0):
    """Engine runs of a batch of macro replications, one per score function, all on one
    noise draw: (true best per row, one state stream per score function)."""
    n, k, horizon = len(indices), scenario.k, scenario.horizon
    z = _block_normals(scenario.master_seed, namespace, indices, k + horizon)

    prior_means = np.array(scenario.prior_means)
    prior_vars = np.array(scenario.prior_stds) ** 2
    sds = np.broadcast_to(np.array(scenario.sampling_stds)[:, None], (k, n))
    svars = sds**2
    truth = np.ascontiguousarray((prior_means + np.sqrt(prior_vars) * z[:, :k]).T)
    return pol._argmax(truth), [
        _engine(score_fn, truth, sds, svars, z[:, k:], prior_means, prior_vars,
                scenario.variance_mode, scenario.n0, horizon) for score_fn in score_fns]


def _correct_counts(scenario: Scenario, score_fns, indices) -> np.ndarray:
    """Number of replications in the batch selecting correctly, per score function (rows)
    and recorded step (columns)."""
    true_best, runs = _replications(scenario, score_fns, indices)
    return np.array([[np.count_nonzero(pol._argmax(state.means) == true_best) for state in states]
                     for states in runs])


def estimate_ipcs(
    scenario: Scenario,
    policy_id: str,
    weights: VfaWeights | None = None,
    workers: int = 1,
) -> IpcsCurve:
    """Estimate the correct-selection curve over the scenario's replications: the
    one-policy case of ``run_specs``."""
    return run_specs(scenario, [{"id": policy_id, "label": 0, "weights": weights}], workers)[0]


def replication_features(
    scenario: Scenario,
    policy_id: str,
    indices: Iterable[int],
    namespace: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Features and correctness indicators of the final states of replications.

    Returns ``(G, y)`` where row l of ``G`` holds the (squared-gap,
    squared-correlation) features at the horizon of the l-th index and
    ``y[l]`` is its correct-selection indicator.
    """
    _check_policy(policy_id, scenario.horizon - scenario.warmup)
    score_fn = pol.make_policy(policy_id)
    rows = []
    for block in _blocks(indices):
        true_best, (states,) = _replications(scenario, [score_fn], block, namespace)
        final = _last(states)
        g1, g2 = pol.state_features(final.means, final.post_vars)
        rows.append((np.column_stack([g1, g2]), pol._argmax(final.means) == true_best))
    return np.concatenate([G for G, _ in rows]), np.concatenate([y for _, y in rows]).astype(float)


@dataclass(frozen=True)
class FixedTruthRun:
    """Terminal state of policy runs against known ground truths."""

    counts: np.ndarray
    selections: np.ndarray


def run_fixed_truths(
    truths: Sequence[GroundTruth],
    policy_id: str,
    steps: int,
    seed: int = 0,
) -> FixedTruthRun:
    """Run a policy against fixed ground truths with flat priors and known variances.

    Used to study long-run sampling behavior: allocation frequencies and
    the terminal selection.  ``steps`` counts post-initialization samples.
    """
    check_size(steps, "steps", 0)
    _check_policy(policy_id, steps)
    score_fn = pol.make_policy(policy_id)
    means = np.stack([t.means for t in truths], axis=1)
    svars = np.stack([t.variances for t in truths], axis=1)
    if np.any(svars <= 0):
        raise ValueError("fixed-truth runs require strictly positive variances")
    k, n = means.shape
    horizon = _N_INIT * k + int(steps)
    _check_noise(n, horizon, n, ("number of truths", n), ("steps", steps))
    noise = _block_normals(seed, 2, range(n), horizon)
    final = _last(_engine(score_fn, means, np.sqrt(svars), svars, noise, np.zeros(k),
                          np.full(k, np.inf), "known", _N_INIT, horizon))
    return FixedTruthRun(
        counts=final.counts.T.copy(),
        selections=pol._argmax(final.means),
    )


# ---------------------------------------------------------------------------
# Experiment configs and result tables.
# ---------------------------------------------------------------------------


def scenario_from_config(raw) -> Scenario:
    """Build a Scenario from a config value: a built-in name or a mapping."""
    if isinstance(raw, str):
        return builtin_scenario(raw)
    if not is_object(raw):
        raise ValueError(f"scenario must be a name or an object, got {raw!r}")
    values = fields(raw, "scenario", {
        "k": (anything, None), "T": (is_int,), "n0": (is_int,),
        **{key: (is_numbers,) for key in ("prior_means", "prior_stds", "sampling_stds")},
        # Absent optional keys take Scenario's defaults; Scenario checks the mode.
        "macro_reps": (is_int, Scenario.macro_reps), "master_seed": (is_int, Scenario.master_seed),
        "variance_mode": (anything, Scenario.variance_mode),
    })
    k = values.pop("k")
    scenario = Scenario(horizon=values.pop("T"), **values)
    if k not in (None, scenario.k):
        raise ValueError("scenario k does not match its vectors")
    return scenario


def parse_config(config: dict) -> tuple[Scenario, list[dict], dict]:
    """Validate a config mapping into (scenario, policy specs, output options).

    A two_factor spec holds either the ``weights`` of its ``weights_file``, read
    here so that every input is checked before anything runs, or the ``SaConfig``
    of its ``fit``.
    """
    top = fields(config, "config", {
        "scenario": (anything,), "policies": (is_list, []), "output": (is_object, {})})
    scenario = scenario_from_config(top["scenario"])
    specs = []
    for entry in top["policies"]:
        if isinstance(entry, str):
            entry = {"id": entry}
        if not is_object(entry):
            raise ValueError(f"policy entry must be an id or an object: {entry!r}")
        pid = field(entry, "policy", "id", anything)
        _check_policy(pid, scenario.horizon - scenario.warmup)
        sources = {"weights_file": (is_str, None), "fit": (is_object, None)}
        spec = fields(entry, "policy", {
            "id": (anything,), "label": (is_str, pid), **(sources if pid == "two_factor" else {})
        }, f"policy {pid!r}")
        if pid == "two_factor":
            path, fit = spec.pop("weights_file"), spec.pop("fit")
            if path is not None and fit is not None:
                raise ValueError("two_factor policy has both 'weights_file' and 'fit'")
            if path is None and fit is None:
                raise ValueError("two_factor policy needs 'weights_file' or 'fit'")
            if path is None:
                spec["fit"] = _fit_settings(fit, scenario)
            else:
                spec["weights"] = load_weights(path)
        if any(ch in spec["label"] for ch in ',"\r\n'):
            raise ValueError(f"policy label {spec['label']!r} holds a comma, quote or line break")
        if any(other["label"] == spec["label"] for other in specs):
            raise ValueError(f"duplicate policy label {spec['label']!r}")
        specs.append(spec)
    if not specs:
        raise ValueError("config lists no policies")
    output = fields(top["output"], "output",
                    {"path": (is_str, None), "downsample": (is_positive_int, 1)})
    return scenario, specs, output


def _check_policy(policy_id, budget: int) -> None:
    """Reject an unknown policy id, and an ``aoap_ms<d>`` id whose look-ahead d exceeds
    the ``budget`` of samples after warmup: no decision has more left, and each costs O(d^2)."""
    _, depth = pol.lookup_policy(policy_id)
    if depth is not None and depth > budget:
        raise ValueError(f"policy {policy_id!r} looks {depth} samples ahead, but only "
                         f"{budget} follow the warmup (T - k*n0)")


def _fit_settings(fit: dict, scenario: Scenario) -> SaConfig:
    """The ``SaConfig`` of an inline ``fit`` object."""
    settings = fields(fit, "fit", {
        "iterations": (is_int, SaConfig.iterations),
        "seed": (is_int, scenario.master_seed),
        "step_scale": (is_number, SaConfig.step_scale),
        "step_exponent": (is_number, SaConfig.step_exponent),
        "initial_w": (is_numbers, SaConfig.initial_w),
        "activation": (is_str, SaConfig.activation),
    }, "two_factor 'fit'")
    return SaConfig(**{**settings, "initial_w": tuple(settings["initial_w"])})


def run_specs(scenario: Scenario, specs: list[dict], workers: int) -> dict[str, IpcsCurve]:
    """Run policy specs parsed by ``parse_config`` on the scenario; returns curves by label.

    Every spec's policy and look-ahead budget are checked before an inline fit runs;
    the fits run next.  Then each batch of ``_CHUNK`` replications draws its noise
    once and every policy runs on it.  Rows carry their own generators, so each curve
    is the same for any worker count and whatever other policies run beside it.
    """
    check_int(workers, "workers", 1)
    _check_replications(scenario, "macro_reps", scenario.macro_reps)
    for spec in specs:
        _check_policy(spec["id"], scenario.horizon - scenario.warmup)
    score_fns = [pol.make_policy(spec["id"], gmcl_fit(scenario, config=spec["fit"])
                                 if "fit" in spec else spec.get("weights")) for spec in specs]

    def count(block):
        return _correct_counts(scenario, score_fns, block)

    n = scenario.macro_reps
    blocks = _blocks(range(n))
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(count, blocks))
    else:
        hits = sum(map(count, blocks))
    return {spec["label"]: IpcsCurve.from_counts(scenario.step_grid, h, n)
            for spec, h in zip(specs, hits)}


def write_results(results: dict[str, IpcsCurve], path: str, downsample: int = 1) -> None:
    """Write curves as CSV rows (policy, t, ipcs, stderr, macro_reps).

    Rows are sorted by (policy, t) and floats use 10-significant-digit
    formatting, so identical results serialize byte-identically.
    """
    check_int(downsample, "downsample", 1)
    lines = ["policy,t,ipcs,stderr,macro_reps"]
    for label in sorted(results):
        curve = results[label]
        for j in range(0, len(curve.steps), downsample):
            lines.append(
                f"{label},{curve.steps[j]},{curve.ipcs[j]:.10g},"
                f"{curve.stderr[j]:.10g},{curve.macro_reps}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
