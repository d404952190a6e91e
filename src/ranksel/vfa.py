"""Monte Carlo learning of feature weights for the selection value score.

The weighted feature score ``K(w . g)`` is fitted to correct-selection
indicators observed on simulated sampling histories, by projected
stochastic approximation on the least-squares objective

    J(w) = E[(K(w . g) - 1{selection correct})^2],

one fresh simulated history per iteration.  For the linear activation the
objective is convex (its Hessian is twice the second-moment matrix of the
features), so a box-constrained least-squares solve provides an
independent oracle for the stochastic iteration.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from ._json import anything, check_int, check_size, fields, is_numbers, read_object
from .policies import _activation, _two_factor_score

__all__ = [
    "VfaWeights",
    "SaConfig",
    "vfa_eval",
    "gmcl_gradient",
    "sa_minimize",
    "gmcl_fit",
    "linear_lsq_oracle",
    "save_weights",
    "load_weights",
]

DEFAULT_BOX_BOUND = 100.0


@dataclass(frozen=True)
class VfaWeights:
    """The two-factor policy's weight pair, each in [0, DEFAULT_BOX_BOUND], with its activation."""

    w: np.ndarray
    activation: str = "linear"

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.shape != (2,):
            raise ValueError("two-factor policy needs exactly two weights")
        if not np.all((w >= 0) & (w <= DEFAULT_BOX_BOUND)):  # also rejects NaN
            raise ValueError(f"weights must lie in [0, {DEFAULT_BOX_BOUND:g}], got {w.tolist()}")
        _activation(self.activation)


@dataclass(frozen=True)
class SaConfig:
    """Settings of one weight fit: steps step_scale * l^(-step_exponent), with the exponent
    in (0.5, 1] so the step sums diverge while their squares converge; the start weight
    pair; the seed of the simulated histories; and the activation."""

    step_scale: float = 10.0
    step_exponent: float = 2.0 / 3.0
    iterations: int = 10_000
    initial_w: tuple[float, float] = (1.0, 1.0)
    seed: int = 0
    activation: str = "linear"

    def __post_init__(self) -> None:
        check_size(self.iterations, "iterations", 1)
        check_int(self.seed, "seed", 0)
        if not 0 < self.step_scale < np.inf:
            raise ValueError(f"step_scale must be positive and finite, got {self.step_scale}")
        if not 0.5 < self.step_exponent <= 1.0:
            raise ValueError("step_exponent must lie in (0.5, 1]")
        VfaWeights(self.initial_w, self.activation)

    def step(self, l: int) -> float:
        return self.step_scale * l ** (-self.step_exponent)


def vfa_eval(weights: VfaWeights, g: Sequence[float]) -> float:
    """Score a feature pair as the two-factor policy does: K(w . g), less zero-weight terms."""
    g = np.asarray(g, dtype=float)
    if g.shape != weights.w.shape:
        raise ValueError(f"feature length {g.shape} does not match weights {weights.w.shape}")
    return float(_two_factor_score(*g, *weights.w, weights.activation))


def gmcl_gradient(g: Sequence[float], indicator: float, weights: VfaWeights) -> np.ndarray:
    """Single-sample gradient estimate: residual times the score gradient."""
    return _gradient(weights.w, g, indicator, *_activation(weights.activation))


def _gradient(w, g, indicator, K, K_prime):
    g = np.asarray(g, dtype=float)
    z = float(w[0] * g[0] + w[1] * g[1])  # the two-factor score's sum, with no BLAS call
    return (K(z) - indicator) * (K_prime(z) * g)


def sa_minimize(
    features: np.ndarray,
    indicators: np.ndarray,
    config: SaConfig,
    average_tail: float = 0.0,
) -> VfaWeights:
    """Projected stochastic gradient descent on the least-squares objective.

    Iteration l uses row (l - 1) mod n of the n frozen (features, indicator)
    pairs; iterates are clipped to [0, DEFAULT_BOX_BOUND] after every step.
    By default the final iterate is returned; ``average_tail=q`` returns
    instead the average of the last ``q`` fraction of iterates (Polyak-style
    averaging, which suppresses the oscillation of the final iterate on
    ill-conditioned objectives without changing the limit).
    """
    features = np.asarray(features, dtype=float)
    indicators = np.asarray(indicators, dtype=float)
    n = len(indicators)
    if len(features) != n or n == 0:
        raise ValueError(f"need one indicator per feature row and at least one row, "
                         f"got {len(features)} rows and {n} indicators")
    if not 0.0 <= average_tail < 1.0:
        raise ValueError("average_tail must lie in [0, 1)")
    w = np.array(config.initial_w, dtype=float)  # a weight pair: SaConfig checked it
    K, K_prime = _activation(config.activation)
    tail = int(config.iterations * average_tail)
    acc = np.zeros_like(w)
    for l in range(1, config.iterations + 1):  # w stays in the box: no VfaWeights per step
        g, y = features[(l - 1) % n], float(indicators[(l - 1) % n])
        w = (w - config.step(l) * _gradient(w, g, y, K, K_prime)).clip(0.0, DEFAULT_BOX_BOUND)
        if not np.isfinite(w).all():
            raise RuntimeError(
                f"stochastic approximation diverged at iteration {l}: w={w!r}, "
                f"features={g!r}, indicator={y!r}"
            )
        if l > config.iterations - tail:
            acc += w
    if tail:
        w = acc / tail
    return VfaWeights(w, config.activation)


def gmcl_fit(
    scenario,
    horizon: int | None = None,
    generator_policy: str = "ea",
    config: SaConfig | None = None,
) -> VfaWeights:
    """Fit feature weights against fresh simulated histories.

    Each iteration uses one new independent history: a ground truth
    sampled from the scenario prior, a run of ``generator_policy`` (which
    must not depend on the weights) to the horizon, then the features and
    the correct-selection indicator of the final state.  Exactly
    ``iterations`` histories are simulated, as replications 0 to
    ``iterations - 1`` of namespace 1 under the config seed, and the SA pass
    runs once through them.  A history with a non-finite feature (zero
    posterior variances, as with zero prior stds and known variances)
    raises ValueError: the weights are not identified from it.
    """
    from .experiment import _check_replications, replication_features

    config = config or SaConfig()
    scenario = replace(scenario, horizon=scenario.horizon if horizon is None else horizon,
                       master_seed=config.seed)
    _check_replications(scenario, "iterations", config.iterations)
    features, indicators = replication_features(scenario, generator_policy,
                                                range(config.iterations), namespace=1)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ValueError(f"history {bad[0] + 1} has non-finite features "
                         f"{features[bad[0]].tolist()}: zero posterior "
                         "variances leave the gap feature infinite or undefined")
    return sa_minimize(features, indicators, config)


def linear_lsq_oracle(
    features: np.ndarray,
    indicators: np.ndarray,
) -> np.ndarray:
    """Box-constrained least squares of indicators on features (linear activation).

    Solves min ||G w - y||^2 subject to 0 <= w <= DEFAULT_BOX_BOUND exactly via an
    active-set method; raises on a singular design.  Also checks that the
    sample Hessian 2 * mean(G' G) is positive semidefinite.
    """
    from scipy.optimize import lsq_linear
    G = np.asarray(features, dtype=float)
    y = np.asarray(indicators, dtype=float)
    hess = 2.0 * (G.T @ G) / len(y)
    evals = np.linalg.eigvalsh(hess)
    if evals.min() < -1e-10:
        raise AssertionError(f"sample Hessian not PSD: min eigenvalue {evals.min()}")
    if evals.min() <= 1e-12 * max(evals.max(), 1e-300):
        raise ValueError("singular feature design: least-squares weights not identified")
    result = lsq_linear(G, y, bounds=(0.0, DEFAULT_BOX_BOUND), method="bvls", tol=1e-14)
    if not result.success:
        raise RuntimeError(f"bounded least squares failed: {result.message}")
    return result.x


def save_weights(weights: VfaWeights, path: str, config: SaConfig | None = None) -> None:
    """Serialize fitted weights (plus the fitting configuration, if any)."""
    payload = {
        "weights": [float(x) for x in weights.w],
        "activation": weights.activation,
        "box_bound": DEFAULT_BOX_BOUND,  # the one box; read by older versions
    }
    if config is not None:
        payload["config"] = asdict(config)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def load_weights(path: str) -> VfaWeights:
    """Read a weights file written by ``save_weights``; malformed files raise ValueError."""
    payload = fields(read_object(path, "weights file"), "weights file", {
        "weights": (is_numbers,), "activation": (anything, "linear"),
        "box_bound": (anything, DEFAULT_BOX_BOUND), "config": (anything, None)})
    if payload["box_bound"] != DEFAULT_BOX_BOUND:
        raise ValueError(f"malformed weights file: 'box_bound' must be {DEFAULT_BOX_BOUND:g} "
                         f"if given, got {payload['box_bound']!r}")
    return VfaWeights(payload["weights"], payload["activation"])
