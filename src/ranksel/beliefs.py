"""Conjugate Bayesian belief models for sequential sampling.

Two belief families are supported, both closed under their sampling
models:

- ``GaussianBelief``: normal sampling with known variance and a normal
  prior on the unknown mean.  The posterior after ``t`` observations with
  sample mean ``m`` is N(mu_t, var_t) with

      var_t = (1/var_0 + t/sampling_var)^-1
      mu_t  = var_t * (mu_0/var_0 + t*m/sampling_var)

  An uninformative prior is represented as prior precision 0, i.e.
  ``post_var = inf`` before any data.

- ``BetaBelief``: Bernoulli sampling with a Beta prior on the success
  probability.  The posterior adds successes to ``alpha`` and failures to
  ``beta``.  The uninformative prior is alpha = beta = 0 (improper; the
  predictive is undefined until at least one observation arrives).

The normal posterior from counts and sums is defined once, by the array
core ``posterior_arrays`` (``sample_variances`` gives plug-in variances):
the simulation engine calls it on ``(k, n)`` arrays after the warmup, and each step its
formula ``_posterior`` on the ``(n,)`` vectors it gathers with the prior precision of the
run; ``normal_update`` and ``normal_batch_posterior`` call it on scalars.

Beliefs are immutable; updates return new values, so read-only sharing
across threads is safe.  Ground truths are drawn by the simulation engine
(:mod:`ranksel.experiment`) from each row's own random stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianBelief",
    "BetaBelief",
    "GroundTruth",
    "beta_update",
    "normal_update",
    "normal_batch_posterior",
    "normal_predictive",
    "posterior_arrays",
    "sample_variances",
]


@dataclass(frozen=True)
class GaussianBelief:
    """Posterior state of one alternative under the known-variance normal model.

    Attributes
    ----------
    post_mean : float
        Posterior mean of the unknown sampling mean.
    post_var : float
        Posterior variance of the unknown sampling mean (>= 0; ``inf``
        encodes an uninformative prior with no data).
    count : int
        Number of observations folded into the posterior.
    sampling_var : float
        Known (or plug-in) variance of a single observation; > 0.
    sum_obs : float
        Running sum of observations (``count`` times the sample mean).
    """

    post_mean: float
    post_var: float
    count: int
    sampling_var: float
    sum_obs: float = 0.0

    def __post_init__(self) -> None:
        if not self.sampling_var > 0:
            raise ValueError(f"sampling_var must be positive, got {self.sampling_var}")
        if self.post_var < 0 or math.isnan(self.post_var):
            raise ValueError(f"post_var must be >= 0, got {self.post_var}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")

    @classmethod
    def from_prior(cls, mean: float, var: float, sampling_var: float) -> "GaussianBelief":
        """Fresh belief holding only prior information."""
        return cls(post_mean=mean, post_var=var, count=0, sampling_var=sampling_var)

    @classmethod
    def uninformative(cls, sampling_var: float) -> "GaussianBelief":
        """Zero-precision prior: the first observation fully determines the mean."""
        return cls(post_mean=0.0, post_var=math.inf, count=0, sampling_var=sampling_var)


@dataclass(frozen=True)
class BetaBelief:
    """Posterior state of one alternative under the Bernoulli model.

    ``alpha``/``beta`` are the posterior hyper-parameters (prior plus
    observed successes/failures); ``alpha = beta = 0`` with no data is the
    uninformative prior.
    """

    alpha: float
    beta: float
    count: int
    successes: int

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if not 0 <= self.successes <= self.count:
            raise ValueError("successes must lie in [0, count]")


@dataclass(frozen=True)
class GroundTruth:
    """A realized configuration of true means and sampling variances.

    Zero variances are admitted as a degenerate limit (deterministic
    observations); operations that divide by a variance check positivity
    themselves.
    """

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float)
        variances = np.asarray(self.variances, dtype=float)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        if means.ndim != 1 or means.shape != variances.shape:
            raise ValueError("means and variances must be 1-d arrays of equal length")
        if len(means) < 2:
            raise ValueError("at least two alternatives required")
        if not np.all(np.isfinite(means)) or not np.all(np.isfinite(variances)):
            raise ValueError("ground truth entries must be finite")
        if not np.all(variances >= 0):
            raise ValueError("sampling variances must be nonnegative")

    @property
    def n_alternatives(self) -> int:
        return len(self.means)

    @property
    def best(self) -> int:
        """Index of the true best alternative (lowest index on ties)."""
        return int(np.argmax(self.means))


def beta_update(belief: BetaBelief, obs: int) -> BetaBelief:
    """Fold one Bernoulli observation into a Beta belief."""
    if obs not in (0, 1):
        raise ValueError(f"observation must be 0 or 1, got {obs!r}")
    return BetaBelief(
        alpha=belief.alpha + obs,
        beta=belief.beta + (1 - obs),
        count=belief.count + 1,
        successes=belief.successes + obs,
    )


def normal_update(belief: GaussianBelief, obs: float) -> GaussianBelief:
    """Fold one observation into a Gaussian belief.

    The current belief is the prior of one observation: the new posterior
    precision is the old one plus the sampling precision, and the new mean
    is the precision-weighted average of the old mean and the observation.
    """
    if not math.isfinite(obs):
        raise ValueError(f"observation must be finite, got {obs}")
    # A NumPy prior variance divides by zero to inf instead of raising.
    post_mean, post_var = posterior_arrays(belief.post_mean, np.float64(belief.post_var), 1, obs,
                                           belief.sampling_var)
    return GaussianBelief(
        post_mean=float(post_mean),
        post_var=float(post_var),
        count=belief.count + 1,
        sampling_var=belief.sampling_var,
        sum_obs=belief.sum_obs + obs,
    )


def posterior_arrays(prior_means, prior_vars, counts, sums, sampling_vars):
    """Normal posterior mean and variance from observation counts and sums.

    Broadcasts over any shape.  Zero prior variance pins the posterior at the prior mean;
    infinite prior variance (zero precision) reduces to the pure sample posterior.  The
    formula is ``_posterior``, which the engine calls with a precision computed once.
    """
    with np.errstate(divide="ignore"):
        prior_prec = np.where(prior_vars > 0, 1.0 / prior_vars, np.inf)
    with np.errstate(invalid="ignore"):
        post_mean, post_var = _posterior(prior_means, prior_prec, counts, sums, sampling_vars)
    return np.where(prior_vars == 0.0, prior_means, post_mean), post_var


def _posterior(prior_means, prior_prec, counts, sums, sampling_vars):
    """``posterior_arrays`` for positive prior variances, from their precision ``1 / prior_vars``."""
    post_var = 1.0 / (prior_prec + counts / sampling_vars)
    return post_var * (prior_means * prior_prec + sums / sampling_vars), post_var


def sample_variances(counts, sums, sumsqs):
    """Unbiased sample variances from running sums, floored at the smallest positive float."""
    mean = sums / counts
    s2 = (sumsqs - counts * mean**2) / (counts - 1)
    return np.maximum(s2, np.finfo(float).tiny)


def normal_batch_posterior(
    prior_mean: float,
    prior_var: float,
    sampling_var: float,
    n: int,
    sample_mean: float,
) -> GaussianBelief:
    """Posterior after ``n`` observations with the given sample mean.

    Exchangeability makes this equal to ``n`` sequential ``normal_update``
    calls on any observation sequence with that mean.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return GaussianBelief.from_prior(prior_mean, prior_var, sampling_var)
    sum_obs = n * sample_mean
    # A NumPy prior variance divides by zero to inf instead of raising.
    post_mean, post_var = posterior_arrays(prior_mean, np.float64(prior_var), n, sum_obs,
                                           sampling_var)
    return GaussianBelief(
        post_mean=float(post_mean),
        post_var=float(post_var),
        count=n,
        sampling_var=sampling_var,
        sum_obs=sum_obs,
    )


def normal_predictive(belief: GaussianBelief) -> tuple[float, float]:
    """Mean and variance of the next observation given the belief.

    The predictive spreads the sampling noise around the uncertain mean:
    N(post_mean, sampling_var + post_var).  Undefined for an uninformative
    prior that has seen no data.
    """
    if math.isinf(belief.post_var):
        raise ValueError("predictive undefined: uninformative prior with no data")
    return belief.post_mean, belief.sampling_var + belief.post_var
