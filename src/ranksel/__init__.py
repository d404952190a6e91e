"""Sequential ranking and selection under a Bayesian sampling budget.

Building blocks:

- :mod:`ranksel.beliefs` -- conjugate belief models (Beta-Bernoulli,
  normal with known variance) and the ground-truth type.
- :mod:`ranksel.exact` -- exact optimal policies for finite-support
  models by backward induction, with an exhaustive oracle.
- :mod:`ranksel.policies` -- sequential allocation rules (one-step and
  multi-step look-ahead, two-factor score, budget-ratio and improvement
  baselines, round robin) and asymptotically optimal sampling ratios.
- :mod:`ranksel.vfa` -- stochastic-approximation fitting of score
  weights, with a least-squares oracle.
- :mod:`ranksel.experiment` -- reproducible Monte Carlo harness
  estimating correct-selection curves.
- :mod:`ranksel.cli` -- command-line front end.
"""

from .beliefs import (
    BetaBelief,
    GaussianBelief,
    GroundTruth,
    beta_update,
    normal_batch_posterior,
    normal_predictive,
    normal_update,
)
from .exact import (
    BernoulliPriorSpec,
    DiscreteModel,
    DiscreteState,
    NormalPriorSpec,
    SolvedPolicy,
    brute_force_value,
    discretize_prior,
    load_model,
    save_model,
    solve_bellman,
    state_space_bounds,
    state_space_size,
)
from .experiment import (
    BUILTIN_SCENARIOS,
    IpcsCurve,
    Scenario,
    builtin_scenario,
    estimate_ipcs,
    run_fixed_truths,
    write_results,
)
from .policies import (
    BeliefVector,
    RatioVector,
    decide,
    features,
    make_policy,
    optimal_ratios,
    ratio_residuals,
)
from .vfa import (
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

__version__ = "0.1.0"
