"""Sequential ranking and selection under a Bayesian sampling budget.

Building blocks:

- :mod:`ranksel.beliefs` -- conjugate belief models (Beta-Bernoulli,
  normal with known variance) and ground-truth sampling.
- :mod:`ranksel.exact` -- exact optimal policies for finite-support
  models by backward induction, with an exhaustive oracle.
- :mod:`ranksel.policies` -- sequential allocation rules (one-step and
  multi-step look-ahead, two-factor score, budget-ratio and improvement
  baselines, round robin) and selection rules.
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
    beta_predictive,
    beta_update,
    normal_batch_posterior,
    normal_predictive,
    normal_update,
    sample_ground_truth,
    sample_observation,
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
    posterior_pmf,
    predictive_pmf,
    save_model,
    solve_bellman,
    state_space_bounds,
    state_space_size,
    terminal_value,
)
from .experiment import (
    BUILTIN_SCENARIOS,
    IpcsCurve,
    Scenario,
    builtin_scenario,
    estimate_ipcs,
    run_experiment,
    run_fixed_truths,
    run_macro_replication,
    write_results,
)
from .policies import (
    BeliefVector,
    RatioVector,
    aoap_values,
    decide,
    distance_feature,
    eoc_value,
    features,
    induced_correlation,
    make_policy,
    ocba_ratios,
    optimal_ratios,
    ratio_residuals,
    select_max_posterior_mean,
    select_optimal_pcs,
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
