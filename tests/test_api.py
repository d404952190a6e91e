"""The public API: every public name, defaulted parameter and field is a deliberate choice."""

import ast
import importlib
import types
from pathlib import Path

import ranksel

# Every library module's ``__all__``, in order.  A new public name fails this
# test until it is added here on purpose; a stale one fails it too.
ALLOWED_NAMES = {
    "beliefs": [
        "GaussianBelief", "BetaBelief", "GroundTruth", "beta_update", "normal_update",
        "normal_batch_posterior", "normal_predictive", "posterior_arrays", "sample_variances",
    ],
    "exact": [
        "DiscreteModel", "DiscreteState", "SolvedPolicy", "posterior_pmf", "predictive_pmf",
        "terminal_value", "solve_bellman", "brute_force_value", "state_space_size",
        "state_space_bounds", "BernoulliPriorSpec", "NormalPriorSpec", "discretize_prior",
        "load_model", "save_model",
    ],
    "experiment": [
        "VARIANCE_MODES", "Scenario", "IpcsCurve", "builtin_scenario", "BUILTIN_SCENARIOS",
        "estimate_ipcs", "replication_features", "run_fixed_truths", "run_experiment",
        "run_specs", "write_results", "parse_config", "scenario_from_config",
    ],
    "policies": [
        "BatchState", "POLICIES", "lookup_policy", "make_policy", "decide", "BeliefVector",
        "RatioVector", "features", "ACTIVATIONS", "apply_activation", "optimal_ratios",
        "ratio_residuals", "shrunk_variance", "distance_squared", "correlation_squared_min",
        "state_features", "aoap_candidate_values", "aoap_multistep_values",
        "two_factor_candidate_values", "kg_candidate_values", "ocba_deficits",
        "argmax_with_tiebreak",
    ],
    "vfa": [
        "VfaWeights", "SaConfig", "vfa_eval", "gmcl_gradient", "sa_minimize", "gmcl_fit",
        "linear_lsq_oracle", "save_weights", "load_weights",
    ],
}

# Every defaulted parameter and ``**kwargs`` of a public function or method in
# ranksel's modules, as ``module.function(parameter)``.  A new option fails
# this test until it is added here on purpose.
ALLOWED_OPTIONS = {
    "cli.main(argv)",
    "exact.solve_bellman(state_cap)",
    "exact.discretize_prior(reward)",
    "exact.discretize_prior(obs_grid_points)",
    "experiment.estimate_ipcs(weights)",
    "experiment.estimate_ipcs(workers)",
    "experiment.replication_features(namespace)",
    "experiment.run_fixed_truths(seed)",
    "experiment.run_experiment(workers)",
    "experiment.write_results(downsample)",
    "policies.shrunk_variance(n)",
    "policies.make_policy(weights)",
    "vfa.sa_minimize(average_tail)",
    "vfa.gmcl_fit(horizon)",
    "vfa.gmcl_fit(generator_policy)",
    "vfa.gmcl_fit(config)",
    "vfa.save_weights(config)",
}

# Every defaulted field of a public class in ranksel's modules, such as a
# settings dataclass, as ``module.Class(field)``; fields with ``init=False``
# are not options.  A new field with a default fails this test until it is
# added here on purpose.
ALLOWED_FIELDS = {
    "beliefs.GaussianBelief(sum_obs)",
    "exact.DiscreteModel(reward)",
    "experiment.Scenario(macro_reps)",
    "experiment.Scenario(master_seed)",
    "experiment.Scenario(variance_mode)",
    "vfa.VfaWeights(activation)",
    "vfa.SaConfig(step_scale)",
    "vfa.SaConfig(step_exponent)",
    "vfa.SaConfig(iterations)",
    "vfa.SaConfig(initial_w)",
    "vfa.SaConfig(seed)",
    "vfa.SaConfig(activation)",
}


def _defaulted(value) -> bool:
    """Whether a class field's assigned value gives it a default in ``__init__``."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return value is not None
    keywords = {k.arg: k.value for k in value.keywords}
    init = keywords.get("init")
    return (bool(keywords.keys() & {"default", "default_factory"})
            and not (isinstance(init, ast.Constant) and init.value is False))


def _fields(node, prefix):
    """Defaulted fields of the public classes directly under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef) and not child.name.startswith("_"):
            for item in child.body:
                if isinstance(item, ast.AnnAssign) and _defaulted(item.value):
                    yield f"{prefix}{child.name}({item.target.id})"


def _options(node, prefix):
    """Optional parameters of the public functions and classes directly under ``node``."""
    for child in ast.iter_child_nodes(node):
        if getattr(child, "name", "_").startswith("_"):
            continue
        if isinstance(child, ast.ClassDef):
            yield from _options(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            names += [f"**{args.kwarg.arg}"] if args.kwarg else []
            yield from (f"{prefix}{child.name}({name})" for name in names)


def test_optional_parameters_match_allowlist():
    found = []
    for path in sorted(Path(ranksel.__file__).parent.glob("*.py")):
        found += _options(ast.parse(path.read_text()), f"{path.stem}.")
    assert len(found) == len(set(found))
    assert sorted(found) == sorted(ALLOWED_OPTIONS)


def test_defaulted_fields_match_allowlist():
    found = []
    for path in sorted(Path(ranksel.__file__).parent.glob("*.py")):
        found += _fields(ast.parse(path.read_text()), f"{path.stem}.")
    assert len(found) == len(set(found))
    assert sorted(found) == sorted(ALLOWED_FIELDS)


def test_public_names_match_allowlist():
    """Each ``__all__`` entry resolves (the benchmark's tracer reads every one), and
    each public top-level ``ranksel`` name is one of them, the same object."""
    exported = {}
    for name, allowed in ALLOWED_NAMES.items():
        module = importlib.import_module(f"ranksel.{name}")
        assert module.__all__ == allowed, name
        exported.update({entry: getattr(module, entry) for entry in allowed})
    top = {name: value for name, value in vars(ranksel).items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(top) == 46
    assert all(exported.get(name) is value for name, value in top.items())
