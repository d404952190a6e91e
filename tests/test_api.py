"""The public API: every public name, defaulted parameter and field is a deliberate choice."""

import ast
import importlib
import os
import re
import tracemalloc
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ranksel
from ranksel.beliefs import GroundTruth
from ranksel.exact import (DiscreteModel, DiscreteState, NormalPriorSpec, discretize_prior,
                           solve_bellman, state_space_bounds, state_space_size)
from ranksel.experiment import (IpcsCurve, Scenario, estimate_ipcs, replication_features,
                                run_fixed_truths, write_results)
from ranksel.policies import aoap_multistep_values
from ranksel.vfa import SaConfig, gmcl_fit

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
        "estimate_ipcs", "replication_features", "run_fixed_truths", "run_specs",
        "write_results", "parse_config", "scenario_from_config",
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
    assert len(top) == 45
    assert all(exported.get(name) is value for name, value in top.items())


# The integer rule at the Python entry points, on tiny inputs.  Each integer argument:
# the name its error messages use, its lower bound (None where a relation alone bounds it)
# and a call with a value in its place.
TINY = Scenario(prior_means=(0.0, 0.5), prior_stds=(1.0, 1.0), sampling_stds=(1.0, 2.0),
                horizon=6, n0=2, macro_reps=8, master_seed=3)
TRUTH = GroundTruth(means=[0.0, 1.0], variances=[1.0, 4.0])
MODEL = DiscreteModel(support=[(0.0, 1.0), (0.0, 1.0)], prior_points=["a", "b"],
                      prior_pmf=[0.4, 0.6],
                      sampling_pmf=[[(0.2, 0.8), (0.7, 0.3)], [(0.6, 0.4), (0.1, 0.9)]])
SPEC = NormalPriorSpec(prior_means=(0.0, 0.2), prior_stds=(1.0, 1.0), sampling_stds=(1.0, 2.0))
CURVES = {"ea": IpcsCurve(steps=[4, 5, 6], ipcs=[0.5, 0.75, 1.0], stderr=[0.1, 0.1, 0.0],
                          macro_reps=8)}
COLUMN = np.array([[0.0], [0.5]]), np.array([[1.0], [1.0]]), np.array([[1.0], [4.0]])
INTEGER_ARGUMENTS = {
    "estimate_ipcs(workers)": ("workers", 1, lambda v: estimate_ipcs(TINY, "ea", workers=v)),
    "replication_features(indices)": (
        "replication index", 0, lambda v: replication_features(TINY, "aoap", [1, v])),
    "replication_features(namespace)": (
        "namespace", 0, lambda v: replication_features(TINY, "aoap", [0, 1], namespace=v)),
    "Scenario(horizon)": ("horizon", None, lambda v: estimate_ipcs(replace(TINY, horizon=v), "ea")),
    "Scenario(macro_reps)": (
        "macro_reps", 1, lambda v: estimate_ipcs(replace(TINY, macro_reps=v), "ea")),
    "run_fixed_truths(steps)": ("steps", 0, lambda v: run_fixed_truths([TRUTH], "aoap", v)),
    "run_fixed_truths(seed)": (
        "seed", 0, lambda v: run_fixed_truths([TRUTH], "aoap", 3, seed=v)),
    "gmcl_fit(horizon)": (
        "horizon", None, lambda v: gmcl_fit(TINY, horizon=v, config=SaConfig(iterations=3))),
    "SaConfig(iterations)": (
        "iterations", 1, lambda v: gmcl_fit(TINY, config=SaConfig(iterations=v))),
    "SaConfig(seed)": (
        "seed", 0, lambda v: gmcl_fit(TINY, config=SaConfig(iterations=3, seed=v))),
    "solve_bellman(horizon)": ("horizon", 0, lambda v: solve_bellman(MODEL, v)),
    "solve_bellman(state_cap)": (
        "state_cap", 1, lambda v: solve_bellman(MODEL, 3, state_cap=v)),
    "discretize_prior(grid_points)": ("grid_points", 2, lambda v: discretize_prior(SPEC, v)),
    "discretize_prior(obs_grid_points)": (
        "obs_grid_points", 2, lambda v: discretize_prior(SPEC, 2, obs_grid_points=v)),
    "state_space_size(t)": ("t", 0, lambda v: state_space_size(v, 2, [2, 2])),
    "state_space_size(k)": ("k", 0, lambda v: state_space_size(2, v, [2, 2])),
    "state_space_size(supports)": (
        "support size", 2, lambda v: state_space_size(2, 2, [2, v])),
    "state_space_bounds(t)": ("t", 0, lambda v: state_space_bounds(v, 2, [2, 2])),
    "state_space_bounds(k)": ("k", 0, lambda v: state_space_bounds(2, v, [2, 2])),
    "state_space_bounds(supports)": (
        "support size", 2, lambda v: state_space_bounds(2, 2, [2, v])),
    "DiscreteState(counts)": ("count", 0, lambda v: DiscreteState(((v, 0), (0, 1)))),
    "write_results(downsample)": (
        "downsample", 1, lambda v: write_results(CURVES, os.devnull, downsample=v)),
    "aoap_multistep_values(depth)": (
        "depth", 1, lambda v: aoap_multistep_values(*COLUMN, v)),
}
# The one other ValueError an entry may raise: a relation between arguments.
RELATIONAL = {
    "Scenario(horizon)": "horizon must cover the warmup (horizon >= k * n0)",
    "gmcl_fit(horizon)": "horizon must cover the warmup (horizon >= k * n0)",
    "state_space_size(k)": "need one support size per alternative",
    "state_space_bounds(k)": "need one support size per alternative",
}
# Sizes from 0 to 5 run; sizes beyond 2^63, longer than any array, must not reach NumPy.
# (Sizes in between are drawn below, for the sizes that set a run's noise.)
INTEGER_INPUTS = st.one_of(
    st.booleans(), st.floats(), st.integers(-(2**70), -1), st.integers(0, 5),
    st.integers(2**63, 2**80), st.integers(-5, 5).map(np.int64),
    st.integers(2**63, 2**64 - 1).map(np.uint64))


def fingerprint(x):
    """A comparable form of an entry point's result: arrays by dtype, shape and bytes."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(map(fingerprint, x))
    if isinstance(x, dict):
        return tuple((k, fingerprint(v)) for k, v in x.items())
    if hasattr(x, "__dict__"):
        return type(x).__name__, fingerprint(vars(x))
    return x


def outcome(call, value):
    """The call's fingerprint, or the type and message of a ValueError or RuntimeError.
    Any other exception (TypeError at ``range``, IndexError, OverflowError) fails."""
    try:
        return "ok", fingerprint(call(value))
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)


def is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@pytest.mark.parametrize("argument", list(INTEGER_ARGUMENTS))
@given(value=INTEGER_INPUTS)
@settings(max_examples=25, deadline=None)
@example(value=True)
@example(value=2.0)
@example(value=-1)
@example(value=2**63)
@example(value=np.int64(3))
def test_integer_arguments(argument, value):
    """A bool, float or NumPy integer is never truncated or read as another integer: an
    integer gives the outcome of the same Python integer, and anything else raises the
    integer rule's ValueError.  A ValueError is one of the rule's three messages or the
    entry's relational one.  The one other error is a size cap's RuntimeError (state
    space, bounds, prior or observation grid, a run's noise)."""
    name, low, call = INTEGER_ARGUMENTS[argument]
    got = outcome(call, value)
    if is_integer(value):  # a message may show a NumPy integer's repr
        shown = got if got[0] == "ok" else (got[0], got[1].replace(repr(value), str(int(value))))
        assert shown == outcome(call, int(value))
    if got[0] == "ok":
        assert is_integer(value)
    elif got[0] is ValueError:
        rule = (f"{name} must be an integer, got {value!r}",
                f"{name} must be >= {low}, got {value!r}",
                f"{name} must be below 2**63, got {value!r}")
        assert got[1] in {*rule, RELATIONAL.get(argument)}, got
    else:
        assert is_integer(value) and "exceeds" in got[1], got


# The sizes that set how much noise a run draws, and the argument each error names.
NOISE_SIZES = ["Scenario(horizon)", "Scenario(macro_reps)", "run_fixed_truths(steps)",
               "gmcl_fit(horizon)", "SaConfig(iterations)"]


@pytest.mark.parametrize("argument", NOISE_SIZES)
@given(value=st.one_of(st.integers(2**31, 2**63 - 1), st.integers(2**31, 2**63 - 1).map(np.int64)))
@settings(max_examples=25, deadline=None)
@example(value=2**31)
@example(value=2**45)
@example(value=2**62)
@example(value=2**63 - 1)
def test_sizes_no_array_can_hold(argument, value):
    """From 2^31 up to 2^63, a size that sets a run's noise is refused before any array
    is built (tracemalloc sees under 64 KiB): a ValueError where one block of noise is
    more than any array can index (2^63 bytes), else the noise cap's RuntimeError (2^31
    normals, 16 GiB).  Either names the argument, with the value given."""
    name, _, call = INTEGER_ARGUMENTS[argument]
    tracemalloc.start()
    try:
        kind, message = outcome(call, value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak
    pattern = {
        ValueError: f"{name} makes a noise block of N x N normals, more than any array can hold",
        RuntimeError: f"{name} too large: the run's noise of N x N normals exceeds the cap of "
                      "2**31 normals (16 GiB)"}[kind]
    assert re.fullmatch(re.escape(f"{pattern}, got {value!r}").replace("N", r"\d+"), message)
