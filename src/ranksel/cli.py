"""Command-line front end.

Subcommands:

- ``run-experiment``: estimate correct-selection curves per policy, CSV out.
- ``fit-vfa``: fit two-factor score weights by simulation, JSON out.
- ``solve-exact``: optimal value/policy of a finite-support model file.
- ``optimal-ratios``: asymptotically optimal sampling ratios.
- ``state-space-size``: number of count states after t samples.

Exit codes: 0 success, 2 usage error, 3 numerical failure or exhausted memory, 4 I/O failure.
All randomness flows from seeds in flags or config files.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

from . import exact, experiment, policies, vfa
from ._json import anything, check_int, field, read_object
from .beliefs import GroundTruth


def _list_of(kind, noun: str):
    """Argparse type of a comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        try:
            return [kind(x) for x in text.split(",") if x != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranksel",
        description="Sequential ranking-and-selection toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-experiment", help="estimate correct-selection curves")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out", help="output CSV path (overrides config output.path)")
    p.add_argument("--workers", type=int, default=1, help="worker threads")
    p.add_argument("--downsample", type=int, help="keep every Nth step row")

    p = sub.add_parser("fit-vfa", help="fit two-factor score weights")
    p.add_argument("--scenario", required=True,
                   help="built-in scenario name or JSON config with a 'scenario' key")
    p.add_argument("--out", required=True, help="output weights JSON path")
    p.add_argument("--horizon", type=int,
                   help="fit at this step instead of the scenario horizon")
    p.add_argument("--iterations", type=int)
    p.add_argument("--seed", type=int, help="fit seed (default: scenario master seed)")
    p.add_argument("--step-scale", type=float)
    p.add_argument("--step-exponent", type=float)
    p.add_argument("--activation", choices=tuple(policies.ACTIVATIONS))
    p.add_argument("--generator", default="ea", help="history-generating policy id")

    p = sub.add_parser("solve-exact", help="solve a finite-support model exactly")
    p.add_argument("--model", required=True, help="JSON model file")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--table", help="write the full policy table to this path")
    p.add_argument("--state-cap", type=int, default=10**7)

    p = sub.add_parser("optimal-ratios", help="asymptotically optimal sampling ratios")
    p.add_argument("--means", type=_list_of(float, "numbers"), required=True)
    p.add_argument("--stds", type=_list_of(float, "numbers"), required=True)

    p = sub.add_parser("state-space-size", help="count states after t samples")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--supports", type=_list_of(int, "integers"), required=True,
                   help="per-alternative outcome-support sizes")
    return parser


def _cmd_run_experiment(args) -> int:
    scenario, specs, output = experiment.parse_config(read_object(args.config, "config"))
    out = args.out or output["path"]
    if not out:
        raise ValueError("no output path: give --out or config output.path")
    downsample = output["downsample"] if args.downsample is None else args.downsample
    check_int(downsample, "--downsample", 1)
    results = experiment.run_specs(scenario, specs, args.workers)
    experiment.write_results(results, out, downsample=downsample)
    print(f"wrote {out}")
    return 0


def _cmd_fit_vfa(args) -> int:
    if args.scenario in experiment.BUILTIN_SCENARIOS:
        scenario = experiment.builtin_scenario(args.scenario)
    else:
        config = read_object(args.scenario, "config")
        scenario = experiment.scenario_from_config(field(config, "config", "scenario", anything))
    # Unset flags take the defaults of a config's inline two_factor "fit" object.
    flags = ("iterations", "seed", "step_scale", "step_exponent", "activation")
    fit = {key: getattr(args, key) for key in flags if getattr(args, key) is not None}
    config = experiment._fit_settings(fit, scenario)
    weights = vfa.gmcl_fit(scenario, horizon=args.horizon, generator_policy=args.generator,
                           config=config)
    vfa.save_weights(weights, args.out, config=config)
    print("weights: " + ",".join(f"{x:.10g}" for x in weights.w))
    print(f"wrote {args.out}")
    return 0


def _cmd_solve_exact(args) -> int:
    model = exact.load_model(args.model)
    policy = exact.solve_bellman(model, args.horizon, state_cap=args.state_cap)
    print(f"value: {policy.value:.10g}")
    print(f"states: {sum(len(level) for level in policy.values.values())}")
    if args.table:
        policy.dump_table(args.table)
        print(f"wrote {args.table}")
    return 0


def _cmd_optimal_ratios(args) -> int:
    if not all(s > 0 and 0 < s * s < math.inf for s in args.stds):
        raise ValueError("--stds must be positive, with squares in the float range")
    truth = GroundTruth(means=args.means, variances=[s * s for s in args.stds])
    ratios, iters = policies.optimal_ratios(truth)
    spread, defect = policies.ratio_residuals(truth, ratios)
    print("ratios: " + ",".join(f"{r:.10g}" for r in ratios.ratios))
    print(f"residuals: rate_spread={spread:.3e} incumbent_defect={defect:.3e}")
    print(f"iterations: {iters}")
    return 0


def _cmd_state_space_size(args) -> int:
    print(exact.state_space_size(args.t, args.k, args.supports))
    return 0


_COMMANDS = {
    "run-experiment": _cmd_run_experiment,
    "fit-vfa": _cmd_fit_vfa,
    "solve-exact": _cmd_solve_exact,
    "optimal-ratios": _cmd_optimal_ratios,
    "state-space-size": _cmd_state_space_size,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Out-of-range arithmetic ends in one error line, not in NumPy's warnings as well.
        # The filter is process-wide, so it covers the worker threads too.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return _COMMANDS[args.command](args)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (RuntimeError, ArithmeticError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
