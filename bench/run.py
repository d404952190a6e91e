"""ranksel benchmark: three workloads, end-to-end metrics, per-layer traced timings.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload mc-wide --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-test
    python3 bench/run.py --record-reference 1-10

Workloads (see ``BENCHMARK.json`` for the one-line reasons):

- ``mc-wide``: ``ranksel run-experiment`` through ``cli.main`` on the
  ``example1`` scenario with policies ea/ocba/kg/aoap, 10^4 replications.
- ``mc-lookahead``: ``example2-lowconf`` with aoap and an inline-fitted
  two_factor (10^4 SA iterations) at 10^4 replications, then ``aoap_ms2``
  at 8 replications, both through ``cli.main``.
- ``sequential-exact``: ``run_fixed_truths`` on the three c03 truths (aoap,
  5*10^4 steps), then ``solve_bellman`` on a seeded k=2, binary-outcome,
  2-point-prior model at T=36 (91,390 states for every seed).

The seed fixes every input: the scenario master seeds, the fixed-truth
stream and the exact model's pmfs.  Everything runs in one thread
(``--workers 1``, BLAS pools pinned to one thread).  A run repeats the
workload's timed pass for ``--seconds`` and reports medians over passes.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, ``setup_s``
(median of several fresh processes, spawn to ready), ``rep_steps_per_s``
and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics; the traced passes wrap ranksel's public
functions from outside (see ``spans.py``), so the package is unchanged.
Correctness checks run on every pass; ``attempted``/``failed`` count them.

Outputs go to ``.bench_out/`` in the checkout: a run record with the
metrics (machine, versions, commit, seed, src line count, baseline note)
and, for traced runs, the spans as JSON lines.  The last line on stdout is
the result object.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(BENCH_DIR))
from spans import ENGINE_FNS, SpanTree, Tracer  # noqa: E402

WORKLOADS = ("mc-wide", "mc-lookahead", "sequential-exact")

SIZES = {
    False: {"reps": 10_000, "fit_iters": 10_000, "ms2_reps": 8, "steps": 50_000, "horizon": 36},
    True: {"reps": 256, "fit_iters": 256, "ms2_reps": 1, "steps": 20_000, "horizon": 10},
}

Z_PCS = 5.0          # allowed |final PCS - reference| in pooled standard errors
SHARE_TOL = 0.02     # c03: sampling shares vs optimal_ratios
EXACT_TOL = 1e-10    # c01: solve_bellman vs brute_force_value; also round-off slack
ORACLE_HORIZON = 6   # (k * outcomes)^T = 4^6 histories for the brute-force oracle

SETUP_PROBES = {0: 5, 1: 3}

# The c03/c04 fixed truths (tests/test_acceptance.py).
FIXED_TRUTHS = (
    ([4.0, 3.0, 2.0, 1.0, 0.0], [1.0] * 5),
    ([4.0, 3.0, 2.0, 1.0, 0.0], [4.0, 1.0, 2.25, 1.0, 6.25]),
    ([2.0, 1.6, 1.2, 0.8, 0.0], [1.0, 2.25, 0.64, 1.44, 4.0]),
)

POLICY_FNS = ("aoap_candidate_values", "kg_candidate_values", "ocba_deficits",
              "argmax_with_tiebreak", "two_factor_candidate_values", "aoap_multistep")
ESTIMATE_POLICIES = ("ea", "ocba", "kg", "aoap", "two_factor", "aoap_ms2")
LAYER_MODULES = ("cli", "experiment", "policies", "vfa", "exact", "beliefs")

# Single wall-clock runs from the ROADMAP baseline table (2 CPUs, Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1), keyed by the metric they compare to.
ROADMAP_BASELINE = {
    "mc-wide": {f"experiment.estimate_ipcs.{p}.s": s
                for p, s in (("ea", 1.4), ("ocba", 2.8), ("kg", 4.2), ("aoap", 4.1))},
    "mc-lookahead": {"experiment.estimate_ipcs.aoap.s": 1.4,
                     "experiment.estimate_ipcs.two_factor.s": 5.7},
    # 3 truths x 1e5 steps took ~11 s; T=60 (635,376 states) took 38 s.
    "sequential-exact": {"experiment.run_fixed_truths.us_per_step": 11.0 / 3e5 * 1e6,
                         "exact.us_per_state": 38.0 / 635_376 * 1e6},
}


def fail_usage(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def import_ranksel():
    if not (SRC / "ranksel" / "__init__.py").is_file():
        fail_usage(f"no ranksel sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ranksel
    import ranksel.cli  # noqa: F401  (not imported by the package itself)
    return ranksel


def derive_seed(workload: str, seed: int) -> int:
    return zlib.crc32(f"{workload}:{seed}".encode())


# ---------------------------------------------------------------------------
# Workloads.  Each prepares its inputs from the seed, warms every entry point
# it uses, runs one timed pass, and checks that pass's outputs.
# ---------------------------------------------------------------------------


class Check:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _scenario_config(rs, name: str, reps: int, master_seed: int, horizon=None) -> dict:
    sc = rs.builtin_scenario(name)
    return {
        "prior_means": list(sc.prior_means), "prior_stds": list(sc.prior_stds),
        "sampling_stds": list(sc.sampling_stds), "T": horizon or sc.horizon, "n0": sc.n0,
        "macro_reps": reps, "master_seed": master_seed, "variance_mode": sc.variance_mode,
    }


def _run_cli(rs, config_path: Path, csv_path: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return rs.cli.main(["run-experiment", "--config", str(config_path),
                            "--out", str(csv_path), "--workers", "1"])


def _read_curves(path: Path) -> dict:
    curves: dict = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            policy, t, ipcs, stderr, reps = line.rstrip("\n").split(",")
            c = curves.setdefault(policy, {"t": [], "ipcs": [], "reps": set()})
            c["t"].append(int(t))
            c["ipcs"].append(float(ipcs))
            c["reps"].add(int(reps))
    return curves


class McWorkload:
    """One or more ``run-experiment`` configs through ``cli.main``."""

    def __init__(self, rs, name: str, seed: int, tiny: bool, workdir: Path):
        self.rs, self.workdir = rs, workdir
        size = SIZES[tiny]
        master = derive_seed(name, seed)
        if name == "mc-wide":
            scenario = "example1"
            runs = {"main": (size["reps"], ["ea", "ocba", "kg", "aoap"])}
            warm_policies = ["ea", "ocba", "kg", "aoap"]
        else:
            scenario = "example2-lowconf"
            fit = {"id": "two_factor", "fit": {"iterations": size["fit_iters"]}}
            runs = {"main": (size["reps"], ["aoap", fit]),
                    "ms2": (size["ms2_reps"], ["aoap_ms2"])}
            warm_policies = ["aoap", {"id": "two_factor", "fit": {"iterations": 2}}, "aoap_ms2"]
        sc = rs.builtin_scenario(scenario)
        self.grid = list(range(sc.warmup, sc.horizon + 1))
        steps = sc.horizon - sc.warmup
        self.rep_steps = 0
        self.configs = {}
        for key, (reps, policies) in runs.items():
            cfg = {"scenario": _scenario_config(rs, scenario, reps, master), "policies": policies}
            ids = [p if isinstance(p, str) else p["id"] for p in policies]
            self.configs[key] = (self._write(f"{key}.json", cfg), workdir / f"{key}.csv", reps, ids)
            for p in policies:
                if isinstance(p, dict):   # inline fit: one history per SA iteration,
                    batches = -(-p["fit"]["iterations"] // 2048)   # made in batches of 2048
                    self.rep_steps += batches * 2048 * steps
                self.rep_steps += reps * steps
        warm = {"scenario": _scenario_config(rs, scenario, 2, master, horizon=sc.warmup + 2),
                "policies": warm_policies}
        self.warm_config = self._write("warmup.json", warm)

    def _write(self, fname: str, payload: dict) -> Path:
        path = self.workdir / fname
        path.write_text(json.dumps(payload))
        return path

    def warmup(self) -> None:
        _run_cli(self.rs, self.warm_config, self.workdir / "warmup.csv")

    def run(self) -> dict:
        codes = {}
        t0 = time.perf_counter()
        for key, (cfg, csv, _, _) in self.configs.items():
            codes[key] = _run_cli(self.rs, cfg, csv)
        wall = time.perf_counter() - t0
        out = {"wall": wall, "mc_s": wall, "rep_steps": self.rep_steps, "codes": codes,
               "curves": {}, "digests": {}}
        for key, (_, csv, _, _) in self.configs.items():
            if codes[key] == 0:
                out["curves"][key] = _read_curves(csv)
                out["digests"][key] = hashlib.sha256(csv.read_bytes()).hexdigest()
        return out

    def check(self, out: dict, ref: dict, check: Check) -> dict:
        pcs = {}
        for key, (_, _, reps, ids) in self.configs.items():
            check(out["codes"][key] == 0, f"{key}: cli exit {out['codes'][key]}")
            if out["codes"][key] != 0:
                continue
            curves = out["curves"][key]
            check(sorted(curves) == sorted(ids), f"{key}: policies {sorted(curves)}")
            for pid in ids:
                c = curves.get(pid)
                if c is None:
                    continue
                check(c["t"] == self.grid, f"{pid}: step grid")
                check(all(0.0 <= v <= 1.0 for v in c["ipcs"]), f"{pid}: ipcs outside [0, 1]")
                check(c["reps"] == {reps}, f"{pid}: macro_reps {sorted(c['reps'])}")
                final = c["ipcs"][-1]
                pcs[pid] = final
                r = ref["pcs"].get(pid)
                check(r is not None, f"{pid}: no reference final PCS")
                if r is None:
                    continue
                p_ref = r["p"]
                se = math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / reps + 1.0 / r["n"]))
                check(abs(final - p_ref) <= Z_PCS * se,
                      f"{pid}: final PCS {final:.4f} vs reference {p_ref:.4f} "
                      f"({Z_PCS:g} pooled SE = {Z_PCS * se:.4f})")
        return {"final_pcs": pcs, "digests": out["digests"]}


class SequentialExactWorkload:
    """Fixed-truth aoap runs, then the exact Bellman solver."""

    def __init__(self, rs, name: str, seed: int, tiny: bool, workdir: Path):
        self.rs = rs
        size = SIZES[tiny]
        self.steps, self.horizon = size["steps"], size["horizon"]
        self.seed = derive_seed(name, seed)
        self.truths = [rs.GroundTruth(means=m, variances=v) for m, v in FIXED_TRUTHS]
        self.model = self._model(self.seed)

    def _model(self, seed: int):
        """k=2, binary outcomes, 2-point prior; every pmf strictly inside (0, 1).

        Point 0 makes alternative 0 best and point 1 alternative 1, so the
        selection is not decided by the prior alone.
        """
        import numpy as np
        rng = np.random.default_rng(seed)
        p = float(rng.uniform(0.2, 0.8))
        a = np.sort(rng.uniform(0.1, 0.9, size=(2, 2)), axis=1)   # one row per point
        q = [(float(a[0, 1]), float(a[0, 0])), (float(a[1, 0]), float(a[1, 1]))]
        return self.rs.DiscreteModel(
            support=[(0.0, 1.0), (0.0, 1.0)], prior_points=["a0 best", "a1 best"],
            prior_pmf=[p, 1.0 - p],
            sampling_pmf=[[(1.0 - qi, qi) for qi in point] for point in q],
        )

    def warmup(self) -> None:
        self.rs.run_fixed_truths(self.truths, "aoap", steps=2, seed=self.seed)
        self.rs.solve_bellman(self.model, 2)

    def run(self) -> dict:
        rs = self.rs
        t0 = time.perf_counter()
        ft = rs.run_fixed_truths(self.truths, "aoap", steps=self.steps, seed=self.seed)
        t1 = time.perf_counter()
        solved = rs.solve_bellman(self.model, self.horizon)
        wall = time.perf_counter() - t0
        states = sum(len(level) for level in solved.values.values())
        digest = hashlib.sha256(ft.counts.tobytes() + repr(solved.value).encode()).hexdigest()
        return {"wall": wall, "mc_s": t1 - t0, "rep_steps": len(self.truths) * self.steps,
                "fixed": ft, "value": solved.value, "states": states,
                "digests": {"outputs": digest}}

    def check(self, out: dict, ref: dict, check: Check) -> dict:
        rs = self.rs
        ft = out["fixed"]
        worst = 0.0
        for r, truth in enumerate(self.truths):
            check(int(ft.selections[r]) == truth.best,
                  f"truth {r}: selected {int(ft.selections[r])}, best {truth.best}")
            ratios = rs.optimal_ratios(truth)[0].ratios + ref["ratio_shift"]
            shares = ft.counts[r] / ft.counts[r].sum()
            dev = float(abs(shares - ratios).max())
            worst = max(worst, dev)
            check(dev <= SHARE_TOL, f"truth {r}: share deviation {dev:.4f} > {SHARE_TOL}")
        v = out["value"]
        check(-EXACT_TOL <= v <= 1.0 + EXACT_TOL, f"bellman value {v!r} outside [0, 1]")
        expected = math.comb(self.horizon + 4, 4)   # count states of k=2 binary outcomes
        check(out["states"] == expected, f"{out['states']} states, expected {expected}")
        dp = rs.solve_bellman(self.model, ORACLE_HORIZON).value
        bf = rs.brute_force_value(self.model, ORACLE_HORIZON)
        check(abs(dp - bf) <= EXACT_TOL,
              f"T={ORACLE_HORIZON}: |dp - brute force| = {abs(dp - bf):.2e}")
        return {"max_share_deviation": worst, "value": v, "states": out["states"],
                "digests": out["digests"]}


def make_workload(rs, name: str, seed: int, tiny: bool, workdir: Path):
    cls = SequentialExactWorkload if name == "sequential-exact" else McWorkload
    return cls(rs, name, seed, tiny, workdir)


def load_reference(name: str, wrong: bool) -> dict:
    ref = json.loads(REFERENCE.read_text()).get(name, {})
    ref = {"pcs": dict(ref.get("pcs", {})), "digests": ref.get("digests", {}), "ratio_shift": 0.0}
    if wrong:   # a deliberately wrong reference, for the self-test
        ref["pcs"] = {k: {**v, "p": (v["p"] + 0.5) % 1.0} for k, v in ref["pcs"].items()}
        ref["ratio_shift"] = 0.1
    return ref


# ---------------------------------------------------------------------------
# Set-up probes: fresh processes, spawn to ready.
# ---------------------------------------------------------------------------


def setup_probe(args) -> int:
    rs = import_ranksel()
    workdir = OUT / "work" / f"probe-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = make_workload(rs, args.workload, args.seed, args.tiny, workdir)
        wl.warmup()
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds per ranksel module: its cumulative import time minus nested ranksel imports.

    Third-party modules a ranksel module is first to import (scipy.stats
    for ``exact``) are charged to it.
    """
    out: dict[str, float] = {}
    pending: list[tuple[int, str, int, int]] = []   # (level, name, cumulative, nested ranksel)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum_s, name_field = line.split("|")
        try:
            cum = int(cum_s)
        except ValueError:
            continue   # header line
        name = name_field.strip()
        level = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        nested = 0
        while pending and pending[-1][0] > level:
            c_level, c_name, c_cum, c_nested = pending.pop()
            if c_level == level + 1:
                nested += c_cum if c_name.startswith("ranksel") else c_nested
        pending.append((level, name, cum, nested))
        if name.startswith("ranksel."):
            out[name.split(".", 1)[1]] = (cum - nested) / 1e6
    return out


def measure_setup(args, probes: int) -> tuple[list[float], list[dict]]:
    cmd = [sys.executable]
    if args.trace:
        cmd += ["-X", "importtime"]
    cmd += [str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    times, imports = [], []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err[-2000:]}")
        times.append(elapsed)
        if args.trace:
            imports.append(_parse_importtime(err))
    return times, imports


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass.
# ---------------------------------------------------------------------------


def layer_metrics(tree: SpanTree, counters: dict) -> dict[str, float]:
    def is_policies(s):
        return s[0].startswith("policies.")

    m: dict[str, float] = {}
    m["experiment.self_s"] = sum(tree.self_minus(name, is_policies) for name in ENGINE_FNS)
    m["experiment.rep_steps"] = counters.get("rep_steps", 0)
    m["experiment.bits_bytes"] = counters.get("bits_bytes", 0)
    for p in ESTIMATE_POLICIES:
        m[f"experiment.estimate_ipcs.{p}.s"] = tree.inclusive("experiment.estimate_ipcs", tag=p)
    for fn in POLICY_FNS:
        name = f"policies.{fn}"
        calls, secs = tree.calls(name), tree.inclusive(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = secs
        m[f"{name}.us_per_call"] = secs / calls * 1e6 if calls else 0.0
    aoap = m["experiment.estimate_ipcs.aoap.s"]
    two = m["experiment.estimate_ipcs.two_factor.s"]
    m["policies.two_factor_over_aoap"] = two / aoap if aoap and two else 0.0
    m["vfa.gmcl_fit.s"] = tree.inclusive("vfa.gmcl_fit")
    m["vfa.sa_minimize.self_s"] = tree.self_minus(
        "vfa.sa_minimize", lambda s: s[0] == "experiment.replication_features")
    m["vfa.gmcl_gradient.calls"] = tree.calls("vfa.gmcl_gradient")
    m["exact.solve_bellman.s"] = tree.inclusive("exact.solve_bellman")
    m["exact.states"] = counters.get("states", 0)
    m["exact.us_per_state"] = (m["exact.solve_bellman.s"] / m["exact.states"] * 1e6
                               if m["exact.states"] else 0.0)
    m["cli.self_s"] = tree.self_minus("cli.main", lambda s: s[0] == "experiment.run_experiment")
    return m


def _median_dicts(dicts: list[dict]) -> dict:
    keys = dicts[0].keys() if dicts else ()
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


# ---------------------------------------------------------------------------
# Run record.
# ---------------------------------------------------------------------------


def run_record(args, rs) -> dict:
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    files = sorted((SRC / "ranksel").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform()},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "ranksel": rs.__version__},
        "git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
    }


def baseline_note(workload: str, layers: dict, extra: dict) -> dict:
    """Measured figures next to the ROADMAP baseline table's single runs."""
    measured = {**layers, **extra}
    rows = {}
    for key, base in ROADMAP_BASELINE[workload].items():
        value = measured.get(key)
        if value:
            rows[key] = {"roadmap": base, "measured": value, "ratio": value / base}
    return {"note": "ROADMAP baseline figures are single runs (about +-10%); "
                    "ratio = measured / roadmap", "rows": rows}


# ---------------------------------------------------------------------------
# One benchmark run.
# ---------------------------------------------------------------------------


def spec_metrics(trace: int) -> list[dict]:
    spec = json.loads(SPEC.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def measure_passes(args, rs, wl, tracer: Tracer) -> list[dict]:
    """Timed passes for ``args.seconds``; with tracing, untraced and traced alternate."""
    passes = []
    start = time.perf_counter()
    while True:
        n_traced = sum(p["traced"] for p in passes)
        traced = bool(args.trace) and len(passes) - n_traced > n_traced
        if traced:
            tracer.start_run(f"{args.workload}-seed{args.seed}-pass{len(passes)}")
            lo = len(tracer.spans)
            tracer.install(rs)
            try:
                out = wl.run()
            finally:
                tracer.uninstall()
            tree = SpanTree(tracer.spans, lo, len(tracer.spans))
            out["layers"] = layer_metrics(tree, tracer.counters)
            out["self_s"] = tree.self_times()
            out["fixed_truths_s"] = tree.inclusive("experiment.run_fixed_truths")
        else:
            out = wl.run()
        out["traced"] = traced
        passes.append(out)
        elapsed = time.perf_counter() - start
        need_traced = bool(args.trace) and not any(p["traced"] for p in passes)
        if not need_traced and elapsed + max(p["wall"] for p in passes) > args.seconds:
            return passes


def run(args) -> int:
    rs = import_ranksel()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ref = load_reference(args.workload, args.wrong_reference)
    tracer = Tracer()
    try:
        wl = make_workload(rs, args.workload, args.seed, args.tiny, workdir)
        wl.warmup()
        setup_times, imports = measure_setup(args, 1 if args.tiny else SETUP_PROBES[args.trace])
        passes = measure_passes(args, rs, wl, tracer)
        check = Check()
        details = [wl.check(p, ref, check) for p in passes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    if args.trace:
        layers = _median_dicts([p["layers"] for p in traced_passes])
        for module in LAYER_MODULES:
            layers[f"{module}.import_s"] = statistics.median(
                d.get(module, 0.0) for d in imports)
        layers["trace.overhead_frac"] = (statistics.median(p["wall"] for p in traced_passes)
                                         / statistics.median(p["wall"] for p in plain) - 1.0)
        values = layers
    else:
        values = {
            "wall_s": statistics.median(p["wall"] for p in plain),
            "setup_s": statistics.median(setup_times),
            "rep_steps_per_s": statistics.median(p["rep_steps"] / p["mc_s"] for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec_metrics(args.trace)}

    reference_digests = ref["digests"].get(str(args.seed)) if not args.tiny else None
    csv_identical = {}
    if reference_digests:
        csv_identical = {k: v == reference_digests.get(k)
                         for k, v in details[0]["digests"].items()}
    result = {"correct": not check.failures, "attempted": check.attempted,
              "failed": len(check.failures), "metrics": metrics}
    record = run_record(args, rs)
    record.update({
        "failed_frac": len(check.failures) / check.attempted,
        "failures": check.failures[:50],
        "passes": [{"traced": p["traced"], "wall_s": p["wall"], "mc_s": p["mc_s"],
                    "rep_steps": p["rep_steps"]} for p in passes],
        "setup_s_samples": setup_times,
        "checks": details,
        # Diagnostic only: an output change need not be a failure.
        "identical_to_reference": csv_identical or None,
    })
    if args.trace:
        record["import_s_samples"] = imports
        record["self_s_by_span"] = _median_dicts([p["self_s"] for p in traced_passes])
        fixed = statistics.median(p["fixed_truths_s"] for p in traced_passes)
        extra = {}
        if fixed and args.workload == "sequential-exact":
            extra["experiment.run_fixed_truths.us_per_step"] = fixed / passes[0]["rep_steps"] * 1e6
        record["baseline_compare"] = baseline_note(args.workload, layers, extra)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        record["spans_file"] = spans_path.name
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1, default=float))

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print(f"{args.workload} failed_frac = {record['failed_frac']!r} "
          f"({result['failed']} of {result['attempted']} checks)")
    for f in check.failures[:10]:
        print(f"  check failed: {f}")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Reference recording and self-test.
# ---------------------------------------------------------------------------


def _seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def record_reference(args) -> int:
    """Run one pass per seed (and workload, unless one is given); store pooled
    final PCS and output digests in ``reference.json``."""
    rs = import_ranksel()
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in [args.workload] if args.workload else WORKLOADS:
        pcs: dict[str, dict] = {}
        digests = {}
        for seed in _seed_list(args.record_reference):
            workdir = OUT / "work" / f"record-{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            wl = make_workload(rs, name, seed, False, workdir)
            wl.warmup()
            out = wl.run()
            if name != "sequential-exact":
                for key, curves in out["curves"].items():
                    reps = wl.configs[key][2]
                    for pid, c in curves.items():
                        acc = pcs.setdefault(pid, {"hits": 0.0, "n": 0})
                        acc["hits"] += c["ipcs"][-1] * reps
                        acc["n"] += reps
            digests[str(seed)] = out["digests"]
            shutil.rmtree(workdir, ignore_errors=True)
            print(f"recorded {name} seed {seed}: {out['wall']:.2f} s", file=sys.stderr)
        reference[name] = {"pcs": {pid: {"p": a["hits"] / a["n"], "n": a["n"]}
                                   for pid, a in sorted(pcs.items())},
                           "digests": digests}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def self_test() -> int:
    """Tiny runs: every named metric and unit is printed, a wrong reference fails."""
    spec = json.loads(SPEC.read_text())
    script = str(Path(__file__).resolve())
    problems = []

    def go(cmd, cwd=ROOT):
        proc = subprocess.run([sys.executable, script] + cmd, cwd=cwd, capture_output=True,
                              text=True, timeout=600)
        return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr

    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, err = go(["--workload", name, "--seed", "1", "--seconds", "1",
                                   "--trace", str(trace), "--tiny"])
            if code != 0:
                problems.append(f"{name} trace={trace}: exit {code}: {err[-500:]}")
                continue
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want))}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] > 0):
                problems.append(f"{name} trace={trace}: checks failed: {lines[-3:]}")
        code, lines, err = go(["--workload", name, "--seed", "1", "--seconds", "1",
                               "--trace", "0", "--tiny", "--wrong-reference"])
        result = json.loads(lines[-1]) if code == 0 else {}
        if not result.get("failed", 0) > 0 or result.get("correct", True):
            problems.append(f"{name}: a wrong reference did not fail a check")
        print(f"self-test {name}: done", file=sys.stderr)

    # Without the sources next to it the benchmark must refuse to run.
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(SPEC, bare / SPEC.name)
    proc = subprocess.run([sys.executable, str(bare / BENCH_DIR.name / "run.py"), "--workload",
                           "mc-wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a checkout without src/ did not exit non-zero without a result")

    for p in problems:
        print(f"self-test FAIL: {p}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes (self-test)")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="perturb the references so that checks fail (self-test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-reference", metavar="SEEDS",
                    help="record reference PCS and digests for seeds such as 1-10")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.record_reference:
        return record_reference(args)
    if args.workload is None:
        fail_usage("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
