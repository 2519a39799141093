"""One benchmark workload run in a fresh process (started by ``run.py``).

The child writes its scenario files from the shipped ``scenarios/*.cfg`` with
the seed and trial counts of the run, imports the library and loads them
(set-up), then repeats the workload body until ``--seconds`` have passed.
Every repetition writes the CLI's CSV output, which is checked and digested
outside the timed region.  With ``--trace 1`` the repetitions alternate
between the pristine library and the traced one, and the per-layer numbers
come from the traced repetitions only.

The last line on stdout is one JSON object for ``run.py``.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import Tracer, group_totals, self_times

ROOT = Path(__file__).resolve().parent.parent

# Trial and draw counts are fixed here, not taken from the scenario files,
# which are sized for publication plots (a minute or more per sweep).
# 16384 data trials keep the -56 dB point's sampling noise (sd 0.0025) well
# inside the margin between its known fit bias (about 0.021) and the 0.03
# gate; at 8192 trials that point misses the gate on roughly 1 seed in 200.
# The bounds scenario runs at 17 dBm, where about half of the PS snapshots are
# infeasible (energy- and rate-limited) and the TS ones mostly feasible, so
# both the feasible and the infeasible branches run; at its default 30 dBm
# nearly every snapshot is feasible.
WORKLOADS = {
    "data_sbgs_snr": {
        "cfg": "data_snr_sbgs.cfg", "overrides": {"n_trials": 16384},
    },
    "energy_ebgs_nonlinear": {
        "cfg": "energy_ptx_nonlinear.cfg", "overrides": {"n_trials": 8192},
    },
    "group_count_b": {
        "cfg": "evt_groups.cfg", "overrides": {"n_trials": 8192}, "evt": True,
    },
    "bounds_snapshots": {
        "cfg": "bounds_ps_linear.cfg", "overrides": {"n_draws": 2500, "p_tx_dbm": 17},
        "variants": [
            {"mode": "ps", "eh": "linear"},
            {"mode": "ps", "eh": "nonlinear"},
            {"mode": "ts", "eh": "linear"},
            {"mode": "ts", "eh": "nonlinear"},
        ],
    },
}

# Public functions the traced run rebinds, by defining module.
TRACED = [
    "risgroups.sim.simulate_block",
    "risgroups.sim.block_rng",
    "risgroups.sim.estimate_outage",
    "risgroups.sim.analytic_outage",
    "risgroups.selection.fit_energy_distribution",
    "risgroups.selection.outage_rgs",
    "risgroups.selection.outage_sbgs",
    "risgroups.selection.outage_ebgs",
    "risgroups.channel.build_correlation_matrix",
    "risgroups.channel.fit_gamma_product",
    "risgroups.channel.sample_rician_vector",
    "risgroups.energy.harvest_rate",
    "risgroups.bounds.rho_bounds_linear",
    "risgroups.bounds.rho_bounds_nonlinear",
    "risgroups.bounds.zeta_bounds_linear",
    "risgroups.bounds.zeta_bounds_nonlinear",
    "risgroups.specfun.reg_incomplete_beta",
    "risgroups.specfun.reg_lower_incomplete_gamma",
    "risgroups.evt.normalizing_constants",
    "risgroups.evt.check_gumbel_domain",
    "risgroups.evt.outage_evt",
    "risgroups.cli.load_scenario",
    "risgroups.cli.run",
    "risgroups.cli.run_bounds",
]

_SWEEP_CALLS = {
    "sim.simulate_block", "sim.block_rng", "sim.estimate_outage",
    "sim.analytic_outage", "selection.outage_sbgs",
    "channel.build_correlation_matrix", "energy.harvest_rate",
    "specfun.reg_incomplete_beta", "specfun.reg_lower_incomplete_gamma",
    "cli.load_scenario", "cli.run",
}

# Functions each workload exists to exercise: a traced run in which one of
# them was never called fails instead of reporting a silent zero.
EXPECTED_CALLS = {
    "data_sbgs_snr": _SWEEP_CALLS | {"selection.outage_rgs", "channel.fit_gamma_product"},
    "energy_ebgs_nonlinear": _SWEEP_CALLS | {
        "selection.fit_energy_distribution", "selection.outage_ebgs"},
    "group_count_b": _SWEEP_CALLS | {
        "selection.outage_rgs", "channel.fit_gamma_product",
        "evt.normalizing_constants", "evt.check_gumbel_domain", "evt.outage_evt"},
    "bounds_snapshots": {
        "sim.block_rng", "channel.sample_rician_vector",
        "channel.build_correlation_matrix", "bounds.rho_bounds_linear",
        "bounds.rho_bounds_nonlinear", "bounds.zeta_bounds_linear",
        "bounds.zeta_bounds_nonlinear", "cli.load_scenario", "cli.run_bounds",
    },
}

# Per-layer groups reported as ``<group>.calls`` and ``<group>.s``.
LAYER_GROUPS = {
    "sim.simulate_block": ["sim.simulate_block"],
    "sim.block_rng": ["sim.block_rng"],
    "sim.analytic_outage": ["sim.analytic_outage"],
    "selection.fit_energy_distribution": ["selection.fit_energy_distribution"],
    "selection.outage": ["selection.outage_rgs", "selection.outage_sbgs",
                         "selection.outage_ebgs"],
    "channel.build_correlation_matrix": ["channel.build_correlation_matrix"],
    "channel.fit_gamma_product": ["channel.fit_gamma_product"],
    "channel.sample_rician_vector": ["channel.sample_rician_vector"],
    "energy.harvest_rate": ["energy.harvest_rate"],
    "bounds.intervals": ["bounds.rho_bounds_linear", "bounds.rho_bounds_nonlinear",
                         "bounds.zeta_bounds_linear", "bounds.zeta_bounds_nonlinear"],
    "specfun.reg_incomplete_beta": ["specfun.reg_incomplete_beta"],
    "specfun.reg_lower_incomplete_gamma": ["specfun.reg_lower_incomplete_gamma"],
    "evt": ["evt.normalizing_constants", "evt.check_gumbel_domain", "evt.outage_evt"],
}
_GROUP_OF = {name: group for group, names in LAYER_GROUPS.items() for name in names}
CAUSES = ("energy-limited", "rate-limited", "saturation")

# At most this many traced repetitions, so the in-memory spans stay small.
MAX_TRACED_REPS = 5
# Untraced runs time set-up in this many extra fresh processes, spread over
# the run between repetitions: the machine's speed drifts over seconds, and
# back-to-back probes would all sample one moment.
SETUP_PROBES = 9


def derive_cfg(text, overrides):
    """Scenario text with each overridden key's line replaced."""
    kept = [
        line for line in text.splitlines()
        if line.split("#", 1)[0].partition("=")[0].strip() not in overrides
    ]
    return "\n".join(kept + [f"{k} = {v}" for k, v in overrides.items()]) + "\n"


def write_inputs(name, seed, out_dir):
    """Write the run's scenario files; return ``[(label, cfg_path, csv_path)]``."""
    spec = WORKLOADS[name]
    text = (ROOT / "scenarios" / spec["cfg"]).read_text(encoding="utf-8")
    inputs = []
    for variant in spec.get("variants", [{}]):
        label = "-".join(variant.values()) or name
        overrides = {**spec["overrides"], **variant, "seed": seed}
        cfg = out_dir / f"{label}.cfg"
        cfg.write_text(derive_cfg(text, overrides), encoding="utf-8")
        inputs.append((label, cfg, out_dir / f"{label}.csv"))
    return inputs


def digest(paths):
    """SHA-256 of the CSV lines, without the cwd-dependent ``# version`` line."""
    h = hashlib.sha256()
    for path in paths:
        for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
            if not line.startswith("# version"):
                h.update(line.encode())
    return h.hexdigest()


def read_csv(path):
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def gamma_pdf(fit, x):
    if x <= 0:
        return 0.0
    return math.exp((fit.shape - 1.0) * math.log(x) - x / fit.scale
                    - fit.shape * math.log(fit.scale) - math.lgamma(fit.shape))


def gumbel_outage(rg, scenario, b):
    """Gumbel-limit outage of the k-th best of ``b`` groups at the data threshold."""
    m = scenario.params.m_per_group
    params = dataclasses.replace(scenario.params, b_groups=b, n_total=m * b)
    trial = scenario.trial
    if trial.mode.kind != "PS":
        raise ValueError("the Gumbel threshold below is the PS one")
    fit = rg.channel.fit_gamma_product(params)

    def cdf(x):
        return rg.channel.gamma_cdf(fit, x)

    def pdf(x):
        return gamma_pdf(fit, x)

    constants = rg.evt.normalizing_constants(cdf, pdf, b)
    rg.evt.check_gumbel_domain(cdf, pdf, b)
    threshold = (2.0 ** trial.r_req - 1.0) / (
        (1.0 - trial.mode.rho) * rg.selection.mean_snr_scale(params))
    return rg.evt.outage_evt(threshold, trial.strategy.k, constants)


class Workload:
    """The body of one workload and the checks of its outputs."""

    def __init__(self, name, rg, scenarios, inputs):
        self.name = name
        self.rg = rg
        self.scenarios = scenarios
        self.inputs = inputs
        self.spec = WORKLOADS[name]
        if "variants" in self.spec:
            self.ops = sum(sc.n_draws for sc in scenarios)
            self.evals = self.ops
        else:
            sc = scenarios[0]
            self.ops = len(sc.sweep_grid)
            self.evals = sc.trial.n_trials * self.ops

    def body(self):
        """Run the workload once; return what raised, per operation label."""
        errors = {}
        evt = {}
        for (label, _, csv_path), sc in zip(self.inputs, self.scenarios):
            try:
                if "variants" in self.spec:
                    self.rg.cli.run_bounds(sc, str(csv_path))
                else:
                    self.rg.cli.run(sc, str(csv_path), workers=1)
            except Exception as exc:  # counted as failed operations, run goes on
                errors[label] = f"{type(exc).__name__}: {exc}"
                continue
            if self.spec.get("evt"):
                for value in sc.sweep_grid:
                    try:
                        evt[value] = gumbel_outage(self.rg, sc, int(value))
                    except Exception as exc:
                        errors[value] = f"{type(exc).__name__}: {exc}"
        return errors, evt

    def check(self, errors, evt):
        """``(failures, quality)``: failing operations and result-quality numbers."""
        if "variants" in self.spec:
            return self._check_bounds(errors)
        return self._check_sweep(errors, evt)

    def _check_sweep(self, errors, evt):
        label, _, csv_path = self.inputs[0]
        sc = self.scenarios[0]
        if label in errors:
            return [{"point": v, "reason": errors[label]} for v in sc.sweep_grid], {}
        rows = read_csv(csv_path)
        failures = []
        gaps = []
        zero_ci = 0
        for i, value in enumerate(sc.sweep_grid):
            reasons = []
            row = rows[i] if i < len(rows) else None
            if row is None or float(row["sweep_value"]) != value:
                failures.append({"point": value, "reason": "row missing"})
                continue
            a = float(row["analytic_outage"])
            e = float(row["empirical_outage"])
            ci = float(row["ci_halfwidth"])
            if int(row["n_trials"]) != sc.trial.n_trials:
                reasons.append(f"n_trials {row['n_trials']}")
            if not math.isfinite(a):
                reasons.append(f"analytic {a} not finite")
            if not 0.0 <= e <= 1.0:
                reasons.append(f"empirical {e} outside [0,1]")
            if math.isfinite(a) and abs(a - e) > max(0.03, 3.0 * ci):
                reasons.append(f"|analytic-empirical| {abs(a - e):.4g} > max(0.03, 3*CI {ci:.4g})")
            if value in errors:
                reasons.append(errors[value])
            elif self.spec.get("evt"):
                p_evt = evt[value]
                if not (math.isfinite(p_evt) and 0.0 <= p_evt <= 1.0):
                    reasons.append(f"Gumbel-limit outage {p_evt} outside [0,1]")
            if reasons:
                failures.append({"point": value, "reason": "; ".join(reasons)})
            if ci > 0:
                gaps.append(abs(a - e) / ci)
            elif e == 0.0 and a > 0.0:
                zero_ci += 1
        if len(rows) != len(sc.sweep_grid):
            failures.append({"point": None, "reason": f"{len(rows)} rows for "
                             f"{len(sc.sweep_grid)} grid points"})
        quality = {"sim.gap_ci_max": max(gaps, default=0.0),
                   "sim.zero_ci_points": zero_ci}
        return failures, quality

    def _check_bounds(self, errors):
        failures = []
        for (label, _, csv_path), sc in zip(self.inputs, self.scenarios):
            if label in errors:
                failures.extend({"point": f"{label}/{d}", "reason": errors[label]}
                                for d in range(sc.n_draws))
                continue
            rows = read_csv(csv_path)
            if len(rows) != sc.n_draws:
                failures.append({"point": label, "reason": f"{len(rows)} rows for "
                                 f"{sc.n_draws} draws"})
            for row in rows:
                lower, upper = float(row["lower"]), float(row["upper"])
                reasons = []
                if not (0.0 <= lower <= 1.0 and 0.0 <= upper <= 1.0):
                    reasons.append(f"interval [{lower}, {upper}] outside [0,1]")
                if row["feasible"] == "true" and lower > upper:
                    reasons.append(f"feasible with lower {lower} > upper {upper}")
                if reasons:
                    failures.append({"point": f"{label}/{row['channel_draw']}",
                                     "reason": "; ".join(reasons)})
        return failures, {}


class LayerCounters:
    """Counts taken from the traced functions' arguments and results."""

    def __init__(self, tracer, simulate_block_signature):
        self.tracer = tracer
        self.signature = simulate_block_signature
        self.by_run = {}

    def _counter(self):
        return self.by_run.setdefault(self.tracer.run_id, Counter())

    def on_simulate_block(self, args, kwargs, result):
        bound = self.signature.bind(*args, **kwargs).arguments
        n = bound["n"]
        params = bound["params"]
        c = self._counter()
        c["trials_drawn"] += n
        c["normals"] += 4 * n * params.b_groups * params.m_per_group + n

    def on_interval(self, args, kwargs, result):
        c = self._counter()
        c["intervals"] += 1
        c["feasible"] += bool(result.feasible)
        if result.cause is not None:
            c["cause." + result.cause] += 1

    def observers(self):
        intervals = [t for t in TRACED if t.startswith("risgroups.bounds.")]
        return {"risgroups.sim.simulate_block": self.on_simulate_block,
                **{t: self.on_interval for t in intervals}}


def layer_metrics(spans, selfs, run_id, counts, evals, quality):
    """Per-layer numbers of one traced repetition; ``selfs`` are the self times."""
    totals = group_totals(spans, _GROUP_OF.get, run_id)
    out = {}
    for group in LAYER_GROUPS:
        calls, seconds = totals.get(group, (0, 0.0))
        out[f"{group}.calls"] = calls
        out[f"{group}.s"] = seconds
    select_s = cli_self_s = 0.0
    for sid, (name, _, _, _, rid) in enumerate(spans):
        if rid != run_id:
            continue
        if name == "sim.estimate_outage":
            select_s += selfs[sid]
        elif name in ("cli.run", "cli.run_bounds"):
            cli_self_s += selfs[sid]
    drawn = counts["trials_drawn"]
    out["sim.select_s"] = select_s
    out["cli.self_s"] = cli_self_s
    out["sim.trials_drawn"] = drawn
    out["sim.draw_reuse"] = evals / drawn if drawn else 0.0
    out["sim.normals_per_eval"] = counts["normals"] / evals
    out["sim.gap_ci_max"] = quality.get("sim.gap_ci_max", 0.0)
    out["sim.zero_ci_points"] = quality.get("sim.zero_ci_points", 0)
    out["bounds.feasible_frac"] = (
        counts["feasible"] / counts["intervals"] if counts["intervals"] else 0.0)
    for cause in CAUSES:
        out[f"bounds.cause.{cause}"] = counts["cause." + cause]
    return out


def metadata(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else "unknown"
    except OSError:
        sha = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": sha,
        "seed": seed,
        "src_lines": src_lines,
    }


def probe_setup(argv):
    """Set-up time of one fresh process."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="directory for CSVs and spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up, print it and exit")
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = write_inputs(args.workload, args.seed, out_dir)

    t0 = time.perf_counter()
    import risgroups
    import risgroups.cli
    if not Path(risgroups.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"risgroups imported from {risgroups.__file__}, not {ROOT / 'src'}")
    tracer = None
    if args.trace:
        tracer = Tracer(TRACED)
        counters = LayerCounters(
            tracer, inspect.signature(risgroups.sim.simulate_block))
        tracer.observers = counters.observers()
    with tracer or contextlib.nullcontext():
        scenarios = [risgroups.cli.load_scenario(str(cfg)) for _, cfg, _ in inputs]
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload = Workload(args.workload, risgroups, scenarios, inputs)
    probe_argv = [sys.executable, __file__, *(argv if argv is not None else sys.argv[1:]),
                  "--setup-only"]
    setup_samples = [setup_s]
    reps = []
    first_failures = None
    digests = set()
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.run_id = len(reps) + 1
            with tracer:
                t = time.perf_counter()
                errors, evt = workload.body()
                dt = time.perf_counter() - t
        else:
            t = time.perf_counter()
            errors, evt = workload.body()
            dt = time.perf_counter() - t
        failures, quality = workload.check(errors, evt)
        if first_failures is None:
            first_failures = failures
        digests.add(digest([csv for _, _, csv in inputs]))
        reps.append({"seconds": dt, "traced": traced, "failed": len(failures),
                     "quality": quality})
        n_traced = sum(r["traced"] for r in reps)
        if tracer is not None and n_traced >= MAX_TRACED_REPS:
            break
        done = time.perf_counter() >= deadline
        if tracer is None:
            share = 1.0 if done else (time.perf_counter() - start) / args.seconds
            while len(setup_samples) - 1 < math.ceil(SETUP_PROBES * share):
                setup_samples.append(probe_setup(probe_argv))
        if done and (tracer is None or n_traced >= 1):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = [r["seconds"] for r in reps if not r["traced"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_samples": setup_samples,
        "rep_seconds": [r["seconds"] for r in reps],
        "rep_traced": [r["traced"] for r in reps],
        "run_s": statistics.median(untraced),
        "evals": workload.evals,
        "attempted": workload.ops * len(reps),
        "failed": sum(r["failed"] for r in reps),
        "failing_points": first_failures,
        "csv_sha256": sorted(digests),
        "peak_rss_mb": peak_rss_mb,
        "meta": metadata(args.seed),
    }
    if tracer is not None:
        result["layers"] = traced_layers(args.workload, tracer, counters, workload,
                                         reps, untraced)
        tracer.write(out_dir / "spans.csv")
    print(json.dumps(result))
    return 0


def traced_layers(name, tracer, counters, workload, reps, untraced):
    """Median per-layer numbers over the traced repetitions."""
    spans = tracer.spans
    never = sorted(EXPECTED_CALLS[name] - {span[0] for span in spans})
    if never:
        raise RuntimeError(f"{name}: traced functions never called: {', '.join(never)}")
    selfs = self_times(spans)
    per_rep = [
        layer_metrics(spans, selfs, i + 1, counters.by_run.get(i + 1, Counter()),
                      workload.evals, r["quality"])
        for i, r in enumerate(reps) if r["traced"]
    ]
    layers = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
    load = group_totals(spans, {"cli.load_scenario": "load"}.get, 0)
    layers["cli.load_scenario.s"] = load.get("load", (0, 0.0))[1]
    traced_s = statistics.median(r["seconds"] for r in reps if r["traced"])
    run_s = statistics.median(untraced)
    layers["trace.overhead_frac"] = (traced_s - run_s) / run_s
    return layers


if __name__ == "__main__":
    sys.exit(main())
