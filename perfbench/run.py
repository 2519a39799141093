"""Benchmark entry point: one workload run, one JSON result line.

    python3 perfbench/run.py --workload data_sbgs_snr --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the library is imported from its
``src/`` directory.  Every process is a fresh single-threaded child: BLAS is
pinned to one thread in the child's environment and the CLI runs with
``workers=1``.  With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics.  Details (run
metadata, CSV digests, failing points, all repetition times) go to
``.perfbench_out/<workload>-seed<seed>-trace<t>/result.json`` and, one JSON
object per line, to stdout before the result line.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# The measuring child, set-up probes included, ends within this many seconds.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, timeout):
    # own process group, so a timeout also stops the child's set-up probes
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *argv],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def end_to_end(res):
    run_s = res["run_s"]
    return {
        "setup_s": statistics.median(res["setup_samples"]),
        "run_s": run_s,
        "trials_per_s": res["evals"] / run_s,
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_frac": 1.0 - res["failed"] / res["attempted"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="risgroups benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "risgroups" / "__init__.py",
                   ROOT / "scenarios" / WORKLOADS[args.workload]["cfg"]):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--out", str(out_dir)]
    try:
        res = run_child(child_args, BUDGET_S)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, wanted = res["layers"], spec["per_layer"]
    else:
        values, wanted = end_to_end(res), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = res["failed"] == 0 and len(res["csv_sha256"]) == 1
    details = {**res, "metrics": metrics, "correct": correct}
    (out_dir / "result.json").write_text(json.dumps(details, indent=1) + "\n",
                                         encoding="utf-8")

    print(json.dumps({"meta": res["meta"]}))
    print(json.dumps({"csv_sha256": res["csv_sha256"], "workload": args.workload,
                      "seed": args.seed}))
    for fail in res["failing_points"]:
        print(json.dumps({"failing_point": {"workload": args.workload, **fail}}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
