"""Names the benchmark in ``perfbench/`` traces, binds and expects to be called.

``perfbench/workloads.py`` rebinds every function listed in its ``TRACED``,
binds ``simulate_block``'s arguments ``params`` and ``n`` to count draws, and
fails a traced run in which a name of the workload's ``EXPECTED_CALLS`` was
never called.  A change in the library breaks only a full traced benchmark
run, so these checks read those constants from the benchmark source without
importing it and drive each workload's shipped scenario at a tiny size.
"""

import ast
import collections
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from risgroups import cli, sim
from risgroups.channel import SystemParams

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
TINY = {"n_trials": 64, "n_draws": 8}


def _resolve(node, known):
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _resolve(node.left, known) | _resolve(node.right, known)
    if isinstance(node, ast.Name):
        return known[node.id]
    if isinstance(node, ast.Dict):
        return {_resolve(k, known): _resolve(v, known)
                for k, v in zip(node.keys, node.values)}
    return ast.literal_eval(node)


def benchmark_constants() -> dict:
    """Module-level literals of the benchmark source, with ``a | b`` unions."""
    known = {}
    for node in ast.parse(WORKLOADS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                known[node.targets[0].id] = _resolve(node.value, known)
            except (ValueError, KeyError, TypeError):
                continue
    return known


CONSTANTS = benchmark_constants()


def test_traced_names_resolve():
    names = CONSTANTS["TRACED"]
    assert names
    for name in names:
        module_name, _, attr = name.rpartition(".")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), name


def test_simulate_block_binds_params_and_n():
    params = SystemParams()
    bound = inspect.signature(sim.simulate_block).bind(params, 7, sim.block_rng(0, 0))
    assert bound.arguments["params"] is params
    assert bound.arguments["n"] == 7


def record_calls(monkeypatch, names) -> dict:
    """The results of each ``module.function``'s calls through every name it is
    bound to, by name; a name never called has no entry."""
    calls = collections.defaultdict(list)
    for name in names:
        module_name, _, attr = f"risgroups.{name}".rpartition(".")
        original = getattr(importlib.import_module(module_name), attr)

        def recording(*args, _fn=original, _name=name, **kwargs):
            result = _fn(*args, **kwargs)
            calls[_name].append(result)
            return result

        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("risgroups") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, recording)
    return calls


def scenario_text(spec, variant) -> str:
    """The shipped scenario with the benchmark's overrides, shrunk to ``TINY``."""
    overrides = {**spec["overrides"], **variant, "seed": 1}
    overrides.update({k: v for k, v in TINY.items() if k in overrides})
    text = (ROOT / "scenarios" / spec["cfg"]).read_text(encoding="utf-8")
    kept = [line for line in text.splitlines()
            if line.split("#", 1)[0].partition("=")[0].strip() not in overrides]
    return "\n".join(kept + [f"{k} = {v}" for k, v in overrides.items()]) + "\n"


@pytest.mark.parametrize("workload", sorted(CONSTANTS["EXPECTED_CALLS"]))
def test_expected_calls_are_reached(workload, tmp_path, monkeypatch):
    # the evt names are called by the benchmark itself, not through the CLI
    expected = {name for name in CONSTANTS["EXPECTED_CALLS"][workload]
                if not name.startswith("evt.")}
    spec = CONSTANTS["WORKLOADS"][workload]
    calls = record_calls(monkeypatch, expected)
    for i, variant in enumerate(spec.get("variants", [{}])):
        cfg = tmp_path / f"{i}.cfg"
        cfg.write_text(scenario_text(spec, variant), encoding="utf-8")
        scenario = cli.load_scenario(str(cfg))
        if "variants" in spec:
            cli.run_bounds(scenario, str(tmp_path / f"{i}.csv"))
        else:
            cli.run(scenario, str(tmp_path / f"{i}.csv"), workers=1)
    assert sorted(expected - set(calls)) == []
    # the tracer counts each interval by its verdict and its cause
    for result in (r for name in expected if name.startswith("bounds.") for r in calls[name]):
        assert bool(result.feasible) == (result.cause is None)
        assert result.cause in (None, *CONSTANTS["CAUSES"])
