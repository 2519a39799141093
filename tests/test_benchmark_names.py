"""Names the benchmark in ``perfbench/`` traces and binds by name.

``perfbench/workloads.py`` rebinds every function listed in its ``TRACED``
and binds ``simulate_block``'s arguments ``params`` and ``n`` to count draws.
A rename in the library breaks only a full traced benchmark run, so these
checks read the list from the benchmark source without importing it.
"""

import ast
import importlib
import inspect
from pathlib import Path

from risgroups import sim
from risgroups.channel import SystemParams

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def traced_names():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {WORKLOADS}")


def test_traced_names_resolve():
    names = traced_names()
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
