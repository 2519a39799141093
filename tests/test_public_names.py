"""Every public name has a caller in the library or the benchmark.

A name in ``risgroups.__all__`` that only tests read is an API kept alive for
its own tests; it is deleted instead.  A caller is a load of the name, as a
bare name or an attribute, in ``src/risgroups/*.py`` other than
``__init__.py`` (which only re-exports) or in ``perfbench/*.py``.
"""

import ast
import importlib
from pathlib import Path

import risgroups

ROOT = Path(__file__).resolve().parent.parent


def loaded_names(paths) -> set:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    library = [p for p in (ROOT / "src" / "risgroups").glob("*.py") if p.name != "__init__.py"]
    used = loaded_names(library + list((ROOT / "perfbench").glob("*.py")))
    assert sorted(set(risgroups.__all__) - used) == []


# names the benchmark traces or calls by module path; they are not public API
BENCHMARK_TWINS = {"gamma_cdf": "channel", "sample_rician_vector": "channel",
                   "outage_ebgs": "selection", "simulate_block": "sim"}


def test_benchmark_twins_live_only_in_their_modules():
    for name, module in BENCHMARK_TWINS.items():
        assert name not in risgroups.__all__
        assert not hasattr(risgroups, name)
        assert callable(getattr(importlib.import_module(f"risgroups.{module}"), name))
