"""Every public name has a caller in the library or the benchmark.

A name in ``risgroups.__all__`` that only tests read is an API kept alive for
its own tests; it is deleted instead.  A caller is a load of the name, as a
bare name or an attribute, in ``src/risgroups/*.py`` other than
``__init__.py`` (which only re-exports) or in ``perfbench/*.py``.
"""

import ast
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
