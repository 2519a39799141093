"""README names only live code.

Every backticked ``module.name`` reference and every backticked ``name(`` call
in README.md must resolve: to a ``risgroups`` module, to an attribute of one or
of one of its public classes, or to a name that the README's python example
defines.  A rename that leaves a stale name in README fails here.  File names
(``pyproject.toml``) and the parts of paths (``perfbench/run.py``) are not
names; fenced code blocks are left to the CI step that runs the example.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import risgroups

README = Path(__file__).resolve().parent.parent / "README.md"

FILE_SUFFIXES = {"cfg", "csv", "json", "md", "py", "toml", "txt", "yml"}
# a dotted name or a call that starts a name: not inside a path, a number or another name
DOTTED = re.compile(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
CALL = re.compile(r"(?<![\w./])([A-Za-z_]\w*)\(")

MODULES = {info.name: importlib.import_module(f"risgroups.{info.name}")
           for info in pkgutil.iter_modules(risgroups.__path__)}
CLASSES = {name: obj for module in MODULES.values()
           for name, obj in vars(module).items()
           if inspect.isclass(obj) and not name.startswith("_")
           and obj.__module__ == module.__name__}
OWNERS = {"risgroups": risgroups, **MODULES, **CLASSES}


def split_readme(text: str) -> tuple[list[str], str]:
    """The inline code spans outside fenced blocks, and the python example."""
    example, prose, fence = [], [], None
    for line in text.splitlines():
        if line.startswith("```"):
            fence = None if fence is not None else line[3:].strip()
            continue
        if fence == "python":
            example.append(line)
        elif fence is None:
            prose.append(line)
    # a span may wrap onto the next line of a paragraph
    spans = re.findall(r"`([^`]+)`", "\n".join(prose))
    return spans, "\n".join(example)


def defined_names(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
    return names


def resolves(dotted: str, example: set) -> bool:
    head, *rest = dotted.split(".")
    if head not in OWNERS:
        return head in example
    obj = OWNERS[head]
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def stale_names(text: str) -> list[str]:
    spans, source = split_readme(text)
    example = defined_names(source)
    known = {name for owner in OWNERS.values() for name in dir(owner)} | example
    stale = []
    for span in spans:
        for dotted in DOTTED.findall(span):
            if dotted.rsplit(".", 1)[1] not in FILE_SUFFIXES and not resolves(dotted, example):
                stale.append(dotted)
        stale += [name for name in CALL.findall(span) if name not in known]
    return stale


def test_readme_names_only_live_code():
    assert stale_names(README.read_text(encoding="utf-8")) == []


def test_a_stale_name_is_caught():
    example = "```python\nsnap = 1\n```\n"
    assert stale_names(example + "`channel.sample_channels`, `snap.z`, `trials()`") == []
    assert stale_names(example + "`pyproject.toml`, `perfbench/run.py --seconds 1`") == []
    assert stale_names(example + "`channel.element_law`, `composite_law(params)`, "
                       "`sim._law_key`, `risgroups.nothing`, `gone.x`") == [
        "channel.element_law", "composite_law", "sim._law_key", "risgroups.nothing", "gone.x"]
