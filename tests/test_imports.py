"""Every name a rotquad module imports is used there.

The one exception is a name that perfbench's tracer wraps in that module:
it is imported only so that the tracer finds it there, and says so with the
comment KEPT on its line.  Such a name must then be one of the tracer's
SPANS or LEAVES for that module, so that a deletion cannot leave a dead
import behind under the comment.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "rotquad").glob("*.py") if p.name != "__init__.py")
KEPT = "kept as the name perfbench's tracer wraps"


def _traced() -> set[tuple[str, str]]:
    """(module, attribute) of every site in the tracer's SPANS and LEAVES."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    sites = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id in ("SPANS", "LEAVES")
                for target in node.targets):
            sites.update((module, attr) for module, attr, *_ in ast.literal_eval(node.value))
    return sites


def _imported(tree: ast.Module):
    """(bound name, line) of every name the module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used_or_traced(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    traced = _traced()
    for name, line in _imported(tree):
        if KEPT in lines[line - 1]:
            assert (f"rotquad.{path.stem}", name) in traced, f"{name} is not traced"
        else:
            assert name in used, f"{name} is imported but not used"
