"""Every function and method of the library has a caller outside the tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jobfit"
# Exact oracles that the tests check the engine and the theory against.
TEST_ORACLES = {"brute_force_success_probability", "check_dominance", "merging_condition"}


def _sources() -> list[Path]:
    return [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
            ROOT / "jobbench" / "workloads.py"]


def _names(node: ast.AST) -> Counter:
    """Every name, attribute and identifier-like string that ``node`` mentions
    (a string, since the engine looks its share functions up by name)."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            found[sub.value] += 1
    return found


def _definitions(tree: ast.Module):
    """The module-level functions and the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef))


def test_every_library_function_is_referenced_outside_the_tests():
    mentions = Counter()
    for path in _sources():
        mentions += _names(ast.parse(path.read_text(encoding="utf-8")))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.name
            if name in TEST_ORACLES or (name.startswith("__") and name.endswith("__")):
                continue
            # A function that only calls itself has no caller.
            if mentions[name] - _names(node)[name] <= 0:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
