"""Every function and method of the library has a caller outside the tests,
and reads every parameter it takes."""

import ast
import math
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


# Options that only tests set, beside those of the oracles: the undivided
# fixture job of the acceptance suite and the console entry point's argv.
TEST_OPTIONS = {"load_fixture_job.divide", "main.argv"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = (deco.func if isinstance(deco, ast.Call) else deco for deco in node.decorator_list)
    return any(isinstance(deco, ast.Name) and deco.id == "dataclass" for deco in decorators)


def _options(tree: ast.Module):
    """``(owner, name, position, setters)`` of every defaulted parameter of
    a library function or method and every defaulted field of a library
    dataclass: ``position`` counts the positional arguments a call passes
    before it (None for a keyword-only parameter), and ``setters`` names the
    callees whose keywords set it by name (``replace`` sets a field of any
    class)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            for i, item in enumerate(fields):
                if item.value is not None:
                    yield node.name, item.target.id, i, (node.name, "replace")
    for node in _definitions(tree):
        args = node.args
        positional = [arg.arg for arg in (*args.posonlyargs, *args.args)]
        skip = 1 if positional[:1] in (["self"], ["cls"]) else 0
        first = len(positional) - len(args.defaults)
        for i, name in enumerate(positional[first:], first):
            yield node.name, name, i - skip, (node.name,)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None, (node.name,)


def _calls(tree: ast.Module):
    """``(callee, positional count, keywords)`` of every call in ``tree``,
    the callee named as it is called (``f`` or ``x.f``); a starred argument
    counts as every position, and ``**`` passes the keyword None."""
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
            callee = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            count = math.inf if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
            yield callee, count, {kw.arg for kw in call.keywords}


def test_every_library_option_is_set_by_a_program():
    most, keywords = {}, set()
    for path in _sources():
        for callee, count, names in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            most[callee] = max(most.get(callee, 0), count)
            keywords |= {(callee, name) for name in names}
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, name, position, setters in _options(ast.parse(path.read_text(encoding="utf-8"))):
            if owner in TEST_ORACLES or f"{owner}.{name}" in TEST_OPTIONS:
                continue
            by_keyword = (owner, None) in keywords or any((c, name) in keywords for c in setters)
            if not by_keyword and (position is None or most.get(owner, 0) <= position):
                unset.append(f"{path.name} {owner}.{name}")
    assert unset == [], unset


# The subcommand protocol: every ``_cmd_*`` handler takes (args, argv), and
# ``_cmd_rerun`` has no use for argv.
UNREAD_BY_PROTOCOL = "argv"


def _parameters(node) -> list[str]:
    args = node.args
    return [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
            if arg is not None]


def test_every_library_parameter_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            read = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {name}({param})" for param in _parameters(node)
                       if param not in read and not (name.startswith("_cmd_") and param == UNREAD_BY_PROTOCOL)]
    assert unread == [], unread


def test_only_the_block_walk_draws_uniforms():
    # Every share walks its blocks through one generator, so a tracer or
    # spy on _chunk_uniforms sees every draw the engine makes.
    mentions = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if _names(node)["_chunk_uniforms"]:
                mentions.append(f"{path.name} {getattr(node, 'name', type(node).__name__)}")
    assert mentions == ["simulate.py _drawn_blocks"]


def test_only_the_window_rule_takes_a_transition_width():
    # The phase check and the merging and compression sandwiches read
    # gamma from one rule, so their windows cannot drift apart.
    mentions = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _names(node)
            if names["transition_width"] or names["dependent_transition_width"]:
                mentions.append(f"{path.name} {getattr(node, 'name', type(node).__name__)}")
    assert mentions == ["theory.py _window"]
