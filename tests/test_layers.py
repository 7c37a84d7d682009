"""The modules of `src/mls` form layers: every import statement runs at
module level, no module imports one that imports it, directly or
through others, and README's "Layout" lists each module below every
module it imports.  And no statement writes into a value's payload, so
that values may share payloads and equal scalars may be one object; nor
does any path compare values with `==`, so that a value may compare by
identity."""

import ast
import graphlib
from pathlib import Path

import pytest

from mls import values
from test_golden import CASES, expected, run_case

SRC = Path(__file__).resolve().parent.parent / "src" / "mls"


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _imported_modules(tree) -> set:
    """The package modules named by any import statement in `tree`,
    relative (`from . import x`, `from .x import y`) or absolute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("mls"):
                continue
            module = module.removeprefix("mls").lstrip(".")
            if module:
                out.add(module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("mls."))
    return out


def test_no_import_statement_sits_inside_a_function():
    nested = [
        f"{name}.py:{node.lineno}"
        for name, tree in _trees().items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_the_package_import_graph_has_no_cycle():
    trees = _trees()
    graph = {name: _imported_modules(tree) & set(trees) for name, tree in trees.items()}
    assert graph["interpreter"] >= {"builtins", "s3", "refclasses"}
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        pytest.fail(f"import cycle: {' -> '.join(err.args[1])}")


def _readme_layout() -> list:
    """The modules README's "Layout" lists under `src/mls/`, in order."""
    text = (SRC.parent.parent / "README.md").read_text()
    lines = text[text.index("## Layout"):].split("```")[1].splitlines()
    layout = []
    for line in lines[lines.index("src/mls/") + 1:]:
        if not line.startswith("  "):
            break
        layout.append(line.split()[0].removesuffix(".py"))
    return layout


def test_readme_lists_each_module_below_every_module_it_imports():
    trees = _trees()
    layout = _readme_layout()
    assert sorted(layout) == sorted(set(trees) - {"__init__", "__main__"})
    upward = [
        f"{name} imports {dep}"
        for i, name in enumerate(layout)
        for dep in sorted(_imported_modules(trees[name]) & set(trees))
        if dep not in layout[:i]
    ]
    assert upward == []


_LIST_WRITES = {"append", "extend", "insert", "pop", "remove", "sort", "reverse", "clear"}


def _is_payload(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "payload"


def _payload_writes(tree) -> list:
    """The lines of `tree` that write into an existing `.payload`: a
    subscript store or `del`, an augmented assignment, or a list-mutating
    method call."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            hit = _is_payload(node.value)
        elif isinstance(node, ast.AugAssign):  # `v.payload[i] += x` is a subscript store
            hit = _is_payload(node.target)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            hit = node.func.attr in _LIST_WRITES and _is_payload(node.func.value)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


def test_no_statement_writes_into_a_payload():
    writes = [f"{name}.py:{line}" for name, tree in _trees().items()
              for line in _payload_writes(tree)]
    assert writes == []


@pytest.mark.parametrize("source, lines", [
    (write, [1]) for write in ("v.payload[0] = 1", "v.payload[1:] = []", "del v.payload[0]",
                               "v.payload += [1]", "v.payload[0] += 1", "v.payload.append(1)",
                               "w.x.payload.sort()", "v.payload.clear()")
] + [
    (read, []) for read in ("payload[0] = 1", "x = v.payload[0]", "v.payload.index(1)",
                            "out = list(v.payload); out.append(1)")
])
def test_the_payload_scan_sees_writes_not_reads_or_copies(source, lines):
    assert _payload_writes(ast.parse(source)) == lines


def _refuse_eq(a, b):
    raise AssertionError("a Value was compared with ==")


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_run_or_analysis_compares_values_with_eq(case, monkeypatch):
    """With `==` on a Value made an error, every corpus script and both
    analyzer reports still give their golden output."""
    monkeypatch.setattr(values.Value, "__eq__", _refuse_eq)
    assert run_case(CASES[case]) == expected(case)
