"""The package's import graph, read from the source: module-level imports form no cycle, and the only imports
made inside a function are the command handlers' deferred loads of the validator, metrics, preference and store
code, and the launcher's load of the CLI."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import ecpo

PACKAGE = Path(ecpo.__file__).resolve().parent
DEFERRED = {"validator", "metrics", "preference", "store"}  # what a handler of `cli` may import when it runs


def ecpo_imports(tree: ast.Module):
    """(imported ecpo module, inside a function) for each import of the package's own modules, with the
    imports under ``if TYPE_CHECKING:`` left out: they never run."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            return
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.append((node.module, in_function))
            elif node.level == 1 or node.module == "ecpo":
                found.extend((alias.name, in_function) for alias in node.names)
            elif node.module and node.module.startswith("ecpo."):
                found.append((node.module.removeprefix("ecpo."), in_function))
        elif isinstance(node, ast.Import):
            found.extend((alias.name.removeprefix("ecpo."), in_function)
                         for alias in node.names if alias.name.startswith("ecpo."))
        inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, False)
    return found


IMPORTS = {path.stem: ecpo_imports(ast.parse(path.read_text(encoding="utf-8")))
           for path in sorted(PACKAGE.glob("*.py"))}


def test_module_level_imports_form_no_cycle():
    graph = {module: {name for name, in_function in found if not in_function} for module, found in IMPORTS.items()}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as error:
        raise AssertionError(f"import cycle: {error.args[1]}") from None


def test_only_cli_handlers_and_the_launcher_defer_imports():
    deferred = {(module, name) for module, found in IMPORTS.items() for name, in_function in found if in_function}
    assert deferred == {("cli", name) for name in DEFERRED} | {("__init__", "cli")}  # ``ecpo.run`` loads the CLI
