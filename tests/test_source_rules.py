"""The rules the source keeps, read off its syntax trees.

src/resq, tests and bench are parsed once, on the first rule that reads them,
and one index records every use of a name: a name, an attribute or an
imported name, with the file and the module-level definition it lies in.
Each rule below is one test, and each failure names the definitions or lines
that break it.
"""

import ast
import functools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = Path("src", "resq")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@functools.cache
def trees() -> dict[Path, ast.Module]:
    """The syntax tree of each file of src/resq, tests and bench, by its path
    from the root of the repository."""
    return {path.relative_to(ROOT): ast.parse(path.read_text(encoding="utf-8"), str(path))
            for top in (LIBRARY, Path("tests"), Path("bench"))
            for path in sorted((ROOT / top).rglob("*.py"))}


def sources() -> dict[Path, ast.Module]:
    """The syntax trees of the modules of src/resq."""
    return {path: tree for path, tree in trees().items() if path.parent == LIBRARY}


def _names(node) -> list[str]:
    """The names node uses: its identifier, its attribute or its imports."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name for alias in node.names]
    return []


@functools.cache
def uses() -> dict[str, set[tuple[Path, str | None]]]:
    """Each used name with the (file, module-level definition) of its uses,
    the definition None for a use outside every one."""
    index: dict[str, set[tuple[Path, str | None]]] = {}
    for path, tree in trees().items():
        for top in tree.body:
            owner = top.name if isinstance(top, DEFINITIONS) else None
            for node in ast.walk(top):
                for name in _names(node):
                    index.setdefault(name, set()).add((path, owner))
    return index


def module_definitions() -> list[tuple[Path, ast.AST]]:
    """The module-level functions and classes of src/resq, with their files."""
    return [(path, node) for path, tree in sources().items() for node in tree.body
            if isinstance(node, DEFINITIONS)]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _unused(definitions, roots) -> list[str]:
    """'file:line name' of each (file, definition) that no file under roots
    uses outside the definition itself."""
    return [f"{path}:{node.lineno} {node.name}" for path, node in definitions
            if not any(use != (path, node.name) and use[0].is_relative_to(root)
                       for use in uses().get(node.name, ()) for root in roots)]


def _click_command(node) -> bool:
    """Whether node is decorated as a click command or group, which click
    calls and no source line names."""
    calls = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(call, ast.Attribute) and call.attr in ("command", "group")
               for call in calls)


def test_every_private_function_and_class_of_the_library_is_used():
    # a helper whose last caller was deleted is dead code; a use is a name, an
    # attribute or an import anywhere in src/resq outside the helper itself;
    # dunder protocol functions (the package's __getattr__ and __dir__) are
    # called by Python itself, so no source line names them
    private = [(path, node) for path, node in module_definitions() if _private(node.name)]
    assert private
    assert _unused(private, [LIBRARY]) == []


def test_every_public_function_and_class_of_the_library_serves_a_command_or_a_workload():
    # the package holds what its commands and the benchmark's workloads run:
    # a public name counts as used only in src/resq outside its own
    # definition, or in bench, so code that only tests reach belongs in
    # tests/corpus.py; the click commands are called by click, so they are exempt
    public = [(path, node) for path, node in module_definitions()
              if not node.name.startswith("_") and not _click_command(node)]
    assert public
    assert _unused(public, [LIBRARY, Path("bench")]) == []


def _imports_resq(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "resq"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "resq" for alias in node.names)


def test_library_modules_import_resq_modules_at_module_level_only():
    # bench/tracer.py rebinds the names these imports create
    # (relrep.build_quantale, pointalg.search_representation, lambek.NodeBudget,
    # ...), which an import inside a function would escape, and a timed library
    # call never compiles a module; only the CLI and the package namespace
    # defer their imports to the first use
    late = sorted({f"{path}:{node.lineno}" for path, tree in sources().items()
                   if path.name not in ("cli.py", "__init__.py")
                   for scope in ast.walk(tree) if isinstance(scope, DEFINITIONS)
                   for node in ast.walk(scope) if _imports_resq(node)})
    assert late == []


def test_no_library_module_names_another_modules_private_names():
    # a single-underscore name is private to the module that defines it: the
    # readers and writers of dumps and models keep their helpers behind
    # resq.relations; the rule reads imports of resq modules (from . import x,
    # from resq import x, import resq.x as y) and the attributes named on them
    reached = []
    for path, tree in sources().items():
        modules = set()  # the names this module binds to resq modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _imports_resq(node):
                for alias in node.names:
                    if _private(alias.name):
                        reached.append(f"{path}:{node.lineno} imports {alias.name}")
                    elif node.module in (None, "resq"):
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                modules.update(alias.asname for alias in node.names
                               if alias.asname and alias.name.startswith("resq."))
        reached += [f"{path}:{node.lineno} names {node.value.id}.{node.attr}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and _private(node.attr)
                    and isinstance(node.value, ast.Name) and node.value.id in modules]
    assert reached == []


def _exits(node, scope: str):
    """(scope, line) of each sys.exit and SystemExit under node, scope the
    dotted name of the innermost definition around it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, DEFINITIONS):
            inner = f"{scope}.{child.name}" if scope else child.name
        if (isinstance(child, ast.Attribute) and child.attr == "exit"
                and isinstance(child.value, ast.Name) and child.value.id == "sys"
                or isinstance(child, ast.Name) and child.id == "SystemExit"):
            yield scope or "<module>", child.lineno
        yield from _exits(child, inner)


def test_only_the_error_contract_and_the_verdict_writer_of_the_cli_exit():
    # every deciding command ends by writing one Verdict, which reads its exit
    # code off the verdict, and every error ends in _ErrorContract.invoke; a
    # sys.exit or SystemExit anywhere else in the CLI is a command deciding its
    # own exit
    allowed = {"_ErrorContract.invoke", "Verdict.write"}
    found = list(_exits(sources()[LIBRARY / "cli.py"], ""))
    assert found
    assert [f"{LIBRARY / 'cli.py'}:{line} in {scope}" for scope, line in found
            if scope not in allowed] == []


def test_the_oracle_module_imports_only_the_standard_library():
    # an oracle that evaluates through resq would agree with resq's faults;
    # the standard library imports nothing of resq, so neither can the module
    path = Path("tests", "oracles.py")
    imported = [(node.lineno, alias.name) for node in ast.walk(trees()[path])
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [(node.lineno, "." * node.level + (node.module or ""))
                 for node in ast.walk(trees()[path]) if isinstance(node, ast.ImportFrom)]
    imported += [(node.lineno, "__import__") for node in ast.walk(trees()[path])
                 if isinstance(node, ast.Name) and node.id == "__import__"]
    assert imported
    assert [f"{path}:{line} imports {name}" for line, name in imported
            if name.split(".")[0] not in sys.stdlib_module_names - {"importlib"}] == []


def test_no_library_expression_complements_an_int():
    # ~y is -(y + 1), a new int as wide as y, and x & ~y converts that
    # negative int to two's complement once more; x ^ (x & y) gives the same
    # bits from non-negative ints alone.  On the 2**16-lane slices of the
    # search, x & ~y takes 3.3-3.7 us and x ^ (x & y) 0.56-0.60 us, and the
    # search workload's verdicts/s rose 11-14%; at 8 and 512 bits it is
    # 29 -> 23 ns and 88 -> 58 ns (timeit, Python 3.11), so no size keeps
    # the complement, and a & b != a tests a subset without one
    inverted = [f"{path}:{node.lineno}" for path, tree in sources().items()
                for node in ast.walk(tree)
                if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert)]
    assert inverted == []
