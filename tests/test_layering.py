"""The package's import layers, read from its source with ``ast``.

Importing any ``diracmul`` module runs the package's ``__init__``, which
imports ``fastmult``, so no import at run time shows what one module
imports by itself; these tests read each module's import statements.
The layers run one way: ``exactnum`` and ``linalg``, then ``program``,
``algebra``, ``proof``, ``fastmult``, then ``slpgen``, ``cli``, ``derive``
and ``errata``.
"""

import ast
import os
import sys

import diracmul

SRC = os.path.dirname(diracmul.__file__)
MODULES = sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py") and name != "__init__.py")


def imports(module: str) -> list:
    """``(function, target, names)`` for each import statement of ``module``:
    the enclosing function's name (None at module level), the imported
    package module (``.x`` as ``"x"``) or absolute module, and the names a
    ``from`` import takes."""
    with open(os.path.join(SRC, f"{module}.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((function, alias.name, []) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                names = [alias.name for alias in child.names]
                if child.module is None:  # from . import x
                    found.extend((function, name, []) for name in names)
                else:
                    found.append((function, child.module, names))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(tree, None)
    return found


def package_imports(module: str, module_level_only: bool = False) -> set:
    return {target for function, target, _ in imports(module)
            if target in MODULES and not (module_level_only and function)}


def test_the_modules_are_the_ones_the_layers_name():
    assert MODULES == ["algebra", "cli", "derive", "errata", "exactnum", "fastmult", "linalg", "program", "proof",
                       "slpgen"]


def test_program_imports_only_exactnum_linalg_and_the_standard_library():
    for _, target, _ in imports("program"):
        assert target in ("exactnum", "linalg") or target.split(".")[0] in sys.stdlib_module_names, target


def test_the_table_is_below_the_proof_and_the_proof_below_the_pipeline():
    assert not package_imports("algebra") & {"proof", "fastmult", "slpgen", "cli", "derive", "errata"}
    assert not package_imports("proof") & {"fastmult", "slpgen", "cli", "derive", "errata"}
    assert not package_imports("fastmult") & {"slpgen", "cli", "derive", "errata"}


def test_only_cli_commands_defer_an_import():
    for module in MODULES:
        for function, target, _ in imports(module):
            if function is not None and target in MODULES:
                assert module == "cli" and function.startswith("cmd_"), (module, function, target)


def test_no_module_imports_another_modules_private_name():
    for module in MODULES:
        for _, target, names in imports(module):
            if target in MODULES:
                assert not [name for name in names if name.startswith("_")], (module, target)


def test_the_module_level_imports_have_no_cycle():
    graph = {module: package_imports(module, module_level_only=True) for module in MODULES}
    done, path = set(), []

    def walk(module):
        assert module not in path, path[path.index(module):] + [module]
        if module in done:
            return
        path.append(module)
        for target in sorted(graph[module]):
            walk(target)
        path.pop()
        done.add(module)

    for module in MODULES:
        walk(module)
