"""The package's import layering, read from the source with ``ast`` alone."""

import ast
import graphlib
from pathlib import Path

import sralloc

PACKAGE = Path(sralloc.__file__).parent

#: the one private name a module may import from another: the simulator walks
#: addresses in the reuse analysis's affine forms
PRIVATE_IMPORTS = {"reuse._address_forms"}


def package_imports() -> dict[str, list[tuple[str, str]]]:
    """Each module's imports from the package, as (module, name) pairs;
    ``from . import x`` gives (x, "")."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(a.name.split(".", 1)[1], "") for a in node.names
                          if a.name.startswith("sralloc.")]
            elif isinstance(node, ast.ImportFrom):
                if node.level == 1 or node.module == "sralloc" or \
                        (node.module or "").startswith("sralloc."):
                    module = (node.module or "").removeprefix("sralloc").lstrip(".")
                    found += [(module, a.name) if module else (a.name, "")
                              for a in node.names]
        out[path.stem] = found
    return out


def test_modules_are_found():
    imports = package_imports()
    assert {"dfg", "simulate", "oracle", "reuse", "kernel", "config"} <= set(imports)
    assert ("dfg", "build_dfg") in imports["simulate"]


def test_oracle_imports_only_config_and_kernel():
    # the oracle is an independent check: it shares no analytic code
    assert {module for module, _ in package_imports()["oracle"]} <= {"config", "kernel"}


def test_import_graph_has_no_cycles():
    graph = {m: {d for d, _ in found} for m, found in package_imports().items()}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_only_allowlisted_private_names_cross_modules():
    private = {f"{module}.{name}" for found in package_imports().values()
               for module, name in found if name.startswith("_")}
    assert private == PRIVATE_IMPORTS
