"""The import layers of the package, read from its source with ``ast``.

Each module may import only modules of lower layers:

    errors <- polyring <- foamcore <- foameval <- actions <- statespace, dsl <- cli

with ``corpus`` beside ``foameval``, on ``foamcore`` and ``polyring``.  The
number formats every layer shares (rational sums and their lifts, Laurent
polynomials in q, the facet alphabet) live in ``polyring``, which imports
nothing of the package but ``errors``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import foamlab

PACKAGE = Path(foamlab.__file__).parent

LAYERS = (
    ("errors",),
    ("polyring",),
    ("foamcore",),
    ("foameval", "corpus"),
    ("actions",),
    ("statespace", "dsl"),
    ("cli",),
)
LAYER = {name: k for k, names in enumerate(LAYERS) for name in names}


def package_imports(tree: ast.AST) -> set[str]:
    """The package modules a module's source imports, at any depth."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "foamlab" and rest:
                    found.add(rest.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                head, _, module = module.partition(".")
                if head != "foamlab":
                    continue
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def imports_of(name: str) -> set[str]:
    return package_imports(ast.parse((PACKAGE / f"{name}.py").read_text()))


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)
    assert imports_of("__init__") == set()


def test_modules_import_only_lower_layers():
    for name, k in LAYER.items():
        for dep in imports_of(name):
            assert LAYER[dep] < k, f"{name} imports {dep}"


def test_polyring_imports_only_errors():
    assert imports_of("polyring") == {"errors"}


def test_reader_sees_every_import_form():
    src = (
        "from .foameval import degree\n"
        "from . import actions\n"
        "import foamlab.cli\n"
        "from foamlab.dsl import parse\n"
        "from foamlab import corpus\n"
        "import itertools\n"
        "from typing import Sequence\n"
        "def f():\n"
        "    from .statespace import moy_check\n"
    )
    assert package_imports(ast.parse(src)) == {
        "foameval", "actions", "cli", "dsl", "corpus", "statespace",
    }
