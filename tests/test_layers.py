"""Package layering: each module imports only from the layers below it."""

import ast
from pathlib import Path

import mapfuse

LAYERS = (
    {"grids"},
    {"io"},
    {"fusion", "weights", "clustering", "accuracy", "landscape", "synth"},
    {"pipeline"},
    {"cli"},
    {"__init__"},
)


def test_modules_import_only_from_lower_layers():
    level = {name: i for i, layer in enumerate(LAYERS) for name in layer}
    modules = {p.stem: p for p in Path(mapfuse.__file__).parent.glob("*.py")}
    assert modules.keys() == level.keys()
    for name, path in modules.items():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:   # from .x import ...
                assert level[node.module] < level[name], f"{name} imports {node.module}"
