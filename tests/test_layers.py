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


def test_only_io_makes_directories():
    """An output directory is made by its first file, in io.write_text_atomic,
    so no other module decides when a directory appears."""
    calls = [name for name, path in sorted((p.stem, p) for p in
                                           Path(mapfuse.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("mkdir", "makedirs")]
    assert calls == ["io"], calls
