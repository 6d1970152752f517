"""Count the lines of source of the package, in total and per module.

The package is read from ``src/modgrid/`` of the checkout holding this
script:

    python3 tools/src_lines.py

A line counts when it is not blank and, stripped, does not start with
``#``.  Docstring lines are the counted lines inside a module, class or
function docstring, found with ``ast``.  One JSON line is printed:

    {"lines": ..., "docstring_lines": ..., "modules": {"name.py": [lines, docstring_lines], ...}}
"""
from __future__ import annotations

import ast
import json
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "modgrid"


def count(path: Path) -> tuple[int, int]:
    """(counted lines, docstring lines among them) of one module."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    counted = {i for i, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#")}
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc.update(range(body[0].lineno, body[0].end_lineno + 1))
    return len(counted), len(counted & doc)


def main() -> None:
    modules = {p.name: list(count(p)) for p in sorted(SRC.glob("*.py"))}
    print(json.dumps({
        "lines": sum(c for c, _ in modules.values()),
        "docstring_lines": sum(d for _, d in modules.values()),
        "modules": modules,
    }))


if __name__ == "__main__":
    main()
