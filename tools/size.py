"""Size of the speckleqi sources: line counts and settable values.

Prints ``wc -l src/speckleqi/*.py`` and then the number of settable values:
every defaulted function parameter (lambdas and keyword-only parameters
included) plus every field of a dataclass, over the same files.

    python tools/size.py [ROOT]

ROOT defaults to the repository this script sits in.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settables(source: str) -> int:
    """Defaulted parameters plus dataclass fields in one module's source."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    files = sorted((root / "src" / "speckleqi").glob("*.py"))
    subprocess.run(["wc", "-l", *map(str, files)], check=True)
    total = sum(settables(f.read_text()) for f in files)
    print(f"{total} settables (defaulted parameters plus dataclass fields)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
