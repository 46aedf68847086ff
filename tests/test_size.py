"""tools/size.py, the line and settable counter for src/speckleqi."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SIZE_PY = Path(__file__).resolve().parents[1] / "tools" / "size.py"


def load_size():
    spec = importlib.util.spec_from_file_location("size", SIZE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''
from dataclasses import dataclass

def f(a, b=1, *, c=2, d):
    return lambda x, y=3: x + y

@dataclass(frozen=True)
class Point:
    x: float
    y: float = 0.0
    LIMIT = 5

class Plain:
    z: int = 1
'''


def test_settables_counts_defaults_and_dataclass_fields():
    # b, keyword-only c, the lambda's y, and Point's x and y; not Point.LIMIT
    # (no annotation) nor Plain.z (not a dataclass)
    assert load_size().settables(SOURCE) == 5


def test_script_reports_settables_last():
    proc = subprocess.run([sys.executable, str(SIZE_PY)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    total = sum(load_size().settables(f.read_text())
                for f in (SIZE_PY.parents[1] / "src" / "speckleqi").glob("*.py"))
    assert lines[-1] == f"{total} settables (defaulted parameters plus dataclass fields)"
    assert lines[-2].split()[-1] == "total"
