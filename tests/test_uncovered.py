"""tools/uncovered.py, the lister of src/speckleqi statements no test runs."""

import importlib.util
import runpy
import textwrap
from pathlib import Path

UNCOVERED_PY = Path(__file__).resolve().parents[1] / "tools" / "uncovered.py"


def load_uncovered():
    spec = importlib.util.spec_from_file_location("uncovered", UNCOVERED_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = textwrap.dedent('''\
    """Module docstring."""
    import functools


    @functools.cache
    def f(x,
          y=2):
        """Docstring."""
        if x > 0:
            return (x +
                    y)
        elif x < 0: return -x
        try:
            z = 1 / x
        except ZeroDivisionError:
            z = None
        return z


    class C:
        """Class docstring, stored as __doc__."""
        g = staticmethod(lambda v:
                         v * 2)


    RESULT = f(1)
''')


def test_statements_own_their_headers_and_skip_code_free_lines():
    stmts = load_uncovered().statements(SOURCE)
    # the docstring of f (line 8) has no byte code; line 12 holds an elif and
    # its body
    assert sorted(stmts) == [1, 2, 6, 9, 10, 12, 13, 14, 16, 17, 20, 21, 22, 26]
    assert stmts[6] == {5, 6, 7}  # decorator, def line and its default
    assert stmts[9] == {9}  # the if's test, not its body
    assert stmts[10] == {10, 11}
    assert stmts[22] == {22, 23}


def test_statements_not_run(tmp_path):
    tool = load_uncovered()
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    _, hits = tool.executed_lines(lambda: runpy.run_path(str(path)), [str(path)])
    # f(1) takes the first branch; the lambda's body never runs, but its
    # statement ran when the class body bound it
    assert tool.not_run(tool.statements(SOURCE), hits[str(path)]) == [12, 13, 14, 16, 17]
