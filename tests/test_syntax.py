"""Every Python file of the project parses as Python 3.10.

``pyproject.toml`` allows Python 3.10, so each ``.py`` file under ``src/``,
``tests/``, ``demos/`` and ``perfbench/`` is parsed with
``ast.parse(..., feature_version=(3, 10))``. This catches syntax newer than
3.10 (``except*``, a ``type`` statement, PEP 695 generics) on any newer
interpreter. It does not catch a call to a standard-library function or
parameter added after 3.10; only running the tests on 3.10 shows those.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests", "demos", "perfbench")
               for path in (ROOT / top).rglob("*.py"))


def test_the_check_refuses_newer_syntax():
    # feature_version must be honoured by this interpreter, or the test below shows nothing
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_every_file_parses_as_python_3_10():
    assert len(FILES) > 20
    refused = []
    for path in FILES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not refused, refused
