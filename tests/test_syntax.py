"""Every Python file of the project parses as Python 3.10.

``pyproject.toml`` allows Python 3.10, so each ``.py`` file under ``src/``,
``tests/``, ``demos/`` and ``perfbench/`` is parsed with
``ast.parse(..., feature_version=(3, 10))``. This catches syntax newer than
3.10 (``except*``, a ``type`` statement, PEP 695 generics) on any newer
interpreter. A short list of standard-library names added after 3.10 is
looked for too, as imported or written (``contextlib.chdir``), not through
an alias. Any other function or parameter added after 3.10 is not caught;
only running the tests on 3.10 shows those.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests", "demos", "perfbench")
               for path in (ROOT / top).rglob("*.py"))

#: standard-library names that Python 3.11 added
NEWER_NAMES = {
    "contextlib.chdir", "tomllib", "typing.Self", "enum.StrEnum", "datetime.UTC", "ExceptionGroup",
}


def newer_names(source: str) -> set[str]:
    """The names of NEWER_NAMES that `source` imports or writes."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            used.add(node.module)
            used.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            used.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return used & NEWER_NAMES


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


@pytest.mark.parametrize("source, name", [
    ("with contextlib.chdir(tmp):\n    pass", "contextlib.chdir"),
    ("from contextlib import chdir", "contextlib.chdir"),
    ("import tomllib", "tomllib"),
    ("from tomllib import loads", "tomllib"),
    ("def f() -> typing.Self:\n    pass", "typing.Self"),
    ("from typing import Self", "typing.Self"),
    ("class C(enum.StrEnum):\n    pass", "enum.StrEnum"),
    ("from datetime import UTC", "datetime.UTC"),
    ("now = datetime.datetime.now(datetime.UTC)", "datetime.UTC"),
    ("raise ExceptionGroup('x', [])", "ExceptionGroup"),
])
def test_the_check_finds_each_newer_name(source, name):
    assert newer_names(source) == {name}


def test_the_check_passes_the_older_names_of_those_modules():
    source = "import contextlib, typing, enum, datetime\nwith contextlib.suppress(OSError):\n    pass"
    assert newer_names(source) == set()


def test_no_file_uses_a_standard_library_name_newer_than_3_10():
    used = [f"{path.relative_to(ROOT)}: {sorted(names)}" for path in FILES
            if (names := newer_names(path.read_text(encoding="utf-8")))]
    assert not used, used
