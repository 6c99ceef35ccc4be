"""One reader, one writer: file access in the package goes through
``data.read_file`` and ``data.read_pieces``, which turn an ``OSError`` into a
``DataError``, and ``data.write_file`` and ``data.make_dir``, which turn it
into an ``OutputError``."""

import ast
from pathlib import Path

import saliseg

FILE_METHODS = {"read_bytes", "read_text", "write_bytes", "write_text", "open", "mkdir"}
ALLOWED = {("data.py", "read_file"), ("data.py", "read_pieces"), ("data.py", "write_file"), ("data.py", "make_dir")}


def file_access_calls(tree: ast.AST):
    """Line numbers of ``open(...)`` and of ``x.<file method>(...)`` calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                yield node.lineno
            elif isinstance(func, ast.Attribute) and func.attr in FILE_METHODS:
                yield node.lineno


def test_only_read_file_and_write_file_touch_files():
    package = Path(saliseg.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for node in module.body:
            name = getattr(node, "name", None)
            if (path.name, name) in ALLOWED:
                continue
            offenders += [f"{path.name}:{line}" for line in file_access_calls(node)]
    assert not offenders, offenders
