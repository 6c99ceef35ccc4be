"""Padding ends at the reader: past ``data.load_features`` a video is its
valid frames, so no function or dataclass field of the modules that work on
loaded videos takes a ``valid_len``; it is read off the row count."""

import ast
from pathlib import Path

import saliseg

MODULES = ("refine", "saliency", "pipeline", "prompts", "segments", "store", "transport")


def parameter_names(tree: ast.AST):
    """``(line, name)`` of every function parameter and dataclass-style
    annotated class attribute in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                if arg is not None:
                    yield arg.lineno, arg.arg
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield stmt.lineno, stmt.target.id


def test_no_signature_past_the_reader_takes_valid_len():
    package = Path(saliseg.__file__).parent
    offenders = []
    for module in MODULES:
        path = package / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [
            f"{path.name}:{line}" for line, name in parameter_names(tree) if name == "valid_len"
        ]
    assert not offenders, offenders


def test_guard_sees_parameters_and_fields():
    tree = ast.parse(
        "def f(x, valid_len=None): pass\n"
        "class E:\n    valid_len: int\n"
    )
    assert [name for _, name in parameter_names(tree)] == ["x", "valid_len", "valid_len"]
