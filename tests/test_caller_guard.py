"""Only what a path uses: every public top-level function and class of the
package is named by package code other than its own definition and
``__init__.py``, so no library code lives on for its tests alone."""

import ast
from pathlib import Path

import saliseg

# References that tests compare the package against.
EXEMPT = {"build_structure_costs", "saliency_loss", "load_decoder_input"}


def names_in(node: ast.AST) -> set[str]:
    """Every identifier ``node`` reads, as a bare name or as an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def test_every_public_definition_has_a_caller():
    package = Path(saliseg.__file__).parent
    definitions = []  # (module, name, the node that defines it)
    uses = []  # (module, top-level node, names it reads)
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            uses.append((path.name, node, names_in(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions.append((path.name, node.name, node))
    called = {
        name
        for _, name, node in definitions
        if any(name in read for _, n, read in uses if n is not node)
    }
    uncalled = [
        f"{module}:{name}"
        for module, name, _ in definitions
        if name not in EXEMPT and name not in called
    ]
    assert not uncalled, uncalled
    # An exemption whose name is gone or has gained a caller would only hide one.
    defined = {name for _, name, _ in definitions}
    assert EXEMPT <= defined, sorted(EXEMPT - defined)
    assert not EXEMPT & called, sorted(EXEMPT & called)
