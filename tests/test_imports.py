"""Every name a ``symchain`` module imports is read somewhere in that module.

A deletion that leaves its import behind fails here.  The check reads each
module's source with ``ast``: an import binds its alias, or the first
component of a dotted module name; a use is any ``Name`` node, including
the names inside a quoted annotation.  ``from __future__`` imports bind no
name.
"""

import ast
from pathlib import Path

import symchain


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    quoted = [ast.parse(a.value, mode="eval") for a in _annotations(tree)
              if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    used = {node.id for root in (tree, *quoted) for node in ast.walk(root) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_imported_name_is_used():
    found = {}
    for path in sorted(Path(symchain.__file__).parent.glob("*.py")):
        if unused := unused_imports(path.read_text(encoding="utf-8")):
            found[path.name] = unused
    assert found == {}


def test_unused_imports_sees_through_dotted_names_aliases_and_quoted_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nimport re\n"
        "from typing import Optional, Sequence\nfrom .logic import Label, Formula\n"
        "def f(x: 'Optional[Label]') -> Sequence[int]:\n    return os.path.join(js.dumps(x))\n"
    )
    assert unused_imports(source) == ["re", "Formula"]
