"""No implementation is chosen from process-wide state.

Every choice in ``src/repro`` is an explicit argument or follows from
what the code can observe (the policy's type).  The
one environment read left is where run artifacts land
(``util/artifacts.py``), a deployment path rather than a switch.  This
test keeps it that way: a new ``os.environ`` or ``os.getenv`` read
anywhere else fails it.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ALLOWED = {"util/artifacts.py"}


def _reads_environment(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                return True
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                return True
    return False


def test_only_artifact_paths_read_the_environment():
    readers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if _reads_environment(ast.parse(path.read_text()))
    }
    assert readers == ALLOWED


def test_the_guard_sees_both_spellings():
    assert _reads_environment(ast.parse("import os\nos.environ.get('X')"))
    assert _reads_environment(ast.parse("import os\nos.getenv('X')"))
    assert _reads_environment(ast.parse("from os import environ"))
    assert not _reads_environment(ast.parse("import os\nos.path.join('a')"))
