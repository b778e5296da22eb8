"""Every name a package module imports at module level is used in it.

The check reads each `src/sbolab/*.py` with `ast`: a name bound by a
module-level `import` or `from ... import` must be loaded somewhere in the
same module.  An unused import is dead weight that hides which modules
depend on which.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sbolab"


def unused_imports(source):
    """The names bound by module-level imports of source that it never loads."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in loaded]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == [], path.name


def test_check_finds_an_unused_import():
    assert unused_imports("import io\nimport os\nfrom json import dumps as d, loads\n"
                          "os.getcwd()\nd({})\n") == ["io", "loads"]
