"""Every name a package module imports at module level is used in it, and
every private name it defines at module level is used somewhere.

The checks read each `src/sbolab/*.py` with `ast`: a name bound by a
module-level `import` or `from ... import` must be loaded somewhere in the
same module, and a module-level `_name` must be referred to by another
statement of `src/sbolab` or `bench/`.  An unused import is dead weight
that hides which modules depend on which; an unused private helper is code
a change left behind.  Every `lru_cache` on a function that takes
arguments is `typed=True`: an untyped cache answers a float or bool equal
to a cached int from the cache, so whether the function's own argument
check runs would depend on what ran before.
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


BENCH = SRC.parent.parent / "bench"


def private_definitions(tree):
    """(name, statement) for each private name a module-level statement binds."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [node.id for t in targets for node in ast.walk(t)
                     if isinstance(node, ast.Name)]
        else:
            continue
        out += [(name, stmt) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def references(node):
    """The names node refers to: loaded names, attributes, imported names, and
    identifier strings (the tracer names the private helpers it wraps)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def unreferenced_privates(sources, checked):
    """The private module-level names of the modules in checked (keys of the
    {name: source} dict sources) that no other statement of any source refers to."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs = {}   # id of a top-level statement -> the names it refers to
    for tree in trees.values():
        for stmt in tree.body:
            refs[id(stmt)] = references(stmt)
    out = []
    for mod in checked:
        for name, stmt in private_definitions(trees[mod]):
            if not any(name in r for key, r in refs.items() if key != id(stmt)):
                out.append("%s.%s" % (mod, name))
    return out


def test_private_names_are_referenced():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    checked = list(sources)
    sources.update(("bench/" + p.stem, p.read_text()) for p in sorted(BENCH.glob("*.py")))
    assert unreferenced_privates(sources, checked) == []


def test_check_finds_an_unreferenced_private():
    sources = {"a": "_X = 1\n_Y = 2\n\n\ndef _f():\n    return _f()\n\n\ndef g():\n    return _X\n",
               "b": "import a\nprint(a._Y)\n"}
    assert unreferenced_privates(sources, ["a"]) == ["a._f"]


def _is_lru_cache(node):
    return isinstance(node, ast.Name) and node.id == "lru_cache" or \
        isinstance(node, ast.Attribute) and node.attr == "lru_cache"


def untyped_caches(source):
    """The lines of the `lru_cache` uses in source without typed=True, but
    for the decorators of functions that take no arguments."""
    tree = ast.parse(source)
    exempt = {id(dec) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not any((node.args.posonlyargs, node.args.args, node.args.vararg,
                           node.args.kwonlyargs, node.args.kwarg))
              for dec in node.decorator_list}
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    out = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Call) and _is_lru_cache(node.func):
            if not any(k.arg == "typed" and isinstance(k.value, ast.Constant)
                       and k.value.value is True for k in node.keywords):
                out.append(node.lineno)
        elif _is_lru_cache(node) and id(node) not in called:  # bare @lru_cache
            out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_caches_are_typed(path):
    assert untyped_caches(path.read_text()) == [], path.name


def test_check_finds_an_untyped_cache():
    source = ("import functools\nfrom functools import lru_cache\n\n\n"
              "@lru_cache(maxsize=None)\ndef f(n):\n    return n\n\n\n"
              "@functools.lru_cache(maxsize=None, typed=True)\ndef g(n):\n    return n\n\n\n"
              "@lru_cache\ndef h(*n):\n    return n\n\n\n"
              "@functools.lru_cache(maxsize=None)\ndef parser():\n    return f\n\n\n"
              "k = lru_cache(typed=False)(f)\n")
    assert untyped_caches(source) == [5, 15, 25]
