"""Every public function and method of the package is reached from the
package itself, or is listed in README's library-API section, and every
record field of the package is read."""

import ast
import collections
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "semistab"


def _names(node):
    """Every identifier ``node`` uses: names, attributes, imported names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield (n.asname or n.name).split(".")[-1]


def _public_defs(tree):
    """(qualified name, def node) of the public top-level functions and the
    public methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _library_api():
    """The ``module.name`` entries of README's library-API section."""
    text = (_ROOT / "README.md").read_text()
    section = re.search(r"^## Library API\n(.*?)(?=^## |\Z)", text, re.S | re.M).group(1)
    return set(re.findall(r"^\* `(\w+\.\w+)", section, re.M))


def test_public_code_is_reached_or_listed():
    # a name counts as reached when it is used anywhere in the package
    # outside its own definition (a method by its bare name, so any
    # same-named call reaches it)
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(_SRC.glob("*.py"))}
    used = collections.Counter()
    for tree in trees.values():
        used.update(_names(tree))
    listed = _library_api()
    unreached = []
    for module, tree in trees.items():
        for qualname, node in _public_defs(tree):
            own = sum(1 for name in _names(node) if name == node.name)
            if used[node.name] == own and f"{module}.{qualname}" not in listed:
                unreached.append(f"{module}.{qualname}")
    assert unreached == [], "reach these from the package, delete them, or list them in README"


def test_library_api_entries_exist():
    defined = {
        f"{module}.{qualname}"
        for module, tree in ((p.stem, ast.parse(p.read_text())) for p in _SRC.glob("*.py"))
        for qualname, _ in _public_defs(tree)
    }
    listed = _library_api()
    assert listed
    assert listed <= defined


def test_record_fields_are_read():
    # a field counts as read when an attribute load anywhere in the package,
    # its tests, tools or benchmark names it
    read = set()
    for d in ("src", "tests", "tools", "perfbench"):
        for p in (_ROOT / d).rglob("*.py"):
            read.update(n.attr for n in ast.walk(ast.parse(p.read_text()))
                        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    unread = []
    for p in sorted(_SRC.glob("*.py")):
        for cls in ast.parse(p.read_text()).body:
            if isinstance(cls, ast.ClassDef):
                unread += [f"{p.stem}.{cls.name}.{f.target.id}" for f in cls.body
                           if isinstance(f, ast.AnnAssign) and f.target.id not in read]
    assert unread == [], "read these fields or delete them"
