"""Every public function and method of the package is reached from the
package itself, or is listed in README's library-API section, and every
record field of the package is read, and every name the benchmark's
tracer binds exists."""

import ast
import collections
import dataclasses
import importlib
import importlib.util
import os
import re
import subprocess
import sys
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


def _trace_targets():
    """``TARGETS`` of perfbench/tracer.py, loaded from its path without
    entering ``sys.modules``."""
    spec = importlib.util.spec_from_file_location("_tracer", _ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_trace_targets_resolve():
    # trace mode raises on a missing name, so deleting or moving a target
    # needs a change to the benchmark first.  The tracer wraps the modules
    # loaded once semistab.cli is imported, a method from its class's own
    # __dict__ and a function by getattr on its module.
    targets = _trace_targets()
    assert targets
    env = dict(os.environ, PYTHONPATH=str(_SRC.parent))
    proc = subprocess.run([sys.executable, "-c", "import sys, semistab.cli; print(*sorted(sys.modules))"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    assert {f"semistab.{modname}" for _, modname, _, _ in targets} <= set(proc.stdout.split())
    missing = []
    for _, modname, attr, _ in targets:
        module = importlib.import_module(f"semistab.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append(f"{modname}.{attr}")
    assert missing == []
    # the probe hook counts ``result.entries`` and each entry's ``status``
    resolvent = importlib.import_module("semistab.resolvent")
    assert "entries" in {f.name for f in dataclasses.fields(resolvent.ProbeTable)}
    assert "status" in resolvent.ProbeEntry._fields
