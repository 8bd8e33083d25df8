"""Every public name of the package, and every function, class and method
it defines, has a caller outside the tests, and the model protocol takes
nothing but the query.

A name that only tests use is dead weight in ``src/``: this scans the
package modules (not ``__init__.py``), ``scripts/`` and ``bench/`` and
requires each name exported by ``simtkit`` to be loaded, read as an
attribute or imported somewhere among them. A definition in the package
must be referenced there too, outside its own body, by name or by a
``getattr`` string; dunders and overrides of a base-class method are exempt.
"""

import ast
import importlib
import inspect
from pathlib import Path

import simtkit
from simtkit.policy import _ProbeMemo

ROOT = Path(__file__).resolve().parent.parent


def _trees() -> dict[Path, ast.Module]:
    """The parsed package modules (not ``__init__.py``), scripts and bench files."""
    files = [p for p in (ROOT / "src" / "simtkit").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}


def _loads(tree: ast.Module):
    """(name, line) of each name ``tree`` loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield from ((name, node.lineno) for name in (node.name, node.asname) if name)


def _used_names() -> set[str]:
    return {name for tree in _trees().values() for name, _ in _loads(tree)}


def test_every_public_name_has_a_non_test_caller():
    used = _used_names()
    public = [name for name in simtkit.__all__
              if not inspect.ismodule(getattr(simtkit, name))]
    assert public
    assert sorted(name for name in public if name not in used) == []


def _getattr_strings(tree: ast.Module):
    """(name, line) of each string constant ``tree`` passes to ``getattr``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant):
            yield node.args[1].value, node.lineno


def _overrides(module: str, owner: str | None, name: str) -> bool:
    """Whether ``name``, defined in class ``owner`` of ``simtkit.<module>``,
    overrides an attribute of one of the class's bases."""
    cls = getattr(importlib.import_module(f"simtkit.{module}"), owner or "", None)
    return inspect.isclass(cls) and any(hasattr(base, name) for base in cls.__mro__[1:])


def test_every_definition_in_the_package_is_referenced():
    trees = _trees()
    refs = [(name, path, line) for path, tree in trees.items()
            for name, line in (*_loads(tree), *_getattr_strings(tree))]
    unreferenced = []
    for path, tree in trees.items():
        if path.parent.name != "simtkit":
            continue
        owners = {id(item): node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name, body = node.name, range(node.lineno, node.end_lineno + 1)
            if name.startswith("__") and name.endswith("__") \
                    or _overrides(path.stem, owners.get(id(node)), name):
                continue
            if not any(ref == name and not (where == path and line in body)
                       for ref, where, line in refs):
                unreferenced.append(f"{path.stem}.{name}")
    assert unreferenced == []


def test_the_model_protocol_takes_only_the_query():
    """Inference asks a model about a source prefix and a target prefix and
    nothing else; cross-attention limits are a training input only."""
    for owner in (simtkit.MicroModel, simtkit.TableModel, _ProbeMemo):
        params = list(inspect.signature(owner.next_dist).parameters)
        assert params == ["self", "source_prefix", "target_prefix"], owner
    params = list(inspect.signature(simtkit.MicroModel.sentence_nlls).parameters)
    assert params == ["self", "source", "target"]
