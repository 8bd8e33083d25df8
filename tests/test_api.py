"""Every public name of the package has a caller outside the tests, and the
model protocol takes nothing but the query.

A name that only tests use is dead weight in ``src/``: this scans the
package modules (not ``__init__.py``), ``scripts/`` and ``bench/`` and
requires each name exported by ``simtkit`` to be loaded, read as an
attribute or imported somewhere among them.
"""

import ast
import inspect
from pathlib import Path

import simtkit
from simtkit.policy import _ProbeMemo

ROOT = Path(__file__).resolve().parent.parent


def _used_names() -> set[str]:
    files = [p for p in (ROOT / "src" / "simtkit").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(filter(None, (node.name, node.asname)))
    return used


def test_every_public_name_has_a_non_test_caller():
    used = _used_names()
    public = [name for name in simtkit.__all__
              if not inspect.ismodule(getattr(simtkit, name))]
    assert public
    assert sorted(name for name in public if name not in used) == []


def test_the_model_protocol_takes_only_the_query():
    """Inference asks a model about a source prefix and a target prefix and
    nothing else; cross-attention limits are a training input only."""
    for owner in (simtkit.MicroModel, simtkit.TableModel, _ProbeMemo):
        params = list(inspect.signature(owner.next_dist).parameters)
        assert params == ["self", "source_prefix", "target_prefix"], owner
    params = list(inspect.signature(simtkit.MicroModel.sentence_nlls).parameters)
    assert params == ["self", "source", "target"]
