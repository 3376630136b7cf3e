"""The package names the benchmark under simbench/ uses exist and take its calls.

The benchmark's files are parsed, not run: every ``module.name`` it reads
from an ``ofdm_bitload`` module it imports must exist, and every direct call
of such a name must bind to that name's signature.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

SIMBENCH = pathlib.Path(__file__).resolve().parent.parent / "simbench"
PACKAGE = "ofdm_bitload"

pytestmark = pytest.mark.skipif(not SIMBENCH.is_dir(), reason="no simbench/ directory")


def _uses():
    """(file, line, module, name, call) per package attribute the benchmark reads.

    ``call`` is the ast.Call when the attribute is called directly, else None.
    """
    uses = []
    for path in sorted(SIMBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == PACKAGE:
                for alias in node.names:
                    module = importlib.import_module(f"{PACKAGE}.{alias.name}")
                    modules[alias.asname or alias.name] = module
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                uses.append((path.name, node.lineno, modules[node.value.id], node.attr,
                             calls.get(id(node))))
    return uses


def test_every_name_exists():
    uses = _uses()
    assert uses, "simbench/ reads no ofdm_bitload module attribute"
    missing = [f"{f}:{line} {m.__name__}.{name}" for f, line, m, name, _ in uses
               if not hasattr(m, name)]
    assert missing == []


def test_every_direct_call_binds():
    unbound = []
    for f, line, module, name, call in _uses():
        if call is None or not hasattr(module, name):
            continue
        if any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue  # *args or **kwargs: the arity is not known from the text
        try:
            inspect.signature(getattr(module, name)).bind(
                *call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"{f}:{line} {module.__name__}.{name}: {exc}")
    assert unbound == []
