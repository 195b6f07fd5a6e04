"""The benchmark under bench/ reaches the package only by name. A deleted or
renamed name would surface there as a failed benchmark run; this test makes
it fail here first, by resolving every `oaembed.<name>[.<name>]` attribute
chain and every `from oaembed... import` name that bench/*.py uses."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _chain(node):
    """['a', 'b'] for the expression oaembed.a.b, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "oaembed":
        return names[::-1]
    return None


def package_names(source: str):
    """Every dotted package name a module's source uses, as a tuple of parts
    after 'oaembed', at most two deep."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (chain := _chain(node)):
            found.add(tuple(chain[:2]))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("oaembed"):
            mod = tuple(node.module.split(".")[1:])
            found.update(mod + (alias.name,) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(tuple(a.name.split(".")[1:]) for a in node.names
                         if a.name.startswith("oaembed."))
    return found


def resolves(parts) -> bool:
    obj = importlib.import_module("oaembed")
    for depth, name in enumerate(parts, 1):
        if not hasattr(obj, name):
            try:  # a submodule that nothing has imported yet
                importlib.import_module("oaembed." + ".".join(parts[:depth]))
            except ImportError:
                return False
        obj = getattr(obj, name)
    return True


def test_scanner_finds_chains_and_imports():
    src = ("import oaembed.cli\nfrom oaembed.core import fit, nothing_here\n"
           "oaembed.recall_at(x)\noaembed.cli.main.__name__\nother.recall_at\n")
    assert package_names(src) == {("cli",), ("core", "fit"), ("core", "nothing_here"),
                                  ("recall_at",), ("cli", "main")}
    assert resolves(("cli", "main")) and resolves(("recall_at",))
    assert not resolves(("core", "nothing_here")) and not resolves(("no_module", "x"))


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_package_name_the_benchmark_uses_resolves(path):
    missing = sorted(".".join(("oaembed",) + parts)
                     for parts in package_names(path.read_text(encoding="utf-8"))
                     if not resolves(parts))
    assert missing == []
