"""The benchmark under bench/ reaches the package only by name. A deleted or
renamed name would surface there as a failed benchmark run; this test makes
it fail here first, by resolving every `oaembed.<name>[.<name>]` attribute
chain and every `from oaembed... import` name that bench/*.py uses, and by
binding every call of such a chain to the callee's signature. The tracer's
(module, function) pairs are resolved too, since it skips a missing one
without a word."""

import ast
import importlib
import inspect
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


def package_calls(source: str):
    """(parts, positional count, keyword names, unpacks) for every call of an
    oaembed.<name>[.<name>...] chain in a module's source; unpacks is true
    when the call passes *args or **kwargs."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and (chain := _chain(node.func)):
            starred = [isinstance(a, ast.Starred) for a in node.args]
            found.append((tuple(chain), starred.count(False),
                          tuple(k.arg for k in node.keywords if k.arg is not None),
                          any(starred) or any(k.arg is None for k in node.keywords)))
    return found


def lookup(parts):
    """The object that oaembed.<parts> names, or None."""
    obj = importlib.import_module("oaembed")
    for depth, name in enumerate(parts, 1):
        if not hasattr(obj, name):
            try:  # a submodule that nothing has imported yet
                importlib.import_module("oaembed." + ".".join(parts[:depth]))
            except ImportError:
                return None
        obj = getattr(obj, name)
    return obj


def resolves(parts) -> bool:
    return lookup(parts) is not None


def binds(parts, n_positional, keywords, unpacks) -> bool:
    """Whether the callee accepts that many positional arguments and those
    keyword names; with unpacking only the arguments written out are checked."""
    sig = inspect.signature(lookup(parts))
    try:
        (sig.bind_partial if unpacks else sig.bind)(*range(n_positional),
                                                     **dict.fromkeys(keywords))
    except TypeError:
        return False
    return True


def test_scanner_finds_chains_and_imports():
    src = ("import oaembed.cli\nfrom oaembed.core import fit, nothing_here\n"
           "oaembed.recall_at(x)\noaembed.cli.main.__name__\nother.recall_at\n")
    assert package_names(src) == {("cli",), ("core", "fit"), ("core", "nothing_here"),
                                  ("recall_at",), ("cli", "main")}
    assert resolves(("cli", "main")) and resolves(("recall_at",))
    assert not resolves(("core", "nothing_here")) and not resolves(("no_module", "x"))


def test_call_scanner_binds_positional_keyword_and_unpacked_calls():
    src = ("oaembed.core.budget_scores(r, 1.0, 1e-8)\n"
           "oaembed.HyperParams(dim=2, seed=s)\noaembed.HyperParams(dim=2, no_such=1)\n"
           "oaembed.fit(net, hp, extra)\noaembed.fit(*args, hp=hp)\n"
           "oaembed.evaluate_all(net, r, t, **protocol, reps=2)\nother.fit(1, 2, 3)\n")
    calls = package_calls(src)
    assert calls == [(("core", "budget_scores"), 3, (), False),
                     (("HyperParams",), 0, ("dim", "seed"), False),
                     (("HyperParams",), 0, ("dim", "no_such"), False),
                     (("fit",), 3, (), False), (("fit",), 0, ("hp",), True),
                     (("evaluate_all",), 3, ("reps",), True)]
    assert [binds(*call) for call in calls] == [True, True, False, False, True, True]


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_package_name_the_benchmark_uses_resolves(path):
    missing = sorted(".".join(("oaembed",) + parts)
                     for parts in package_names(path.read_text(encoding="utf-8"))
                     if not resolves(parts))
    assert missing == []


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_package_call_the_benchmark_makes_binds(path):
    # a missing name is the test above's failure; this one checks the arguments
    unbound = sorted(f"oaembed.{'.'.join(parts)}: {n} positional, keywords {list(kws)}"
                     for parts, n, kws, unpacks in
                     package_calls(path.read_text(encoding="utf-8"))
                     if resolves(parts) and not binds(parts, n, kws, unpacks))
    assert unbound == []


def misread_hook_args(source: str):
    """Every `_arg(args, kwargs, pos, "name")` inside a `HOOKS["module.func"]`
    entry of a module's source whose position does not hold that parameter
    of oaembed.module.func, as (hook, pos, name, the parameter there). A hook
    reads a positional argument by its index, so a moved parameter would
    hand it the wrong object."""
    wrong = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets)):
            continue
        for key, value in zip(node.value.keys, node.value.values):
            params = list(inspect.signature(lookup(tuple(key.value.split(".")))).parameters)
            for call in ast.walk(value):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                    pos, name = (arg.value for arg in call.args[2:4])
                    there = params[pos] if pos < len(params) else None
                    if there != name:
                        wrong.append((key.value, pos, name, there))
    return wrong


def test_hook_scanner_finds_a_moved_positional_read():
    src = ('HOOKS = {"numerics.nmf_init": lambda t, a, kw, out: t.count(\n'
           '    "x", f(_arg(a, kw, 0, "m"), _arg(a, kw, 2, "k"), _arg(a, kw, 9, "iters")))}\n')
    assert misread_hook_args(src) == [("numerics.nmf_init", 2, "k", "iters"),
                                      ("numerics.nmf_init", 9, "iters", None)]


def test_bench_hooks_read_the_parameters_they_name():
    # nmf_init's gflop count reads (m, k, iters) by position; a misread would
    # be swallowed by the tracer and report 0
    source = (BENCH / "layers.py").read_text(encoding="utf-8")
    assert '_arg(a, kw, 0, "m")' in source
    assert misread_hook_args(source) == []


# TRACED pairs that name functions deleted before this test was written; the
# tracer reports 0 calls for them, and a fixed TRACED may drop any of them
STALE_TRACED = {"network.load_scores_tsv", "core.calibrate_weights", "core.loss_joint",
                "core.loss_structure", "core.loss_attribute", "core.loss_disagreement",
                "evaluation.train_classifier", "evaluation.kmeans_pp"}


def traced_pairs(source: str):
    """The (module, function) pairs of a module's `TRACED = [...]` list of
    (module, function, span name) literals."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets):
            return [(mod, name) for mod, name, _ in ast.literal_eval(node.value)]
    return []


def test_traced_names_resolve_except_the_known_stale_ones():
    # the tracer looks each name up in its defining module and skips a missing
    # one silently, so a rename or deletion would only read as 0 calls
    pairs = traced_pairs((BENCH / "tracing.py").read_text(encoding="utf-8"))
    assert ("core", "fit") in pairs and ("numerics", "nmf_init") in pairs
    unresolved = {f"{mod}.{name}" for mod, name in pairs
                  if not hasattr(importlib.import_module("oaembed." + mod), name)}
    assert unresolved <= STALE_TRACED


def test_fit_calls_every_traced_core_and_numerics_name(monkeypatch):
    # the tracer wraps each name at the binding fit resolves, oaembed.core.<name>;
    # a traced name that fit stops calling would read 0 calls on every workload
    from oaembed import core
    from oaembed.seeding import synth_network

    pairs = traced_pairs((BENCH / "tracing.py").read_text(encoding="utf-8"))
    names = [name for mod, name in pairs if mod in ("core", "numerics")
             and f"{mod}.{name}" not in STALE_TRACED and (mod, name) != ("core", "fit")]
    assert "budget_scores" in names and "nmf_init" in names
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(core, name, counted(name, getattr(core, name)))
    net = synth_network(60, 3, 0.2, 0.02, 30, 0.9, seed=0)
    core.fit(net, core.HyperParams(dim=3, iters=2))
    assert [name for name, n in calls.items() if n < 1] == []
