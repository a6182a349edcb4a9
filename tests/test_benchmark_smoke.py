"""One pass of each benchmark workload against this checkout's library.

The benchmark calls coverlab by name and signature (for example
character_matrix(g, chi, kernel=K) and covering_group(g, aut)); a library
change that breaks such a call shows up here, not only in a benchmark run.
perfbench/ is only read: its modules are imported with bytecode writing
off, and every input is written under the test's tmp_path.
"""
import importlib
import sys
from argparse import Namespace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("cli", "constructions", "graphcore", "groupops", "frames", "perms",
           "params", "casecheck", "autgroup", "numtheory", "exact")


def import_fresh(monkeypatch, name: str, *helpers: str):
    """perfbench/<name>.py, imported fresh with bytecode writing off;
    monkeypatch takes it and the helper modules it imports out of
    sys.modules again afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in (name, *helpers):
        monkeypatch.delitem(sys.modules, module, raising=False)
    return importlib.import_module(name)


@pytest.fixture
def workloads(monkeypatch):
    return import_fresh(monkeypatch, "workloads", "corpus")


def test_tracing_targets_resolve(monkeypatch):
    """Every function and method the benchmark's tracer wraps exists in
    coverlab, so a rename cannot silently break run.py --trace 1: a method
    is in its class's __dict__, where the tracer looks it up, and a
    function is a callable attribute of its module."""
    targets = import_fresh(monkeypatch, "tracing").TARGETS
    assert targets
    for mod_name, attr in targets:
        owner = importlib.import_module(f"coverlab.{mod_name}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), (mod_name, cls_name, attr)
        assert callable(getattr(owner, attr, None)), (mod_name, attr)


@pytest.mark.parametrize("name", ("etf", "analyze", "tables"))
def test_workload_pass_is_correct(name, workloads, tmp_path, monkeypatch):
    """Set up the workload on seed 1, validate its inputs and run one pass
    of variant 0: every request runs, and every check returns []."""
    cl = Namespace(**{m: importlib.import_module(f"coverlab.{m}")
                      for m in MODULES})
    monkeypatch.chdir(tmp_path)  # analyze passes input paths relative to it
    wl = workloads.WORKLOADS[name](cl, tmp_path, 1)
    wl.setup()
    assert wl.validate() == []
    results = [(req, req.run()) for req in wl.requests(0)]
    assert results
    problems = {req.name: req.check(out) for req, out in results}
    assert {k: v for k, v in problems.items() if v} == {}
