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


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, imported fresh; monkeypatch takes it and
    its corpus module out of sys.modules again afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "corpus"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("workloads")


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
