"""CLI payloads and demo output pinned byte for byte against golden files.

Each JSON file under tests/golden/ is the stdout of `coverlab <argv>`; a
refactor that claims the same behaviour must reproduce it exactly.  To
record a new one, run the command and save its stdout under the same name.
The analyze payloads embed their cover path, so those are recorded as
`coverlab analyze --audits NAME.json` run in the directory holding the
built cover NAME.json.  Each demo_NAME.txt is the stdout of
`python demos/NAME.py`.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coverlab
from coverlab import cube, hexagon, icosahedron, thas_somma
from coverlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "params_feasible-b_t200": ["params", "feasible-b", "--t-max", "200"],
    "params_feasible-a_t100": ["params", "feasible-a", "--t-max", "100"],
    "cases_all": ["cases", "all"],
    "lemma-check_nt_sweep": ["lemma-check", "nt", "--sweep"],
    **{f"build_thas-somma_q{q}_m1": ["build", "thas-somma", "--q", str(q),
                                     "--m", "1"]
       for q in (2, 3, 4, 5, 7, 8)},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes()


ANALYZE_COVERS = {"hexagon": hexagon, "cube": cube, "icosahedron": icosahedron,
                  "ts22": lambda: thas_somma(2, 2),
                  "ts31": lambda: thas_somma(3, 1),
                  "ts41": lambda: thas_somma(4, 1)}


@pytest.mark.parametrize("name", sorted(ANALYZE_COVERS))
def test_analyze_audits_matches_golden(name, tmp_path, monkeypatch, capsys):
    cover = ANALYZE_COVERS[name]()
    (tmp_path / f"{name}.json").write_text(cover.to_json_str())
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--audits", f"{name}.json"]) == 0
    golden = GOLDEN / f"analyze_audits_{name}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_matches_golden(name):
    """Each demo, run in a subprocess on the package this suite imports."""
    src = str(Path(coverlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"demo_{name}.txt").read_bytes()
