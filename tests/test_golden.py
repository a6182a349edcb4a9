"""CLI payloads and demo output pinned byte for byte against golden files.

Each JSON file under tests/golden/ is the stdout of `coverlab <argv>`; a
refactor that claims the same behaviour must reproduce it exactly.  To
record a new one, run the command and save its stdout under the same name.
The analyze payloads embed their cover path, so those are recorded as
`coverlab analyze --audits NAME.json` run in the directory holding the
built cover NAME.json; the verify, quotient and etf payloads are recorded
the same way, on the perturbed or built cover each test writes.  Each
params_*.txt is the stdout of `coverlab --output text <argv>`, the text
view of a table, and each demo_NAME.txt that of `python demos/NAME.py`.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coverlab
from coverlab import cube, hexagon, icosahedron, thas_somma
from coverlab.cli import main
from conftest import matching_swapped

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "params_feasible-b_t200": ["params", "feasible-b", "--t-max", "200"],
    "params_feasible-a_t100": ["params", "feasible-a", "--t-max", "100"],
    "cases_all": ["cases", "all"],
    "lemma-check_nt_sweep": ["lemma-check", "nt", "--sweep"],
    **{f"build_{name}": ["build", name]
       for name in ("hexagon", "cube", "icosahedron")},
    **{f"build_thas-somma_q{q}_m{m}": ["build", "thas-somma", "--q", str(q),
                                        "--m", str(m)]
       for q, m in [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1), (8, 1), (2, 2),
                    (3, 2)]},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes()


# the tables' text views; feasible-a to 8 holds the sporadic, sqrt(5) and
# eq1 rows
TEXT_CASES = {
    "params_feasible-a_t8": ["params", "feasible-a", "--t-max", "8"],
    "params_feasible-b_t12": ["params", "feasible-b", "--t-max", "12"],
}


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_cli_text_view_matches_golden(name, capsys):
    assert main(["--output", "text", *TEXT_CASES[name]]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


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


# fixed toggles of TS(3,2): three inside fibres (fibre-coclique) and four
# across fibres (perfect-matching), so both axioms truncate at 3
TS32_TOGGLES = [(0, 1), (4, 5), (9, 11), (0, 100), (13, 200), (50, 52),
                (77, 240)]


def _toggled_ts32():
    g = thas_somma(3, 2)
    for u, w in TS32_TOGGLES:
        g = g.toggled(u, w)
    return g


# (cover, argv after the cover path, exit code)
PERTURBED = {
    "verify_swapped_ts41": (lambda: matching_swapped(thas_somma(4, 1)),
                            [], 1),
    "verify_toggled_ts32_max3": (_toggled_ts32, ["--max-violations", "3"], 1),
}


@pytest.mark.parametrize("name", sorted(PERTURBED))
def test_verify_perturbed_matches_golden(name, tmp_path, monkeypatch, capsys):
    build, extra, code = PERTURBED[name]
    (tmp_path / "cover.json").write_text(build().to_json_str())
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "cover.json", *extra]) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("order,index", [(2, 3), (4, 5)])
def test_quotient_ts81_matches_golden(order, index, tmp_path, monkeypatch,
                                      capsys):
    (tmp_path / "ts81.json").write_text(thas_somma(8, 1).to_json_str())
    monkeypatch.chdir(tmp_path)
    assert main(["quotient", "ts81.json", "--subgroup-order", str(order),
                 "--subgroup-index", str(index)]) == 0
    golden = GOLDEN / f"quotient_ts81_order{order}_index{index}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


# (cover, argv after the cover path); e = 2, 2, 3, 3, 2 and 5 angle layers.
# TS(4,1)'s K is Z2 x Z2, the one non-cyclic K among them
ETF_CASES = {
    "etf_hexagon_theta": (hexagon, ["--side", "theta"]),
    "etf_icosahedron": (icosahedron, []),
    "etf_ts31_char1": (lambda: thas_somma(3, 1), ["--char", "1"]),
    "etf_ts31_char2": (lambda: thas_somma(3, 1), ["--char", "2"]),
    "etf_ts41_char2": (lambda: thas_somma(4, 1), ["--char", "2"]),
    "etf_ts51_char3_theta": (lambda: thas_somma(5, 1),
                             ["--char", "3", "--side", "theta"]),
}


@pytest.mark.parametrize("name", sorted(ETF_CASES))
def test_etf_matches_golden(name, tmp_path, monkeypatch, capsys):
    build, extra = ETF_CASES[name]
    (tmp_path / "cover.json").write_text(build().to_json_str())
    monkeypatch.chdir(tmp_path)
    assert main(["etf", "cover.json", *extra]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def _floats(x):
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        for v in x:
            yield from _floats(v)
    elif isinstance(x, float):
        yield x


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_golden_floats_have_15_significant_digits(name):
    """No CLI golden holds a float, so none holds float noise past 15
    significant digits either: every payload, etf's included, is exact."""
    assert list(_floats(json.loads((GOLDEN / f"{name}.json").read_text()))) == []


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
