"""CLI surfaces: exit codes, canonical output, pipelines."""
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import coverlab
from coverlab import (hexagon, seidel_of_graph, taylor_from_seidel,
                      thas_somma)
from coverlab.cli import main
from conftest import matching_swapped, relabelled
from test_autgroup import symplectic_cover_aut_order


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_params_derive(capsys):
    code, out = run_cli(["params", "derive", "--n", "9", "--r", "3",
                         "--mu", "3"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["params"]["m_theta"] == 12
    assert blob["config"]["subcommand"] == "params"
    assert set(blob["config"]) == {"subcommand", "args"}


def test_params_feasible_b(capsys):
    code, out = run_cli(["params", "feasible-b", "--t-max", "12"], capsys)
    assert code == 0
    rows = json.loads(out)["feasible_b"]
    assert {(r["t"], r["r"]) for r in rows} == \
        {(2, 3), (6, 5), (8, 7), (11, 5), (12, 11)}


def test_build_verify_pipeline(tmp_path, capsys):
    code, out = run_cli(["build", "thas-somma", "--q", "3", "--m", "1"],
                        capsys)
    assert code == 0
    cover_path = tmp_path / "ts31.json"
    cover_path.write_text(out)
    code, out = run_cli(["verify", str(cover_path)], capsys)
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["is_cover"] and (rep["n"], rep["r"], rep["mu"]) == (9, 3, 3)


def test_verify_corrupted_exits_1(tmp_path, capsys):
    g = hexagon().toggled(0, 1)
    path = tmp_path / "broken.json"
    path.write_text(g.to_json_str())
    code, out = run_cli(["verify", str(path)], capsys)
    assert code == 1
    rep = json.loads(out)["report"]
    assert rep["failures"] and rep["failures"][0]["axiom"] == "perfect-matching"


def test_verify_cap_below_one_exits_2(tmp_path, capsys):
    """--max-violations 0 is bad input, not a cap that passes any graph."""
    path = tmp_path / "broken.json"
    path.write_text(hexagon().toggled(0, 1).toggled(0, 2).to_json_str())
    assert run_cli(["verify", str(path), "--max-violations", "1"], capsys)[0] == 1
    assert run_cli(["verify", str(path), "--max-violations", "0"], capsys)[0] == 2


def test_verify_malformed_exits_2(tmp_path, capsys):
    """Bad input exits 2: fibres of size 1, and labels that are not ints
    (int() would read the hexagon with [0.9, 1], true or "0" as a cover)."""
    hexagon_json = hexagon().to_json()
    cases = ['{"v": 3, "fibres": [[0],[1],[2]], "edges": []}']
    for first_edge in ([0.9, 1], [0, True], ["0", 1], [0, 1.0]):
        cases.append(json.dumps(dict(hexagon_json, edges=[first_edge]
                                     + hexagon_json["edges"][1:])))
    for first_fibre in ([True, 3], ["0", 3], [0.0, 3]):
        cases.append(json.dumps(dict(hexagon_json, fibres=[first_fibre]
                                     + hexagon_json["fibres"][1:])))
    cases.append(json.dumps(dict(hexagon_json, v=6.0)))
    assert hexagon_json["edges"][0] == [0, 1]
    assert hexagon_json["fibres"][0] == [0, 3]
    path = tmp_path / "malformed.json"
    for text in cases:
        path.write_text(text)
        assert main(["verify", str(path)]) == 2, text
        assert capsys.readouterr().err.startswith("error: "), text


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_cases_exit_codes(capsys):
    code, out = run_cli(["cases", "sp2d"], capsys)
    assert code == 0
    blob = json.loads(out)["cases"]
    assert all(r["match"] for r in blob.values())
    code, _ = run_cli(["cases", "all"], capsys)
    assert code == 0
    assert main(["cases", "nonsense"]) == 2


def test_etf_subcommand(tmp_path, capsys):
    path = tmp_path / "ts31.json"
    path.write_text(thas_somma(3, 1).to_json_str())
    code, out = run_cli(["etf", str(path), "--side", "tau"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["d"] == 3 and blob["certificates"]["sic"]
    assert blob["config"]["args"]["tol"] == 1e-9


def test_etf_failed_certificate_exits_1(tmp_path, capsys, monkeypatch):
    """A failed spectrum certificate is a failure (1), not bad input (2)."""
    certify = coverlab.frames.certify_two_eigenvalues
    monkeypatch.setattr(coverlab.frames, "certify_two_eigenvalues",
                        lambda s, theta, tau: certify(s, theta + 1, tau))
    path = tmp_path / "ts31.json"
    path.write_text(thas_somma(3, 1).to_json_str())
    assert main(["etf", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("certificate failed: ")
    assert "residual" in captured.err and "m_theta 36/7" in captured.err


def test_quotient_subcommand(tmp_path, capsys):
    path = tmp_path / "ts41.json"
    path.write_text(thas_somma(4, 1).to_json_str())
    code, out = run_cli(["quotient", str(path), "--subgroup-order", "2"],
                        capsys)
    assert code == 0
    quot = json.loads(out)
    assert quot["v"] == 32 and len(quot["fibres"]) == 16
    code, _ = run_cli(["quotient", str(path), "--subgroup-order", "5"],
                      capsys)
    assert code == 2


def test_non_cover_exits_2(tmp_path, capsys):
    """A matching-swapped copy is bad input to etf and quotient."""
    path = tmp_path / "swapped.json"
    path.write_text(matching_swapped(thas_somma(4, 1)).to_json_str())
    for argv in (["etf", str(path)],
                 ["quotient", str(path), "--subgroup-order", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not a cover")


def test_analyze_audits_verify_once(tmp_path, capsys, verify_calls):
    path = tmp_path / "hexagon.json"
    path.write_text(hexagon().to_json_str())
    code, out = run_cli(["analyze", str(path), "--audits"], capsys)
    assert code == 0
    invs = json.loads(out)["involution_audits"]
    assert any(inv["fixed_points"] for inv in invs)
    assert len(verify_calls) == 1


def test_analyze_subcommand(tmp_path, capsys):
    path = tmp_path / "hexagon.json"
    path.write_text(hexagon().to_json_str())
    code, out = run_cli(["analyze", str(path), "--audits"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["automorphism_group"]["order"] == 12
    assert blob["covering_group"]["order"] == 2
    assert blob["fibre_action"]["rank"] == 2
    assert blob["rank_identity_holds"]
    assert blob["structure_audit"]


def test_analyze_finds_the_covering_group_once(tmp_path, capsys,
                                              monkeypatch):
    """analyze asks for the covering group three times (directly, for the
    arc orbits and in the audit); the matching propagation runs once."""
    from coverlab import groupops
    calls = []
    real = groupops._fibre_fixing_automorphisms
    monkeypatch.setattr(groupops, "_fibre_fixing_automorphisms",
                        lambda g: calls.append(g) or real(g))
    path = tmp_path / "ts31.json"
    path.write_text(thas_somma(3, 1).to_json_str())
    code, out = run_cli(["analyze", "--audits", str(path)], capsys)
    assert code == 0 and json.loads(out)["covering_group"]["order"] == 3
    assert len(calls) == 1


def test_analyze_audits_chain_builds(tmp_path, capsys, monkeypatch):
    """analyze --audits on TS(3,1) runs Schreier-Sims 6 times: Aut, K for
    the covering group and again for the arc orbits and the audit, and the
    fibre group's stabilizer chain twice (fibre action, subdegree check).
    The audit's two other chains of Aut are built from its known order."""
    from coverlab.perms import PermGroup
    builds = []
    build = PermGroup._build_chain
    monkeypatch.setattr(PermGroup, "_build_chain",
                        lambda self: builds.append(self) or build(self))
    path = tmp_path / "ts31.json"
    path.write_text(thas_somma(3, 1).to_json_str())
    code, _ = run_cli(["analyze", "--audits", str(path)], capsys)
    assert code == 0 and len(builds) == 6


def gosset_cover(convention: int):
    """Taylor extension of the Schlaefli graph: the double cover of K_28
    from the Seidel matrix of T(8), the line graph of K_8, whose switching
    class holds the Schlaefli graph plus an isolated vertex."""
    pairs = list(combinations(range(8), 2))
    adj = [[int(len(set(x) & set(y)) == 1) for y in pairs] for x in pairs]
    return taylor_from_seidel(seidel_of_graph(adj), convention=convention)


@pytest.mark.parametrize("convention", (-1, 1))
def test_analyze_audits_gosset_covers(convention, tmp_path, capsys):
    """Both Gosset covers.  |Aut| is the Weyl group order |W(E7)| =
    2^10 3^4 5 7 (Bourbaki, Lie Groups and Lie Algebras, ch. VI), far past
    any element scan, so every audit item must come from chains."""
    path = tmp_path / "gosset.json"
    path.write_text(gosset_cover(convention).to_json_str())
    code, out = run_cli(["analyze", "--audits", str(path)], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["automorphism_group"]["order"] == 2**10 * 3**4 * 5 * 7
    assert (blob["report"]["n"], blob["report"]["r"]) == (28, 2)
    items = blob["structure_audit"]
    assert len(items) == 5
    assert all(item["status"] == "pass" for item in items), items
    invs = blob["involution_audits"]
    assert len(invs) == 50
    assert not any(inv["failures"] for inv in invs)


def test_analyze_audits_ts32_relabellings(tmp_path, capsys):
    """analyze --audits on two seeded relabellings of TS(3,2): |Aut| is the
    closed form, every structure_audit item passes, and the parts of the
    payload that do not depend on the labelling agree."""
    views = []
    for seed in (1, 3):
        path = tmp_path / f"ts32_{seed}.json"
        path.write_text(relabelled(thas_somma(3, 2), seed).to_json_str())
        code, out = run_cli(["analyze", "--audits", str(path)], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["automorphism_group"]["order"] == \
            symplectic_cover_aut_order(3, 2) == 25_194_240
        items = blob["structure_audit"]
        assert len(items) == 5
        assert all(item["status"] == "pass" for item in items), items
        views.append([blob[k] for k in ("structure_audit", "fibre_action",
                                         "arc_orbits")])
    assert views[0] == views[1]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the involution scan audits the first involutions "
                          "in transversal order and exits 2 when 100 000 "
                          "elements hold fewer than --max-involutions of them")
def test_analyze_audits_ts32_involution_scan_on_seed_2(tmp_path, capsys):
    """A known defect, kept visible: on this relabelling of TS(3,2) the scan
    runs past its element limit, so analyze exits 2 on a valid cover.
    Drawing involutions from G, not from the scan order, is the fix."""
    path = tmp_path / "ts32_2.json"
    path.write_text(relabelled(thas_somma(3, 2), 2).to_json_str())
    code, _ = run_cli(["analyze", "--audits", str(path)], capsys)
    assert code == 0


def test_lemma_check(capsys):
    code, out = run_cli(["lemma-check", "nt", "--zsigmondy-bound", "10000"],
                        capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["zsigmondy"]["unclassified"] == 0


def test_deterministic_byte_identical(capsys):
    _, out1 = run_cli(["cases", "all"], capsys)
    _, out2 = run_cli(["cases", "all"], capsys)
    assert out1 == out2
    _, out1 = run_cli(["params", "feasible-a", "--t-max", "6"], capsys)
    _, out2 = run_cli(["params", "feasible-a", "--t-max", "6"], capsys)
    assert out1 == out2


def test_canonical_json_sorted_keys(capsys):
    _, out = run_cli(["params", "derive", "--n", "4", "--r", "2",
                      "--mu", "2"], capsys)
    blob = json.loads(out)
    assert list(blob) == sorted(blob)
    assert list(blob["params"]) == sorted(blob["params"])


def test_text_output_mode(capsys):
    code, out = run_cli(["--output", "text", "params", "derive", "--n", "9",
                         "--r", "3", "--mu", "3"], capsys)
    assert code == 0
    assert "m_theta: 12" in out


def test_installed_entry_point(tmp_path):
    """One subprocess round through the actual console script, run from
    the package this suite imports, installed or not."""
    src = str(Path(coverlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coverlab.cli", "build", "hexagon"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["v"] == 6


def test_taylor_build_via_seidel_file(tmp_path, capsys):
    s = (np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)).tolist()
    path = tmp_path / "seidel.json"
    path.write_text(json.dumps(s))
    code, out = run_cli(["build", "taylor-from-seidel", "--seidel",
                         str(path)], capsys)
    assert code == 0
    assert json.loads(out)["v"] == 6
