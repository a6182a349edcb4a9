"""CLI surfaces: exit codes, canonical output, pipelines."""
import argparse
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
from coverlab.cli import _canonical, main, make_parser
from coverlab.numtheory import GcdPowerCheck, LiftingCheck
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


@pytest.mark.parametrize("argv, missing", (
    (["derive"], "--n --r --mu"), (["derive", "--n", "9"], "--r --mu"),
    (["family-b"], "--t --r"), (["family-b", "--t", "3"], "--r")))
def test_params_missing_flags_exit_2(argv, missing, capsys):
    """A params table run without the flags it needs is bad input that
    names those flags, not a comparison with None."""
    code = main(["params", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"params {argv[0]} needs {missing}\n"


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
    """Bad input exits 2: fibres of size 1, labels that are not ints
    (int() would read the hexagon with [0.9, 1], true or "0" as a cover),
    a vertex count far past the fibres (rejected before any set of that
    size is built), JSON of the wrong shape, and text that is not JSON."""
    hexagon_json = hexagon().to_json()
    cases = ['{"v": 3, "fibres": [[0],[1],[2]], "edges": []}']
    cases.append(json.dumps(dict(hexagon_json, v=10**12)))
    cases.append("[]")
    cases.append(json.dumps({k: x for k, x in hexagon_json.items()
                             if k != "fibres"}))
    cases.append(json.dumps(dict(hexagon_json, fibres=None)))
    cases.append(json.dumps(dict(hexagon_json, fibres=[None]
                                 + hexagon_json["fibres"][1:])))
    cases.append(json.dumps(dict(hexagon_json, edges=5)))
    for first_edge in ([0], [0, 1, 2]):
        cases.append(json.dumps(dict(hexagon_json, edges=[first_edge]
                                     + hexagon_json["edges"][1:])))
    cases.append(b'{"v": \xff\xfe}')  # not UTF-8
    cases.append("{")
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
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
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


def test_main_builds_its_parser_once(capsys, monkeypatch, request):
    """Two main calls share one argparse tree, with the same output."""
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    make_parser.cache_clear()
    request.addfinalizer(make_parser.cache_clear)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ["params", "derive", "--n", "9", "--r", "3", "--mu", "3"]
    first, second = run_cli(argv, capsys), run_cli(argv, capsys)
    assert first == second and first[0] == 0
    assert built.count("coverlab") == 1


def test_etf_subcommand(tmp_path, capsys):
    path = tmp_path / "ts31.json"
    path.write_text(thas_somma(3, 1).to_json_str())
    code, out = run_cli(["etf", str(path), "--side", "tau"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["d"] == 3 and blob["certificates"]["sic"]
    assert blob["config"]["args"]["tol"] == 1e-9


def test_etf_endpoint_ignores_tol(tmp_path, capsys):
    """TS(3,1)'s tau = -4 is the lower endpoint -(3 - 1) sqrt(3 + 1); at
    --tol 1 a float comparison would also accept the upper one, -2."""
    path = tmp_path / "ts31.json"
    path.write_text(thas_somma(3, 1).to_json_str())
    code, out = run_cli(["etf", str(path), "--tol", "1"], capsys)
    assert code == 0
    assert json.loads(out)["certificates"]["tau_extremal_endpoint"] == "lower"


def test_etf_failed_certificate_exits_1(tmp_path, capsys, monkeypatch):
    """A failed spectrum certificate is a failure (1), not bad input (2):
    under TS(4,1)'s parameters, TS(3,1)'s angle layers fail the identity."""
    ts41 = coverlab.graphcore.params_of(thas_somma(4, 1))
    monkeypatch.setattr(coverlab.frames, "params_of", lambda g: ts41)
    path = tmp_path / "ts31.json"
    path.write_text(thas_somma(3, 1).to_json_str())
    assert main(["etf", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("certificate failed: ")
    assert "entry (0, 0), power 0: got 8, want 15" in captured.err


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
    # K = Z2 x Z2 has three subgroups of order 2: indices 0..2
    for index in ("-1", "-3", "3"):
        assert main(["quotient", str(path), "--subgroup-order", "2",
                     "--subgroup-index", index]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("subgroup index must be in 0..2")


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


def test_analyze_max_involutions_below_1_exits_2(tmp_path, capsys):
    """--max-involutions 0 is bad input, not a cap that still audits one."""
    path = tmp_path / "hexagon.json"
    path.write_text(hexagon().to_json_str())
    code, out = run_cli(["analyze", str(path), "--audits",
                         "--max-involutions", "1"], capsys)
    assert code == 0 and len(json.loads(out)["involution_audits"]) == 1
    for value in ("0", "-3"):
        assert main(["analyze", str(path), "--audits",
                     "--max-involutions", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-involutions must be at least 1" in captured.err


def test_analyze_finds_the_covering_group_once(tmp_path, capsys,
                                              monkeypatch):
    """analyze asks for the covering group once, in fibre_action, whose
    report the arc orbits and the audits read; the matching propagation
    runs once."""
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


def test_tracing_targets_resolve():
    """Every function and method the benchmark's tracer wraps exists in
    coverlab, so a rename cannot silently break run.py --trace 1.  The
    tracer's source is read and executed in a fresh namespace, so no
    bytecode is written next to it."""
    import importlib
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    namespace = {"__name__": "tracing_under_test"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert targets
    for mod_name, attr in targets:
        owner = importlib.import_module(f"coverlab.{mod_name}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), (mod_name, cls_name, attr)
        assert callable(getattr(owner, attr, None)), (mod_name, attr)


def test_analyze_audits_chain_builds(tmp_path, capsys, monkeypatch):
    """analyze --audits on TS(3,1) runs Schreier-Sims once, for K, whose
    chain is recorded on the graph with K and serves as Aut's kernel too,
    as Aut contains K.  Aut's chain is read off the search's first-path
    base.  Its chain on base (a, F - {a}) is built from its known order in
    fibre_action, and the fibre rank, the arc orbits, the subdegree check
    and the audit read G_a off it; the audit's chain on the extended
    domain is built from the known order too."""
    from coverlab.perms import PermGroup
    builds = []
    build = PermGroup._build_chain
    monkeypatch.setattr(PermGroup, "_build_chain",
                        lambda self: builds.append(self) or build(self))
    path = tmp_path / "ts31.json"
    path.write_text(thas_somma(3, 1).to_json_str())
    code, _ = run_cli(["analyze", "--audits", str(path)], capsys)
    assert code == 0 and len(builds) == 1


def test_analyze_audits_checks_the_group_once(tmp_path, capsys, monkeypatch):
    """One analyze --audits request on TS(3,1) checks Aut's generators once
    (require_automorphisms, in fibre_action through covering_group) and
    takes K's order, abelianity and regularity once (kernel_info): every
    later stage reads them off the fibre-action report."""
    from coverlab import groupops
    calls = {"require_automorphisms": 0, "kernel_info": 0}
    for name in calls:
        original = getattr(groupops, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(groupops, name, counting)
    path = tmp_path / "ts31.json"
    path.write_text(thas_somma(3, 1).to_json_str())
    code, out = run_cli(["analyze", "--audits", str(path)], capsys)
    assert code == 0 and json.loads(out)["covering_group"]["order"] == 3
    assert calls == {"require_automorphisms": 1, "kernel_info": 1}


@pytest.mark.parametrize("argv", (["verify"], ["analyze", "--audits"],
                                  ["etf"], ["quotient", "--subgroup-order",
                                            "2"]))
def test_directory_path_exits_2(argv, tmp_path, capsys):
    """A path that cannot be read as a file is bad input (exit 2, with an
    error line), not a failed certificate (exit 1) or a traceback."""
    code = main([argv[0], str(tmp_path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


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
    # W(E7) = 2 x Sp6(2) and Sp6(2) has the four involution classes 2A-2D
    # (ATLAS), so W(E7) has 2*5 - 1 = 9, each of its own displacement type
    invs = blob["involution_audits"]
    assert len(invs) == blob["involution_draws"]["types"] == 9
    assert not any(inv["failures"] for inv in invs)


def test_analyze_audits_ts32_relabellings(tmp_path, capsys):
    """analyze --audits on three seeded relabellings of TS(3,2): each exits
    0, |Aut| is the closed form, every structure_audit item passes, and the
    parts of the payload that do not depend on the labelling agree, the
    involution audits included."""
    views = []
    for seed in (1, 2, 3):
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
        assert not any(inv["failures"] for inv in blob["involution_audits"])
        views.append([blob[k] for k in ("structure_audit", "fibre_action",
                                         "arc_orbits", "involution_audits")])
    assert views[0] == views[1] == views[2]


def test_lemma_check(capsys):
    code, out = run_cli(["lemma-check", "nt", "--zsigmondy-bound", "10000"],
                        capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["zsigmondy"]["unclassified"] == 0


def test_lemma_check_bound_past_the_cap_exits_2(capsys):
    code = main(["lemma-check", "nt", "--zsigmondy-bound", str(10**12)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"error: zsigmondy bound {10**12} exceeds "
                   f"ZSIGMONDY_BOUND_MAX = {coverlab.numtheory.ZSIGMONDY_BOUND_MAX}\n")


def test_lemma_check_unknown_family_exits_2(capsys):
    assert main(["lemma-check", "xyz"]) == 2


def test_lemma_sweep_reports_its_counterexamples(capsys, monkeypatch):
    """The sweeps can fail: one planted unequal record per checker makes
    the run exit 1 and is the one counterexample each lists."""
    gcd_qpow = coverlab.numtheory.gcd_qpow
    lifting = coverlab.numtheory.lifting_identity_check

    def planted_gcd(q, k, m):
        chk = gcd_qpow(q, k, m)
        if (q, k, m) != (7, 12, 18):
            return chk
        return GcdPowerCheck(q, k, m, chk.gcd_value, chk.expected + 1, False)

    def planted_lifting(q, e, m, p):
        chk = lifting(q, e, m, p)
        if (q, e, m, p) != (5, 1, 4, 2):
            return chk
        return LiftingCheck(q, e, m, p, True, chk.lhs, 2 * chk.rhs, False)

    monkeypatch.setattr(coverlab.numtheory, "gcd_qpow", planted_gcd)
    monkeypatch.setattr(coverlab.numtheory, "lifting_identity_check",
                        planted_lifting)
    code, out = run_cli(["lemma-check", "nt", "--sweep"], capsys)
    assert code == 1
    blob = json.loads(out)
    assert blob["gcd_sweep"]["counterexamples"] == [[7, 12, 18]]
    assert blob["lifting_sweep"]["counterexamples"] == [[5, 1, 4, 2]]


def test_canonical_of_float_free_payload_is_plain_dumps():
    rows = [{"t": fb.t, "r": fb.r, "special": fb.special,
             "params": fb.params.to_json()} for fb in coverlab.feasible_B(30)]
    payload = {"rows": rows, "tags": ("b", "a"), "none": None,
               "config": {"args": {"t_max": 30}, "subcommand": "params"}}
    assert _canonical(payload) == json.dumps(payload, sort_keys=True,
                                             separators=(",", ":"))


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


def test_etf_text_output_shows_the_rounded_floats(tmp_path, capsys):
    """Text mode prints the etf floats as the JSON has them, at 15
    significant digits (TS(3,1)'s Hermitian deviation has 17)."""
    path = tmp_path / "ts31.json"
    path.write_text(thas_somma(3, 1).to_json_str())
    code, out = run_cli(["--output", "text", "etf", str(path)], capsys)
    assert code == 0 and "hermitian_deviation: 3.72380122987091e-16\n" in out


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


@pytest.mark.parametrize("text", ("5", '"abc"', "null", "[0, 1]",
                                  '[["0", "1"], ["1", "0"]]'))
def test_taylor_build_rejects_non_matrix_seidel_file(text, tmp_path, capsys):
    """A Seidel file holding a scalar, a string, null, a vector or a matrix
    of strings is bad input (exit 2 with an error line), not a crash."""
    path = tmp_path / "seidel.json"
    path.write_text(text)
    code = main(["build", "taylor-from-seidel", "--seidel", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: Seidel matrix must be a 2-d array of "
                            "numbers\n")


def test_taylor_build_via_seidel_file(tmp_path, capsys):
    s = (np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)).tolist()
    path = tmp_path / "seidel.json"
    path.write_text(json.dumps(s))
    code, out = run_cli(["build", "taylor-from-seidel", "--seidel",
                         str(path)], capsys)
    assert code == 0
    assert json.loads(out)["v"] == 6
