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
from coverlab import (hexagon, icosahedron, seidel_of_graph,
                      taylor_from_seidel, thas_somma)
from coverlab.cli import _canonical, main, make_parser
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
    """A params table run without the flags it needs is a usage error that
    names those flags, not a comparison with None."""
    code = main(["params", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert all(flag in captured.err for flag in missing.split())


# each params table and construction with a value argparse accepts for each
# flag it reads; every other flag of its subcommand is foreign to it
VARIANTS = {
    ("params", "derive"): ["--n", "9", "--r", "3", "--mu", "3"],
    ("params", "family-b"): ["--t", "6", "--r", "5"],
    ("params", "feasible-b"): ["--t-max", "6"],
    ("params", "feasible-a"): ["--t-max", "6"],
    ("build", "hexagon"): [],
    ("build", "icosahedron"): [],
    ("build", "cube"): [],
    ("build", "thas-somma"): ["--q", "3", "--m", "1"],
    ("build", "taylor-from-seidel"): ["--seidel", "seidel.json",
                                      "--convention", "1"],
}
FLAGS = {cmd: {f for (c, _), argv in VARIANTS.items() if c == cmd
               for f in argv[::2]} for cmd in ("params", "build")}
FOREIGN = [(variant, flag) for variant, argv in VARIANTS.items()
           for flag in sorted(FLAGS[variant[0]] - set(argv[::2]))]


@pytest.mark.parametrize("variant, flag", FOREIGN,
                         ids=[f"{v[1]}{f}" for v, f in FOREIGN])
def test_foreign_flag_exits_2(variant, flag, capsys):
    """A flag that a table or construction does not read is refused, by
    its full name, before anything runs."""
    code = main([*variant, *VARIANTS[variant], flag, "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert flag in captured.err


def test_params_feasible_b(capsys):
    code, out = run_cli(["params", "feasible-b", "--t-max", "12"], capsys)
    assert code == 0
    rows = json.loads(out)["feasible_b"]
    assert {(r["t"], r["r"]) for r in rows} == \
        {(2, 3), (6, 5), (8, 7), (11, 5), (12, 11)}


def _table_tree(table: str, t_max: int) -> dict:
    """The payload of `params TABLE --t-max T_MAX` as a dict tree of the
    records' to_json forms, the oracle for the rows the CLI writes as text."""
    if table == "feasible-b":
        rows = [{"t": fb.t, "r": fb.r, "special": fb.special,
                 "params": fb.params.to_json()}
                for fb in coverlab.feasible_B(t_max)]
    else:
        rows = [{"t": str(e.t), "r": e.r, "branch": e.branch,
                 "conditions": list(e.conditions),
                 "params": e.params.to_json()}
                for e in coverlab.feasible_A(t_max)]
    return {table.replace("-", "_"): rows, "t_max": t_max,
            "config": {"subcommand": "params",
                       "args": {"output": "json", "t_max": t_max,
                                "table": table}}}


@pytest.mark.parametrize("table, t_max", (
    *(("feasible-b", t) for t in (2, 6, 200, 3000)),
    *(("feasible-a", t) for t in (2, 3, 8, 100, 400))))
def test_table_rows_match_dict_tree(table, t_max, capsys):
    """Each table row is written straight from its record: the bytes equal
    json.dumps of the dict tree, over the special (9, 3, 3), sporadic
    (28, 4, 8), t = sqrt(5) and eq1 rows and the int-spectrum ones."""
    code, out = run_cli(["params", table, "--t-max", str(t_max)], capsys)
    want = json.dumps(_table_tree(table, t_max), sort_keys=True,
                      separators=(",", ":")) + "\n"
    assert code == 0
    if out != want:  # show the first difference: a diff of 1.5 MB stalls
        at = max(len(os.path.commonprefix([out, want])) - 60, 0)
        assert out[at:at + 120] == want[at:at + 120]


def _console(*argv):
    """`coverlab ARGV` in a subprocess, on the package this suite imports,
    its stdout and stderr pipes."""
    src = str(Path(coverlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "coverlab.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("argv, read", (
    (["params", "feasible-b", "--t-max", "3000"], 50),
    (["params", "feasible-b", "--t-max", "2"], 0),
    (["--output", "text", "params", "feasible-a", "--t-max", "30"], 0)))
def test_closed_stdout_exits_141_silently(argv, read):
    """A reader that stops early (`| head -c 50`) is not bad input: exit
    141, 128 + SIGPIPE, with nothing on stderr.  The 1.5 MB payload
    outgrows the pipe, so it is cut while written; the small one is cut
    at its final flush, the text view at one of its prints."""
    with _console(*argv) as proc:
        proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(), err) == (141, b"")


def test_unreadable_path_still_exits_2(tmp_path):
    """An input path that cannot be read stays bad input (exit 2)."""
    with _console("verify", str(tmp_path / "missing.json")) as proc:
        out, err = proc.communicate()
    assert proc.returncode == 2 and out == b""
    assert err.startswith(b"error: ")


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


def test_size_limits_exit_3(tmp_path, capsys, monkeypatch):
    """An input past a size bound is a limit of the program, not bad
    input: SizeBoundExceeded exits 3 with an error line, on one bound of
    each kind.  VERTEX_BOUND through build, AUT_VERTEX_BOUND through
    analyze (patched below the icosahedron's 12 vertices) and FLOAT32_EXACT
    through verify (patched to the hexagon's degree 2).  The 2^53 bound of
    spectrum_check and MAX_SUBGROUPS_ORDER are pinned as library raises in
    test_graphcore and test_permgroup."""
    from coverlab import autgroup, graphcore
    assert main(["build", "thas-somma", "--q", "5", "--m", "3"]) == 3
    assert capsys.readouterr().err == ("error: q^(2m+1) = 5^7 vertices "
                                       "exceed the bound 4096\n")
    path = tmp_path / "icosahedron.json"
    path.write_text(icosahedron().to_json_str())
    monkeypatch.setattr(autgroup, "AUT_VERTEX_BOUND", 11)
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err == "error: 12 vertices exceed bound 11\n"
    path = tmp_path / "hexagon.json"
    path.write_text(hexagon().to_json_str())
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(graphcore, "FLOAT32_EXACT", 2)
    assert main(["verify", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: common-neighbour counts reach 2 >= 2")


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


def test_cases_ids_are_choices(capsys):
    """A prefix of several case ids is no case id: exit 2, with the
    choices on stderr and nothing on stdout."""
    assert main(["cases", "sp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'sp'" in captured.err


@pytest.mark.parametrize("case_id", ("sp2d", "linear31", "claim4",
                                     "twin-powers", "sporadic",
                                     "wreathed-congruence"))
def test_cases_id_is_its_subset_of_all(case_id, capsys):
    """Each documented id reports exactly the reports of `cases all` whose
    ids it begins."""
    _, out = run_cli(["cases", "all"], capsys)
    every = json.loads(out)["cases"]
    code, out = run_cli(["cases", case_id], capsys)
    assert code == 0
    want = {k: r for k, r in every.items() if k.startswith(case_id)}
    assert want and json.loads(out)["cases"] == want


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
    assert blob["config"]["args"] == {"char": 1, "cover": str(path),
                                      "output": "json", "side": "tau"}


def test_etf_rejects_tol(tmp_path, capsys):
    """etf takes no tolerance: --tol is an unknown flag (exit 2), and
    TS(3,1)'s tau = -4 is the lower endpoint -(3 - 1) sqrt(3 + 1)."""
    path = tmp_path / "ts31.json"
    path.write_text(thas_somma(3, 1).to_json_str())
    assert main(["etf", str(path), "--tol", "1"]) == 2
    assert "unrecognized arguments: --tol 1" in capsys.readouterr().err
    code, out = run_cli(["etf", "--help"], capsys)
    assert code == 0 and "--side" in out and "--tol" not in out
    code, out = run_cli(["etf", str(path)], capsys)
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


@pytest.mark.parametrize("char", ["0", "3"])
def test_etf_char_out_of_range_exits_2(char, tmp_path, capsys):
    """TS(3,1)'s covering group Z3 has characters 0..2, and 0 is trivial:
    --char 0 and --char 3 are bad input, and stderr names the range."""
    path = tmp_path / "ts31.json"
    path.write_text(thas_somma(3, 1).to_json_str())
    assert main(["etf", str(path), "--char", char]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "character index must be in 1..2" in captured.err


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


def test_analyze_audits_chain_builds(tmp_path, capsys, monkeypatch):
    """analyze --audits on TS(3,1) runs no Schreier-Sims.  K's chain is
    read off its element list with base (0,), as K is semiregular, and is
    recorded on the graph with K; it serves as Aut's kernel too, as Aut
    contains K.  Aut's chain is read off the search's first-path base.
    Its chain on base (a, F - {a}) is rebased from it in fibre_action,
    and the fibre rank, the arc orbits, the subdegree check and the audit
    read G_a off it; the audit's chain on the extended domain is rebased
    from it too."""
    from coverlab.perms import PermGroup
    builds = []
    build = PermGroup._build_chain
    monkeypatch.setattr(PermGroup, "_build_chain",
                        lambda self: builds.append(self) or build(self))
    path = tmp_path / "ts31.json"
    path.write_text(thas_somma(3, 1).to_json_str())
    code, _ = run_cli(["analyze", "--audits", str(path)], capsys)
    assert code == 0 and builds == []


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


@pytest.mark.parametrize("error", (TypeError, KeyError))
def test_program_errors_escape_main(error, tmp_path, monkeypatch):
    """Only ValueError and OSError are bad input (exit 2): a TypeError or
    KeyError from the program is a bug and leaves main as it is."""
    def broken(*args):
        raise error("planted")
    monkeypatch.setattr(coverlab.cli, "fibre_action", broken)
    path = tmp_path / "hexagon.json"
    path.write_text(hexagon().to_json_str())
    with pytest.raises(error, match="planted"):
        main(["analyze", str(path)])


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


def test_lemma_check_bound_past_the_cap_exits_3(capsys):
    """The sieve's cap is a memory limit of the program, not bad input."""
    code = main(["lemma-check", "nt", "--zsigmondy-bound", str(10**12)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == (f"error: zsigmondy bound {10**12} exceeds "
                   f"ZSIGMONDY_BOUND_MAX = {coverlab.numtheory.ZSIGMONDY_BOUND_MAX}\n")


def test_lemma_check_unknown_family_exits_2(capsys):
    assert main(["lemma-check", "xyz"]) == 2


def test_lemma_sweep_reports_its_counterexamples(capsys, monkeypatch):
    """The sweeps can fail: one planted wrong value under each sweep makes
    the run exit 1 and gives the one counterexample each lists.  The 2-part
    of 5^4 - 1 = 25^2 - 1 is wrong on its first request only, at
    (q, e, m, p) = (5, 1, 4, 2), and gcd(7^12 - 1, 7^18 - 1) is wrong in
    that argument order only."""
    gcd = coverlab.numtheory.gcd
    p_power = coverlab.numtheory._p_power
    planted = [(5 ** 4 - 1, 2)]

    def planted_p_power(l, p):
        if (l, p) in planted:
            planted.clear()
            return 2 * p_power(l, p)
        return p_power(l, p)

    monkeypatch.setattr(coverlab.numtheory, "gcd", lambda a, b: gcd(a, b)
                        + ((a, b) == (7 ** 12 - 1, 7 ** 18 - 1)))
    monkeypatch.setattr(coverlab.numtheory, "_p_power", planted_p_power)
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


def test_etf_text_output_shows_the_exact_other(tmp_path, capsys):
    """Text mode prints the icosahedron's other = theta = sqrt(5), the
    eigenvalue the tau side does not keep, in its exact QuadExt form."""
    path = tmp_path / "icosahedron.json"
    path.write_text(icosahedron().to_json_str())
    code, out = run_cli(["--output", "text", "etf", str(path)], capsys)
    assert code == 0 and "\nother:\n  D: 5\n  a: 0\n  b: 1\n" in out


def test_text_output_keeps_matrix_rows(tmp_path, capsys):
    """Text mode prints each row of the hexagon's 3 x 3 angle table on its
    own line, not nine bare entries."""
    path = tmp_path / "hexagon.json"
    path.write_text(hexagon().to_json_str())
    code, out = run_cli(["--output", "text", "etf", str(path), "--side",
                         "theta"], capsys)
    assert code == 0
    assert out.startswith("angles:\n  - [-1, 0, 1]\n  - [0, -1, 0]\n"
                          "  - [1, 0, -1]\nbase_vertices:\n  - 0\n")


def test_text_output_marks_each_record_of_a_list(tmp_path, capsys):
    """Text mode opens each record of a list with its own "-" line and
    indents the record under it, so the hexagon's two signature
    eigenvalues stay apart; JSON output is unchanged."""
    path = tmp_path / "hexagon.json"
    path.write_text(hexagon().to_json_str())
    code, out = run_cli(["--output", "text", "etf", str(path), "--side",
                         "theta"], capsys)
    assert code == 0
    assert out.endswith("signature_eigenvalues:\n"
                        "  -\n    multiplicity: 2\n"
                        "    value:\n      D: 1\n      a: 1\n      b: 0\n"
                        "  -\n    multiplicity: 1\n"
                        "    value:\n      D: 1\n      a: -2\n      b: 0\n")


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


def test_analyze_leaves_numpy_ma_unloaded(tmp_path):
    """analyze --audits imports no numpy.ma (np.unique loads it on numpy 2
    at its first call); numpy 1.x loads it with numpy itself."""
    src = str(Path(coverlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def loaded(code):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        return proc.stdout.splitlines()[-1] == "True"

    if loaded("import sys, numpy; print('numpy.ma' in sys.modules)"):
        pytest.skip("import numpy alone loads numpy.ma")
    path = tmp_path / "hexagon.json"
    path.write_text(hexagon().to_json_str())
    assert not loaded(
        "import sys; from coverlab.cli import main; "
        f"code = main(['analyze', '--audits', {str(path)!r}]); "
        "print(); print(code == 0 and 'numpy.ma' in sys.modules)")


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
