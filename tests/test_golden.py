"""CLI payloads pinned byte for byte against recorded golden files.

Each file under tests/golden/ is the stdout of `coverlab <argv>`; a
refactor that claims the same behaviour must reproduce it exactly.  To
record a new one, run the command and save its stdout under the same name.
"""
from pathlib import Path

import pytest

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
