"""Golden stdout of the paper artifact commands.

Each file under ``tests/golden/`` is the byte-exact stdout of
``repro.cli <command> --experiments 2 --engine fast``.  A change that
shifts any figure, table or headline number fails here loudly instead
of drifting; a deliberate change of the paper numbers re-records the
files and says why.  CI diffs the ``--engine vector`` stdout against
the same files.

Regenerate (from the repo root) with::

    for cmd in headline table2 table3 "fig4 --window low" \\
        "fig4 --window high" fig5 fig6; do
      name=$(echo "$cmd" | sed 's/ --window /-/')
      PYTHONPATH=src python -m repro.cli $cmd --experiments 2 \\
        --engine fast > "tests/golden/$name.txt"
    done
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "golden"

COMMANDS = {
    "headline": ["headline"],
    "table2": ["table2"],
    "table3": ["table3"],
    "fig4-low": ["fig4", "--window", "low"],
    "fig4-high": ["fig4", "--window", "high"],
    "fig5": ["fig5"],
    "fig6": ["fig6"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_fast_stdout_matches_golden(name, capsys):
    assert main([*COMMANDS[name], "--experiments", "2", "--engine", "fast"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def test_every_golden_file_is_checked():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(COMMANDS)
