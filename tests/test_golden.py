"""Byte-for-byte golden outputs of ``tsum verify``, ``tsum table``, ``tsum eval``
and the symbolic reductions.

The files under ``tests/golden`` hold the CSV output of

    tsum verify --precision-bits 96 --tolerance 1e-20 --format csv
    tsum table --weight-max 13 --precision-bits 96 --tolerance 1e-20 --format csv
    tsum verify --families thm3_1,thm3_4 --precision-bits 1024 --tolerance 1e-290
        --samples=1/4,1/3 --format csv
    tsum verify --families thm3_6,thm3_7 --precision-bits 1024 --tolerance 1e-290
        --format csv

in ``verify-96.csv``, ``table-96.csv``, ``pair-1024.csv`` (the 1024-bit
path: tail values at N + 1/2 far out, and a deep expansion) and
``residue-1024.csv`` (the same depth with R given in partial fractions); in
``eval-192.txt``, the text output of ``tsum eval ... --precision-bits 192``
for each spec in ``EVAL_SPECS``, each block headed by its argv; and in
``reductions-21.txt``, one line ``name[j=..,m=..] <expression>`` for every
reduction pair up to weight 21.  None of them carries a timestamp, so every byte is deterministic.
A change that alters printed digits on purpose regenerates all six files
with ``python tests/test_golden.py`` and says so in CHANGES.md; any other
difference is a regression.
"""

import contextlib
import io
from pathlib import Path

import pytest

from tsum.cli import main
from tsum.reductions import FAMILIES

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMON = ["--precision-bits", "96", "--tolerance", "1e-20", "--format", "csv"]
REPORTS = {
    "verify-96.csv": ["verify", *COMMON],
    "table-96.csv": ["table", "--weight-max", "13", *COMMON],
    "pair-1024.csv": ["verify", "--families", "thm3_1,thm3_4", "--precision-bits", "1024",
                      "--tolerance", "1e-290", "--samples=1/4,1/3", "--format", "csv"],
    "residue-1024.csv": ["verify", "--families", "thm3_6,thm3_7", "--precision-bits", "1024",
                         "--tolerance", "1e-290", "--format", "csv"],
}
REDUCTION_WEIGHT_MAX = 21

# Both signs, e = 1..3, both offsets, p absent and p >= 1, and far shifts.
EVAL_SPECS = [
    ["--p", "1", "--q", "2", "--a", "1/2"],
    ["--p", "2", "--q", "2", "--a", "0", "--offset", "prev"],
    ["--p", "1", "--q", "1", "--a", "0", "--sigma", "-1"],
    ["--q", "1,1", "--a=1/3,-1/5", "--sigma", "-1"],
    ["--q", "2", "--a", "1/4"],
    ["--p", "3", "--q", "1,1,2", "--a=1/3,2/7,-1/4"],
    ["--p", "2", "--q", "3", "--a=101/3", "--sigma", "-1", "--offset", "prev"],
    ["--p", "1", "--q", "2,1", "--a=-47/3,1/4", "--sigma", "-1"],
    ["--p", "4", "--q", "1,1", "--a=1/5,2/5", "--sigma", "-1", "--offset", "prev"],
]


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def render_evals() -> str:
    """Text output of every ``EVAL_SPECS`` eval at 192 bits, each headed by its argv."""
    blocks = []
    for spec in EVAL_SPECS:
        argv = ["eval", *spec, "--precision-bits", "192", "--format", "text"]
        blocks.append("$ tsum " + " ".join(argv) + "\n" + _run(argv))
    return "".join(blocks)


def render_reductions() -> str:
    """Every family's reduction up to ``REDUCTION_WEIGHT_MAX``, one line each."""
    return "".join(f"{name}[j={j},m={m}] {fam.reduce(j, m).to_text()}\n"
                   for name, fam in FAMILIES.items()
                   for j, m in fam.pairs_up_to_weight(REDUCTION_WEIGHT_MAX))


@pytest.mark.parametrize("name, argv", list(REPORTS.items()))
def test_report_matches_golden_bytes(name, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def test_eval_matches_golden_bytes():
    assert render_evals() == (GOLDEN / "eval-192.txt").read_text(encoding="utf-8")


def test_reductions_match_golden_bytes():
    assert render_reductions() == (GOLDEN / "reductions-21.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, argv in REPORTS.items():
        (GOLDEN / name).write_text(_run(argv), encoding="utf-8")
    (GOLDEN / "eval-192.txt").write_text(render_evals(), encoding="utf-8")
    (GOLDEN / "reductions-21.txt").write_text(render_reductions(), encoding="utf-8")
