"""Byte-for-byte golden reports of ``tsum verify``, ``tsum table`` and ``tsum eval``.

The files under ``tests/golden`` hold the CSV output of

    tsum verify --precision-bits 96 --tolerance 1e-20 --format csv
    tsum table --weight-max 13 --precision-bits 96 --tolerance 1e-20 --format csv

and, in ``eval-192.txt``, the text output of ``tsum eval ... --precision-bits
192`` for each spec in ``EVAL_SPECS``, each block headed by its argv.  These
reports carry no timestamp, so every byte is deterministic.  A change that
alters printed digits on purpose regenerates the files with these commands
(``python tests/test_golden.py`` rewrites ``eval-192.txt``) and says so in
CHANGES.md; any other difference is a regression.
"""

import contextlib
import io
from pathlib import Path

import pytest

from tsum.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMON = ["--precision-bits", "96", "--tolerance", "1e-20", "--format", "csv"]

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


def render_evals() -> str:
    """Text output of every ``EVAL_SPECS`` eval at 192 bits, each headed by its argv."""
    blocks = []
    for spec in EVAL_SPECS:
        argv = ["eval", *spec, "--precision-bits", "192", "--format", "text"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        blocks.append("$ tsum " + " ".join(argv) + "\n" + out.getvalue())
    return "".join(blocks)


@pytest.mark.parametrize("name, argv", [
    ("verify-96.csv", ["verify", *COMMON]),
    ("table-96.csv", ["table", "--weight-max", "13", *COMMON]),
])
def test_report_matches_golden_bytes(name, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def test_eval_matches_golden_bytes():
    assert render_evals() == (GOLDEN / "eval-192.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    (GOLDEN / "eval-192.txt").write_text(render_evals(), encoding="utf-8")
