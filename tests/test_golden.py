"""Byte-for-byte golden reports of ``tsum verify`` and ``tsum table``.

The files under ``tests/golden`` hold the CSV output of

    tsum verify --precision-bits 96 --tolerance 1e-20 --format csv
    tsum table --weight-max 13 --precision-bits 96 --tolerance 1e-20 --format csv

CSV reports carry no timestamp, so every byte is deterministic.  A change
that alters printed digits on purpose regenerates both files with these
commands and says so in CHANGES.md; any other difference is a regression.
"""

from pathlib import Path

import pytest

from tsum.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMON = ["--precision-bits", "96", "--tolerance", "1e-20", "--format", "csv"]


@pytest.mark.parametrize("name, argv", [
    ("verify-96.csv", ["verify", *COMMON]),
    ("table-96.csv", ["table", "--weight-max", "13", *COMMON]),
])
def test_report_matches_golden_bytes(name, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
