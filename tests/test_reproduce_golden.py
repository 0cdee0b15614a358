"""Every `entnet reproduce <id>` CSV is byte-identical to the recorded golden file."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from entnet.cli import REPRODUCE_IDS, run_subcommand

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden" / "reproduce.json").read_text(
        encoding="utf-8"
    )
)


def test_golden_covers_every_id():
    assert sorted(GOLDEN) == sorted(REPRODUCE_IDS)


@pytest.mark.parametrize("rid", REPRODUCE_IDS)
def test_reproduce_csv_matches_golden(rid):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_subcommand(["reproduce", rid])
    assert code == 0
    text = buf.getvalue()
    if hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[rid]["sha256"]:
        return
    rows = GOLDEN[rid]["rows"]
    for row, line in enumerate(text.splitlines(), start=1):
        digest = hashlib.sha256(line.encode("utf-8")).hexdigest()[:8]
        assert row <= len(rows) and digest == rows[row - 1], f"row {row} differs: {line!r}"
    pytest.fail(f"{len(text.splitlines())} rows printed, golden has {len(rows)}")
