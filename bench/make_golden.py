"""Record the CSV of every `entnet reproduce <id>` as the golden reference.

Usage, from the repository root: python3 bench/make_golden.py

Writes bench/golden/reproduce.json: per id, the SHA-256 of the CSV and an
8-hex-digit digest of each row, so that a mismatch can name the first row
that differs. The recorded file comes from the seed commit; rerun this only
in a change that deliberately alters a reproduce CSV and says so.
"""

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from workloads import GOLDEN_PATH, REPRODUCE_IDS, row_digest, run_reproduce  # noqa: E402


def main():
    golden = {}
    for rid in REPRODUCE_IDS:
        code, text = run_reproduce(rid)
        if code != 0:
            raise SystemExit(f"reproduce {rid} exited {code}")
        golden[rid] = {
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "rows": [row_digest(line) for line in text.splitlines()],
        }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=0) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
