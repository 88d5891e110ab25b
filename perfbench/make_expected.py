"""Record the expected outputs of the fixed-input workloads.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/make_expected.py

verify-default keeps, per margins-CSV row, the row key, rel_margin and the
status; reproduce-paper keeps every table cell and
limiting-form check.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from workloads import EXPECTED, VerifyDefault, reproduce_outputs, verify_rows  # noqa: E402

from struveint import harness  # noqa: E402


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    code, csv_text = VerifyDefault.run_pass(None)
    if code != 0:
        raise SystemExit(f"struveint verify exited {code}")
    lines = [f"{key},{margin!r},{status}\n" for key, margin, status in verify_rows(csv_text)]
    with gzip.GzipFile(EXPECTED / "verify-default.csv.gz", "wb", mtime=0) as fh:
        fh.write("".join(lines).encode())
    outputs = reproduce_outputs(
        (harness.reproduce_table(1), harness.reproduce_table(2), harness.asymptotic_check())
    )
    body = ",\n".join(
        f'"{key}": [\n' + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for key, rows in outputs.items()
    )
    (EXPECTED / "reproduce-paper.json").write_text("{\n" + body + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
