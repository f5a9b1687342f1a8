"""``tools/report_digests.py``, which the byte-identity checks of report
outputs against another checkout rest on."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

from effham import ZOO_NAMES
from effham.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_report_digests_cover_the_report_cases_and_hash_the_outputs(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "report_digests.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    models = [f"builtin:{name}" for name in sorted(ZOO_NAMES)] + [
        f"demos/models/{path.name}" for path in sorted((ROOT / "demos" / "models").glob("*.ham"))]
    assert [row[:3] for row in rows] == [
        [model, tag, kind] for model in models for tag in ("default", "orders234-sweep")
        for kind in ("json", "csv")]
    assert all(re.fullmatch("[0-9a-f]{64}", row[3]) for row in rows)

    # the first case again, hashed here: the JSON without its timestamp
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    assert main(["report", models[0], "--out", str(out), "--csv", str(csv)]) == 0
    text = re.sub(r'(?m)^\s*"generated_at": .*\n', "", out.read_text())
    assert rows[0][3] == hashlib.sha256(text.encode()).hexdigest()
    assert rows[1][3] == hashlib.sha256(csv.read_bytes()).hexdigest()
