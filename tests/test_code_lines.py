"""``tools/code_lines.py``, which the code-line figures of the package rest on."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_code_lines_counts_every_module_and_sums_them():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *rows, total = [line.split() for line in proc.stdout.splitlines()]
    modules = sorted(path.name for path in (ROOT / "src" / "effham").glob("*.py"))
    assert [name for name, _ in rows] == modules
    assert all(int(count) > 0 for _, count in rows)
    assert total[0] == "total" and int(total[1]) == sum(int(count) for _, count in rows)
