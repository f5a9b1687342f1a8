"""``tools/oracle_digests.py``, which the bit-identity checks of the
oracles against another checkout rest on."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from effham import ZOO_NAMES, make_model, propagate_exact

ROOT = Path(__file__).resolve().parent.parent


def test_oracle_digests_cover_every_oracle_output_and_hash_it_up_to_the_sign_of_zero():
    # run as a script, then fail if it imported the benchmark
    tool = str(ROOT / "tools" / "oracle_digests.py")
    check = (f"import runpy, sys; sys.argv = [{tool!r}]; runpy.run_path({tool!r}, run_name='__main__');"
             "sys.exit(any(name.split('.')[0] == 'perfbench' for name in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          timeout=120, cwd=ROOT / "tools")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    demos = sorted(path.stem for path in (ROOT / "demos" / "models").glob("*.ham"))
    assert len(demos) == 2
    rk4 = [[kind, name, part]
           for kind, name in [("exact", "jc"), ("exact", "generic_d6t3"),
                              ("series", "jc_secular_o2")] + [("exact", z) for z in ZOO_NAMES]
           for part in ("U", "est_error")]
    quad = [["quad", name, f"t{t}", f"o{n}"] for name in list(ZOO_NAMES) + demos
            for t in ("0.5", "1", "5") for n in range(2, 7)]
    assert [row[:-1] for row in rows] == rk4 + quad
    assert all(re.fullmatch("[0-9a-f]{64}", row[-1]) for row in rows)
    assert len({row[-1] for row in rows[:len(rk4):2]}) == len(rk4) // 2

    # the first zoo model's U, hashed here; a negative zero hashes as +0.0
    U = propagate_exact(make_model(ZOO_NAMES[0]), 1.0).U
    hasher = hashlib.sha256(f"{U.dtype.str}{U.shape}".encode())
    hasher.update(np.where(U == 0, 0.0, U).tobytes())
    assert rows[6][-1] == hasher.hexdigest()
