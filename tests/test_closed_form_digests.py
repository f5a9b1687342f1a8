"""``tools/closed_form_digests.py``, which the bit-identity checks of the
closed forms against another checkout rest on."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from effham import ZOO_NAMES, heff_secular, make_model

ROOT = Path(__file__).resolve().parent.parent


def test_closed_form_digests_cover_every_build_and_hash_its_arrays():
    # run as a script, then fail if it imported the benchmark
    tool = str(ROOT / "tools" / "closed_form_digests.py")
    check = (f"import runpy, sys; sys.argv = [{tool!r}]; runpy.run_path({tool!r}, run_name='__main__');"
             "sys.exit(any(name.split('.')[0] == 'perfbench' for name in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          timeout=120, cwd=ROOT / "tools")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    generic = [["generic", f"d{dim}t{tones}", kind, f"o{n}"]
               for dim in (3, 6) for tones in (1, 2, 3)
               for kind, orders in (("heff", range(2, 7)), ("dyson", range(1, 5)))
               for n in orders]
    zoo = [[name, "secular", f"o{n}", part] for name in ZOO_NAMES for n in range(2, 7)
           for part in ("series", "secular", "growth", "dyson", "dyson_derivative")]
    assert [row[:-1] for row in rows] == generic + zoo
    assert all(re.fullmatch("[0-9a-f]{64}", row[-1]) for row in rows)
    assert len({row[-1] for row in rows[:len(generic)]}) == len(generic)

    # the secular part of the first zoo model at order 2, hashed here
    secular = heff_secular(make_model(ZOO_NAMES[0]), 2).secular
    hasher = hashlib.sha256(f"{secular.dtype.str}{secular.shape}".encode())
    hasher.update(np.ascontiguousarray(secular).tobytes())
    assert rows[len(generic) + 1][-1] == hasher.hexdigest()

