"""``tools/digests.py``, which the bit-identity checks of closed forms,
oracle outputs and report outputs against another checkout rest on."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from effham import ZOO_NAMES, heff_secular, make_model, propagate_exact
from effham.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos" / "models").glob("*.ham"))
CLOSED_FORM_ROWS, ORACLE_ROWS = 179, 210


@pytest.fixture(scope="module")
def sections():
    # run as a script, then fail if it imported the benchmark
    tool = str(ROOT / "tools" / "digests.py")
    check = (f"import runpy, sys; sys.argv = [{tool!r}]; runpy.run_path({tool!r}, run_name='__main__');"
             "sys.exit(any(name.split('.')[0] == 'perfbench' for name in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          timeout=240, cwd=ROOT / "tools")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert all(re.fullmatch("[0-9a-f]{64}", row[-1]) for row in rows)
    oracle_end = CLOSED_FORM_ROWS + ORACLE_ROWS
    return rows[:CLOSED_FORM_ROWS], rows[CLOSED_FORM_ROWS:oracle_end], rows[oracle_end:]


def test_closed_form_digests_cover_every_build_and_hash_its_arrays(sections):
    rows = sections[0]
    generic = [["generic", f"d{dim}t{tones}", kind, f"o{n}"]
               for dim in (3, 6) for tones in (1, 2, 3)
               for kind, orders in (("heff", range(2, 7)), ("dyson", range(1, 5)))
               for n in orders]
    zoo = [[name, "secular", f"o{n}", part] for name in ZOO_NAMES for n in range(2, 7)
           for part in ("series", "secular", "growth", "dyson", "dyson_derivative")]
    assert [row[:-1] for row in rows] == generic + zoo
    assert len({row[-1] for row in rows[:len(generic)]}) == len(generic)

    # the secular part of the first zoo model at order 2, hashed here
    secular = heff_secular(make_model(ZOO_NAMES[0]), 2).secular
    hasher = hashlib.sha256(f"{secular.dtype.str}{secular.shape}".encode())
    hasher.update(np.ascontiguousarray(secular).tobytes())
    assert rows[len(generic) + 1][-1] == hasher.hexdigest()


def test_oracle_digests_cover_every_oracle_output_and_hash_it_up_to_the_sign_of_zero(sections):
    rows = sections[1]
    assert len(DEMOS) == 2
    rk4 = [[kind, name, part]
           for kind, name in [("exact", "jc"), ("exact", "generic_d6t3"),
                              ("series", "jc_secular_o2")] + [("exact", z) for z in ZOO_NAMES]
           for part in ("U", "est_error")]
    quad = [["quad", name, f"t{t}", f"o{n}"]
            for name in list(ZOO_NAMES) + [path.stem for path in DEMOS]
            for t in ("0.5", "1", "5") for n in range(2, 7)]
    # the same operands again through a grid function with no support
    scan = [["scan", kind, name, part]
            for kind, name in [("exact", "jc"), ("series", "jc_secular_o2")]
            + [("exact", z) for z in ZOO_NAMES] for part in ("U", "est_error")]
    scan += [["scan", *row] for row in quad[:len(ZOO_NAMES) * 15]]
    assert [row[:-1] for row in rows] == rk4 + quad + scan
    assert len({row[-1] for row in rows[:len(rk4):2]}) == len(rk4) // 2

    # the first zoo model's U, hashed here; a negative zero hashes as +0.0
    U = propagate_exact(make_model(ZOO_NAMES[0]), 1.0).U
    hasher = hashlib.sha256(f"{U.dtype.str}{U.shape}".encode())
    hasher.update(np.where(U == 0, 0.0, U).tobytes())
    assert rows[6][-1] == hasher.hexdigest()


def test_report_digests_cover_the_report_cases_and_hash_the_outputs(sections, tmp_path):
    rows = sections[2]
    models = [f"builtin:{name}" for name in sorted(ZOO_NAMES)] + [
        f"demos/models/{path.name}" for path in DEMOS]
    assert [row[:-1] for row in rows] == [
        [model, tag, kind] for model in models for tag in ("default", "orders234-sweep")
        for kind in ("json", "csv")]

    # the first case again, hashed here: the JSON without its timestamp
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    assert main(["report", models[0], "--out", str(out), "--csv", str(csv)]) == 0
    text = re.sub(r'(?m)^\s*"generated_at": .*\n', "", out.read_text())
    assert rows[0][3] == hashlib.sha256(text.encode()).hexdigest()
    assert rows[1][3] == hashlib.sha256(csv.read_bytes()).hexdigest()
