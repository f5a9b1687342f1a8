"""Print one SHA-256 per ``effham report`` output of the benchmark's report cases.

The cases are the 5 built-in zoo models and the ``.ham`` files of
``demos/models``, each with the default options and with
``--orders 2,3,4 --sweep 0.4,0.2,0.1``. Each case runs ``effham.cli.main``
in-process and prints two lines, ``<model> <options> json <sha256>`` and
``<model> <options> csv <sha256>``; the JSON is hashed without its
``generated_at`` line, the one field that differs between runs. A model
file is named by its path relative to the checkout, which the report
records as its source.

Run from a checkout: ``python tools/report_digests.py [ROOT]``. ``ROOT``
(default: the checkout holding this script) names the checkout whose
``src`` and ``demos/models`` are used, so two checkouts compare by running
this script on each and diffing the output.
"""

import hashlib
import os
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parent.parent)
ROOT = ROOT.resolve()
sys.path.insert(0, str(ROOT / "src"))
os.chdir(ROOT)

from effham import ZOO_NAMES  # noqa: E402
from effham.cli import main  # noqa: E402

GENERATED_AT = re.compile(rb'^\s*"generated_at": .*\n', re.MULTILINE)
OPTIONS = {"default": [], "orders234-sweep": ["--orders", "2,3,4", "--sweep", "0.4,0.2,0.1"]}

models = [f"builtin:{name}" for name in sorted(ZOO_NAMES)]
models += [path.as_posix() for path in sorted(pathlib.Path("demos", "models").glob("*.ham"))]
with tempfile.TemporaryDirectory() as work:
    out, csv = pathlib.Path(work, "report.json"), pathlib.Path(work, "report.csv")
    for model in models:
        for tag, options in OPTIONS.items():
            code = main(["report", model, *options, "--out", str(out), "--csv", str(csv)])
            if code:
                sys.exit(f"{model} {tag}: effham report exited {code}")
            for kind, data in (("json", GENERATED_AT.sub(b"", out.read_bytes())),
                               ("csv", csv.read_bytes())):
                print(f"{model} {tag} {kind} {hashlib.sha256(data).hexdigest()}")
