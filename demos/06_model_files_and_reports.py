"""Model files and batch reports.

Models can be written as small ``.ham`` text files: Hilbert-space factors,
parameters, operator expressions and tones. The report runner compiles a
file (or picks a built-in model), builds the requested orders, and emits a
JSON report plus a CSV time series with per-order defect columns. The same
pipeline backs the ``effham report`` command line.
"""

import json
import pathlib
import tempfile

from effham import compile_model, parse_model, run_report, serialize_model

model_file = pathlib.Path(__file__).parent / "models" / "two_mode_exchange.ham"
text = model_file.read_text()
print("== model file ==")
print(text)

ast = parse_model(text)
print("canonical serialization round-trips:",
      parse_model(serialize_model(ast)) == ast)

H = compile_model(ast)
print("compiled model:", H)

out_dir = pathlib.Path(tempfile.mkdtemp(prefix="effham_demo_"))
report = run_report(
    str(model_file),
    orders=(2, 3),
    grid=32,
    sweep=(0.4, 0.2, 0.1),
)
report.write(str(out_dir / "report.json"), str(out_dir / "series.csv"))

print("\n== report summary ==")
print("model digest      :", report.model_digest[:16], "...")
print("frequency report  : passes =", report.frequency.passes)
for rec in report.orders:
    print(f"order {rec.order}: grid max hermiticity defect {rec.hermiticity_defect_grid.max():.3e}, "
          f"secular defect {rec.secular_hermiticity_defect:.3e}")
print("worst oracle residual:",
      max(r["residual"] for r in report.oracle_residuals))

print("\nfiles written to", out_dir)
data = json.loads((out_dir / "report.json").read_text())
print("JSON keys:", sorted(data)[:8], "...")
print("CSV header:", (out_dir / "series.csv").read_text().splitlines()[0])
