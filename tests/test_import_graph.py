"""The import graph stays lean: only ``matrix_exponential`` loads scipy, and
no report, RK4 or closed-form build loads ``numpy.ma`` (which ``np.unique``
imports, at about 0.9 MB of resident memory) or ``numpy.polynomial`` (about
0.9 MB and 3 ms to import; the quadrature builds its panel matrix without it).

The check runs in a fresh interpreter, because the test session itself has
scipy loaded already (``test_tones.py`` uses ``scipy.integrate``).
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = textwrap.dedent("""
    import sys

    import numpy as np

    import effham
    import effham.cli


    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


    assert scipy_modules() == [], scipy_modules()
    out = sys.argv[1]
    assert effham.cli.main(["report", "builtin:raman_lambda", "--orders", "2,3,4",
                            "--sweep", "0.4,0.2", "--out", out]) == 0
    assert effham.cli.main(["report", sys.argv[2], "--out", out]) == 0
    H = effham.make_model("jc_detuned")
    assert effham.propagate_exact(H, 1.0, steps=64).U.shape == (H.dim, H.dim)
    assert effham.heff_n_timedep(H, 5).dim == H.dim
    assert scipy_modules() == [], scipy_modules()
    assert "numpy.ma" not in sys.modules
    assert "numpy.polynomial" not in sys.modules

    U = effham.matrix_exponential(np.diag([0.0, 1j * np.pi]))
    assert np.allclose(U, np.diag([1.0, -1.0]), atol=1e-14), U
    assert "scipy.linalg" in sys.modules
    print("lean")
""")


def test_only_matrix_exponential_loads_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    demo = ROOT / "demos" / "models" / "driven_qutrit.ham"
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path / "report.json"), str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "lean"
