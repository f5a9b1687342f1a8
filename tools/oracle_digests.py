"""Print one SHA-256 per output of the two oracles.

The outputs are those of the benchmark's ``oracle`` cases and of the
report's residual block:

* ``exact jc U`` and ``exact jc est_error``: ``propagate_exact`` on
  ``jc_detuned(g=0.05)`` at t* = 1/g^2 = 400 with 25,600 steps;
* ``exact generic_d6t3 U`` and ``... est_error``: ``propagate_exact`` at
  t = 2/max_omega with the default step count, on a seeded generic model
  of dimension 6 with 3 tones (complex-Gaussian couplings of norm
  ``0.3 * U(0.3, 1)`` at carriers ``U(0.5, 8)``, redrawn until the
  frequency report passes);
* ``series jc_secular_o2 U`` and ``... est_error``: ``propagate_series`` on
  the constant order-2 ``secular`` part of that jc model, at t* with 1,600
  steps;
* ``exact <zoo model> U`` and ``... est_error``: ``propagate_exact`` on
  each of the 5 zoo models at t = 1 with the default step count;
* ``quad <model> t<t> o<n>``: one ``quad_oracle`` call for orders 2..6 at
  each of t = 0.5, 1 and 5, tolerance 1e-9, on the 5 zoo models and the
  ``.ham`` files of ``demos/models``.

Every array is hashed by its dtype, shape and the bytes of ``a + 0.0``.
Adding 0.0 turns each -0.0 into +0.0 and leaves every other value as it
is, so a zero hashes alike whatever its sign. The sign of a zero is not a
difference in value, and an oracle gives either sign on entries that no
sample of H reaches: the product of two zero entries takes a sign from
its operands, and a zero that is never computed is +0.0.

Run from a checkout: ``python tools/oracle_digests.py [ROOT]``. ``ROOT``
(default: the checkout holding this script) names the checkout whose
``src`` and ``demos/models`` are used, so two checkouts compare by running
this script on each and diffing the output.
"""

import hashlib
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parent.parent)
ROOT = ROOT.resolve()
sys.path.insert(0, str(ROOT / "src"))

from effham import (  # noqa: E402
    ZOO_NAMES, MultiToneHamiltonian, OperatorSeries, frequency_report, heff_secular, make_model,
    propagate_exact, propagate_series, quad_oracle)
from effham.diagnostics import jc_detuned  # noqa: E402
from effham.dsl import load_model  # noqa: E402

SEED = 2028
G_JC = 0.05
QUAD_ORDERS = (2, 3, 4, 5, 6)
QUAD_TIMES = (0.5, 1.0, 5.0)
QUAD_TOL = 1e-9


def digest(a) -> str:
    a = np.ascontiguousarray(np.asarray(a) + 0.0)
    hasher = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    hasher.update(a.tobytes())
    return hasher.hexdigest()


def generic_model(rng, dim: int, tones: int) -> MultiToneHamiltonian:
    while True:
        terms = []
        for _ in range(tones):
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h *= 0.3 * rng.uniform(0.3, 1.0) / np.linalg.norm(h)
            terms.append((h, rng.uniform(0.5, 8.0)))
        H = MultiToneHamiltonian(terms)
        if frequency_report(H).passes:
            return H


def show(tag: str, res) -> None:
    print(f"{tag} U {digest(res.U)}")
    print(f"{tag} est_error {digest(res.est_error)}")


jc = jc_detuned(g=G_JC)
t_star = 1.0 / G_JC**2
show("exact jc", propagate_exact(jc, t_star, steps=25_600))
G = generic_model(np.random.default_rng(SEED), 6, 3)
show("exact generic_d6t3", propagate_exact(G, 2.0 / G.max_omega))
secular = OperatorSeries.constant(heff_secular(jc, 2).secular)
show("series jc_secular_o2", propagate_series(secular, t_star, steps=1_600))
models = {name: make_model(name) for name in ZOO_NAMES}
for name, H in models.items():
    show(f"exact {name}", propagate_exact(H, 1.0))
for path in sorted((ROOT / "demos" / "models").glob("*.ham")):
    models[path.stem] = load_model(path)
for name, H in models.items():
    for t in QUAD_TIMES:
        for n, value in sorted(quad_oracle(H, QUAD_ORDERS, t, QUAD_TOL).items()):
            print(f"quad {name} t{t:g} o{n} {digest(value)}")
