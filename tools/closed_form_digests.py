"""Print one SHA-256 per closed form the Dyson builders make.

The closed forms are those of the benchmark's ``closed_form`` cases and
of the report's builds:

* ``generic d<dim>t<tones> heff o<n>``: ``heff_n_timedep`` at orders 2..6
  and ``generic d<dim>t<tones> dyson o<n>``: ``dyson_term`` at orders 1..4,
  on seeded generic models of dimension 3 and 6 with 1, 2 and 3 tones
  (complex-Gaussian couplings of norm ``0.3 * U(0.3, 1)`` at carriers
  ``U(0.5, 8)``, redrawn until the frequency report passes);
* ``<zoo model> secular o<n> <part>``: one ``heff_secular`` call at orders
  2..6 on each of the 5 zoo models, with ``<part>`` one of ``series``,
  ``secular``, ``growth`` (the growth flag), ``dyson`` (the terms
  ``U_1 .. U_n``) and ``dyson_derivative`` (their derivatives).

A series is hashed by its ``freqs``, ``powers`` and ``coeffs`` arrays, and
every array by its dtype, shape and bytes, so two builds hash alike only
when they agree bit for bit.

Run from a checkout: ``python tools/closed_form_digests.py [ROOT]``.
``ROOT`` (default: the checkout holding this script) names the checkout
whose ``src`` is imported, so two checkouts compare by running this
script on each and diffing the output.
"""

import hashlib
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parent.parent)
sys.path.insert(0, str(ROOT.resolve() / "src"))

from effham import ZOO_NAMES, MultiToneHamiltonian, frequency_report, make_model  # noqa: E402
from effham.builder import dyson_term, heff_n_timedep, heff_secular  # noqa: E402

SEED = 2027
DIMS = (3, 6)
TONES = (1, 2, 3)
HEFF_ORDERS = (2, 3, 4, 5, 6)
DYSON_ORDERS = (1, 2, 3, 4)


def digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        hasher.update(f"{a.dtype.str}{a.shape}".encode())
        hasher.update(a.tobytes())
    return hasher.hexdigest()


def series_arrays(*series) -> list:
    return [a for S in series for a in (S.freqs, S.powers, S.coeffs)]


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


rng = np.random.default_rng(SEED)
for dim in DIMS:
    for tones in TONES:
        H, tag = generic_model(rng, dim, tones), f"generic d{dim}t{tones}"
        for n in HEFF_ORDERS:
            print(f"{tag} heff o{n} {digest(*series_arrays(heff_n_timedep(H, n)))}")
        for n in DYSON_ORDERS:
            print(f"{tag} dyson o{n} {digest(*series_arrays(dyson_term(H, n)))}")
for name in ZOO_NAMES:
    for n, res in heff_secular(make_model(name), HEFF_ORDERS).items():
        parts = {"series": series_arrays(res.series), "secular": [res.secular],
                 "growth": [np.array(res.secular_growth_flag)],
                 "dyson": series_arrays(*res.dyson_terms),
                 "dyson_derivative": series_arrays(*(U.derivative() for U in res.dyson_terms))}
        for part, arrays in parts.items():
            print(f"{name} secular o{n} {part} {digest(*arrays)}")
