"""Print one SHA-256 per closed form, oracle output and report output.

Three sections, in this order, one ``<label> <sha256>`` row per output.

Closed forms, those of the benchmark's ``closed_form`` cases and of the
report's builds:

* ``generic d<dim>t<tones> heff o<n>``: ``heff_n_timedep`` at orders 2..6
  and ``generic d<dim>t<tones> dyson o<n>``: ``dyson_term`` at orders 1..4,
  on seeded generic models (seed 2027) of dimension 3 and 6 with 1, 2 and
  3 tones;
* ``<zoo model> secular o<n> <part>``: one ``heff_secular`` call at orders
  2..6 on each of the 5 zoo models, with ``<part>`` one of ``series``,
  ``secular``, ``growth`` (the growth flag), ``dyson`` (the terms
  ``U_1 .. U_n``) and ``dyson_derivative`` (their derivatives).

Oracle outputs, those of the benchmark's ``oracle`` cases and of the
report's residual block:

* ``exact jc U`` and ``exact jc est_error``: ``propagate_exact`` on
  ``jc_detuned(g=0.05)`` at t* = 1/g^2 = 400 with 25,600 steps;
* ``exact generic_d6t3 U`` and ``... est_error``: ``propagate_exact`` at
  t = 2/max_omega with the default step count, on a seeded generic model
  (seed 2028) of dimension 6 with 3 tones;
* ``series jc_secular_o2 U`` and ``... est_error``: ``propagate_series`` on
  the constant order-2 ``secular`` part of that jc model, at t* with 1,600
  steps;
* ``exact <zoo model> U`` and ``... est_error``: ``propagate_exact`` on
  each of the 5 zoo models at t = 1 with the default step count;
* ``quad <model> t<t> o<n>``: one ``quad_oracle`` call for orders 2..6 at
  each of t = 0.5, 1 and 5, tolerance 1e-9, on the 5 zoo models and the
  ``.ham`` files of ``demos/models``;
* ``scan ...``: the rows of jc, ``jc_secular_o2``, the 5 zoo models' RK4
  and the zoo models' quadrature once more, each operand behind a grid
  function that declares no ``support``, so that the oracles split each
  stack of its samples by the stack's own nonzero pattern.

Report outputs: ``effham.cli.main`` runs ``effham report`` in-process on
the 5 zoo models and the ``.ham`` files of ``demos/models``, each with the
default options and with ``--orders 2,3,4 --sweep 0.4,0.2,0.1``, and
prints ``<model> <options> json`` and ``<model> <options> csv``. A model
file is named by its path relative to the checkout, which the report
records as its source.

A generic model draws complex-Gaussian couplings of norm
``0.3 * U(0.3, 1)`` at carriers ``U(0.5, 8)``, redrawn until the
frequency report passes. Each section hashes by its own rule:

* a closed form hashes every array (a series by its ``freqs``, ``powers``
  and ``coeffs``) by its dtype, shape and bytes, so two builds hash alike
  only when they agree bit for bit, the sign of every zero included;
* an oracle output hashes the bytes of ``a + 0.0``, which turns each -0.0
  into +0.0 and leaves every other value as it is. An oracle gives either
  sign on entries that no sample of H reaches: the product of two zero
  entries takes a sign from its operands, and a zero that is never
  computed is +0.0;
* a report hashes its JSON without the ``generated_at`` line, the one
  field that differs between runs, and its CSV.

Run from a checkout: ``python tools/digests.py [ROOT]``. ``ROOT`` (default:
the checkout holding this script) names the checkout whose ``src`` and
``demos/models`` are used, so two checkouts compare by running this script
on each and diffing the output.
"""

import hashlib
import os
import pathlib
import re
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parent.parent).resolve()
sys.path.insert(0, str(ROOT / "src"))
os.chdir(ROOT)

from effham import (  # noqa: E402
    ZOO_NAMES, MultiToneHamiltonian, OperatorSeries, frequency_report, make_model, propagate_exact,
    propagate_series, quad_oracle)
from effham.builder import dyson_term, heff_n_timedep, heff_secular  # noqa: E402
from effham.cli import main  # noqa: E402
from effham.diagnostics import jc_detuned  # noqa: E402
from effham.dsl import load_model  # noqa: E402

ORDERS = (2, 3, 4, 5, 6)
G_JC = 0.05
DEMOS = sorted(pathlib.Path("demos", "models").glob("*.ham"))
GENERATED_AT = re.compile(rb'^\s*"generated_at": .*\n', re.MULTILINE)
OPTIONS = {"default": [], "orders234-sweep": ["--orders", "2,3,4", "--sweep", "0.4,0.2,0.1"]}


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


class NoSupport:
    """The operand behind a grid function that declares no support."""

    def __init__(self, op):
        self.op, self.dim = op, op.dim
        self.max_omega = getattr(op, "max_omega", None)
        self.freqs = getattr(op, "freqs", None)

    def evaluate_grid(self, ts):
        return self.op.evaluate_grid(ts)


def quad_rows(tag: str, H) -> None:
    for t in (0.5, 1.0, 5.0):
        for n, value in sorted(quad_oracle(H, ORDERS, t, 1e-9).items()):
            print(f"{tag} t{t:g} o{n} {digest(value + 0.0)}")


def show(tag: str, res) -> None:
    for part in ("U", "est_error"):
        print(f"{tag} {part} {digest(getattr(res, part) + 0.0)}")


# closed forms: raw bytes
rng = np.random.default_rng(2027)
for dim in (3, 6):
    for tones in (1, 2, 3):
        H, tag = generic_model(rng, dim, tones), f"generic d{dim}t{tones}"
        for n in ORDERS:
            print(f"{tag} heff o{n} {digest(*series_arrays(heff_n_timedep(H, n)))}")
        for n in (1, 2, 3, 4):
            print(f"{tag} dyson o{n} {digest(*series_arrays(dyson_term(H, n)))}")
for name in ZOO_NAMES:
    for n, res in heff_secular(make_model(name), ORDERS).items():
        parts = {"series": series_arrays(res.series), "secular": [res.secular],
                 "growth": [np.array(res.secular_growth_flag)],
                 "dyson": series_arrays(*res.dyson_terms),
                 "dyson_derivative": series_arrays(*(U.derivative() for U in res.dyson_terms))}
        for part, arrays in parts.items():
            print(f"{name} secular o{n} {part} {digest(*arrays)}")

# oracle outputs: zeros unsigned; t* is 1/g^2 as computed, 399.99999999999994
jc = jc_detuned(g=G_JC)
t_star = 1.0 / G_JC**2
show("exact jc", propagate_exact(jc, t_star, steps=25_600))
G = generic_model(np.random.default_rng(2028), 6, 3)
show("exact generic_d6t3", propagate_exact(G, 2.0 / G.max_omega))
secular = OperatorSeries.constant(heff_secular(jc, 2).secular)
show("series jc_secular_o2", propagate_series(secular, t_star, steps=1_600))
models = {name: make_model(name) for name in ZOO_NAMES}
for name, H in models.items():
    show(f"exact {name}", propagate_exact(H, 1.0))
for name, H in models.items():
    quad_rows(f"quad {name}", H)
for path in DEMOS:
    quad_rows(f"quad {path.stem}", load_model(path))
show("scan exact jc", propagate_exact(NoSupport(jc), t_star, steps=25_600))
show("scan series jc_secular_o2", propagate_series(NoSupport(secular), t_star, steps=1_600))
for name, H in models.items():
    show(f"scan exact {name}", propagate_exact(NoSupport(H), 1.0))
for name, H in models.items():
    quad_rows(f"scan quad {name}", NoSupport(H))

# reports: the JSON without generated_at, and the CSV
with tempfile.TemporaryDirectory() as work:
    out, csv = pathlib.Path(work, "report.json"), pathlib.Path(work, "report.csv")
    for model in [f"builtin:{name}" for name in sorted(ZOO_NAMES)] + [p.as_posix() for p in DEMOS]:
        for tag, options in OPTIONS.items():
            code = main(["report", model, *options, "--out", str(out), "--csv", str(csv)])
            if code:
                sys.exit(f"{model} {tag}: effham report exited {code}")
            for kind, data in (("json", GENERATED_AT.sub(b"", out.read_bytes())),
                               ("csv", csv.read_bytes())):
                print(f"{model} {tag} {kind} {hashlib.sha256(data).hexdigest()}")
