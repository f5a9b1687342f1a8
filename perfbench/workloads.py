"""Seeded inputs, case lists and correctness checks of the three workloads.

Every program call goes through a module attribute looked up at call time
(``effham.builder.heff_n_timedep``, ``effham.cli.main`` ...), so the
patches :mod:`tracing` installs see it. A workload is built from
``(seed, quick)`` alone; the same seed gives the same models and case
order. Each :class:`Case` has a timed ``run`` and an untimed ``check``
that returns an error string or ``None``; :meth:`Workload.gate` holds the
checks made once per process after the timed passes.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import effham
import effham.builder
import effham.cli
import effham.diagnostics
import effham.dsl
import effham.metrics
import effham.model
import effham.oracle
import effham.series

ROOT = Path(__file__).resolve().parent.parent

#: Directory, relative to the checkout root, for the report output files.
WORK_DIR = ".perfbench_work"


@dataclass
class Case:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    size: Callable[[object], dict] = field(default=lambda out: {})


def generic_model(rng: np.random.Generator, dim: int, tones: int):
    """Complex-Gaussian tones of Frobenius norm 0.3*U(0.3, 1) at carriers
    U(0.5, 8), redrawn until the frequency report passes."""
    while True:
        terms = []
        for _ in range(tones):
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h *= 0.3 * rng.uniform(0.3, 1.0) / np.linalg.norm(h)
            terms.append(effham.ToneTerm(h, rng.uniform(0.5, 8.0)))
        H = effham.MultiToneHamiltonian(terms)
        if effham.frequency_report(H).passes:
            return H


def _fingerprint(S) -> tuple:
    return len(S.entries), S.term_count, S.evaluate(0.37).tobytes()


def _series_size(S) -> dict:
    slots = len(S.entries)
    return {"slots": slots, "monomials": S.term_count,
            "computed_bytes": slots * S.dim * S.dim * 16}


class Workload:
    name = ""

    def __init__(self, seed: int, quick: bool):
        self.models: dict[str, str] = {}  # label -> model_digest
        self.cases: list[Case] = []

    def _add_model(self, label: str, H):
        self.models[label] = effham.diagnostics.model_digest(H)
        return H

    def warm_up(self):
        """Run what the first timed call would otherwise set up lazily."""

    def gate(self) -> list[tuple[str, str | None]]:
        """Once-per-process checks after the timed passes: (label, error)."""
        return []

    def extras(self, calls: dict[str, list[float]], sizes: dict[str, dict]) -> dict[str, dict]:
        """Workload-specific end-to-end figures from the per-case call times
        (one list entry per pass) and the per-case sizes."""
        return {}


# ----------------------------------------------------------------------


class ClosedForm(Workload):
    """Series construction: heff_n_timedep and dyson_term on generic models."""

    name = "closed_form"

    # (dim, tones, heff orders, dyson orders). Order 5 with 3 tones (about
    # 9 s a case) and order 6 with 2 or more tones are left out: one such
    # case would swamp the pass.
    PLAN = [(3, 3, (2, 3, 4), (1, 2, 3, 4)), (6, 3, (2, 3, 4), (1, 2, 3, 4)),
            (3, 2, (5,), ()), (6, 2, (5,), ()),
            (3, 1, (6,), ()), (6, 1, (6,), ())]
    QUICK_PLAN = [(3, 3, (2, 3), (1, 2, 3)), (3, 1, (4,), ())]

    #: Relative bound of the derivative identity Heff_n = i dU_n/dt.
    IDENTITY_RTOL = 1e-10

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        rng = np.random.default_rng(seed)
        self.last: dict[str, object] = {}
        self.first: dict[str, tuple] = {}
        self.identity_pairs: list[tuple[str, str]] = []
        for dim, tones, heff_orders, dyson_orders in (self.QUICK_PLAN if quick else self.PLAN):
            tag = f"d{dim}t{tones}"
            H = self._add_model(tag, generic_model(rng, dim, tones))
            for n in heff_orders:
                self.cases.append(self._case(f"heff:{tag}:o{n}",
                                             lambda H=H, n=n: effham.builder.heff_n_timedep(H, n)))
            for n in dyson_orders:
                self.cases.append(self._case(f"dyson:{tag}:o{n}",
                                             lambda H=H, n=n: effham.builder.dyson_term(H, n)))
            self.identity_pairs += [(f"heff:{tag}:o{n}", f"dyson:{tag}:o{n}")
                                    for n in heff_orders if n in dyson_orders]

    def _case(self, label: str, run) -> Case:
        def check(S):
            self.last[label] = S
            fp = _fingerprint(S)
            if self.first.setdefault(label, fp) != fp:
                return f"{label}: output differs from the first pass"
            return None

        return Case(label, run, check, _series_size)

    def warm_up(self):
        effham.builder.heff_n_timedep(effham.diagnostics.make_model("raman_lambda"), 2)

    def gate(self):
        out = []
        for heff, dyson in self.identity_pairs:
            S, U = self.last.get(heff), self.last.get(dyson)
            label = f"identity:{heff}"
            if S is None or U is None:
                out.append((label, "case output missing"))
                continue
            r, scale = effham.series.series_residual(S, U.derivative().scale(1j))
            ok = r <= self.IDENTITY_RTOL * scale
            out.append((label, None if ok else f"residual {r:.3e} > {self.IDENTITY_RTOL} * {scale:.3e}"))
        return out

    def extras(self, calls, sizes):
        def per_pass(prefix, suffix=""):
            picked = [v for k, v in calls.items() if k.startswith(prefix) and k.endswith(suffix)]
            if not picked:
                return 0.0
            passes = min(len(v) for v in picked)
            return float(np.median([sum(v[i] for v in picked) for i in range(passes)]))

        return {"heff_o4_s": {"value": per_pass("heff:", ":o4"), "unit": "s"},
                "heff_o5_s": {"value": per_pass("heff:", ":o5"), "unit": "s"},
                "dyson_s": {"value": per_pass("dyson:"), "unit": "s"}}


# ----------------------------------------------------------------------


_GENERATED_AT = re.compile(rb'^\s*"generated_at": .*\n', re.MULTILINE)


def _no_constants(token: str):
    raise ValueError(f"non-finite number {token} in report JSON")


class Report(Workload):
    """``effham report`` through cli.main, in-process, on every bundled model."""

    name = "report"
    MODELS = [f"builtin:{name}" for name in effham.ZOO_NAMES] + [
        "demos/models/driven_qutrit.ham", "demos/models/two_mode_exchange.ham"]
    QUICK_MODELS = ["builtin:scalar_single_tone", "demos/models/driven_qutrit.ham"]
    OPTION_SETS = [[], ["--orders", "2,3,4", "--sweep", "0.4,0.2,0.1"]]
    RESIDUAL_MAX = 1e-8

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        (ROOT / WORK_DIR).mkdir(exist_ok=True)
        self.json_path = f"{WORK_DIR}/report.json"
        self.csv_path = f"{WORK_DIR}/report.csv"
        self.first: dict[str, bytes] = {}
        for model in (self.QUICK_MODELS if quick else self.MODELS):
            if model.startswith("builtin:"):
                H = effham.diagnostics.make_model(model[len("builtin:"):])
            else:
                H = effham.dsl.load_model(str(ROOT / model))
            self._add_model(model, H)
            for options in self.OPTION_SETS:
                label = f"{model}{' ' if options else ''}{' '.join(options)}"
                argv = ["report", model, "--out", self.json_path, "--csv", self.csv_path, *options]
                self.cases.append(Case(label, lambda argv=argv: effham.cli.main(argv),
                                       self._checker(label), self._size))
        order = np.random.default_rng(seed).permutation(len(self.cases))
        self.cases = [self.cases[i] for i in order]

    def _checker(self, label: str):
        def check(rc):
            if rc != 0:
                return f"{label}: exit code {rc}"
            raw = (ROOT / self.json_path).read_bytes()
            try:
                doc = json.loads(raw, parse_constant=_no_constants)
            except ValueError as exc:
                return f"{label}: {exc}"
            worst = max((r["residual"] for r in doc["oracle_residuals"]), default=0.0)
            if not worst <= self.RESIDUAL_MAX:
                return f"{label}: oracle residual {worst:.3e} > {self.RESIDUAL_MAX}"
            stable = _GENERATED_AT.sub(b"", raw)
            if self.first.setdefault(label, stable) != stable:
                return f"{label}: JSON differs from the first pass"
            return None

        return check

    def _size(self, rc) -> dict:
        doc = json.loads((ROOT / self.json_path).read_bytes())
        return {"model_digest": doc["model_digest"], "dim": doc["model"]["dim"],
                "tones": doc["model"]["tone_count"],
                "orders": doc["options"]["orders"],
                "json_bytes": (ROOT / self.json_path).stat().st_size,
                "csv_bytes": (ROOT / self.csv_path).stat().st_size}

    def warm_up(self):
        effham.cli.main(["report", "builtin:scalar_single_tone",
                         "--out", self.json_path, "--csv", self.csv_path])


# ----------------------------------------------------------------------


class _CountingModel:
    """Forwards to a model and counts the grid points it is evaluated on;
    used only to size quadrature cases, outside the timed passes."""

    def __init__(self, H):
        self.H = H
        self.dim = H.dim
        self.points = 0

    def evaluate_grid(self, ts):
        self.points += len(ts)
        return self.H.evaluate_grid(ts)


class Oracle(Workload):
    """RK4 propagation and nested quadrature; the closed forms they are
    checked against are built during set-up, outside the timed region."""

    name = "oracle"
    QUAD_ORDERS = (2, 3, 4)
    QUAD_TIMES = (0.5, 1.0, 2.0, 5.0)
    QUAD_TOL = 1e-9
    QUAD_MAX = 1e-8
    RK4_ERROR_MAX = 1e-6
    UNITARITY_MAX = 1e-8

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        rng = np.random.default_rng(seed)
        g = 0.1 if quick else 0.05
        jc = self._add_model(f"jc_detuned(g={g})", effham.diagnostics.jc_detuned(g=g))
        t_star = 1.0 / g**2
        steps = max(16, math.ceil(64 * jc.max_omega * t_star))
        secular = effham.builder.heff_secular(jc, 2).secular
        S = effham.series.OperatorSeries.constant(secular)
        dim = 3 if quick else 6
        G = self._add_model(f"d{dim}t3", generic_model(rng, dim, 3))
        self.rk4_labels = ["exact:jc", "series:jc_secular_o2", f"exact:d{dim}t3"]
        self.cases = [
            Case("exact:jc", lambda: effham.oracle.propagate_exact(jc, t_star, steps=steps),
                 self._exact_check("exact:jc"), self._rk4_size),
            Case("series:jc_secular_o2",
                 lambda: effham.oracle.propagate_series(S, t_star, steps=max(16, steps // 16)),
                 self._series_check("series:jc_secular_o2"), self._rk4_size),
            Case(f"exact:d{dim}t3", lambda: effham.oracle.propagate_exact(G, 2.0 / G.max_omega),
                 self._exact_check(f"exact:d{dim}t3"), self._rk4_size),
        ]
        quad = []
        for name in effham.ZOO_NAMES:
            Z = effham.diagnostics.make_model(name)
            if Z.dim > 8 or (quick and name != "raman_lambda"):
                continue
            self._add_model(name, Z)
            for n in self.QUAD_ORDERS:
                closed = effham.builder.heff_n_timedep(Z, n)
                for t in self.QUAD_TIMES:
                    quad.append(self._quad_case(name, Z, n, t, closed.evaluate(t)))
        order = np.random.default_rng(seed + 1).permutation(len(quad))
        self.cases += [quad[i] for i in order]

    def _exact_check(self, label):
        def check(res):
            if not res.est_error < self.RK4_ERROR_MAX:
                return f"{label}: RK4 est_error {res.est_error:.3e} >= {self.RK4_ERROR_MAX}"
            defect = effham.metrics.unitarity_defect(res.U)
            if not defect < self.UNITARITY_MAX:
                return f"{label}: unitarity defect {defect:.3e} >= {self.UNITARITY_MAX}"
            return None

        return check

    def _series_check(self, label):
        def check(res):
            if not res.est_error < self.RK4_ERROR_MAX:
                return f"{label}: RK4 est_error {res.est_error:.3e} >= {self.RK4_ERROR_MAX}"
            return None

        return check

    @staticmethod
    def _rk4_size(res) -> dict:
        return {"dim": res.U.shape[0], "rk4_steps": 3 * res.steps}

    def _quad_case(self, name, Z, n, t, reference) -> Case:
        label = f"quad:{name}:o{n}:t{t:g}"

        def check(val):
            r = float(np.linalg.norm(val - reference))
            return None if r <= self.QUAD_MAX else f"{label}: residual {r:.3e} > {self.QUAD_MAX}"

        def size(val):
            probe = _CountingModel(Z)
            effham.oracle.quad_oracle(probe, n, t, self.QUAD_TOL)
            return {"dim": Z.dim, "quad_points": probe.points}

        return Case(label, lambda: effham.oracle.quad_oracle(Z, n, t, self.QUAD_TOL), check, size)

    def warm_up(self):
        effham.oracle.propagate_exact(effham.diagnostics.make_model("raman_lambda"), 1.0, steps=16)

    def extras(self, calls, sizes):
        passes = min(len(v) for v in calls.values())
        rk4 = [sum(calls[k][i] for k in self.rk4_labels) for i in range(passes)]
        quad = [sum(v[i] for k, v in calls.items() if k.startswith("quad:")) for i in range(passes)]
        steps = sum(sizes[k]["rk4_steps"] for k in self.rk4_labels)
        return {"rk4_steps_per_s": {"value": steps / float(np.median(rk4)), "unit": "1/s"},
                "quad_s": {"value": float(np.median(quad)), "unit": "s"}}


WORKLOADS = {cls.name: cls for cls in (ClosedForm, Report, Oracle)}
