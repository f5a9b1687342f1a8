"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. The
criteria are asserted at their stated tolerances, with no calibration left
to the reader; measured values are printed alongside each verdict.
"""

import pathlib
import random
import string

import numpy as np

from effham import (
    ModelError,
    MultiToneHamiltonian,
    OperatorSeries,
    ZOO_NAMES,
    default_time_grid,
    dyson_term,
    dyson_truncated,
    eq6_gap_grid,
    fidelity_distance,
    frequency_report,
    heff2_rwa,
    heff_n_timedep,
    heff_secular,
    hermiticity_defect,
    make_model,
    parse_model,
    propagate_exact,
    propagate_series,
    quad_oracle,
    serialize_model,
    series_residual,
    unitarity_defect,
)
from conftest import random_generic, random_model

DATA = pathlib.Path(__file__).parent / "data"


def _criterion(num: int, description: str, ok: bool, detail: str):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {description} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_hamiltonian_hermiticity(rng):
    worst = 0.0
    for name in ZOO_NAMES:
        H = make_model(name)
        for t in rng.uniform(0.0, 20.0, size=100):
            worst = max(worst, hermiticity_defect(H.evaluate(float(t))))
    _criterion(
        1,
        "multi-tone Hamiltonian evaluates Hermitian on all zoo models",
        worst < 1e-13,
        f"worst defect {worst:.3e}, bound 1e-13",
    )


def test_criterion_02_secular_reduces_to_commutator_form():
    worst = 0.0
    for name in ("jc_detuned", "raman_lambda", "noncommuting_two_tone"):
        H = make_model(name)
        assert frequency_report(H).passes
        gap = np.max(np.abs(heff_secular(H, 2).secular - heff2_rwa(H)))
        worst = max(worst, float(gap))
    _criterion(
        2,
        "order-2 secular part equals the commutator form entrywise",
        worst < 1e-12,
        f"worst entry gap {worst:.3e}, bound 1e-12",
    )


def test_criterion_03_derivative_identity_with_propagator_terms():
    worst = 0.0
    for name in ZOO_NAMES:
        H = make_model(name)
        for n in (2, 3, 4, 5):
            effective = heff_n_timedep(H, n)
            derived = dyson_term(H, n).derivative().scale(1j)
            residual, scale = series_residual(effective, derived)
            if scale > 0:
                worst = max(worst, residual / scale)
    _criterion(
        3,
        "order-n effective series equals i * d/dt of the order-n propagator term",
        worst <= 1e-11,
        f"worst relative coefficient residual {worst:.3e}, bound 1e-11",
    )


def test_criterion_04_third_order_secular_hermiticity(rng):
    worst = 0.0
    for _ in range(50):
        H = random_model(rng, max_dim=6, max_tones=3, kind="generic")
        worst = max(worst, hermiticity_defect(heff_secular(H, 3).secular))
    _criterion(
        4,
        "third-order secular part Hermitian for random models passing the "
        "frequency report",
        worst < 1e-10,
        f"worst defect {worst:.3e}, bound 1e-10",
    )


def test_criterion_05_time_dependent_truncation_non_hermitian():
    H = make_model("noncommuting_two_tone")
    result = heff_secular(H, 3)
    series_max = hermiticity_defect(result.series.evaluate_grid(default_time_grid(H))).max()
    secular = hermiticity_defect(result.secular)
    _criterion(
        5,
        "third-order series visibly non-Hermitian on the grid while its "
        "secular part stays Hermitian",
        series_max > 1e-3 and secular < 1e-10,
        f"grid max {series_max:.3e} (> 1e-3), secular {secular:.3e} (< 1e-10)",
    )


def test_criterion_06_truncated_propagator_unitarity_scaling():
    H = make_model("noncommuting_two_tone")
    lambdas = np.array([0.4, 0.2, 0.1, 0.05])
    details = []
    ok = True
    for N in (1, 2, 3):
        defects = np.array(
            [unitarity_defect(dyson_truncated(H.scaled(lam), N, 1.0)) for lam in lambdas]
        )
        slope = float(np.polyfit(np.log(lambdas), np.log(defects), 1)[0])
        details.append(f"N={N}: slope {slope:.3f}")
        ok = ok and abs(slope - (N + 1)) <= 0.3
    _criterion(
        6,
        "truncated-propagator unitarity defect scales as coupling**(N+1)",
        ok,
        "; ".join(details) + "; bound N+1 +/- 0.3",
    )


def test_criterion_07_reordering_identity_gap():
    clean_worst = 0.0
    for name in ("commuting_diag", "scalar_single_tone"):
        H = make_model(name)
        ts = np.linspace(0.0, 10.0 / H.min_omega, 16)
        clean_worst = max(clean_worst, float(eq6_gap_grid(H, ts).max()))
    H = make_model("noncommuting_two_tone")
    ts = np.linspace(0.0, 10.0 / H.min_omega, 16)
    noisy_max = float(eq6_gap_grid(H, ts).max())
    _criterion(
        7,
        "reordering-identity gap vanishes for commuting models and opens "
        "for the noncommuting one",
        clean_worst <= 1e-12 and noisy_max > 1e-4,
        f"commuting max {clean_worst:.3e} (<= 1e-12), noncommuting max "
        f"{noisy_max:.3e} (> 1e-4)",
    )


def test_criterion_08_closed_forms_match_quadrature():
    worst = 0.0
    for name in ZOO_NAMES:
        H = make_model(name)
        if H.dim > 8:
            continue
        for n in (2, 3, 4):
            series = heff_n_timedep(H, n)
            for t in (0.5, 1.0, 2.0, 5.0):
                ref = quad_oracle(H, n, t, 1e-9)
                worst = max(worst, float(np.linalg.norm(series.evaluate(t) - ref)))
    _criterion(
        8,
        "closed-form builders agree with the independent nested quadrature",
        worst < 1e-8,
        f"worst Frobenius residual {worst:.3e}, bound 1e-8",
    )


def test_criterion_09_effective_dynamics_accuracy_scaling():
    def distance(g: float) -> float:
        H = make_model("jc_detuned", g=g)
        t_star = 1.0 / (g**2 / 1.0)
        steps = max(16, int(np.ceil(64 * H.max_omega * t_star)))
        exact = propagate_exact(H, t_star, steps=steps)
        secular = heff_secular(H, 2).secular
        effective = propagate_series(
            OperatorSeries.constant(secular), t_star, steps=max(16, steps // 16)
        )
        assert exact.est_error < 1e-6 and effective.est_error < 1e-6
        return fidelity_distance(exact.U, effective.U)

    d_full = distance(0.05)
    d_half = distance(0.025)
    ratio = d_full / d_half
    _criterion(
        9,
        "constant-secular effective dynamics error drops by >= 3.5x when the "
        "coupling is halved",
        ratio >= 3.5,
        f"distances {d_full:.4f} -> {d_half:.4f}, ratio {ratio:.3f}, bound 3.5",
    )


def test_criterion_10_parser_totality_and_round_trip():
    corpus = sorted(DATA.glob("*.ham"))
    round_trips = 0
    for path in corpus:
        ast = parse_model(path.read_text())
        if parse_model(serialize_model(ast)) == ast:
            round_trips += 1

    rnd = random.Random(20260810)
    seeds = [path.read_text() for path in corpus]

    def mutate(text: str) -> str:
        chars = list(text)
        for _ in range(rnd.randint(1, 6)):
            pos = rnd.randrange(max(1, len(chars)))
            roll = rnd.random()
            if roll < 0.4 and chars:
                del chars[pos % len(chars)]
            elif roll < 0.8:
                chars.insert(pos, rnd.choice(string.printable))
            else:
                chars.insert(pos, rnd.choice(["omega", "mat", "[[", "))", "1e", "-"]))
        return "".join(chars)

    cases = [mutate(seeds[k % len(seeds)]) for k in range(140)]
    cases += [
        "".join(rnd.choice(string.printable) for _ in range(rnd.randint(0, 160)))
        for _ in range(60)
    ]
    crashes = 0
    for case in cases:
        try:
            parse_model(case)
        except ModelError:
            pass
        except Exception:
            crashes += 1
    _criterion(
        10,
        "parser is total over a 200-case fuzz corpus and the file corpus "
        "round-trips",
        crashes == 0 and round_trips == len(corpus) == 10,
        f"{crashes} crashes, {round_trips}/{len(corpus)} round trips",
    )


def test_criterion_11_third_order_hermitian_on_resonant_carriers():
    # Criterion 4's carriers almost never make a signed three-sum vanish, so
    # its order-3 secular parts are zero matrices. Here 1 + 2 - 3 = 0 and
    # 1 + 1.5 - 2.5 = 0 put resonant terms into the order-3 secular part,
    # and its norm floor keeps the Hermiticity check from passing on zero.
    rng = np.random.default_rng(7)
    norms, defects, flags, order4 = [], [], [], []
    for carriers in ((1.0, 2.0, 3.0), (1.0, 1.5, 2.5)):
        for _ in range(3):
            H = MultiToneHamiltonian([(random_generic(rng, 3, 0.3), w) for w in carriers])
            assert frequency_report(H).passes
            third = heff_secular(H, 3)
            norms.append(float(np.linalg.norm(third.secular)))
            defects.append(hermiticity_defect(third.secular))
            flags.append(third.secular_growth_flag)
            order4.append(hermiticity_defect(heff_secular(H, 4).secular))
    _criterion(
        11,
        "third-order secular part nonzero and Hermitian on resonant carriers, "
        "fourth-order part not Hermitian there",
        min(norms) > 1e-3 and max(defects) < 1e-10 and not any(flags)
        and min(order4) > 1e-4,
        f"order-3 norm {min(norms):.2e}..{max(norms):.2e} (> 1e-3), defect "
        f"{max(defects):.2e} (< 1e-10), growth flags {sum(flags)}; order-4 defect "
        f"{min(order4):.2e}..{max(order4):.2e} (> 1e-4)",
    )


def test_criterion_12_top_orders_match_quadrature():
    # criterion 8's set-up at the builders' top orders 5 and 6, which the
    # quadrature oracle takes as well
    worst = 0.0
    for name in ZOO_NAMES:
        H = make_model(name)
        if H.dim > 8:
            continue
        for n in (5, 6):
            series = heff_n_timedep(H, n)
            for t in (0.5, 1.0, 2.0, 5.0):
                ref = quad_oracle(H, n, t, 1e-9)
                worst = max(worst, float(np.linalg.norm(series.evaluate(t) - ref)))
    _criterion(
        12,
        "closed-form builders agree with the independent nested quadrature at "
        "orders 5 and 6",
        worst < 1e-8,
        f"worst Frobenius residual {worst:.3e}, bound 1e-8",
    )


def test_criterion_13_quadrature_reaches_the_closed_forms_to_1e_11():
    # criteria 8 and 12's set-up at every order 2..6; the bound, relative to
    # max(1, ||closed||), was fixed before the first run
    worst = 0.0
    for name in ZOO_NAMES:
        H = make_model(name)
        if H.dim > 8:
            continue
        for n in (2, 3, 4, 5, 6):
            series = heff_n_timedep(H, n)
            for t in (0.5, 1.0, 2.0, 5.0):
                closed = series.evaluate(t)
                residual = float(np.linalg.norm(closed - quad_oracle(H, n, t, 1e-9)))
                worst = max(worst, residual / max(1.0, float(np.linalg.norm(closed))))
    _criterion(
        13,
        "the independent nested quadrature reaches the closed forms to 1e-11 at "
        "orders 2..6",
        worst <= 1e-11,
        f"worst residual relative to max(1, ||closed||) {worst:.3e}, bound 1e-11",
    )


def test_criterion_14_rk4_read_out_converges_at_order_5():
    # criterion 9's first set-up, against a run at 51,200 coarse steps; the
    # bound of 24 per halving (32 for an order-5 read-out) was fixed before
    # the first run
    H = make_model("jc_detuned", g=0.05)
    t = 400.0
    reference = propagate_exact(H, t, steps=51200).U
    errors = [float(np.linalg.norm(propagate_exact(H, t, steps=steps).U - reference))
              for steps in (3200, 6400, 12800)]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    _criterion(
        14,
        "the RK4 read-out's distance to a finer run falls >= 24x at each halving "
        "of the step",
        min(ratios) >= 24,
        f"distances {', '.join(f'{e:.2e}' for e in errors)} at 3200, 6400, 12800 steps, "
        f"ratios {', '.join(f'{r:.1f}' for r in ratios)}, bound 24",
    )
