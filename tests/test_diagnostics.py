import csv
import dataclasses
import io
import json
import math
import pathlib
import shutil
import warnings
from fractions import Fraction

import numpy as np
import pytest

import effham.builder
import effham.diagnostics
from conftest import random_generic
from effham import (
    HBAR,
    ModelError,
    MultiToneHamiltonian,
    OperatorSeries,
    OperatorValueError,
    UnknownModelError,
    ZOO_NAMES,
    commutation_probe,
    default_time_grid,
    dyson_truncated,
    eq6_gap,
    eq6_gap_grid,
    frequency_report,
    heff_n_timedep,
    heff_secular,
    hermiticity_defect,
    load_model,
    make_model,
    model_digest,
    quad_oracle,
    run_report,
    sigma_x,
    unitarity_defect,
)


# ----------------------------------------------------------------------
# metrics


def test_hermiticity_defect_zero_for_hermitian():
    assert hermiticity_defect(sigma_x()) == 0.0


def test_hermiticity_defect_anti_hermitian_extreme():
    # ||2i sx|| / ||i sx|| = 2 sqrt(2) / sqrt(2)
    assert hermiticity_defect(1j * sigma_x()) == pytest.approx(2.0)


def test_hermiticity_defect_scaled_zero_detection(rng):
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    Aherm = (A + A.conj().T) / 2
    assert hermiticity_defect(Aherm) < 1e-15
    assert hermiticity_defect(Aherm + 1e-8 * 1j * np.eye(4)) > 0


def test_hermiticity_defect_unitary_conjugation_invariant(rng):
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    from effham import matrix_exponential

    U = matrix_exponential(M - M.conj().T)
    a = hermiticity_defect(A)
    b = hermiticity_defect(U @ A @ U.conj().T)
    assert abs(a - b) < 1e-12


def test_unitarity_defect_values():
    assert unitarity_defect(np.eye(3)) == 0.0
    assert unitarity_defect(2 * np.eye(2)) == pytest.approx(3 * np.sqrt(2))


def test_a_defect_whose_norm_fits_a_float_is_reported():
    # numpy squares each entry, so these norms once read nan or inf
    A = np.array([[1e200, 1e200], [0.0, 0.0]])
    assert hermiticity_defect(A) == pytest.approx(1.0)
    assert unitarity_defect(np.diag([1e100, 1.0])) == pytest.approx(1e200)
    # in a stack only the matrices that overflow are rescaled; a non-finite
    # entry still gives a non-finite defect
    stack = np.array([A, 1j * sigma_x(), [[1e300j, 0.0], [1e300, 0.0]],
                      [[np.nan, 0.0], [0.0, 0.0]]])
    values = hermiticity_defect(stack)
    assert values[:3] == pytest.approx([1.0, 2.0, np.sqrt(3)]) and np.isnan(values[3])


def test_defects_past_the_float_range_read_nan_or_inf_without_a_warning():
    # inf - inf in A - A^dag is nan; U^dag U of a finite U overflows, and a
    # defect past the float range reads inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(hermiticity_defect(np.array([[np.inf, 0.0], [0.0, 0.0]])))
        assert unitarity_defect(np.array([[1e200, 0.0], [0.0, 1.0]])) == math.inf


@pytest.mark.parametrize("dim", [1, 3])
def test_defects_on_a_stack_match_per_matrix_values(rng, dim):
    stack = rng.normal(size=(2, 4, dim, dim)) + 1j * rng.normal(size=(2, 4, dim, dim))
    stack[0, 0] = 0.0
    stack[0, 1] = np.eye(dim)
    stack[1, 0] *= 1e-3
    for metric in (hermiticity_defect, unitarity_defect):
        values = metric(stack)
        assert values.shape == (2, 4)
        for idx in np.ndindex(2, 4):
            single = metric(stack[idx])
            assert type(single) is float
            assert abs(values[idx] - single) <= 1e-15 * max(1.0, single)
    assert hermiticity_defect(stack)[0, 0] == 0.0
    assert unitarity_defect(stack)[0, 1] == 0.0


def test_defects_on_an_empty_stack():
    for metric in (hermiticity_defect, unitarity_defect):
        values = metric(np.zeros((0, 3, 3), dtype=complex))
        assert values.shape == (0,)


# ----------------------------------------------------------------------
# reordering identity gap


def test_eq6_zero_for_scalar_model():
    H = make_model("scalar_single_tone")
    ts = np.linspace(0.0, 10.0, 16)
    assert eq6_gap_grid(H, ts).max() <= 1e-12


def test_eq6_zero_for_single_hermitian_tone():
    H = MultiToneHamiltonian([(sigma_x(), 3.0)])
    for t in (0.3, 1.1, 2.9):
        assert eq6_gap(H, t) <= 1e-12


def test_eq6_positive_for_noncommuting_model():
    H = make_model("noncommuting_two_tone")
    # frozen from the direct evaluation oracle
    assert eq6_gap(H, 0.5) == pytest.approx(4.2284e-3, rel=1e-3)


def test_eq6_zero_whenever_commutation_probe_vanishes():
    for name in ("commuting_diag", "scalar_single_tone"):
        H = make_model(name)
        pairs = [(0.1, 0.9), (0.4, 2.2), (1.5, 3.0)]
        assert commutation_probe(H, pairs) < 1e-13
        assert eq6_gap_grid(H, np.linspace(0, 5, 8)).max() <= 1e-12


# ----------------------------------------------------------------------
# zoo


def test_zoo_names_cover_expected_models():
    assert set(ZOO_NAMES) == {
        "jc_detuned",
        "raman_lambda",
        "commuting_diag",
        "noncommuting_two_tone",
        "scalar_single_tone",
    }


def test_make_model_unknown_name():
    with pytest.raises(OperatorValueError):
        make_model("nonexistent_model")


def test_unknown_name_is_a_model_error_too():
    with pytest.raises(ModelError, match="available: commuting_diag, jc_detuned"):
        make_model("nonexistent_model")
    with pytest.raises(UnknownModelError):
        run_report("builtin:nonexistent_model")


def test_commuting_diag_probe_zero():
    H = make_model("commuting_diag")
    assert commutation_probe(H, [(0.1, 0.7), (0.3, 1.1)]) == 0.0


def test_noncommuting_probe_positive():
    H = make_model("noncommuting_two_tone")
    assert commutation_probe(H, [(0.1, 0.7), (0.3, 1.1)]) > 1e-3


def test_jc_detuned_distinct_frequencies():
    assert frequency_report(make_model("jc_detuned")).passes


def test_jc_detuned_shape():
    H = make_model("jc_detuned")
    assert H.dim == 10
    assert H.omegas == (1.0,)


def test_model_digest_stable_and_sensitive():
    a = make_model("jc_detuned")
    b = make_model("jc_detuned")
    c = make_model("jc_detuned", g=0.06)
    assert model_digest(a) == model_digest(b)
    assert model_digest(a) != model_digest(c)


def test_default_time_grid_span():
    H = make_model("noncommuting_two_tone")
    grid = default_time_grid(H)
    assert grid.size == 64
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(2.0)


class _Unread:
    """A model stand-in that fails on any attribute read, so that a check
    that passes it on to sampling or to a series build shows."""

    def __getattr__(self, name):
        raise AssertionError(f"the model's {name} was read")


@pytest.mark.parametrize("points", [0, 1, -3, 2.5, True, "64", None])
def test_default_time_grid_rejects_bad_points_before_reading_the_model(points):
    with pytest.raises(OperatorValueError, match="points must be an integer >= 2"):
        default_time_grid(_Unread(), points)


def test_default_time_grid_takes_two_points():
    assert default_time_grid(make_model("noncommuting_two_tone"), 2).tolist() == [0.0, 2.0]


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, True, "0.5", None])
def test_eq6_gap_rejects_a_bad_time_before_any_build(t):
    with pytest.raises(OperatorValueError, match="time must be a finite real number"):
        eq6_gap(_Unread(), t)


@pytest.mark.parametrize("ts", [[0.1, math.nan], [math.inf], np.ones((2, 2)), [[0.1], [0.2]],
                                [True, 0.5], "0.5", 0.5, np.zeros((3, 2)),
                                [0.0, np.nan, 1.0], [0.0, np.inf], [[0.0, 1.0]],
                                [False, True], ["0.0", "0.5"], [0.5, True], [10**400],
                                [Fraction(1, 2), True]])
def test_eq6_gap_grid_rejects_bad_times_before_any_build(ts):
    with pytest.raises(OperatorValueError, match="time grid must be a 1-D array"):
        eq6_gap_grid(_Unread(), ts)


# ----------------------------------------------------------------------
# report runner

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_MODELS = ROOT / "demos" / "models"


def _source_id(source):
    # a file's id is its path from the repo root, the same in every checkout
    if source.startswith("builtin:"):
        return source
    return pathlib.Path(source).relative_to(ROOT).as_posix()


def test_a_bare_string_is_a_path_even_when_it_names_a_zoo_model(tmp_path, monkeypatch):
    shutil.copy(DEMO_MODELS / "driven_qutrit.ham", tmp_path / "raman_lambda")
    monkeypatch.chdir(tmp_path)
    assert run_report("raman_lambda", grid=8).omegas == (2.0, 3.3)
    assert run_report("builtin:raman_lambda", grid=8).omegas == (1.0, 1.3)


def test_report_scalar_identity_gap_column():
    rep = run_report("builtin:scalar_single_tone", grid=16)
    assert rep.eq6.max() <= 1e-12
    # single-tone model: no pair gap; JSON must stay finite (null, not inf)
    data = json.loads(rep.to_json())
    assert data["frequency_report"]["min_pair_gap"] is None


def test_report_noncommuting_order3():
    rep = run_report("builtin:noncommuting_two_tone", orders=(2, 3), grid=32)
    rec3 = [r for r in rep.orders if r.order == 3][0]
    assert rec3.hermiticity_defect_grid.max() > 1e-3
    assert rec3.secular_hermiticity_defect < 1e-10
    for row in rep.oracle_residuals:
        assert row["residual"] < 1e-8


def test_report_sweep_slope():
    rep = run_report("builtin:noncommuting_two_tone", orders=(2,), grid=8,
                     sweep=(0.4, 0.2, 0.1))
    lams = np.array(rep.sweep["lambdas"])
    defects = np.array(
        [row["orders"][0]["dyson_unitarity_defect_t1"] for row in rep.sweep["rows"]]
    )
    slope = np.polyfit(np.log(lams), np.log(defects), 1)[0]
    assert abs(slope - 3.0) <= 0.3


def test_report_sweep_hermiticity_scaling():
    rep = run_report("builtin:noncommuting_two_tone", orders=(2, 3), grid=16,
                     sweep=(0.4, 0.2, 0.1))
    for idx, n in enumerate(rep.options["orders"]):
        lams = np.array(rep.sweep["lambdas"])
        defs = np.array(
            [row["orders"][idx]["hermiticity_defect_max"] for row in rep.sweep["rows"]]
        )
        slope = np.polyfit(np.log(lams), np.log(defs), 1)[0]
        assert abs(slope - n) <= 0.1


def test_report_deterministic_apart_from_timestamp():
    a = run_report("builtin:raman_lambda", grid=12).as_dict()
    b = run_report("builtin:raman_lambda", grid=12).as_dict()
    a.pop("generated_at")
    b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_as_dict_hands_out_a_tree_whose_edits_leave_the_report_unchanged():
    rep = run_report("builtin:raman_lambda", grid=12, sweep=(0.4, 0.2))
    text, tree = rep.to_json(), rep.as_dict()
    for edit in (lambda d: d["options"].update(grid=999),
                 lambda d: d["options"]["orders"].append(7),
                 lambda d: d["sweep"]["lambdas"].append(9.0),
                 lambda d: d["sweep"]["rows"][0].update({"lambda": 9.0}),
                 lambda d: d["oracle_residuals"][0].update(residual=-1.0)):
        edit(rep.as_dict())
        assert rep.to_json() == text and rep.as_dict() == tree
    assert rep.options["grid"] == 12 and rep.oracle_residuals[0]["residual"] >= 0.0


def test_report_json_and_csv_files(tmp_path):
    out = tmp_path / "report.json"
    csv_file = tmp_path / "series.csv"
    rep = run_report("builtin:commuting_diag", grid=8)
    rep.write(str(out), str(csv_file))
    data = json.loads(out.read_text())
    assert data["schema"] == 1
    assert data["model_digest"] == rep.model_digest
    assert len(data["time_grid"]) == 8
    assert all(np.isfinite(x) for x in data["eq6_gap"])
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "t"
    assert lines[0].split(",")[-1] == "eq6_gap"
    assert len(lines) == 9


def test_report_grids_strictly_increasing():
    rep = run_report("builtin:scalar_single_tone", grid=8)
    assert np.all(np.diff(rep.time_grid) > 0)


def test_report_from_model_file(tmp_path):
    path = tmp_path / "m.ham"
    path.write_text("space q 2\nparam g = 0.1\ntone g * sp(q) omega = 4.0\n")
    rep = run_report(str(path), grid=8)
    assert rep.dim == 2
    assert rep.omegas == (4.0,)


@pytest.mark.parametrize("source", [f"builtin:{name}" for name in sorted(ZOO_NAMES)]
                         + ["driven_qutrit.ham", "two_mode_exchange.ham"])
def test_report_sweep_rows_equal_an_explicit_rebuild(source):
    # the report derives the sweep from one build by homogeneity; rebuild
    # every row here from the scaled model instead
    if source.startswith("builtin:"):
        H = make_model(source[len("builtin:"):])
    else:
        source = str(DEMO_MODELS / source)
        H = load_model(source)
    lambdas = (0.4, 0.2, 0.1, -0.3, 0.0)
    orders = (2, 3, 4, 5, 6)
    rep = run_report(source, orders=orders, grid=24, sweep=lambdas)
    assert rep.sweep["lambdas"] == list(lambdas)
    for lam, row in zip(lambdas, rep.sweep["rows"]):
        assert row["lambda"] == lam
        scaled = H.scaled(lam)
        assert [cell["order"] for cell in row["orders"]] == list(orders)
        for cell in row["orders"]:
            n = cell["order"]
            values = heff_n_timedep(scaled, n).evaluate_grid(rep.time_grid)
            herm = max(hermiticity_defect(M) for M in values)
            unit = unitarity_defect(dyson_truncated(scaled, n, 1.0))
            assert abs(cell["hermiticity_defect_max"] - herm) <= 1e-14
            assert abs(cell["dyson_unitarity_defect_t1"] - unit) <= 1e-14


def test_report_tol_zero_reaches_the_secular_extraction(tmp_path):
    # carriers 5e-6 apart: their difference counts as zero at tol_zero=1e-5
    # only, which adds the cross terms to the secular part
    path = tmp_path / "near.ham"
    path.write_text("space q 2\ntone 0.3 * sp(q) omega = 1.0\n"
                    "tone 0.2 * sz(q) omega = 1.000005\n")
    H = load_model(str(path))
    rep = run_report(str(path), orders=(2, 3, 4), grid=8, tol_zero=1e-5)
    assert rep.options["tol_zero"] == 1e-5
    changed = False
    for rec in rep.orders:
        ref = heff_secular(H, rec.order, tol_zero=1e-5)
        assert np.array_equal(rec.secular, ref.secular)
        assert rec.secular_growth_flag == ref.secular_growth_flag
        changed |= not np.allclose(rec.secular, heff_secular(H, rec.order).secular)
    assert changed


REPORT_SOURCES = ([f"builtin:{name}" for name in sorted(ZOO_NAMES)]
                  + [str(DEMO_MODELS / f) for f in ("driven_qutrit.ham", "two_mode_exchange.ham")])


@pytest.mark.parametrize("source", REPORT_SOURCES, ids=_source_id)
def test_report_reads_all_residual_times_off_one_quadrature(source, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return quad_oracle(*args, **kwargs)

    def per_time(H, orders, ts, tol):
        # the residual references rebuilt with one quadrature per time
        refs = [quad_oracle(H, orders, float(t), tol) for t in ts]
        return {n: np.stack([ref[n] for ref in refs]) for n in orders}

    options = {"orders": (2, 3, 4), "sweep": (0.4, 0.2, 0.1)}
    monkeypatch.setattr(effham.diagnostics, "quad_oracle", counting)
    rep = run_report(source, **options).as_dict()
    assert len(calls) == 1
    monkeypatch.setattr(effham.diagnostics, "quad_oracle", per_time)
    ref = run_report(source, **options).as_dict()

    rows, ref_rows = rep.pop("oracle_residuals"), ref.pop("oracle_residuals")
    assert [(r["order"], r["t"]) for r in rows] == [(r["order"], r["t"]) for r in ref_rows]
    assert len(rows) == 3 * 8
    for row, ref_row in zip(rows, ref_rows):
        assert row["residual"] <= 1e-8 and ref_row["residual"] <= 1e-8
    for data in (rep, ref):
        data.pop("generated_at")
    assert json.dumps(rep, sort_keys=True) == json.dumps(ref, sort_keys=True)


BUNDLED_SOURCES = REPORT_SOURCES + sorted(
    str(path) for path in (pathlib.Path(__file__).resolve().parent / "data").glob("*.ham"))


@pytest.mark.parametrize("source", BUNDLED_SOURCES, ids=_source_id)
def test_report_checks_every_order_against_the_quadrature(source):
    # the oracle takes the builders' orders 2..6, so no order goes unchecked
    rep = run_report(source, orders=(2, 3, 4, 5, 6))
    rows = rep.oracle_residuals
    ts = np.linspace(rep.options["tmax"] / 8, rep.options["tmax"], 8).tolist()
    assert [(r["order"], r["t"]) for r in rows] == [(n, t) for n in (2, 3, 4, 5, 6) for t in ts]
    assert max(r["residual"] for r in rows) < 1e-8


@pytest.mark.parametrize("source", REPORT_SOURCES, ids=_source_id)
def test_report_defect_grids_equal_a_fresh_evaluation(source):
    # the report evaluates each order once on its grid; evaluate again
    if source.startswith("builtin:"):
        H = make_model(source[len("builtin:"):])
    else:
        H = load_model(source)
    rep = run_report(source, orders=(2, 3, 4), grid=16)
    for rec in rep.orders:
        values = heff_n_timedep(H, rec.order).evaluate_grid(rep.time_grid)
        assert np.array_equal(rec.hermiticity_defect_grid, hermiticity_defect(values))


@pytest.mark.parametrize("options", [
    {"sweep": (0.4, math.nan)}, {"sweep": (math.inf,)}, {"sweep": (-math.inf, 0.2)},
    {"orders": (1, 2)}, {"orders": (2, 7)}, {"orders": ()},
    {"orders": (2.5,)}, {"orders": (2, 3.0)}, {"orders": (True, 2)},
    {"sweep": (True,)}, {"sweep": ("0.4",)}, {"sweep": "0.4,0.2"},
    {"tmax": math.inf}, {"tmax": math.nan}, {"tmax": 0.0}, {"tmax": -1.0},
    {"tmax": True}, {"tmax": "1.0"},
    {"grid": 0}, {"grid": 1}, {"grid": 2.5}, {"grid": True}, {"grid": "64"},
])
def test_report_rejects_bad_options_before_loading(options):
    with pytest.raises(OperatorValueError):
        run_report("no_such_file.ham", **options)


@pytest.mark.parametrize("name, value", [("orders", 2), ("orders", {2, 3}), ("sweep", 0.5),
                                         ("sweep", 0)])
def test_report_refuses_a_bare_orders_or_sweep_value(name, value):
    with pytest.raises(OperatorValueError) as err:
        run_report("no_such_file.ham", **{name: value})
    assert str(err.value) == f"{name} must be a sequence, got {value!r}"


def test_report_takes_numpy_arrays_of_orders_and_sweep_factors():
    def report(**options):
        out = run_report("builtin:scalar_single_tone", grid=4, **options).as_dict()
        del out["generated_at"]
        return out

    assert report(orders=np.array([3, 2]), sweep=np.array([0.2, 0.5])) == report(
        orders=(2, 3), sweep=(0.2, 0.5))


@pytest.mark.parametrize("orders, products", [((2, 3), 6), ((2, 3, 4), 8),
                                              ((2, 3, 4, 5, 6), 12), ((2, 4), 8), ((4,), 8)])
def test_report_builds_one_definite_and_one_indefinite_chain(orders, products, monkeypatch):
    # 2 (N - 1) products and 2 N - 1 integrals for the two chains up to the
    # top order N, whichever orders below N are listed, and 2 of each for the
    # Heff_3 of the reordering-identity gap; the propagator terms come off
    # the definite chain
    calls = {"mul": 0, "integrate": 0}
    multiply = OperatorSeries.__mul__
    integrate = OperatorSeries.integrate_from_zero

    def counting_mul(self, other):
        calls["mul"] += 1
        return multiply(self, other)

    def counting_integrate(self, **kwargs):
        calls["integrate"] += 1
        return integrate(self, **kwargs)

    monkeypatch.setattr(OperatorSeries, "__mul__", counting_mul)
    monkeypatch.setattr(OperatorSeries, "integrate_from_zero", counting_integrate)
    run_report("builtin:raman_lambda", orders=orders, grid=8)
    N = max(orders)
    assert calls["mul"] == 2 * (N - 1) + 2 == products
    assert calls["integrate"] == 2 * N + 1


@pytest.mark.parametrize("source", REPORT_SOURCES, ids=_source_id)
def test_report_fills_in_the_orders_it_does_not_report(source):
    # orders 2,4 need U_3, which the report reads off the chain up to order 4
    full = run_report(source, orders=(2, 3, 4), grid=16, sweep=(0.4, -0.2)).as_dict()
    gapped = run_report(source, orders=(2, 4), grid=16, sweep=(0.4, -0.2)).as_dict()
    assert [rec["order"] for rec in gapped["orders"]] == [2, 4]
    assert gapped["orders"] == [rec for rec in full["orders"] if rec["order"] != 3]
    for row, full_row in zip(gapped["sweep"]["rows"], full["sweep"]["rows"]):
        assert row["orders"] == [c for c in full_row["orders"] if c["order"] != 3]


@pytest.mark.parametrize("name", ["tol_zero", "gap_min"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, True, "1e-3"])
def test_report_rejects_bad_thresholds_before_any_build(name, value, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(effham.builder, "_chain", no_build)
    with pytest.raises(OperatorValueError, match=f"{name} must be a finite real number >= 0"):
        run_report("builtin:jc_detuned", grid=8, **{name: value})


# ----------------------------------------------------------------------
# reordering identity against its references


def _bundled_model(source):
    if source.startswith("builtin:"):
        return make_model(source[len("builtin:"):])
    return load_model(source)


def _generic_model(seed, dim):
    rng = np.random.default_rng(seed)
    return MultiToneHamiltonian([(random_generic(rng, dim, 0.3), float(rng.uniform(0.5, 8.0)))
                                 for _ in range(3)])


GAP_MODELS = ([pytest.param(lambda source=source: _bundled_model(source), id=_source_id(source))
               for source in BUNDLED_SOURCES]
              + [pytest.param(lambda seed=seed, dim=dim: _generic_model(seed, dim),
                              id=f"generic-seed{seed}-d{dim}")
                 for seed, dim in ((1, 3), (2, 6), (3, 6))])


def reordered_product_gap(H, ts):
    """The gap with the reordered product ``II[H(t2) H(t1)] * H`` built as a
    series of its own, the reference for :func:`eq6_gap_grid`. Returns the
    gap and the norm of the left side ``L = H * II[H H]`` at each time."""
    S = H.to_operator_series()
    left = heff_n_timedep(H, 3).scale(-HBAR ** 2).evaluate_grid(ts)
    right = ((S.integrate_from_zero() * S).integrate_from_zero() * S).evaluate_grid(ts)
    return np.linalg.norm(left - right, axis=(1, 2)), np.linalg.norm(left, axis=(1, 2))


@pytest.mark.parametrize("model", GAP_MODELS)
def test_eq6_gap_equals_the_reordered_product(model):
    H = model()
    ts = default_time_grid(H, 32)
    ref, norm_left = reordered_product_gap(H, ts)
    assert np.all(np.abs(eq6_gap_grid(H, ts) - ref) <= 1e-13 * np.maximum(1.0, norm_left))


@pytest.mark.parametrize("model", GAP_MODELS)
def test_eq6_gap_is_the_anti_hermitian_part_of_heff3(model):
    # the Reply's identity: the reordering identity holds exactly where
    # Heff_3 is Hermitian
    H = model()
    ts = default_time_grid(H, 32)
    V = heff_secular(H, 3).series.evaluate_grid(ts)
    expected = HBAR ** 2 * np.linalg.norm(V - V.conj().swapaxes(1, 2), axis=(1, 2))
    np.testing.assert_allclose(eq6_gap_grid(H, ts), expected, rtol=1e-15, atol=1e-300)


# ----------------------------------------------------------------------
# report serialization against json.dumps and csv.writer


def _json_dumps(tree):
    return json.dumps(tree, indent=2, sort_keys=True, allow_nan=False)


def _csv_writer_bytes(rows):
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode("utf-8")


@pytest.mark.parametrize("options", [{}, {"orders": (2, 3, 4), "sweep": (0.4, 0.2, 0.1)}],
                         ids=["default", "orders234-sweep"])
@pytest.mark.parametrize("source", BUNDLED_SOURCES, ids=_source_id)
def test_report_files_equal_json_dumps_and_csv_writer(source, options, tmp_path):
    rep = run_report(source, **options)
    ref = _json_dumps(rep.as_dict())
    assert rep.to_json() == ref
    rep.write(str(tmp_path / "r.json"), str(tmp_path / "r.csv"))
    assert (tmp_path / "r.json").read_bytes() == (ref + "\n").encode("utf-8")
    assert (tmp_path / "r.csv").read_bytes() == _csv_writer_bytes(rep.csv_rows())


SYNTHETIC_TREES = [
    {"plain": "text", "non-ascii": "Grüße ħω → ∞ \"quoted\" \\ \n\t\x00", "ключ": ["é", 1]},
    {},
    [],
    {"a": {}, "b": [], "c": [[], {}], "d": [[[]]], "e": {"f": {"g": {}}}},
    {"int": 3, "negative": -7, "big": 2 ** 70, "true": True, "false": False, "none": None,
     "mixed": [1, 2.5, True, None, "x", False, 0]},
    [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-7,
     1e16, 0.1, 1.0],
    {"floats": [np.float64(0.1), 2.0, np.float64(-0.0)], "one": np.float64(3.5)},
    {"z": [{"b": 1, "a": [0.5, 1.25]}, [[1.0, 2.0], [3.0]]], "a": ("tuple", (1.0, 2.0))},
    1.5,
    "top",
    None,
    7,
]


@pytest.mark.parametrize("tree", SYNTHETIC_TREES)
def test_json_emitter_equals_json_dumps_on_synthetic_trees(tree):
    assert effham.diagnostics._json_text(tree) == _json_dumps(tree)


def test_json_emitter_refuses_a_key_that_is_not_a_str():
    # json.dumps writes {"1": 2}; a report's keys are all strings, and the
    # emitter's string encoder refuses any other
    with pytest.raises(TypeError):
        effham.diagnostics._json_text({1: 2})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
@pytest.mark.parametrize("place", [lambda x: x, lambda x: [1.0, x, math.nan],
                                   lambda x: {"b": [x], "a": [1, "s", -x]},
                                   lambda x: [[0.5], {"k": x}]])
def test_json_emitter_refuses_non_finite_floats_as_json_does(bad, place):
    tree = place(bad)
    with pytest.raises(ValueError) as ref:
        _json_dumps(tree)
    with pytest.raises(ValueError) as got:
        effham.diagnostics._json_text(tree)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("tree", [[np.int64(1)], {"a": np.bool_(True)}, [1.0, {1j}]])
def test_json_emitter_refuses_what_json_refuses(tree):
    with pytest.raises(TypeError):
        _json_dumps(tree)
    with pytest.raises(TypeError):
        effham.diagnostics._json_text(tree)


def test_a_non_finite_time_series_value_raises_json_s_error(tmp_path):
    rep = run_report("builtin:noncommuting_two_tone", grid=8)
    eq6 = rep.eq6.copy()
    eq6[3] = math.inf
    bad = dataclasses.replace(rep, eq6=eq6)
    with pytest.raises(ValueError) as ref:
        _json_dumps(bad.as_dict())
    with pytest.raises(ValueError) as got:
        bad.to_json()
    assert str(got.value) == str(ref.value)
    # the CSV alone still writes what csv.writer writes
    bad.write(csv_path=str(tmp_path / "r.csv"))
    assert (tmp_path / "r.csv").read_bytes() == _csv_writer_bytes(bad.csv_rows())
