import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import effham.cli
from effham import OperatorValueError, errors, run_report, series
from effham.cli import main


def test_report_builtin_to_stdout(capsys):
    code = main(["report", "builtin:scalar_single_tone", "--grid", "8"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == 1
    assert data["model"]["dim"] == 1


def test_report_writes_files(tmp_path, capsys):
    out = tmp_path / "r.json"
    csv_file = tmp_path / "r.csv"
    code = main([
        "report", "builtin:commuting_diag",
        "--grid", "8",
        "--orders", "2,3",
        "--out", str(out),
        "--csv", str(csv_file),
    ])
    assert code == 0
    assert out.exists() and csv_file.exists()
    assert capsys.readouterr().out == ""


def test_report_model_file(tmp_path):
    path = tmp_path / "m.ham"
    path.write_text("space q 2\ntone sx(q) omega = 2.0\n")
    assert main(["report", str(path), "--grid", "8", "--out", str(tmp_path / "o.json")]) == 0


def test_missing_file_exits_2(capsys):
    assert main(["report", "no_such_file.ham"]) == 2
    assert "model error" in capsys.readouterr().err


def test_couplings_whose_samples_overflow_exit_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "big.ham"
    path.write_text("space q 2\ntone 1e308 * sx(q) omega = 1\n")
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err == (
        "effham: model error: the couplings are so large that a sample of H is not finite\n")


@pytest.mark.parametrize("spaces, tone, omega", [
    ("space s 2\n", "sx(s)", "5e-324"),
    ("space s1 2\nspace s2 2\n", "sm(s2)", "1e-300"),
])
def test_carrier_at_or_below_tol_zero_exits_2_with_one_line(spaces, tone, omega, tmp_path,
                                                            capsys):
    path = tmp_path / "carrier.ham"
    path.write_text(f"{spaces}tone {tone} omega = {omega}\n")
    assert main(["report", str(path)]) == 2
    line = spaces.count("\n") + 1
    assert _one_line(capsys) == (f"effham: model error: {line}:0: tone frequency must be "
                                 f"> TOL_ZERO (1e-09), below which a frequency counts as 0, "
                                 f"got {omega}")


def test_a_quadrature_level_over_the_byte_budget_exits_3_with_one_line(tmp_path, capsys):
    # at carrier 1e-7 the default horizon 10/omega is 1e8, where order-3
    # values cannot meet the absolute quadrature tolerance: the byte budget
    # ends the refinement, naming each order's last change
    path = tmp_path / "slow.ham"
    path.write_text("space s0 2\nspace s1 3\ntone sz(s0) omega = 1e-7\n")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["report", str(path)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    line = _one_line(capsys)
    assert line.startswith("effham: numerical guard: quadrature of order 2, 3 did not reach "
                           "tol=1e-09 (order 2: last change ")
    assert " at 278528 points): a level of 557056 points would take about " in line
    assert line.endswith(f" bytes, over the budget of {errors.BYTE_BUDGET} bytes")
    assert elapsed < 2.0 and peak < errors.BYTE_BUDGET


def test_a_zoo_name_without_builtin_is_a_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["report", "jc_detuned"]) == 2
    assert capsys.readouterr().err == (
        "effham: model error: cannot read 'jc_detuned': No such file or directory\n")


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ham"
    bad.write_text("space q 2\ntone sx(q) omega = -3.0\n")
    assert main(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == ("effham: model error: 2:0: "
                   "tone frequency must be a finite real number > 0, got -3.0\n")


@pytest.mark.parametrize("text, head", [
    ("param g = " + "1" * 5000 + "\n", "1:11: numeric literal '" + "1" * 39 + "..."),
    ("space q 2\ntone proj(q, 1e300, 0) omega = 1\n",
     "2:6: i must be an integer in [0, 1], got 1000"),
])
def test_long_value_is_cut_from_the_one_line_diagnostic(tmp_path, capsys, text, head):
    bad = tmp_path / "long.ham"
    bad.write_text(text)
    assert main(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("effham: model error: " + head)
    assert "characters cut]..." in err
    assert len(err.strip().splitlines()) == 1 and len(err.encode()) < 200


def test_guard_error_exits_3(monkeypatch, capsys):
    # the byte budget refuses the build's first integral, 4 keys of 2
    # by-parts monomials each, before anything of the report is written
    need = series._series_bytes(8, 2)
    monkeypatch.setattr(errors, "BYTE_BUDGET", need - 1)
    assert main(["report", "builtin:noncommuting_two_tone", "--grid", "8"]) == 3
    assert _one_line(capsys) == ("effham: numerical guard: 8 monomials of integrate_from_zero "
                                 f"at dim 2 would take about {need} bytes, "
                                 f"over the budget of {need - 1} bytes")


def test_sweep_option(tmp_path):
    out = tmp_path / "s.json"
    code = main([
        "report", "builtin:noncommuting_two_tone",
        "--grid", "8", "--sweep", "0.4,0.2", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["sweep"]["lambdas"] == [0.4, 0.2]


def test_bad_orders_argument():
    with pytest.raises(SystemExit):
        main(["report", "builtin:scalar_single_tone", "--orders", "x"])


@pytest.mark.parametrize("option, value", [
    ("--tmax", "inf"), ("--tmax", "nan"), ("--tmax", "-1"), ("--tmax", "0"), ("--tmax", "x"),
    ("--grid", "0"), ("--grid", "1"), ("--grid", "-3"), ("--grid", "2.5"),
])
def test_bad_grid_options_exit_2(option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "builtin:scalar_single_tone", option, value])
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert option in last and repr(value) in last


def test_smallest_grid_options_accepted(capsys):
    assert main(["report", "builtin:scalar_single_tone", "--grid", "2", "--tmax", "1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["time_grid"] == [0.0, 1e-3]


@pytest.fixture
def no_report(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("run_report called despite a bad option")

    monkeypatch.setattr(effham.cli, "run_report", fail)


@pytest.mark.parametrize("option, value", [
    ("--sweep", "nan"), ("--sweep", "0.4,inf"), ("--sweep", "0.2,-inf"), ("--sweep", "0.4,x"),
    ("--orders", "7"), ("--orders", "1"), ("--orders", "2,3,7"), ("--orders", "0"),
    ("--tol-zero", "-1"), ("--tol-zero", "nan"), ("--tol-zero", "inf"), ("--tol-zero", "x"),
    ("--gap-min", "nan"), ("--gap-min", "-0.001"),
])
def test_bad_report_options_exit_2(option, value, capsys, no_report):
    with pytest.raises(SystemExit) as exc:
        main(["report", "builtin:scalar_single_tone", option, value])
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert option in last and repr(value) in last


@pytest.mark.parametrize("tol_zero, gap_min", [("1e-2", "1e-3"), ("1e-3", "1e-3"), ("0", "0")])
def test_tol_zero_not_below_gap_min_exits_2(tol_zero, gap_min, capsys, no_report):
    with pytest.raises(SystemExit) as exc:
        main(["report", "builtin:scalar_single_tone", "--tol-zero", tol_zero, "--gap-min", gap_min])
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert "--tol-zero" in last and "--gap-min" in last


# Option texts of `effham report` and the run_report keywords they stand for;
# the CLI must refuse a row exactly when the library does.
_AGREEMENT = [
    (["--orders", "2,3"], {"orders": (2, 3)}),
    (["--orders", "3,2,3"], {"orders": (3, 2, 3)}),
    (["--orders", "6"], {"orders": (6,)}),
    (["--orders", "1"], {"orders": (1,)}),
    (["--orders", "2,7"], {"orders": (2, 7)}),
    (["--tmax", "1e-3"], {"tmax": 1e-3}),
    (["--tmax", "0"], {"tmax": 0.0}),
    (["--tmax", "-1"], {"tmax": -1.0}),
    (["--tmax", "inf"], {"tmax": math.inf}),
    (["--tmax", "nan"], {"tmax": math.nan}),
    (["--grid", "2"], {"grid": 2}),
    (["--grid", "1"], {"grid": 1}),
    (["--grid", "-3"], {"grid": -3}),
    (["--sweep", "0,-0.5"], {"sweep": (0.0, -0.5)}),
    (["--sweep", "0.4,inf"], {"sweep": (0.4, math.inf)}),
    (["--sweep", "nan"], {"sweep": (math.nan,)}),
    (["--tol-zero", "0"], {"tol_zero": 0.0}),
    (["--tol-zero", "-1"], {"tol_zero": -1.0}),
    (["--tol-zero", "inf"], {"tol_zero": math.inf}),
    (["--tol-zero", "1e-3"], {"tol_zero": 1e-3}),  # not below the default gap_min
    (["--gap-min", "1e-6"], {"gap_min": 1e-6}),
    (["--gap-min", "1e-12"], {"gap_min": 1e-12}),  # not above the default tol_zero
    (["--gap-min", "nan"], {"gap_min": math.nan}),
    (["--gap-min", "-0.001"], {"gap_min": -0.001}),
    (["--tol-zero", "0", "--gap-min", "1e-12"], {"tol_zero": 0.0, "gap_min": 1e-12}),
    (["--tol-zero", "1e-2", "--gap-min", "1e-3"], {"tol_zero": 1e-2, "gap_min": 1e-3}),
]


class _Reached(Exception):
    """The CLI called run_report: it accepted every option."""


@pytest.mark.parametrize("options, kwargs", _AGREEMENT, ids=[" ".join(o) for o, _ in _AGREEMENT])
def test_cli_refuses_exactly_what_run_report_refuses(options, kwargs, monkeypatch):
    try:
        run_report("builtin:scalar_single_tone", **kwargs)
        refused = False
    except OperatorValueError:
        refused = True

    def reached(*args, **kw):
        raise _Reached

    monkeypatch.setattr(effham.cli, "run_report", reached)
    with pytest.raises((SystemExit, _Reached)) as exc:
        main(["report", "builtin:scalar_single_tone", *options])
    assert (exc.type is SystemExit and exc.value.code == 2) == refused


def test_edge_report_options_accepted(capsys):
    argv = ["report", "builtin:scalar_single_tone", "--grid", "2", "--orders", "2,6",
            "--sweep", "0,-0.5", "--tol-zero", "0", "--gap-min", "1e-12"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["options"]["orders"] == [2, 6]
    assert data["sweep"]["lambdas"] == [0.0, -0.5]
    assert data["frequency_report"]["tol_zero"] == 0.0


@pytest.mark.parametrize("sweep", ["-0.3,0.2", "-.5", "-1"])
def test_negative_sweep_plain_form_matches_equals_form(sweep, capsys):
    base = ["report", "builtin:noncommuting_two_tone", "--grid", "8", "--orders", "2,3"]
    outputs = []
    for argv in (base + ["--sweep", sweep], base + [f"--sweep={sweep}"]):
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        data.pop("generated_at")
        outputs.append(json.dumps(data, sort_keys=True))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["sweep"]["lambdas"] == [float(x) for x in sweep.split(",")]


def test_negative_sweep_plain_form_still_checked(capsys, no_report):
    with pytest.raises(SystemExit) as exc:
        main(["report", "builtin:scalar_single_tone", "--sweep", "-0.3,x"])
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert "--sweep" in last and "'-0.3,x'" in last


def test_memory_error_exits_3(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.98 GiB for an array with shape (100000000, 2, 2)")

    monkeypatch.setattr(effham.cli, "run_report", out_of_memory)
    assert main(["report", "builtin:scalar_single_tone", "--grid", "100000000"]) == 3
    err = capsys.readouterr().err
    assert "numerical guard" in err and "2.98 GiB" in err
    assert len(err.strip().splitlines()) == 1


def test_bare_memory_error_names_itself(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(effham.cli, "run_report", out_of_memory)
    assert main(["report", "builtin:scalar_single_tone"]) == 3
    assert capsys.readouterr().err.strip() == "effham: numerical guard: MemoryError"


@pytest.mark.parametrize("guard", [
    c for c in vars(errors).values()
    if isinstance(c, type) and issubclass(c, errors.NumericalGuardError)
], ids=lambda c: c.__name__)
def test_every_numerical_guard_exits_3_with_one_line(guard, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise guard(f"{guard.__name__} fired")  # QuadratureError's best is None

    monkeypatch.setattr(effham.cli, "run_report", fail)
    assert main(["report", "builtin:scalar_single_tone"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"effham: numerical guard: {guard.__name__} fired\n"


def _one_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, captured.err
    return lines[0]


def test_unknown_builtin_exits_2_and_lists_the_names(capsys):
    assert main(["report", "builtin:nope"]) == 2
    line = _one_line(capsys)
    assert line.startswith("effham: model error: unknown model 'nope'")
    assert all(name in line for name in effham.ZOO_NAMES)


def test_directory_as_model_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 2
    line = _one_line(capsys)
    assert line.startswith("effham: model error: cannot read") and str(tmp_path) in line


def test_model_file_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.ham"
    path.write_bytes("space q 2\n# détuning\ntone sx(q) omega = 2.0\n".encode("latin-1"))
    assert main(["report", str(path)]) == 2
    line = _one_line(capsys)
    assert line.startswith("effham: model error: not UTF-8 text") and "0xe9" in line


@pytest.mark.parametrize("option", ["--out", "--csv"])
@pytest.mark.parametrize("where", ["missing_dir/x", "a_file/x", "."])
def test_unwritable_output_exits_2_before_computing(option, where, tmp_path, capsys,
                                                    no_report):
    (tmp_path / "a_file").write_text("")
    path = str(tmp_path / where)
    assert main(["report", "builtin:scalar_single_tone", "--grid", "8", option, path]) == 2
    line = _one_line(capsys)
    assert line.startswith(f"effham: output error: cannot write {path!r}: ")
    assert "model" not in line


def test_csv_to_directory_leaves_no_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["report", "builtin:scalar_single_tone", "--grid", "8",
                 "--out", str(out), "--csv", str(tmp_path)]) == 2
    assert "Is a directory" in _one_line(capsys)
    assert not out.exists()


def test_output_error_while_writing_exits_2(tmp_path, capsys, monkeypatch):
    # a path that passes the up-front check but fails when it is opened
    monkeypatch.setattr(effham.cli, "_unwritable", lambda path: None)
    assert main(["report", "builtin:scalar_single_tone", "--grid", "8",
                 "--out", str(tmp_path)]) == 2
    line = _one_line(capsys)
    assert line == f"effham: output error: cannot write {str(tmp_path)!r}: Is a directory"


@pytest.mark.parametrize("out, csv", [("P", "P"), ("P", "./P"), ("./P", "P"),
                                      ("P", "{tmp}/P"), ("link/P", "P")])
def test_same_output_path_exits_2_and_writes_nothing(out, csv, tmp_path, monkeypatch, capsys,
                                                     no_report):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
    argv = ["report", "builtin:scalar_single_tone", "--grid", "4",
            "--out", out, "--csv", csv.format(tmp=tmp_path)]
    assert main(argv) == 2
    line = _one_line(capsys)
    assert line.startswith("effham: output error: --out ") and line.endswith("name the same file")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link"]


@pytest.mark.parametrize("option, path", [("--csv", "M.ham"), ("--out", "./M.ham")])
def test_output_path_naming_the_model_file_exits_2(option, path, tmp_path, monkeypatch, capsys,
                                                   no_report):
    monkeypatch.chdir(tmp_path)
    model = tmp_path / "M.ham"
    model.write_text("space q 2\ntone sx(q) omega = 2.0\n")
    before = model.read_bytes()
    assert main(["report", "M.ham", "--grid", "4", option, path]) == 2
    line = _one_line(capsys)
    assert line == f"effham: output error: {option} {path!r} names the model file 'M.ham'"
    assert model.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["M.ham"]


@pytest.mark.parametrize("factor, order", [("1e60", 3), ("1e200", 2)], ids=["1e60", "1e200"])
def test_sweep_factor_out_of_float_range_exits_3(factor, order, capsys):
    # 1e60 used to end in json's "Out of range float values", 1e200 in an
    # OverflowError at lam ** n; 1e60's order-2 unitarity defect, about
    # 2.5e239, fits a float, so order 3 is the first that overflows
    argv = ["report", "builtin:scalar_single_tone", "--grid", "4", "--sweep", f"0.2,{factor}"]
    assert main(argv) == 3
    line = _one_line(capsys)
    assert line.startswith(f"effham: numerical guard: sweep factor {float(factor)!r} ")
    assert f"at order {order}" in line


@pytest.mark.parametrize("tmax, refusal", [
    # the order-2 unitarity defect, about 4.2e192, fits a float; the
    # quadrature of order 3 does not
    ("1e100", "quadrature of order 3 is not finite at 272 points (order 3: last change inf)"),
    ("1e300", "on the time grid is not finite at t = "),
], ids=["1e100", "1e300"])
def test_an_overflowing_report_grid_exits_3_with_one_line(tmax, refusal, capsys):
    # numpy used to warn first, and under warnings-as-errors main raised
    assert main(["report", "builtin:jc_detuned", "--tmax", tmax]) == 3
    line = _one_line(capsys)
    assert line.startswith("effham: numerical guard: ")
    assert refusal in line


def test_coupling_whose_products_overflow_exits_3(tmp_path, capsys):
    # every order-2 product of a 1e200 coupling is infinite; such a series
    # was once dropped key by key into a zero report
    path = tmp_path / "strong.ham"
    path.write_text("space q 2\ntone 1e200 * sp(q) omega = 1.0\n")
    assert main(["report", str(path), "--grid", "4"]) == 3
    line = _one_line(capsys)
    assert line.startswith("effham: numerical guard: ")
    assert "a series coefficient is not finite" in line


# a flat chain, and chains each under the bound nested in parentheses
_FLAT_CHAIN = " + ".join(["g"] * 3000)
_NESTED_CHAIN = "(((" + ") + ".join([" + ".join(["g"] * 150)] * 4)


@pytest.mark.parametrize("chain", [_FLAT_CHAIN, _NESTED_CHAIN], ids=["flat", "nested"])
def test_long_operator_chain_exits_2_with_one_line(chain, tmp_path, capsys):
    path = tmp_path / "chain.ham"
    path.write_text(f"space q 2\nparam g = 0.1\nop x = {chain}\ntone x * sx(q) omega = 1.0\n")
    assert main(["report", str(path)]) == 2
    line = _one_line(capsys)
    assert line.startswith("effham: model error: 3:")
    assert line.endswith("expression is nested too deeply")


@pytest.mark.parametrize("text, where", [
    ("space q 2\ntone 1e400 * sx(q) omega = 1\n", "2:6"),
    ("space q 2\nparam g = 1e400\ntone g * sx(q) omega = 1\n", "2:11"),
    ("space q " + "9" * 5000 + "\ntone sx(q) omega = 1\n", "1:9"),
], ids=["tone_literal", "param_literal", "space_digits"])
def test_literal_out_of_range_exits_2_with_one_line(text, where, tmp_path, capsys):
    path = tmp_path / "big.ham"
    path.write_text(text)
    assert main(["report", str(path)]) == 2
    assert _one_line(capsys).startswith(f"effham: model error: {where}: ")


@pytest.mark.parametrize("text, where", [
    ("space q 2\ntone 1e300*1e300*sx(q) omega = 1\n", "2:11"),
    ("space q 2\ntone kron(1e200 * sx(q), 1e200 * sx(q)) omega = 1\n", "2:6"),
    ("space q 2\nop x = 1e308 * sx(q) + 1e308 * sx(q)\ntone x omega = 1\n", "2:22"),
], ids=["product", "kron", "sum"])
def test_arithmetic_overflow_exits_2_with_one_line(text, where, tmp_path, capsys):
    # finite literals whose product, kron or sum overflows: a located model
    # error, not numpy's overflow warning (an error under this suite's
    # warning filter)
    path = tmp_path / "overflow.ham"
    path.write_text(text)
    assert main(["report", str(path)]) == 2
    assert _one_line(capsys) == (
        f"effham: model error: {where}: arithmetic overflows to a non-finite value")


@pytest.mark.parametrize("omega", ["1e308", "1e307 * 6"])
def test_carrier_whose_sums_overflow_exits_2_with_one_line(omega, tmp_path, capsys):
    # the report's three-carrier sums would be infinite, which JSON refuses
    path = tmp_path / "fast.ham"
    path.write_text(f"space q 2\ntone sx(q) omega = {omega}\n")
    assert main(["report", str(path)]) == 2
    line = _one_line(capsys)
    assert line.startswith("effham: model error: ") and "overflow" in line


def test_the_parser_is_built_once_per_process():
    assert effham.cli.build_parser() is effham.cli.build_parser()


def _report_json(text):
    data = json.loads(text)
    data.pop("generated_at")
    return data


def test_in_process_reports_share_the_parser_and_no_option(capsys):
    # a run with every option set, then one with none: each writes what a
    # fresh process writes for its arguments
    full = ["report", "builtin:noncommuting_two_tone", "--grid", "8", "--orders", "2,3,4",
            "--tmax", "3.5", "--sweep", "0.5,0.25", "--tol-zero", "1e-10", "--gap-min", "1e-2"]
    bare = ["report", "builtin:noncommuting_two_tone"]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (full, bare):
        assert main(argv) == 0
        fresh = subprocess.run([sys.executable, "-m", "effham.cli", *argv], capture_output=True,
                               text=True, timeout=120, check=True, env=env)
        assert _report_json(capsys.readouterr().out) == _report_json(fresh.stdout)


@pytest.mark.parametrize("options", [[], ["--orders", "2,3,4", "--sweep", "0.4,0.2,0.1"]])
def test_report_stdout_equals_the_out_file(options, tmp_path, capsys):
    argv = ["report", "builtin:noncommuting_two_tone", *options]
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    assert main([*argv, "--out", str(tmp_path / "r.json")]) == 0
    written = (tmp_path / "r.json").read_bytes()
    generated_at = re.compile(rb'^\s*"generated_at": .*\n', re.MULTILINE)
    assert generated_at.subn(b"", printed)[1] == 1
    assert generated_at.sub(b"", printed) == generated_at.sub(b"", written)
