import json

import pytest

import effham.cli
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


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ham"
    bad.write_text("space q 2\ntone sx(q) omega = -3.0\n")
    assert main(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "positive" in err


def test_guard_error_exits_3(monkeypatch, capsys):
    monkeypatch.setenv("EFFHAM_MAX_TERMS", "20")
    assert main(["report", "builtin:noncommuting_two_tone", "--grid", "8"]) == 3
    assert "numerical guard" in capsys.readouterr().err


def test_bad_term_budget_exits_3(monkeypatch, capsys):
    monkeypatch.setenv("EFFHAM_MAX_TERMS", "abc")
    assert main(["report", "builtin:scalar_single_tone", "--grid", "8"]) == 3
    err = capsys.readouterr().err
    assert "numerical guard" in err and "'abc'" in err
    assert len(err.strip().splitlines()) == 1


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
