"""Command-line interface tests: outputs, schemas, exit codes."""

import csv
import json

import numpy as np
import pytest

from chebpint import cli
from chebpint.cli import main


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _strict_json(path):
    """The JSON of `path`, refused if it holds NaN or Infinity, which
    RFC 8259 does not allow."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(path.read_text(), parse_constant=refuse)


def _exit_code(argv):
    """main's exit code, whether main returns it or argparse exits with it
    (a value refused by its flag's type)."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------- decompose

def test_decompose_n1_trivial(tmp_path):
    out = tmp_path / "d.csv"
    code = main(["decompose", "--n", "1", "--skip-reference",
                 "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["cond2"]) == pytest.approx(1.0)
    assert float(rows[0]["omega_fast"]) < 1e-15


def test_decompose_n64_table_scale(tmp_path):
    out = tmp_path / "d.csv"
    code = main(["decompose", "--n", "64", "--out", str(out)])
    assert code == 0
    row = _read_csv(out)[0]
    assert int(row["newton_iters_max"]) <= 7
    assert float(row["omega_fast"]) <= 1e-11
    assert float(row["omega_ref"]) <= 1e-11
    assert float(row["eta"]) <= 1e-12


def test_decompose_row_reports_layer_times(tmp_path):
    out = tmp_path / "d.json"
    code = main(["decompose", "--n", "16", "--skip-reference", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    row = json.loads(out.read_text())["rows"][0]
    for phase in ("find_roots", "build_V", "build_Vinv_fast", "cond2", "residual"):
        assert row[f"{phase}_seconds"] >= 0.0


@pytest.mark.parametrize("flag", ["--out"])
def test_decompose_unwritable_path_exits_1(tmp_path, capsys, flag):
    # the decomposition is computed before the write fails: one line, no
    # traceback
    path = tmp_path / "missing" / "d.csv"
    code = main(["decompose", "--n", "8", "--skip-reference", flag, str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("chebpint: ") and str(path) in err
    assert err.count("\n") == 1


def test_decompose_rejects_zero_dt(capsys):
    # --dt 0 is a value given, not an absent flag: no fallback to 1/n
    code = _exit_code(["decompose", "--n", "8", "--dt", "0", "--skip-reference"])
    assert code == 1
    assert "argument --dt: must be positive" in capsys.readouterr().err


# -------------------------------------------------------------- convergence

def test_convergence_heat_small(tmp_path):
    out = tmp_path / "c.json"
    code = main(["convergence", "--kind", "heat", "--m", "256",
                 "--n-list", "8,16,32", "--T", "2.0",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    payload = _strict_json(out)
    assert payload["config"]["command"] == "convergence"
    rows = payload["rows"]
    assert [r["n"] for r in rows] == [8, 16, 32]
    assert rows[0]["order"] is None      # no order without a coarser run
    orders = [r["order"] for r in rows[1:]]
    assert all(1.7 <= o <= 2.3 for o in orders)


def test_convergence_csv_round_trips_exactly(tmp_path):
    # numerical outputs are deterministic for a fixed config (timings are
    # not), and the CSV encoding must reproduce them bit-exactly
    out_csv = tmp_path / "c.csv"
    out_json = tmp_path / "c.json"
    for path, fmt in ((out_csv, "csv"), (out_json, "json")):
        code = main(["convergence", "--kind", "heat", "--m", "64",
                     "--n-list", "8,16", "--format", fmt, "--out", str(path)])
        assert code == 0
    json_rows = json.loads(out_json.read_text())["rows"]
    csv_rows = _read_csv(out_csv)
    for jr, cr in zip(json_rows, csv_rows):
        for key, val in jr.items():
            if "seconds" in key:
                continue
            if isinstance(val, float) and not np.isnan(val):
                assert float(cr[key]) == val   # exact float round trip
            elif isinstance(val, int):
                assert int(cr[key]) == val


def test_convergence_wave_is_second_order(tmp_path):
    # the second-order driver's path; orders 2.54 and 2.14 were measured
    out = tmp_path / "w.json"
    code = main(["convergence", "--kind", "wave", "--m", "256",
                 "--n-list", "16,32,64", "--format", "json", "--out", str(out)])
    assert code == 0
    rows = _strict_json(out)["rows"]
    assert [(r["kind"], r["n"], r["m"]) for r in rows] == [
        ("wave", 16, 256), ("wave", 32, 256), ("wave", 64, 256)]
    assert rows[0]["order"] is None
    assert 2.3 <= rows[1]["order"] <= 2.8
    assert 1.9 <= rows[2]["order"] <= 2.4
    assert all(r["iterations"] == 1 and r["residual"] < 1e-12 for r in rows)


def test_convergence_semilinear_reports_iterations(tmp_path):
    out = tmp_path / "s.json"
    code = main(["convergence", "--kind", "semilinear", "--m", "144",
                 "--n-list", "8,16", "--format", "json", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert all(2 <= r["iterations"] <= 12 for r in rows)
    assert abs(rows[0]["iterations"] - rows[1]["iterations"]) <= 2
    # every sweep takes at least one fixed-point update per representative
    # shift; the ceil(n/2) representatives are the only shifts solved
    assert all(r["inner_updates"] >= r["iterations"] * ((r["n"] + 1) // 2)
               for r in rows)
    assert all(r["fallbacks"] == 0 for r in rows)


def test_convergence_rejects_non_square_m(capsys):
    code = _exit_code(["convergence", "--kind", "heat", "--m", "65",
                       "--n-list", "4"])
    assert code == 1
    assert "argument --m: must be a perfect square" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["convergence", "--kind", "heat", "--n-list", "4"],
    ["bench", "--kind", "heat", "--n", "4", "--workers-list", "1"],
])
def test_negative_m_is_not_a_perfect_square(argv, capsys):
    # a negative --m has no square root: the same message as any other
    # non-square, not a failed float-to-int conversion
    assert _exit_code(argv + ["--m", "-4"]) == 1
    err = capsys.readouterr().err
    assert "argument --m: must be a perfect square >= 1, got '-4'" in err


@pytest.mark.parametrize("argv", [
    ["convergence", "--kind", "heat", "--n-list", "4"],
    ["bench", "--kind", "heat", "--n", "4", "--workers-list", "1"],
])
def test_zero_m_names_the_flag(argv, capsys):
    # 0 is a perfect square, but no grid: the message names --m, not the
    # library's points_per_dim
    assert _exit_code(argv + ["--m", "0"]) == 1
    err = capsys.readouterr().err
    assert err.count("chebpint:") == 1
    assert "argument --m: must be a perfect square >= 1, got '0'" in err
    assert "points_per_dim" not in err and "Traceback" not in err


# -------------------------------------------------------- compare-geometric

def test_compare_geometric_small(tmp_path):
    out = tmp_path / "g.json"
    code = main(["compare-geometric", "--n-max", "8", "--m", "32",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["n"] for r in rows] == list(range(4, 9))
    for r in rows:
        assert np.isfinite(r["new_error"])
        assert np.isfinite(r["timestep_error"])
        assert r["new_cond2"] < r["geo_cond2"]


def test_compare_geometric_failure_row(tmp_path):
    # at tau = 1.001 the geometric eigenvector matrix is singular by n = 70:
    # that row names the failure and writes its geometric columns as null
    # (nan in CSV), while the other two methods still report
    paths = {fmt: tmp_path / f"g.{fmt}" for fmt in ("json", "csv")}
    for fmt, path in paths.items():
        assert main(["compare-geometric", "--tau", "1.001", "--n-max", "70",
                     "--m", "8", "--format", fmt, "--out", str(path)]) == 0
    rows = _strict_json(paths["json"])["rows"]
    assert [r["n"] for r in rows] == list(range(4, 71))
    assert [r["n"] for r in rows if "geo_failure" in r] == [70]
    last = rows[-1]
    assert last["geo_failure"] == "SingularMatrixError"
    assert last["geo_error"] is None and last["geo_cond2"] is None
    assert np.isfinite(last["new_error"]) and np.isfinite(last["timestep_error"])
    csv_last = _read_csv(paths["csv"])[-1]
    assert csv_last["geo_failure"] == "SingularMatrixError"
    assert np.isnan(float(csv_last["geo_error"]))


# -------------------------------------------------------------------- bench

def test_bench_reports_speedup_columns(tmp_path):
    out = tmp_path / "b.json"
    code = main(["bench", "--kind", "heat", "--m", "256", "--n", "8",
                 "--workers-list", "1,2", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert rows[0]["workers"] == 1
    assert rows[0]["speedup"] == pytest.approx(1.0)
    assert rows[0]["strong_eff"] == pytest.approx(100.0)
    assert rows[0]["weak_eff"] == pytest.approx(100.0)
    assert {"step_a_seconds", "step_b_seconds", "step_c_seconds"} <= set(rows[0])
    assert rows[0]["inner_updates"] == rows[0]["fallbacks"] == 0


def test_bench_wave(tmp_path):
    out = tmp_path / "b.json"
    code = main(["bench", "--kind", "wave", "--m", "256", "--n", "16",
                 "--workers-list", "1,2", "--format", "json", "--out", str(out)])
    assert code == 0
    rows = _strict_json(out)["rows"]
    assert [(r["kind"], r["workers"], r["n"], r["weak_n"]) for r in rows] == [
        ("wave", 1, 16, 2), ("wave", 2, 16, 4)]
    # the worker count does not change the solution
    assert rows[0]["error"] == rows[1]["error"] < 0.2
    assert all(r["iterations"] == 1 for r in rows)


def test_bench_rejects_bad_worker_list(capsys):
    assert _exit_code(["bench", "--kind", "heat", "--m", "64", "--n", "4",
                       "--workers-list", "2,1"]) == 1
    assert "argument --workers-list: must be ascending" in capsys.readouterr().err


def test_bench_honours_max_iter():
    # one simplified Newton sweep cannot reach the default tolerance
    assert main(["bench", "--kind", "semilinear", "--m", "16", "--n", "4",
                 "--workers-list", "1", "--max-iter", "1"]) == 2


# --------------------------------------------------------------- exit codes

def test_exit_code_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])          # missing required --n
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["decompose", "--n", "4", "--workers", "2"],
    ["compare-geometric", "--tol", "1e-8"],
    ["compare-geometric", "--max-iter", "3"],
    # a prefix of a longer flag is not that flag
    ["convergence", "--kind", "heat", "--m", "16", "--n", "8"],
    ["bench", "--kind", "heat", "--m", "16", "--workers", "2"],
    # decompose writes no file but --out's
    ["decompose", "--n", "8", "--skip-reference", "--dump", "x.bin"],
])
def test_exit_code_unread_flag(argv):
    # each subcommand accepts only the flags it reads, spelled out in full
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_exit_code_bad_n_list():
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--kind", "heat", "--n-list", "a,b"])
    assert exc.value.code == 1


# the refused flag is the last one given
@pytest.mark.parametrize("argv", [
    ["convergence", "--kind", "semilinear", "--m", "16", "--n-list", "4",
     "--max-iter", "0"],
    ["convergence", "--kind", "heat", "--m", "16", "--n-list", "0"],
    ["decompose", "--skip-reference", "--n", "0"],
    ["decompose", "--skip-reference", "--n", "-3"],
    # the second-order rhs needs two steps: the one check made after parsing
    ["convergence", "--kind", "wave", "--m", "16", "--n-list", "1"],
    ["bench", "--kind", "wave", "--m", "16", "--workers-list", "1", "--n", "1"],
    # the periodic grid needs three points, checked before dx = 2 / m
    ["compare-geometric", "--n-max", "4", "--m", "0"],
    ["compare-geometric", "--n-max", "4", "--m", "2"],
])
def test_exit_code_empty_budget_or_grid(argv, capsys):
    assert _exit_code(argv) == 1
    err = capsys.readouterr().err
    assert err.count("chebpint:") == 1 and err.endswith("\n")
    assert argv[-2] in err and "Traceback" not in err


# the refused flag is the last one given
@pytest.mark.parametrize("argv", [
    ["decompose", "--n", "8", "--skip-reference", "--dt", "nan"],
    ["convergence", "--kind", "heat", "--m", "16", "--n-list", "4", "--T", "inf"],
    ["convergence", "--kind", "semilinear", "--m", "16", "--n-list", "4",
     "--tol", "nan"],
])
def test_exit_code_non_finite_input(argv, capsys):
    assert _exit_code(argv) == 1
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be positive and finite" in err


@pytest.mark.parametrize("argv", [
    ["compare-geometric", "--tau", "nan"],
    ["compare-geometric", "--tau", "inf"],
    ["compare-geometric", "--dt-last", "nan"],
    ["compare-geometric", "--dt-last", "-1"],
    # the table starts at n = 4: a smaller --n-max would print no rows
    ["compare-geometric", "--n-max", "3"],
])
def test_exit_code_bad_geometric_grid(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


#: a small valid call of each subcommand, and its numeric flags: True for
#: the integer ones
_CALLS = {
    "decompose": (["decompose", "--n", "4", "--skip-reference"],
                  {"--n": True, "--tol": False, "--max-iter": True, "--dt": False}),
    "convergence": (["convergence", "--m", "16", "--n-list", "4"],
                    {"--tol": False, "--max-iter": True, "--m": True,
                     "--n-list": True, "--T": False, "--workers": True}),
    "compare-geometric": (["compare-geometric", "--n-max", "4", "--m", "8"],
                          {"--tau": False, "--dt-last": False, "--n-max": True,
                           "--m": True, "--workers": True}),
    "bench": (["bench", "--m", "16", "--n", "4", "--workers-list", "1"],
              {"--tol": False, "--max-iter": True, "--m": True, "--n": True,
               "--T": False, "--workers-list": True}),
}


def _bad_numeric_flags():
    for command, (argv, flags) in _CALLS.items():
        kinds = [["--kind", kind] for kind in ("heat", "wave", "semilinear")]
        for kind in kinds if command in ("convergence", "bench") else [[]]:
            for flag, integer in flags.items():
                for value in ("0", "-1", "nan", "inf") + (("2.5",) if integer else ()):
                    name = " ".join([command] + kind[1:] + [flag, value])
                    yield pytest.param(argv + kind + [flag, value], flag, id=name)


@pytest.mark.parametrize("argv, flag", _bad_numeric_flags())
def test_exit_code_bad_numeric_flag(argv, flag, capsys):
    # every numeric flag of every subcommand and kind, with a value no flag
    # accepts (2.5 for the integer ones): exit 1, the usage and one line,
    # before any solve, that names the flag; --tol and --max-iter are named
    # as flags, whichever kind reads them
    code = _exit_code(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("chebpint:") == 1 and "Traceback" not in err
    assert err.startswith("usage: chebpint ")
    assert f"chebpint: invalid arguments: argument {flag}: " in err
    assert "max_iter" not in err


def test_exit_code_numerical_failure():
    # unreachable tolerance forces the simplified Newton loop over budget
    code = main(["convergence", "--kind", "semilinear", "--m", "16",
                 "--n-list", "4", "--tol", "1e-300", "--max-iter", "3"])
    assert code == 2


def test_memory_error_is_one_line(monkeypatch, capsys):
    # the last resort for a size no memory guard counts: no traceback
    def out_of_memory(args):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(cli, "cmd_compare_geometric", out_of_memory)
    assert main(["compare-geometric"]) == 1
    err = capsys.readouterr().err
    assert err == "chebpint: out of memory: Unable to allocate 745. GiB\n"


def test_workers_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("CHEBPINT_WORKERS", "3")
    out = tmp_path / "c.json"
    code = main(["convergence", "--kind", "heat", "--m", "64",
                 "--n-list", "4", "--format", "json", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert rows[0]["workers"] == 3


@pytest.mark.parametrize("argv", [
    ["convergence", "--kind", "heat", "--m", "16", "--n-list", "4"],
    ["compare-geometric", "--n-max", "4", "--m", "8"],
])
@pytest.mark.parametrize("flag, env", [
    ("0", None), ("-3", None), (None, "abc"), (None, "0"), (None, "-2"),
])
def test_exit_code_bad_workers(argv, flag, env, monkeypatch, capsys):
    bad = flag if flag is not None else env
    if env is None:
        monkeypatch.delenv("CHEBPINT_WORKERS", raising=False)
    else:
        monkeypatch.setenv("CHEBPINT_WORKERS", env)
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--workers", flag] if flag is not None else []))
    assert exc.value.code == 1
    assert f"got '{bad}'" in capsys.readouterr().err


def test_decompose_ignores_workers_env(monkeypatch):
    monkeypatch.setenv("CHEBPINT_WORKERS", "abc")
    assert main(["decompose", "--n", "4", "--skip-reference"]) == 0
