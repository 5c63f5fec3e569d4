import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smqdyn import classical_semimarkov, cli, nonmarkov
from smqdyn.classical_semimarkov import UnstableSolverError
from smqdyn.cli import main, parse_channel_spec, parse_wtd_spec
from smqdyn.poly_laplace import AccuracyError, RootConvergenceError
from smqdyn.renewal import SeriesTruncationError


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def read_csv(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return rows[0], rows[1:]


class TestSpecParsing:
    def test_wtd_specs(self):
        assert parse_wtd_spec("exp:2.0").rates == (2.0,)
        assert parse_wtd_spec("erlang:3:1.5").rates == (1.5, 1.5, 1.5)
        assert parse_wtd_spec("conv:1,0.5,2").rates == (1.0, 0.5, 2.0)

    def test_channel_specs(self):
        assert parse_channel_spec("phaseflip").lam == (0.0, 0.0, 0.0, 1.0)
        assert parse_channel_spec("ep").lam == (0.0, 0.5, 0.5, 0.0)
        assert parse_channel_spec("mix:0.25").lam == (0.75, 0.0, 0.0, 0.25)
        assert parse_channel_spec("pauli:0.2,0.4,0.2,0.2").lam == (0.2, 0.4, 0.2, 0.2)

    def test_bad_specs_exit_code_two(self, capsys):
        assert main(["kolmogorov", "--preset", "flip", "--wtd", "exp:-1"]) == 2
        assert main(["measures", "--channel", "bogus", "--wtd", "exp:1"]) == 2
        assert main(["qm", "--m-min", "3", "--m-max", "2"]) == 2


class TestKolmogorovCommand:
    def test_flip_oscillatory_shows_revivals(self, capsys):
        code, out = run(
            ["kolmogorov", "--preset", "flip", "--wtd", "conv:1,0.5",
             "--tmax", "25", "--points", "900", "--pairs", "3"],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "pair_id", "DK"]
        by_pair = {}
        for t, pid, dk in rows:
            by_pair.setdefault(pid, []).append(float(dk))
        for vals in by_pair.values():
            assert any(b > a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_half_preset_is_monotone(self, capsys):
        code, out = run(
            ["kolmogorov", "--preset", "half", "--wtd", "conv:1,0.5",
             "--tmax", "25", "--points", "900", "--pairs", "3"],
            capsys,
        )
        _, rows = read_csv(out)
        by_pair = {}
        for t, pid, dk in rows:
            by_pair.setdefault(pid, []).append(float(dk))
        for vals in by_pair.values():
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_flip_memoryless_is_monotone(self, capsys):
        code, out = run(
            ["kolmogorov", "--preset", "flip", "--wtd", "exp:1",
             "--tmax", "15", "--points", "400", "--pairs", "2"],
            capsys,
        )
        _, rows = read_csv(out)
        vals = [float(dk) for _, pid, dk in rows if pid == "0"]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestQmCommand:
    def test_two_stage_maxima_heights(self, tmp_path, capsys):
        out_path = tmp_path / "qm.csv"
        code = main(
            ["qm", "--m-min", "1", "--m-max", "6", "--tmax", "30",
             "--points", "100", "--out", str(out_path)]
        )
        assert code == 0
        maxima = (tmp_path / "qm.maxima.csv").read_text()
        header, rows = read_csv(maxima)
        assert header == ["m", "t_max", "height", "partial_sum"]
        m2 = [r for r in rows if r[0] == "2"]
        for n, r in enumerate(m2, start=1):
            assert float(r[1]) == pytest.approx(n * math.pi, abs=1e-9)
            assert float(r[2]) == pytest.approx(math.exp(-n * math.pi), abs=1e-10)
        assert not any(r[0] == "1" for r in rows)  # memoryless: no maxima
        firsts = [float(next(r for r in rows if r[0] == str(m))[2]) for m in range(2, 7)]
        assert all(a < b for a, b in zip(firsts, firsts[1:]))

    def test_partial_sums_accumulate(self, tmp_path):
        main(["qm", "--m-min", "2", "--m-max", "2", "--tmax", "30",
              "--points", "50", "--out", str(tmp_path / "x.csv")])
        _, rows = read_csv((tmp_path / "x.maxima.csv").read_text())
        total = 0.0
        for r in rows:
            total += float(r[2])
            assert float(r[3]) == pytest.approx(total, abs=1e-12)

    def test_erlang_28_table_is_bounded_by_one(self, tmp_path):
        code = main(["qm", "--m-min", "28", "--m-max", "28",
                     "--out", str(tmp_path / "q.csv")])
        assert code == 0
        _, rows = read_csv((tmp_path / "q.csv").read_text())
        assert len(rows) == 600
        assert max(float(r[1]) for r in rows) <= 1.0 + 1e-12


class TestSignScanCommand:
    def test_rate_ratio_mode(self, capsys):
        code, out = run(
            ["signscan", "--mode", "qr", "--x-min", "0.05", "--x-max", "0.5",
             "--x-points", "2", "--tmax", "40", "--t-points", "200"],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "lambda_t", "sign"]
        r_low = [int(r[2]) for r in rows if float(r[0]) == 0.05]
        r_mid = [int(r[2]) for r in rows if float(r[0]) == 0.5]
        assert all(s == 1 for s in r_low)
        assert any(s == -1 for s in r_mid)

    def test_mixture_mode_threshold(self, capsys):
        code, out = run(
            ["signscan", "--mode", "nu", "--x-min", "0.4", "--x-max", "0.6",
             "--x-points", "2", "--tmax", "40", "--t-points", "200",
             "--wtd", "erlang:2:1"],
            capsys,
        )
        _, rows = read_csv(out)
        below = [int(r[2]) for r in rows if float(r[0]) == 0.4]
        above = [int(r[2]) for r in rows if float(r[0]) == 0.6]
        assert all(s == 1 for s in below)
        assert any(s == -1 for s in above)


class TestTclCommand:
    def test_fig_parameters_have_always_negative_column(self, capsys):
        code, out = run(
            ["tcl", "--channel", "pauli:0.2,0.4,0.2,0.2", "--wtd", "conv:1,0.13",
             "--tmin", "0.1", "--tmax", "12", "--points", "80"],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        i_y = header.index("over_y")
        i_res = header.index("residual")
        assert all(float(r[i_y]) < 0 for r in rows)
        assert all(float(r[i_res]) < 1e-10 for r in rows)

    def test_phase_flip_memoryless_rate_is_unit(self, capsys):
        code, out = run(
            ["tcl", "--channel", "phaseflip", "--wtd", "exp:1",
             "--tmin", "0.1", "--tmax", "5", "--points", "20"],
            capsys,
        )
        header, rows = read_csv(out)
        i_z = header.index("canon_z")
        assert all(float(r[i_z]) == pytest.approx(1.0, abs=1e-9) for r in rows)

    @pytest.mark.parametrize("cmd", ["tcl", "choiscan", "measures"])
    def test_non_real_evaluation_is_a_numerical_failure(self, cmd, capsys):
        # Two map eigenvalues use mu = 1e-12: the three Erlang poles lie 1e-4
        # from -1 and their inversion is not real within tolerance.
        code = main([cmd, "--channel", "pauli:0.5000000000005,0.4999999999995,0,0",
                     "--wtd", "erlang:3:1"])
        assert code == 3
        assert "not real within tolerance" in capsys.readouterr().err


class TestChoiScanCommand:
    def test_memoryless_all_nonnegative(self, capsys):
        code, out = run(
            ["choiscan", "--channel", "ep", "--wtd", "exp:1",
             "--t-points", "30", "--s-points", "30"],
            capsys,
        )
        header, rows = read_csv(out)
        assert header == ["t", "s", "min_component", "sign", "singular"]
        assert all(int(r[3]) == 1 for r in rows)

    def test_oscillatory_dephasing_has_negative_cells(self, capsys):
        code, out = run(
            ["choiscan", "--channel", "phaseflip", "--wtd", "erlang:2:1",
             "--t-points", "40", "--s-points", "20"],
            capsys,
        )
        _, rows = read_csv(out)
        assert any(int(r[3]) == -1 for r in rows)
        t0 = [r for r in rows if float(r[0]) == 0.0]
        assert all(int(r[3]) == 1 for r in t0)


class TestMeasuresCommand:
    def test_summary_content_and_schema(self, tmp_path):
        out_path = tmp_path / "measures.json"
        code = main(
            ["measures", "--channel", "phaseflip", "--wtd", "erlang:2:1",
             "--out", str(out_path)]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        schema = json.loads(
            resources.files("smqdyn")
            .joinpath("schemas/measures_summary.schema.json")
            .read_text()
        )
        jsonschema.validate(doc, schema)
        m = doc["measures"]
        exact = 1.0 / (math.exp(math.pi) - 1.0)
        assert m["blp_analytic"]["value"] == pytest.approx(exact, abs=1e-8)
        assert m["blp_numeric"]["value"] == pytest.approx(exact, abs=1e-6)
        assert m["rhp"]["infinite"] is True and m["rhp"]["value"] is None
        assert 0.0 < m["hou"]["value"] < math.pi / 2

    def test_exchange_matches_phase_flip_value(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["measures", "--channel", "ep", "--wtd", "erlang:2:1", "--out", str(a)])
        main(["measures", "--channel", "phaseflip", "--wtd", "erlang:2:1", "--out", str(b)])
        va = json.loads(a.read_text())["measures"]["blp_numeric"]["value"]
        vb = json.loads(b.read_text())["measures"]["blp_numeric"]["value"]
        assert va == pytest.approx(vb, abs=1e-6)

    @pytest.mark.parametrize("lag", ["0", "-0.01"])
    def test_nonpositive_lag_is_a_spec_error(self, lag, capsys):
        argv = ["measures", "--channel", "ep", "--wtd", "conv:1,0.14", "--s-offset", lag]
        assert main(argv) == 2
        assert "lag must be positive" in capsys.readouterr().err

    def test_tiny_lag_finishes(self, capsys):
        # Within s of each eigenvalue zero the Hou integrand has features of
        # width s; the quadrature resolves them inside its panel cap.
        argv = ["measures", "--channel", "phaseflip", "--wtd", "conv:1,0.3",
                "--s-offset", "1e-8"]
        code, out = run(argv, capsys)
        assert code == 0
        assert 0.0 < json.loads(out)["measures"]["hou"]["value"] < 1e-6

    def test_quadrature_over_its_cap_is_a_numerical_failure(self, monkeypatch, capsys):
        # Eight open panels cannot resolve the tiny-lag integrand above.
        monkeypatch.setattr(nonmarkov, "QUAD_PANEL_CAP", 8)
        argv = ["measures", "--channel", "phaseflip", "--wtd", "conv:1,0.3",
                "--s-offset", "1e-8"]
        assert main(argv) == 3
        assert "quadrature error" in capsys.readouterr().err

    def test_has_no_format_option(self, capsys):
        argv = ["measures", "--channel", "phaseflip", "--wtd", "exp:1"]
        assert main(argv + ["--format", "csv"]) == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    def test_channel_with_a_zero_eigenvalue(self, capsys):
        # mu_z = 0.1 - 0.3 - 0.2 + 0.4 must be an exact 0, not its rounding 2.8e-17.
        argv = ["measures", "--channel", "pauli:0.1,0.3,0.2,0.4", "--wtd", "erlang:3:1"]
        code, out = run(argv, capsys)
        assert code == 0
        assert json.loads(out)["measures"]["rhp"]["infinite"] is True

    def test_memoryless_all_measures_vanish(self, tmp_path):
        out = tmp_path / "m.json"
        main(["measures", "--channel", "mix:0.8", "--wtd", "exp:1", "--out", str(out)])
        m = json.loads(out.read_text())["measures"]
        assert m["blp_numeric"]["value"] == 0.0
        assert m["blp_analytic"]["value"] == 0.0
        assert m["hou"]["value"] == 0.0
        assert m["rhp"]["infinite"] is False and m["rhp"]["value"] == 0.0


class TestDeterminismAndOutput:
    def test_fmt_all_formats_like_fmt(self):
        values = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, 0.1 + 0.2, 1e17]
        for x in (np.array(values), np.array([])):
            assert cli._fmt_all(x) == [format(float(v), ".12g") for v in x]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["qm", "--m-max", "4", "--points", "50"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_header_line_carries_version_and_config(self, capsys):
        _, out = run(["qm", "--m-max", "2", "--points", "5"], capsys)
        first = out.splitlines()[0]
        assert first.startswith("# smqdyn 0.1.0 config={")
        assert '"command":"qm"' in first

    @pytest.mark.parametrize(
        "argv, config",
        [
            (
                ["kolmogorov", "--preset", "flip", "--wtd", "conv:1,0.5", "--tmax", "2",
                 "--points", "3", "--pairs", "1"],
                '{"command":"kolmogorov","pairs":1,"points":3,"preset":"flip",'
                '"tmax":2.0,"wtd":"conv:1,0.5"}',
            ),
            (
                ["qm", "--m-max", "2", "--points", "3"],
                '{"command":"qm","m_max":2,"m_min":1,"points":3,"rate":1.0,'
                '"tmax":30.0}',
            ),
            (
                ["signscan", "--mode", "qr", "--x-min", "0.5", "--x-max", "1",
                 "--x-points", "2", "--tmax", "2", "--t-points", "2"],
                '{"command":"signscan","mode":"qr","rate":1.0,"t_points":2,'
                '"tmax":2.0,"wtd":null,"x_max":1.0,"x_min":0.5,"x_points":2}',
            ),
            (
                ["signscan", "--mode", "nu", "--x-min", "0", "--x-max", "1",
                 "--x-points", "2", "--tmax", "2", "--t-points", "2"],
                '{"command":"signscan","mode":"nu","rate":1.0,"t_points":2,'
                '"tmax":2.0,"wtd":"erlang:2:1","x_max":1.0,"x_min":0.0,"x_points":2}',
            ),
            (
                ["tcl", "--channel", "phaseflip", "--wtd", "erlang:2:1",
                 "--points", "2"],
                '{"channel":"phaseflip","command":"tcl","points":2,"tmax":12.0,'
                '"tmin":0.02,"wtd":"erlang:2:1"}',
            ),
            (
                ["choiscan", "--channel", "ep", "--wtd", "erlang:2:1",
                 "--t-points", "2", "--s-points", "2"],
                '{"channel":"ep","command":"choiscan","s_points":2,"smax":3.0,'
                '"t_points":2,"tmax":6.0,"wtd":"erlang:2:1"}',
            ),
        ],
    )
    def test_golden_header_lines(self, argv, config, capsys):
        _, out = run(argv, capsys)
        assert out.splitlines()[0] == "# smqdyn 0.1.0 config=" + config
        _, out = run(argv + ["--format", "json"], capsys)
        assert json.loads(out)["config"] == json.loads(config)
        assert main(argv + ["--seed", "0"]) == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_golden_measures_config(self, capsys):
        argv = ["measures", "--channel", "mix:0.8", "--wtd", "exp:1"]
        _, out = run(argv, capsys)
        assert json.loads(out)["config"] == {
            "channel": "mix:0.8", "command": "measures",
            "s_offset": None, "window": None, "wtd": "exp:1",
        }
        assert main(argv + ["--seed", "0"]) == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, smqdyn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SMQDYN_OUTDIR", str(tmp_path))
        main(["qm", "--m-max", "2", "--points", "5", "--out", "rel.csv"])
        assert (tmp_path / "rel.csv").exists()

    def test_json_format(self, capsys):
        code, out = run(
            ["signscan", "--mode", "qr", "--x-min", "0.5", "--x-max", "0.5",
             "--x-points", "1", "--tmax", "5", "--t-points", "3",
             "--format", "json"],
            capsys,
        )
        doc = json.loads(out)
        assert doc["tool"] == "smqdyn"
        assert doc["config"]["mode"] == "qr"


# Each table command with, per grid, the options of its bounds and of its count.
GRIDS = [
    (["kolmogorov", "--preset", "flip", "--wtd", "conv:1,0.3"], ["--tmax"], "--points"),
    (["qm", "--m-max", "2"], ["--tmax"], "--points"),
    (["signscan", "--mode", "qr", "--x-min", "0.02", "--x-max", "7"], ["--tmax"], "--t-points"),
    (["signscan", "--mode", "nu", "--x-min", "0", "--x-max", "1"], ["--x-max"], "--x-points"),
    (["tcl", "--channel", "ep", "--wtd", "conv:1,0.14"], ["--tmin", "--tmax"], "--points"),
    (["choiscan", "--channel", "ep", "--wtd", "conv:1,0.14"], ["--tmax"], "--t-points"),
    (["choiscan", "--channel", "ep", "--wtd", "conv:1,0.14"], ["--smax"], "--s-points"),
]
EMPTY_OR_NON_FINITE_GRIDS = [
    base + [f"{bound}={value}"]
    for base, bounds, _ in GRIDS
    for bound in bounds
    for value in ("nan", "inf", "-inf")
] + [base + [count, "0"] for base, _, count in GRIDS]


class TestMeasureWindowValidation:
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--window", "0"], "window must satisfy"),
            (["--window", "inf"], "window must satisfy"),
            (["--window", "-2"], "window must satisfy"),
            (["--s-offset", "inf"], "lag must be positive"),
            (["--s-offset", "nan"], "lag must be positive"),
        ],
    )
    def test_bad_window_or_lag_is_a_spec_error(self, extra, message, capsys):
        argv = ["measures", "--channel", "ep", "--wtd", "conv:1,0.14"] + extra
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", EMPTY_OR_NON_FINITE_GRIDS, ids=" ".join)
    def test_empty_or_nan_scan_is_a_spec_error(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "non-empty and finite" in err and "Traceback" not in err

    # erlang:5:1 has enough eigenvalue zeros that np.isin took its sorting path
    @pytest.mark.parametrize("wtd", ["erlang:2:1", "erlang:5:1"])
    def test_measures_do_not_import_numpy_ma(self, tmp_path, wtd):
        out = tmp_path / "m.json"
        code = (
            "import sys; from smqdyn.cli import main; "
            f"code = main(['measures', '--channel', 'phaseflip', '--wtd', {wtd!r}, "
            f"'--out', {str(out)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.split() == ["0", "False"]
        assert json.loads(out.read_text())["measures"]["hou"]["value"] > 0.0


class TestNumericalFailureExit:
    @pytest.mark.parametrize(
        "module, func, error, argv",
        [
            (classical_semimarkov, "witness_contractivity", UnstableSolverError,
             ["kolmogorov", "--preset", "flip", "--wtd", "exp:1", "--points", "5"]),
            (cli, "find_extrema", SeriesTruncationError,
             ["qm", "--m-max", "2", "--points", "5"]),
            (nonmarkov, "divisibility_scan", RootConvergenceError,
             ["choiscan", "--channel", "phaseflip", "--wtd", "exp:1"]),
            (nonmarkov, "hou_measure", AccuracyError,
             ["measures", "--channel", "phaseflip", "--wtd", "exp:1", "--window", "5"]),
        ],
        ids=["UnstableSolverError", "SeriesTruncationError", "RootConvergenceError",
             "AccuracyError"],
    )
    def test_each_error_class_exits_three(self, module, func, error, argv, monkeypatch,
                                          capsys):
        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(module, func, fail)
        assert main(argv) == 3
        assert "numerical failure: injected" in capsys.readouterr().err


# Prints the exit code, then every smqdyn submodule loaded by one command.
_LOADED_BY_COMMAND = (
    "import contextlib, io, sys\n"
    "from smqdyn.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(code, *sorted(m for m in sys.modules if m.startswith('smqdyn.')))\n"
)


def _loaded_layers(argv: list[str]) -> tuple[int, set[str]]:
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_COMMAND, *argv],
        capture_output=True, text=True, check=True,
    )
    code, *modules = proc.stdout.split()
    return int(code), {m.removeprefix("smqdyn.") for m in modules}


class TestImportIsolation:
    def test_package_import_loads_no_submodule(self):
        code = "import sys, smqdyn; print([m for m in sys.modules if m.startswith('smqdyn.')])"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "argv, needed, unused",
        [
            (["qm", "--m-max", "2", "--points", "5"], set(),
             {"nonmarkov", "qubit", "classical_semimarkov", "montecarlo"}),
            (["signscan", "--mode", "nu", "--x-min", "0", "--x-max", "1",
              "--x-points", "2", "--t-points", "3"], set(),
             {"nonmarkov", "qubit", "classical_semimarkov", "montecarlo"}),
            (["kolmogorov", "--preset", "flip", "--wtd", "conv:1,0.3", "--points", "5",
              "--pairs", "1"], {"classical_semimarkov"},
             {"nonmarkov", "qubit", "montecarlo"}),
            (["tcl", "--channel", "phaseflip", "--wtd", "conv:1,0.3", "--points", "3"],
             {"nonmarkov"}, {"classical_semimarkov", "montecarlo"}),
            (["choiscan", "--channel", "ep", "--wtd", "erlang:2:1", "--t-points", "3",
              "--s-points", "3"], {"nonmarkov"}, {"classical_semimarkov", "montecarlo"}),
            (["measures", "--channel", "phaseflip", "--wtd", "erlang:2:1",
              "--window", "5"], {"nonmarkov"}, {"classical_semimarkov", "montecarlo"}),
        ],
        ids=["qm", "signscan", "kolmogorov", "tcl", "choiscan", "measures"],
    )
    def test_command_loads_only_its_layers(self, argv, needed, unused):
        code, loaded = _loaded_layers(argv)
        assert code == 0
        assert needed <= loaded
        assert not loaded & unused


SRC = Path(cli.__file__).resolve().parents[1]


def _command(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's package, as a command process."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env={**os.environ, "PYTHONPATH": path}
    )


def _console_script(argv: list[str]) -> subprocess.CompletedProcess:
    """What the installed ``smqdyn`` script runs: ``sys.exit(entry())``."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    entry = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]["scripts"]
    module, func = entry["smqdyn"].split(":")
    body = f"import sys; from {module} import {func}; sys.argv[1:] = {argv!r}; sys.exit({func}())"
    return _command("-c", body)


# Prints the exit code; whether collection was on when main parsed its flags
# and after it exited; whether the heap was frozen at the parse and frozen
# further at the exit; and the collections that ran while numpy or the
# smqdyn layers imported.
_COLLECTOR_PROBE = (
    "import argparse, gc, runpy, sys\n"
    "during_imports, state = [], lambda: (gc.isenabled(), gc.get_freeze_count())\n"
    "gc.callbacks.append(lambda phase, info: phase == 'start' and 'numpy' in sys.modules\n"
    "    and 'smqdyn.waiting_time' not in sys.modules and during_imports.append(info))\n"
    "parse = argparse.ArgumentParser.parse_args\n"
    "def probed(*args):\n"
    "    global at_parse\n"
    "    at_parse = state()\n"
    "    return parse(*args)\n"
    "argparse.ArgumentParser.parse_args = probed\n"
    "sys.argv[1:] = ['qm', '--m-max', '2', '--points', '5']\n"
    "try:\n"
    "    runpy.run_module('smqdyn.cli', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    (on, frozen), (still_on, frozen_at_exit) = at_parse, state()\n"
    "    print(exc.code, on, still_on, 0 < frozen < frozen_at_exit, during_imports)\n"
)


class TestCommandProcess:
    def test_module_run_writes_the_golden_bytes(self):
        from test_cli_golden import CASES, GOLDEN

        proc = _command("-m", "smqdyn.cli", *CASES["tcl_ep"], "--format", "csv")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == (GOLDEN / "tcl_ep.csv").read_bytes()

    def test_console_script_writes_the_module_run_bytes(self):
        argv = ["measures", "--channel", "ep", "--wtd", "conv:1,0.14"]
        script, module = _console_script(argv), _command("-m", "smqdyn.cli", *argv)
        assert script.returncode == module.returncode == 0
        assert script.stdout == module.stdout and script.stderr == module.stderr == b""

    def test_bad_spec_exits_two_with_the_in_process_stderr(self, capsys):
        argv = ["tcl", "--channel", "ep", "--wtd", "conv:1,0.14", "--tmax", "nan"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        for proc in (_command("-m", "smqdyn.cli", *argv), _console_script(argv)):
            assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", err)

    def test_run_as_main_collects_after_its_imports_and_freezes(self):
        proc = _command("-c", _COLLECTOR_PROBE)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().splitlines()[-1] == "0 True True True []"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["qm", "--m-max", "2", "--points", "5"], 0),
            (["qm", "--m-min", "3", "--m-max", "2"], 2),
            (["choiscan", "--channel", "phaseflip", "--wtd", "exp:1"], 3),
        ],
        ids=["exit0", "exit2", "exit3"],
    )
    def test_in_process_main_leaves_the_collector_alone(self, argv, code, monkeypatch,
                                                        capsys):
        def fail(*args, **kwargs):
            raise RootConvergenceError("injected")

        monkeypatch.setattr(nonmarkov, "divisibility_scan", fail)
        before = gc.isenabled(), gc.get_freeze_count()
        assert main(argv) == code
        assert (gc.isenabled(), gc.get_freeze_count()) == before
