"""Byte-exact stdout of every table command at small sizes, in CSV and JSON,
and the `measures` summary to 1e-10.

The files under ``golden/`` hold the output these commands printed before
their tables were vectorised; any change to a digit, a signed zero or an
empty cell shows here.  The measures files were recorded before the
evaluation kernel and root refinement were trimmed.
"""

import json
import math
from pathlib import Path

import pytest

from smqdyn.cli import main

GOLDEN = Path(__file__).with_name("golden")

# 6.091769806591582 is the zero of lam_x = lam_y for phaseflip/conv:1,0.3, so
# the tcl run starts on a singular row and the choiscan middle row is singular.
CASES = {
    "kolmogorov_flip": ["kolmogorov", "--preset", "flip", "--wtd", "conv:1,0.3",
                        "--tmax", "8", "--points", "9", "--pairs", "2"],
    "kolmogorov_half": ["kolmogorov", "--preset", "half", "--wtd", "erlang:2:1.5",
                        "--tmax", "5", "--points", "6", "--pairs", "3"],
    "qm": ["qm", "--m-min", "1", "--m-max", "3", "--tmax", "12", "--points", "7"],
    "signscan_qr": ["signscan", "--mode", "qr", "--x-min", "0.02", "--x-max", "7",
                    "--x-points", "5", "--tmax", "10", "--t-points", "6",
                    "--rate", "2"],
    "signscan_nu": ["signscan", "--mode", "nu", "--x-min", "0", "--x-max", "1",
                    "--x-points", "4", "--tmax", "10", "--t-points", "6",
                    "--wtd", "erlang:2:1.3"],
    "tcl_ep": ["tcl", "--channel", "ep", "--wtd", "conv:1,0.14", "--points", "9"],
    "tcl_pauli": ["tcl", "--channel", "pauli:0.4,0.3,0.2,0.1", "--wtd", "erlang:2:2",
                  "--points", "7"],
    "tcl_singular": ["tcl", "--channel", "phaseflip", "--wtd", "conv:1,0.3",
                     "--tmin", "6.091769806591582", "--tmax", "9", "--points", "5"],
    "choiscan_ep": ["choiscan", "--channel", "ep", "--wtd", "conv:1,0.14",
                    "--t-points", "5", "--s-points", "4"],
    "choiscan_singular": ["choiscan", "--channel", "phaseflip", "--wtd", "conv:1,0.3",
                          "--tmax", "12.183539613183164", "--t-points", "3",
                          "--s-points", "4"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_table_output_is_byte_identical(name, fmt, capsys):
    assert main(CASES[name] + ["--format", fmt]) == 0
    expected = (GOLDEN / f"{name}.{fmt}").read_text()
    assert capsys.readouterr().out == expected


MEASURES = {
    "measures_phaseflip": ["--channel", "phaseflip", "--wtd", "conv:1,0.3"],
    "measures_ep": ["--channel", "ep", "--wtd", "conv:1,0.14"],
    "measures_pauli": ["--channel", "pauli:0.3,0.3,0.1,0.3", "--wtd", "erlang:2:1"],
}


def _assert_close(got, want, where):
    """Same keys and lengths, numbers within 1e-10 relative (the files print
    full reprs, whose last bits may differ on other CPUs), and notes equal up
    to the quadrature error estimate."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{k}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=0.0), (where, got, want)
    elif where.endswith(".note"):
        assert got.split("quad_err=")[0] == want.split("quad_err=")[0], where
    else:
        assert got == want, where


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_measures_summary_matches_golden(name, capsys):
    assert main(["measures"] + MEASURES[name]) == 0
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    _assert_close(json.loads(capsys.readouterr().out), expected, name)
