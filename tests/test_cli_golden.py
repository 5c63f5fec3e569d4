"""Byte-exact stdout of every table command at small sizes, in CSV and JSON.

The files under ``golden/`` hold the output these commands printed before
their tables were vectorised; any change to a digit, a signed zero or an
empty cell shows here.
"""

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
