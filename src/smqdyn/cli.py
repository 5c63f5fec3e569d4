"""Command-line front end emitting machine-readable data for each result class.

All commands express time as the dimensionless product of the waiting-time
rate scale (the first rate of the distribution spec) with physical time, and
emit either RFC-4180-style CSV (with a leading ``#`` comment line carrying
the tool version and the full configuration echo) or JSON.  Identical flags
produce byte-identical output.

Spec syntaxes:
    waiting time   exp:RATE | erlang:M:RATE | conv:R1,R2,...
    channel        phaseflip | ep | mix:NU | pauli:L0,LX,LY,LZ
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import __version__

# Every command runs these layers; each imports the rest it runs
# (classical_semimarkov, qubit, nonmarkov) itself, so a process loads only those.
from .poly_laplace import evaluate_all
from .renewal import CP_FLOOR, even_odd_difference, find_extrema, generating_function
from .waiting_time import HypoExpWTD

if TYPE_CHECKING:
    from .qubit import PauliChannel

__all__ = ["main", "parse_wtd_spec", "parse_channel_spec"]

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_NUMERICAL = 3


class SpecParseError(ValueError):
    pass


def parse_wtd_spec(spec: str) -> HypoExpWTD:
    try:
        kind, _, rest = spec.partition(":")
        if kind == "exp":
            return HypoExpWTD.exponential(float(rest))
        if kind == "erlang":
            m, _, rate = rest.partition(":")
            return HypoExpWTD.erlang(int(m), float(rate))
        if kind == "conv":
            return HypoExpWTD([float(x) for x in rest.split(",")])
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"bad waiting-time spec {spec!r}: {exc}") from exc
    raise SpecParseError(f"unknown waiting-time spec {spec!r}")


def parse_channel_spec(spec: str) -> PauliChannel:
    from .qubit import PauliChannel

    try:
        if spec == "phaseflip":
            return PauliChannel.phase_flip()
        if spec == "ep":
            return PauliChannel.exchange()
        kind, _, rest = spec.partition(":")
        if kind == "mix":
            return PauliChannel.dephasing_mixture(float(rest))
        if kind == "pauli":
            return PauliChannel([float(x) for x in rest.split(",")])
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"bad channel spec {spec!r}: {exc}") from exc
    raise SpecParseError(f"unknown channel spec {spec!r}")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_all(x) -> list[str]:
    """_fmt of every value of a 1-D array, in one formatting pass."""
    return ("%.12g\n" * len(x) % tuple(x.tolist())).split("\n")[:-1]


def _grid(start: float, stop: float, num: int) -> np.ndarray:
    if num < 1 or not np.isfinite(stop - start):  # a nan or infinite bound
        raise SpecParseError(
            f"grid of {num} points over [{start}, {stop}] must be non-empty and finite"
        )
    return np.linspace(start, stop, num)


def _config(args) -> dict:
    """The configuration echo: the command and every option but the output ones."""
    return {k: v for k, v in vars(args).items() if k not in ("func", "out", "format")}


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    outdir = os.environ.get("SMQDYN_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    return open(path, "w", newline=""), True


def _emit_csv(path: str | None, args, header: list[str], rows) -> None:
    stream, close = _open_out(path)
    try:
        blob = json.dumps(_config(args), sort_keys=True, separators=(",", ":"))
        stream.write(f"# smqdyn {__version__} config={blob}\n")
        # Every field is a number or an empty cell of a multi-field row, so
        # nothing needs quoting; every row has the header's width.
        line = ",".join(["%s"] * len(header)) + "\n"
        stream.write(line * (len(rows) + 1) % tuple(itertools.chain(header, *rows)))
    finally:
        if close:
            stream.close()


def _emit_json(path: str | None, args, payload: dict) -> None:
    doc = {"tool": "smqdyn", "version": __version__, "config": _config(args), **payload}
    stream, close = _open_out(path)
    try:
        stream.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    finally:
        if close:
            stream.close()


def _emit_table(args, header: list[str], rows) -> None:
    if args.format == "json":
        _emit_json(args.out, args, {"data": [dict(zip(header, r)) for r in rows]})
    else:
        _emit_csv(args.out, args, header, rows)


def cmd_kolmogorov(args) -> int:
    from .classical_semimarkov import (
        ProbabilityVector,
        SemiMarkovSpec,
        witness_contractivity,
    )

    wtd = parse_wtd_spec(args.wtd)
    pi, sigma = (0.5, 0.5) if args.preset == "half" else (0.0, 1.0)
    spec = SemiMarkovSpec(pi, sigma, wtd)
    scale = wtd.rate_scale
    lam_t = _grid(0.0, args.tmax, args.points)
    pairs = []
    for k in range(1, args.pairs + 1):
        d = k / args.pairs
        pairs.append(
            (
                ProbabilityVector((0.5 + d / 2, 0.5 - d / 2)),
                ProbabilityVector((0.5 - d / 2, 0.5 + d / 2)),
            )
        )
    report = witness_contractivity(spec, pairs, lam_t / scale)
    t_str = _fmt_all(lam_t)
    if args.format == "json":
        payload = {
            "data": [
                {
                    "pair_id": k,
                    "t": t_str,
                    "DK": _fmt_all(report.distances[k]),
                    "growth_intervals": [
                        [_fmt(a * scale), _fmt(b * scale)]
                        for a, b in report.growth_intervals[k]
                    ],
                }
                for k in range(len(pairs))
            ]
        }
        _emit_json(args.out, args, payload)
    else:
        dk_str = map(_fmt_all, report.distances)
        rows = [[x, k, dk] for k, col in enumerate(dk_str) for x, dk in zip(t_str, col)]
        _emit_csv(args.out, args, ["t", "pair_id", "DK"], rows)
    return EXIT_OK


def cmd_qm(args) -> int:
    if args.m_min < 1 or args.m_max < args.m_min:
        raise SpecParseError("need 1 <= m-min <= m-max")
    ms = list(range(args.m_min, args.m_max + 1))
    lam_t = _grid(0.0, args.tmax, args.points)
    columns = {}
    maxima_rows = []
    for m in ms:
        w = HypoExpWTD.erlang(m, args.rate)
        q = even_odd_difference(w)
        columns[m] = _fmt_all(np.abs(q(lam_t / args.rate)))
        partial = 0.0
        for p in find_extrema(q, (0.0, args.tmax / args.rate)):
            if p.kind == "max":
                partial += p.magnitude
                maxima_rows.append(
                    [m, _fmt(p.t * args.rate), _fmt(p.magnitude), _fmt(partial)]
                )
    header = ["t"] + [f"abs_q{m}" for m in ms]
    max_header = ["m", "t_max", "height", "partial_sum"]
    if args.format == "json":
        payload = {
            "data": {
                "t": _fmt_all(lam_t),
                **{f"abs_q{m}": columns[m] for m in ms},
            },
            "maxima": [
                {"m": r[0], "t_max": r[1], "height": r[2], "partial_sum": r[3]}
                for r in maxima_rows
            ],
        }
        _emit_json(args.out, args, payload)
        return EXIT_OK
    rows = list(zip(_fmt_all(lam_t), *columns.values()))
    if args.out and args.out != "-":
        _emit_csv(args.out, args, header, rows)
        stem, ext = os.path.splitext(args.out)
        _emit_csv(stem + ".maxima" + (ext or ".csv"), args, max_header, maxima_rows)
    else:
        _emit_csv(None, args, header, rows)
        sys.stdout.write("\n")
        _emit_csv(None, args, max_header, maxima_rows)
    return EXIT_OK


def cmd_sign_scan(args) -> int:
    xs = _grid(args.x_min, args.x_max, args.x_points)
    lam_t = _grid(0.0, args.tmax, args.t_points)
    if args.mode == "qr":
        args.wtd = None  # not read in this mode, so echoed as null
        scale = args.rate
        fs = [even_odd_difference(HypoExpWTD([scale, r * scale])) for r in xs]
    else:
        wtd = parse_wtd_spec(args.wtd)
        scale = wtd.rate_scale
        fs = [generating_function(wtd, 1.0 - 2.0 * float(nu)).value for nu in xs]
    signs = np.where(evaluate_all(fs, lam_t / scale) >= 0, 1, -1).tolist()
    x_str, t_str = _fmt_all(xs), _fmt_all(lam_t)
    rows = [[x, t, s] for x, row in zip(x_str, signs) for t, s in zip(t_str, row)]
    _emit_table(args, ["x", "lambda_t", "sign"], rows)
    return EXIT_OK


def cmd_tcl(args) -> int:
    from .nonmarkov import tcl_rates, tcl_residual
    from .qubit import QubitState

    ch = parse_channel_spec(args.channel)
    wtd = parse_wtd_spec(args.wtd)
    scale = wtd.rate_scale
    lam_t = _grid(args.tmin, args.tmax, args.points)
    canonical, overcomplete, singular = tcl_rates(ch, wtd, lam_t / scale)
    bloch = ([0, 0, 1], [1, 0, 0], [0.4, -0.5, 0.6])
    residual = tcl_residual(canonical, overcomplete, map(QubitState.from_bloch, bloch))
    table = [lam_t, *(canonical / scale), *(overcomplete / scale), residual]
    rows = [
        [t, *[""] * 8, 1] if sing else [t, *cells, 0]
        for sing, t, *cells in zip(singular.tolist(), *map(_fmt_all, table))
    ]
    header = ["t", "canon_x", "canon_y", "canon_z", "over_dephasing", "over_flip"]
    header += ["over_x", "over_y", "residual", "singular"]
    _emit_table(args, header, rows)
    return EXIT_OK


def cmd_choi_scan(args) -> int:
    from .nonmarkov import divisibility_scan

    ch = parse_channel_spec(args.channel)
    wtd = parse_wtd_spec(args.wtd)
    scale = wtd.rate_scale
    t_vals = _grid(0.0, args.tmax, args.t_points)
    s_vals = _grid(0.0, args.smax, args.s_points)
    scan = divisibility_scan(ch, wtd, t_vals / scale, s_vals / scale)
    mins, s_str = scan.min_component, _fmt_all(s_vals)
    signs = np.where(mins < -CP_FLOOR, -1, 1).tolist()
    cells = zip(_fmt_all(t_vals), scan.singular_t.tolist(), map(_fmt_all, mins), signs)
    rows = [
        [t, s, "", 0, 1] if sing else [t, s, v, sign, 0]
        for t, sing, row, row_signs in cells
        for s, v, sign in zip(s_str, row, row_signs)
    ]
    _emit_table(args, ["t", "s", "min_component", "sign", "singular"], rows)
    return EXIT_OK


def _is_pure_dephasing(ch: PauliChannel) -> float | None:
    """The generating-function argument when the map only damps coherences."""
    mu = ch.mu
    if abs(mu[3] - 1.0) < 1e-12 and abs(mu[1] - mu[2]) < 1e-12:
        return mu[1]
    return None


def cmd_measures(args) -> int:
    from .nonmarkov import (
        PairSearchConfig,
        blp_measure_dephasing,
        blp_measure_numeric,
        hou_measure,
        rhp_divisibility_measure,
    )

    ch = parse_channel_spec(args.channel)
    wtd = parse_wtd_spec(args.wtd)
    scale = wtd.rate_scale
    window = None if args.window is None else (0.0, args.window / scale)
    numeric = blp_measure_numeric(ch, wtd, PairSearchConfig(window=window))
    s_offset = None if args.s_offset is None else args.s_offset / scale
    hou = hou_measure(ch, wtd, s_offset=s_offset, window=window)
    rhp = rhp_divisibility_measure(ch, wtd, s_offset=s_offset, window=window)
    mu_deph = _is_pure_dephasing(ch)
    payload = {
        "blp_numeric": {
            "value": numeric.value,
            "direction": list(numeric.direction) if numeric.direction else None,
            "contributions": [
                {"interval": [a * scale, b * scale], "weight": c}
                for (a, b), c in numeric.contributions
            ],
            "note": numeric.note,
        },
        "hou": {
            "value": hou.value,
            "note": hou.note,
        },
        "rhp": {
            "value": None if rhp.is_infinite else rhp.value,
            "infinite": rhp.is_infinite,
            "note": rhp.note,
        },
    }
    if mu_deph is not None:
        analytic = blp_measure_dephasing(wtd, mu_deph)
        payload["blp_analytic"] = {
            "value": analytic.value,
            "tail_bound": analytic.tail_bound,
        }
    _emit_json(args.out, args, {"measures": payload})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smqdyn",
        description="Semi-Markov classical/qubit dynamics and non-Markovianity data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("kolmogorov", help="Kolmogorov-distance trajectories")
    p.add_argument("--preset", choices=["half", "flip"], required=True)
    p.add_argument("--wtd", required=True)
    p.add_argument("--tmax", type=float, default=20.0)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--pairs", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_kolmogorov)

    p = sub.add_parser("qm", help="|q_m| table for Erlang orders plus maxima")
    p.add_argument("--m-min", type=int, default=1)
    p.add_argument("--m-max", type=int, default=6)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--tmax", type=float, default=30.0)
    p.add_argument("--points", type=int, default=600)
    common(p)
    p.set_defaults(func=cmd_qm)

    p = sub.add_parser("signscan", help="sign maps over (r, t) or (nu, t)")
    p.add_argument("--mode", choices=["qr", "nu"], required=True)
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--x-points", type=int, default=60)
    p.add_argument("--tmax", type=float, default=30.0)
    p.add_argument("--t-points", type=int, default=120)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--wtd", default="erlang:2:1", help="used in nu mode")
    common(p)
    p.set_defaults(func=cmd_sign_scan)

    p = sub.add_parser("tcl", help="time-local rates in both forms")
    p.add_argument("--channel", required=True)
    p.add_argument("--wtd", required=True)
    p.add_argument("--tmin", type=float, default=0.02)
    p.add_argument("--tmax", type=float, default=12.0)
    p.add_argument("--points", type=int, default=300)
    common(p)
    p.set_defaults(func=cmd_tcl)

    p = sub.add_parser("choiscan", help="sign map of the intermediate-map weight")
    p.add_argument("--channel", required=True)
    p.add_argument("--wtd", required=True)
    p.add_argument("--tmax", type=float, default=6.0)
    p.add_argument("--smax", type=float, default=3.0)
    p.add_argument("--t-points", type=int, default=100)
    p.add_argument("--s-points", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_choi_scan)

    p = sub.add_parser("measures", help="summary of all measures (JSON)")
    p.add_argument("--channel", required=True)
    p.add_argument("--wtd", required=True)
    p.add_argument("--window", type=float, default=None, help="scan horizon in rate*t")
    p.add_argument("--s-offset", type=float, default=None)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_measures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_SPEC_ERROR
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except (FloatingPointError, RuntimeError) as exc:  # the layers' numerical errors
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
