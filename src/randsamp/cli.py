"""Command-line front end: signal generation, sampling, matrix building,
recovery, and the bundled benchmark presets.

Exit codes: 0 success, 1 usage error, 2 numerical failure (every run failed,
or recover failed).
Every flag can also be supplied through ``--config FILE`` or
``--config=FILE``, given after the subcommand, as ``key=value`` lines
(booleans as true/false). Each line becomes one ``--key=value`` token, so a
negative value such as -4.6e-05 is not read as a flag. A flag given on the
command line wins over its config value, and a config value over the library
default. If RANDSAMP_OUT_DIR is set, relative ``--out`` paths are placed
inside it.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments, files, obs_matrix, signals, solvers
from .fourier import sensing_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
OUT_DIR_ENV = "RANDSAMP_OUT_DIR"


class UsageError(Exception):
    pass


class _NegativeNumber:
    r"""argparse's test for a negative number among the arguments: any token
    that starts with '-' and that float() reads. argparse's own pattern,
    ^-\d+$|^-\d*\.\d+$, takes -4.6e-05 for a flag."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return token.startswith("-")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises instead of exiting, so main() can return 1,
    and that reads every negative number as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _names(token: str, flag: str) -> bool:
    """Whether token gives flag: in full or as an abbreviation argparse
    accepts, with or without =value."""
    name = token.partition("=")[0]
    return len(name) > 2 and flag.startswith(name)


def _read_config_flags(path: str) -> list[str]:
    """Turn key=value lines into --key=value tokens (booleans into --flag or
    --no-flag)."""
    flags: list[str] = []
    for no, line in files.read_lines(path):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}: line {no}: {line!r} is not key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        name = "--" + key.replace("_", "-")
        if value.lower() in ("true", "false"):
            flags.append(name if value.lower() == "true" else "--no-" + name[2:])
        else:
            flags.append(f"{name}={value}")
    return flags


def _inject_config(argv: list[str]) -> list[str]:
    """Splice the flags of the --config file in right after the subcommand, so
    that flags typed on the command line, which come later, win."""
    path = None  # the last --config FILE or --config=FILE wins, as in argparse
    for i, token in enumerate(argv):
        if _names(token, "--config"):
            _, eq, value = token.partition("=")
            path = value if eq else (argv[i + 1] if i + 1 < len(argv) else None)
    if path is None:
        return argv  # no --config, or argparse reports its missing value
    if argv[0].startswith("-"):
        raise UsageError("--config goes after the subcommand: randsamp COMMAND --config FILE")
    return argv[:1] + _read_config_flags(path) + argv[1:]


def _resolve_out(path_str: str | None) -> Path | None:
    if path_str is None:
        return None
    path = Path(path_str)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    if path.is_dir():
        raise UsageError(f"--out {path} is a directory")
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _given(**fields) -> dict:
    """The keyword arguments whose value was supplied (is not None)."""
    return {key: value for key, value in fields.items() if value is not None}


def _make_signal(args) -> signals.ContinuousSignal:
    if args.signal == "trig":
        return signals.TrigSignal()
    if args.signal == "gauspuls":
        return signals.GaussPulseSignal(
            **_given(center_freq=args.fc, bandwidth=args.bw, bwr_db=args.bwr, tpr_db=args.tpr)
        )
    return signals.SquareSignal(**_given(period=args.period, duty=args.duty, amplitude=args.amplitude))


def _add_signal_flags(parser) -> None:
    parser.add_argument("--signal", choices=("trig", "gauspuls", "square"), required=True)
    parser.add_argument("--fc", type=float, help="gauspuls center frequency [Hz]")
    parser.add_argument("--bw", type=float, help="gauspuls fractional bandwidth")
    parser.add_argument("--bwr", type=float, help="gauspuls bandwidth reference level [dB]")
    parser.add_argument("--tpr", type=float, help="gauspuls truncation level [dB]")
    parser.add_argument("--period", type=float, help="square-wave period [s]")
    parser.add_argument("--duty", type=float, help="square-wave duty ratio in (0,1)")
    parser.add_argument("--amplitude", type=float, help="square-wave amplitude")


def _add_common_out(parser, formats=("csv", "json")) -> None:
    parser.add_argument("--out", help=f"output path (default: stdout; ${OUT_DIR_ENV} prefixes relative paths)")
    if formats:
        parser.add_argument("--format", choices=formats, default="csv")
    parser.add_argument("--config", help="key=value file supplying defaults for any flag")


def _write_table(args, out: Path | None, header: str, rows, doc: dict) -> int:
    """Write rows as CSV, or doc as JSON, as --format asks."""
    files.write(files.csv_text(header, rows) if args.format == "csv" else files.json_text(doc), out)
    return EXIT_OK


def _interval(rate: float) -> float:
    """The grid interval 1/rate of a --rate in Hz, which must be positive and finite."""
    files.check_positive("--rate", rate)
    return 1.0 / rate


def _cmd_generate(args) -> int:
    out = _resolve_out(args.out)
    signal = _make_signal(args)
    interval = _interval(args.rate)
    t0 = signals.grid_origin(signal) if args.t0 is None else args.t0
    n = args.n
    if n is None and isinstance(signal, signals.GaussPulseSignal):
        n = signal.grid_points(args.rate)
    if n is None:
        raise UsageError("generate needs --n (it is implied only for gauspuls)")
    grid = signals.uniform_samples(signal, n, interval, t0)
    doc = {"interval": interval, "origin": t0, "values": list(map(float, grid.values))}
    return _write_table(args, out, "time,value", zip(grid.times, grid.values), doc)


def _cmd_sample(args) -> int:
    out = _resolve_out(args.out)
    signal = _make_signal(args)
    t0 = signals.grid_origin(signal) if args.t0 is None else args.t0
    times = signals.draw_random_times(args.m, args.duration, t0, args.seed)
    sample = signals.sample_at(signal, times, duration=args.duration, seed=args.seed)
    doc = {
        "seed": args.seed,
        "duration": args.duration,
        "times": list(map(float, sample.times)),
        "values": list(map(float, sample.values)),
    }
    return _write_table(args, out, "time,value", zip(sample.times, sample.values), doc)


def _cmd_build_matrix(args) -> int:
    if args.out is None:
        raise UsageError("build-matrix needs --out (matrix CSV is not written to stdout)")
    out = _resolve_out(args.out)
    times = files.read_column(args.times, "time") - args.t0
    matrix = obs_matrix.build(args.method, times, _interval(args.rate), args.n, args.p_terms)
    obs_matrix.save_matrix_csv(matrix, out)
    return EXIT_OK


def _cmd_recover(args) -> int:
    out = _resolve_out(args.out)
    matrix = obs_matrix.load_matrix_csv(args.matrix)
    y = files.read_column(args.measurements, "value")
    omp_fields, tv_fields = _solver_fields(args)
    # the default budget fitted to the matrix, as experiment fits a preset's
    omp = replace(solvers.fit_budget(solvers.OmpConfig(), matrix.m, matrix.n_grid), **omp_fields)
    tv = replace(solvers.TvConfig(), **tv_fields)
    result = solvers.solve(args.solver, sensing_matrix(matrix), matrix, y, omp, tv)
    doc = {
        "values": list(map(float, result.recovered)),
        "support": result.support,
        "iterations": result.iterations,
        "final_residual": result.final_residual,
    }
    return _write_table(args, out, "index,value", enumerate(result.recovered), doc)


def _solver_fields(args) -> tuple[dict, dict]:
    """The OmpConfig and TvConfig fields set by the solver flags given."""
    omp = _given(max_atoms=args.max_atoms, residual_tol=args.residual_tol)
    tv = _given(lam=args.tv_lambda, max_iters=args.tv_iters)
    return omp, tv


def _experiment_config(args) -> experiments.ExperimentConfig:
    # Solver flags override the OMP/TV configs of the plan resolved at the
    # given problem size, field by field; without such flags omp/tv stay None
    # and each run takes its plan's own. experiment sets the matrix method.
    cfg = experiments.ExperimentConfig(
        preset=args.preset,
        **_given(solver=args.solver, runs=args.runs, master_seed=args.seed,
                 m_samples=args.m, n_grid=args.n, sample_rate=args.rate),
    )
    omp_fields, tv_fields = _solver_fields(args)
    plan = experiments.resolve_plan(cfg)
    return replace(
        cfg,
        omp=replace(plan.omp, **omp_fields) if omp_fields else None,
        tv=replace(plan.tv, **tv_fields) if tv_fields else None,
    )


def _emit_reports(text: str, out: Path | None, summary: str, reports) -> int:
    """Write a report text, name the file written, and exit 2 when every run
    of every report failed."""
    files.write(text, out)
    if out is not None:
        print(f"{out}: {summary}")
    if all(report.n_failed == len(report.records) for report in reports):
        print("all runs failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = replace(_experiment_config(args), **_given(method=args.matrix), p_terms=args.p_terms)
    out = _resolve_out(args.out)  # before the runs, so a bad --out costs none
    report = experiments.run_experiment(cfg)
    write = experiments.report_csv if args.format == "csv" else experiments.report_json
    summary = f"{len(report.records)} runs, mean_error={report.mean_error!r}, failed={report.n_failed}"
    return _emit_reports(write(report, include_timings=args.timings), out, summary, [report])


def _cmd_sweep_p(args) -> int:
    try:
        p_list = [int(tok) for tok in args.p_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--p-list must be comma-separated integers: {exc}") from exc
    cfg = _experiment_config(args)
    out = _resolve_out(args.out)
    rows = experiments.sweep_truncation(cfg, p_list)
    text = experiments.sweep_csv(rows, include_timings=args.timings)
    return _emit_reports(text, out, f"{len(rows)} rows", [report for _, report in rows])


def _add_solver_flags(parser) -> None:
    parser.add_argument("--max-atoms", type=int, help="OMP support budget")
    parser.add_argument("--residual-tol", type=float, help="OMP relative residual stop")
    parser.add_argument("--tv-lambda", type=float, help="TV regularization weight")
    parser.add_argument("--tv-iters", type=int, help="TV iteration cap")


def _add_experiment_flags(parser) -> None:
    parser.add_argument("--solver", choices=solvers.SOLVERS, help="default: preset's solver")
    parser.add_argument("--runs", type=int)
    parser.add_argument("--seed", type=int, help="master seed; each run derives its own")
    parser.add_argument("--m", type=int, help="number of random samples (default: preset)")
    parser.add_argument("--n", type=int, help="grid length (default: preset)")
    parser.add_argument("--rate", type=float, help="grid sample rate in Hz (default: preset)")
    parser.add_argument(
        "--timings",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="fill the wall-clock columns (off keeps output byte-reproducible)",
    )
    _add_solver_flags(parser)


def _hz(rate: float) -> str:
    """A frequency with an SI prefix: 800 Hz, 50 kHz, 10 MHz."""
    prefix, scale = ("M", 1e6) if rate >= 1e6 else ("k", 1e3) if rate >= 1e3 else ("", 1.0)
    return f"{rate / scale:g} {prefix}Hz"


def _preset_table() -> str:
    """Each preset's signal, M, N, grid rate and solver, as resolve_plan sets them."""
    entries = []
    for preset in experiments.PRESETS:
        plan = experiments.resolve_plan(experiments.ExperimentConfig(preset=preset))
        sig = plan.signal
        signal = (f"{len(sig.sin_freqs) + len(sig.cos_freqs)}-tone signal" if preset == "trig" else
                  f"{_hz(sig.center_freq)} pulse with {sig.bandwidth:.0%} bandwidth" if preset == "gauspuls" else
                  f"+-{sig.amplitude:g} wave with {plan.duration / sig.period:g} periods")
        entries.append(f"{preset} = {signal}, M={plan.m_samples}, N={plan.n_grid}, "
                       f"{_hz(1.0 / plan.interval)} grid, {plan.solver.upper()}")
    return "preset defaults: " + "; ".join(entries)


def build_parser() -> _Parser:
    parser = _Parser(prog="randsamp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a signal on a uniform grid")
    _add_signal_flags(p)
    p.add_argument("--n", type=int, help="grid length (implied for gauspuls)")
    p.add_argument("--rate", type=float, required=True, help="grid sample rate in Hz")
    p.add_argument("--t0", type=float, help="grid origin (default 0; gauspuls: -cutoff)")
    _add_common_out(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sample", help="measure a signal at random times")
    _add_signal_flags(p)
    p.add_argument("--m", type=int, required=True, help="number of random samples")
    p.add_argument("--duration", type=float, required=True, help="sampling window length in s")
    p.add_argument("--t0", type=float, help="window start (default 0; gauspuls: -cutoff)")
    p.add_argument("--seed", type=int, default=0)
    _add_common_out(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("build-matrix", help="build an observation matrix for given sample times")
    p.add_argument("--times", required=True, help="CSV with a 'time' column (e.g. from sample)")
    p.add_argument("--rate", type=float, required=True, help="grid sample rate in Hz")
    p.add_argument("--n", type=int, required=True, help="grid length")
    p.add_argument("--t0", type=float, default=0.0,
                   help="grid origin subtracted from the times (default 0; generate and sample start a gauspuls "
                        "grid at -cutoff, so pass the first time of that grid)")
    p.add_argument("--method", choices=obs_matrix.METHODS, default="poisson")
    p.add_argument("--p-terms", type=int, help="truncation length for --method truncated")
    _add_common_out(p, formats=())
    p.set_defaults(func=_cmd_build_matrix)

    p = sub.add_parser("recover", help="recover a uniform signal from a matrix and measurements")
    p.add_argument("--matrix", required=True, help="matrix CSV from build-matrix")
    p.add_argument("--measurements", required=True, help="CSV with a 'value' column (e.g. from sample)")
    p.add_argument("--solver", choices=solvers.SOLVERS, default="omp")
    _add_solver_flags(p)
    _add_common_out(p)
    p.set_defaults(func=_cmd_recover)

    preset_values = _preset_table()
    p = sub.add_parser(
        "experiment",
        help="run a benchmark preset (trig | gauspuls | square)",
        epilog=preset_values,
    )
    p.add_argument("--preset", choices=experiments.PRESETS, required=True)
    p.add_argument("--matrix", choices=obs_matrix.METHODS)
    p.add_argument("--p-terms", type=int, help="truncation length for --matrix truncated")
    _add_experiment_flags(p)
    _add_common_out(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "sweep-p",
        help="error and build time versus truncation length",
        epilog=preset_values,
    )
    p.add_argument("--preset", choices=experiments.PRESETS, default="trig")
    p.add_argument("--p-list", default="2,20,200,2000,20000", help="comma-separated even truncation lengths")
    _add_experiment_flags(p)
    _add_common_out(p, formats=())
    p.set_defaults(func=_cmd_sweep_p)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_inject_config(argv))
        return args.func(args)
    except solvers.RecoveryError as exc:  # before ValueError, which OverSelectionError also is
        print(f"recovery failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (UsageError, ValueError) as exc:
        print(f"randsamp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # input files are reported where they are read, so this is --out
        print(f"randsamp: error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
