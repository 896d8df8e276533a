"""Command-line front end.

Three subcommands::

    nmzi analytic    evaluate the closed forms on a grid and write a CSV
    nmzi montecarlo  same grid, plus photon-counting estimates side by side
    nmzi verify      run the invariant checks and report pass/fail

Grids come from ``--preset fig2|fig3|fig4`` or explicit
``--sweep param=start:stop:step`` / ``--fix param=value`` flags, optionally
seeded from a ``--config`` file (flags win).  Each flag's argparse ``dest``
is the config key it sets (``--degrees`` sets ``angles = degrees``,
``--gnuplot`` sets ``gnuplot = true``); ``--sweep P=...`` and ``--fix P=...``
set ``sweep.P`` and ``fix.P``, and naming one parameter twice is refused.
Any other flag may be given once, as a key may appear once in a config
file.  A subcommand takes the flags of the keys its mode reads
(``config.KEY_MODES``).  Only ``--config`` steers the CLI itself.  Angle
values are converted on the way in; everything is stored and written in
radians.  ``verify`` always runs its Monte Carlo checks, on the source that
``--mu``, ``--bins``, ``--seed`` and ``--routing`` describe.

Exit codes: 0 success, 1 usage or configuration error, 2 verification
failure.  ``NMZI_OUT_DIR`` names the default output directory when ``--out``
is not given.

The ``nmzi`` script and ``python -m nmzi.cli`` both enter through
:func:`run`, which calls :func:`main` and then freezes the heap
(``gc.freeze()``) before exiting with its status.  Interpreter shutdown runs
about three full cyclic collections over every tracked object, some 22 000
with numpy loaded; frozen objects are skipped, and the operating system
takes the memory back when the process ends.  Atexit handlers, the flush of
stdout and stderr and the clearing of module dicts run as before.  ``main``
itself never freezes, because tests and other in-process callers keep
running after it returns.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings
from typing import NoReturn, Sequence

from .config import KEY_MODES, PARAM_KEYS, ConfigError, RunConfig, build_sweep_spec, parse_config
from .correlation import record_at, sweep_settings
from .montecarlo import estimate_columns, run_experiment
from .output import emit_csv, emit_gnuplot

OUT_DIR_ENV = "NMZI_OUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this tool reserves 2 for
    # verification failures, so route usage problems through exit code 1.
    def error(self, message):
        raise _UsageError(message)


class _Once(argparse.Action):
    # A flag sets its config key once, as a key may appear once in a file.
    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "may be given only once")
        setattr(namespace, self.dest, values if self.const is None else self.const)


# Each config key's flag spelling and argparse options; the flag's ``dest``
# is the key.  A subcommand gets the flags of the keys its mode reads
# (``KEY_MODES``), in this order.
_FLAGS = {
    "preset": ("--preset", dict(help="named sweep: fig2, fig3, or fig4")),
    "sweep": ("--sweep", dict(action="append", metavar="PARAM=START:STOP:STEP",
                              help="sweep axis; repeatable, row-major in the order given")),
    "fix": ("--fix", dict(action="append", metavar="PARAM=VALUE",
                          help="hold a parameter fixed; repeatable")),
    "out": ("--out", dict(help="output CSV path")),
    "angles": ("--degrees", dict(nargs=0, const="degrees",
                                 help="interpret angle values (sweep/fix) as degrees")),
    "gnuplot": ("--gnuplot", dict(nargs=0, const="true",
                                  help="also write a gnuplot script next to the CSV")),
    "mu": ("--mu", dict(help="mean photon number per time bin")),
    "bins": ("--bins", dict(help="number of time bins")),
    "seed": ("--seed", dict(help="run seed (unsigned 64-bit)")),
    "routing": ("--routing", dict(help="pair routing: paired or binomial")),
    "normalization": ("--normalization", dict(help="coincidence normalization: analytic or "
                                                   "measured (default analytic)")),
}

_MODE_HELP = {
    "analytic": "closed-form sweep to CSV",
    "montecarlo": "photon-counting sweep to CSV",
    "verify": "run the invariant checks",
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="nmzi",
        description="Paired-interferometer correlation simulator",
        epilog="Default output directory: $" + OUT_DIR_ENV + " (else '.').",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, summary in _MODE_HELP.items():
        mode_parser = sub.add_parser(mode, help=summary)
        mode_parser.add_argument("--config", help="flat key = value config file")
        for key, (flag, options) in _FLAGS.items():
            if mode in KEY_MODES[key]:
                mode_parser.add_argument(flag, dest=key, **{"action": _Once, **options})
    return parser


def _split_assignment(flag: str, item: str) -> tuple[str, str]:
    name, sep, value = item.partition("=")
    if not sep or not name.strip() or not value.strip():
        raise ConfigError(
            f"{flag} expects PARAM=VALUE syntax, got {item!r}"
        )
    return name.strip(), value.strip()


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """The given flags as config entries: a flag's ``dest`` is its key."""
    overrides = {}
    for key, value in vars(args).items():
        if value is None or key == "config":
            continue
        if key in PARAM_KEYS:
            for item in value:
                name, text = _split_assignment(f"--{key}", item)
                if f"{key}.{name}" in overrides:
                    raise ConfigError(f"--{key} gives {name!r} twice")
                overrides[f"{key}.{name}"] = text
        else:
            overrides[key] = value
    return overrides


def _load_config(args: argparse.Namespace) -> RunConfig:
    text = None
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8-sig") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}")
    return parse_config(text, _overrides_from_args(args))


def _resolve_out_path(config: RunConfig) -> str:
    if config.out_path:
        return config.out_path
    name = f"{config.mode}_{config.preset or 'sweep'}.csv"
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), name)


def _run_sweep_mode(config: RunConfig) -> int:
    out_path = _resolve_out_path(config)
    stem, extension = os.path.splitext(out_path)
    script_path = stem + ".gp"
    if config.gnuplot and extension.lower() == ".gp":
        raise ConfigError(f"config key 'out': the gnuplot script would overwrite {out_path}")
    written = [out_path, script_path] if config.gnuplot else [out_path]
    # Refused before the sweep is expanded, not after its rows are rendered.
    for path in written:
        # A rename over a FIFO or a device node would replace it with a file.
        if os.path.exists(path) and not os.path.isfile(path):
            kind = "a directory" if os.path.isdir(path) else "not a regular file"
            raise ConfigError(f"config key 'out': {path} is {kind}")
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ConfigError(f"config key 'out': no directory {directory}")
    spec = build_sweep_spec(config)
    settings = sweep_settings(spec)
    records = record_at(settings)
    mc_columns = None
    if config.mode == "montecarlo":
        mc_columns = estimate_columns(
            run_experiment(records[:, :4], config.source).fates, config.normalization
        )
    emit_csv(settings, records, out_path, mc_columns)
    if config.gnuplot:
        axis_names = [axis.name for axis in spec.axes]
        emit_gnuplot(out_path, script_path, axis_names, mc_columns is not None)
    print(f"wrote {len(records)} grid points to {', '.join(written)}")
    return EXIT_OK


def run_verification(*args, **kwargs):
    """:func:`nmzi.verify.run_verification`, imported on first call.

    Only ``nmzi verify`` loads the Jones model (``verify``, ``station`` and
    ``elements``); the sweep modes never import it.
    """
    from .verify import run_verification as run

    return run(*args, **kwargs)


def _run_verify(config: RunConfig) -> int:
    report = run_verification(config.source)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # A warning reaches a CLI user as one line; the source line that raised
    # it means nothing on the command line.
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            config = _load_config(args)
            if config.mode == "verify":
                return _run_verify(config)
            return _run_sweep_mode(config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


def run() -> NoReturn:
    """The process entry: exit with :func:`main`'s status, skipping the
    shutdown's collections over the objects alive at that point."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
