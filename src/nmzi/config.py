"""Run configuration: a flat ``key = value`` text format plus CLI overrides.

The grammar is intentionally small.  Scalar keys::

    mode = analytic | montecarlo | verify
    preset = fig2 | fig3 | fig4
    mu / bins / seed / routing   (source parameters)
    normalization = analytic | measured
    out = <path>
    gnuplot = true | false
    angles = radians | degrees

plus per-parameter keys ``sweep.<param> = start:stop:step`` and
``fix.<param> = value`` for explicit grids.  ``KEY_MODES`` names the modes
that read each key, and a key given to any other mode is refused: the
source keys and ``normalization`` under ``analytic``; the grid, output,
``normalization`` and ``angles`` keys under ``verify``, whose Monte Carlo
checks read the source keys.  A grid may have at most
``MAX_GRID_POINTS`` (10^7) points; the count comes from the axes, so a
larger grid is rejected before any point is built, as is ``gnuplot = true``
with more than two sweep axes.  A ``#`` at the start of a line or after
whitespace starts a comment that runs to the end of the line; any other
``#`` is part of the value (``out = runs/a#1.csv``).  Blank lines are
ignored.  Later occurrences of a key are rejected rather than silently
shadowed.  CLI flags arrive here as an override mapping in the same grammar,
keyed by each flag's argparse ``dest``, and take precedence over file
values; file and override values alike are stripped of surrounding
whitespace, and an empty one is refused.

``angles = degrees`` is a parse directive: it converts every angle-valued
entry to radians while parsing and is not stored -- a parsed RunConfig is
always in radians, and its canonical text form is too.
"""

from __future__ import annotations

import math
import re
from typing import Mapping

from . import _Record
from .correlation import PRESETS, SWEEP_PARAMS, SweepAxis, SweepSpec
from .montecarlo import NORMALIZATIONS, SourceParams

MODES = ("analytic", "montecarlo", "verify")

# The modes that read each config key (for ``sweep.<param>`` and
# ``fix.<param>``, the part before the dot).  Any other mode refuses the key
# rather than silently ignoring it: only the sweep modes read a grid or write
# a file, and only the modes that sample photons read the source keys.  The
# CLI gives each subcommand the flags of the keys its mode reads.
KEY_MODES = {
    "mode": MODES,
    **dict.fromkeys(
        ("preset", "sweep", "fix", "out", "gnuplot", "angles"), ("analytic", "montecarlo")
    ),
    **dict.fromkeys(("mu", "bins", "seed", "routing"), ("montecarlo", "verify")),
    "normalization": ("montecarlo",),
}
# The keys that take a parameter name after a dot.
PARAM_KEYS = ("sweep", "fix")

_DEFAULT_MU = 0.05
_DEFAULT_BINS = 1_000_000

_TRUE_WORDS = ("true", "yes", "on", "1")
_FALSE_WORDS = ("false", "no", "off", "0")


class ConfigError(ValueError):
    """A configuration problem the user can fix; the message names the key."""


class RunConfig(_Record):
    """A fully validated run request, all angles in radians."""

    mode: str
    preset: str | None = None
    sweep_axes: tuple[SweepAxis, ...] = ()
    fixed: tuple[tuple[str, float], ...] = ()
    source: SourceParams | None = None
    normalization: str = "analytic"
    out_path: str | None = None
    gnuplot: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigError(
                f"config key 'preset': expected one of {tuple(PRESETS)}, got {self.preset!r}"
            )
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(
                f"normalization must be one of {NORMALIZATIONS}, "
                f"got {self.normalization!r}"
            )
        if self.preset is not None and self.sweep_axes:
            axes = ", ".join(f"sweep.{a.name}" for a in self.sweep_axes)
            raise ConfigError(
                f"preset {self.preset!r} conflicts with explicit sweep axes "
                f"({axes}); give one or the other"
            )


def _strip_comment(line: str) -> str:
    """``line`` up to its first ``#`` at the start or after whitespace."""
    return re.split(r"(?<!\S)#", line, maxsplit=1)[0]


def _entry_value(key: str, value: str) -> str:
    if not value.strip():
        raise ConfigError(f"config key {key!r} has an empty value")
    return value.strip()


def _validate_key(key: str) -> None:
    head, dot, param = key.partition(".")
    if head not in KEY_MODES or bool(dot) != (head in PARAM_KEYS):
        raise ConfigError(f"unknown config key {key!r}")
    if dot and param not in SWEEP_PARAMS:
        raise ConfigError(
            f"unknown config key {key!r}: parameter must be one of {SWEEP_PARAMS}"
        )


def _parse_lines(text: str) -> dict:
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = _strip_comment(line).strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(
                f"malformed config line {lineno}: {line.strip()!r} "
                "(expected key = value)"
            )
        key, _, value = body.partition("=")
        key = key.strip()
        _validate_key(key)
        if key in raw:
            raise ConfigError(f"duplicate config key {key!r} (line {lineno})")
        raw[key] = _entry_value(key, value)
    return raw


def _as_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected a number, got {value!r}")
    if not math.isfinite(out):
        raise ConfigError(f"config key {key!r}: value must be finite, got {value!r}")
    return out


def _as_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected an integer, got {value!r}")


def _as_bool(key: str, value: str) -> bool:
    word = value.lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ConfigError(f"config key {key!r}: expected true/false, got {value!r}")


def parse_config(
    text: str | None = None, overrides: Mapping[str, str] | None = None
) -> RunConfig:
    """Build a RunConfig from config-file text and/or override entries.

    ``overrides`` uses the same key grammar as the file and wins on
    conflicts (the CLI layer routes flags through it).  Every diagnostic
    names the offending key.
    """
    raw = _parse_lines(text) if text else {}
    for key, value in (overrides or {}).items():
        _validate_key(key)
        raw[key] = _entry_value(key, value)

    mode = raw.pop("mode", None)
    if mode is None:
        raise ConfigError("missing config key 'mode'")
    if mode not in MODES:
        raise ConfigError(f"config key 'mode': expected one of {MODES}, got {mode!r}")
    for key in raw:
        if mode not in KEY_MODES[key.partition(".")[0]]:
            raise ConfigError(f"config key {key!r} does not apply to mode {mode!r}")

    angles = raw.pop("angles", "radians")
    if angles not in ("radians", "degrees"):
        raise ConfigError(
            f"config key 'angles': expected radians or degrees, got {angles!r}"
        )
    to_radians = math.radians if angles == "degrees" else (lambda x: x)

    preset = raw.pop("preset", None)

    axes = []
    fixed = {}
    for key in list(raw):
        if key.startswith("sweep."):
            param = key[len("sweep."):]
            pieces = raw.pop(key).split(":")
            if len(pieces) != 3:
                raise ConfigError(
                    f"config key {key!r}: expected start:stop:step, "
                    f"got {':'.join(pieces)!r}"
                )
            start, stop, step = (to_radians(_as_float(key, p)) for p in pieces)
            try:
                axes.append(SweepAxis(param, start, stop, step))
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        elif key.startswith("fix."):
            param = key[len("fix."):]
            fixed[param] = to_radians(_as_float(key, raw.pop(key)))

    if preset is None and not axes and mode in KEY_MODES["preset"]:
        raise ConfigError(
            "no sweep specified: give 'preset' or at least one 'sweep.<param>'"
        )

    source = None
    if mode in KEY_MODES["mu"]:
        mu = _as_float("mu", raw.pop("mu", str(_DEFAULT_MU)))
        bins = _as_int("bins", raw.pop("bins", str(_DEFAULT_BINS)))
        seed = _as_int("seed", raw.pop("seed", "0"))
        try:
            source = SourceParams(mu, bins, seed, raw.pop("routing", "paired"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    normalization = raw.pop("normalization", "analytic")
    out_path = raw.pop("out", None)
    gnuplot = _as_bool("gnuplot", raw.pop("gnuplot", "false"))

    return RunConfig(
        mode=mode,
        preset=preset,
        sweep_axes=tuple(axes),
        fixed=tuple(sorted(fixed.items())),
        source=source,
        normalization=normalization,
        out_path=out_path,
        gnuplot=gnuplot,
    )


def canonical_config_text(config: RunConfig) -> str:
    """Emit a config in canonical form: radians, ``repr`` floats, fixed order.

    Parsing the result reproduces ``config`` exactly, including float bits.
    A value that one config line cannot carry -- empty, spanning lines,
    with leading or trailing whitespace, or with a ``#`` at its start or
    after whitespace -- raises ``ValueError`` naming its key.
    """
    entries = [("mode", config.mode)]
    if config.preset is not None:
        entries.append(("preset", config.preset))
    for axis in config.sweep_axes:
        entries.append(
            (f"sweep.{axis.name}", f"{axis.start!r}:{axis.stop!r}:{axis.step!r}")
        )
    for name, value in config.fixed:
        entries.append((f"fix.{name}", repr(value)))
    if config.source is not None:
        src = config.source
        entries.append(("mu", repr(src.mean_photon_number)))
        entries.append(("bins", str(src.n_time_bins)))
        entries.append(("seed", str(src.rng_seed)))
        entries.append(("routing", src.routing))
    if config.mode in KEY_MODES["normalization"]:
        entries.append(("normalization", config.normalization))
    if config.out_path is not None:
        entries.append(("out", config.out_path))
    if config.gnuplot:
        entries.append(("gnuplot", "true"))
    for key, value in entries:
        if value.splitlines() != [value] or _strip_comment(value).strip() != value:
            raise ValueError(f"config key {key!r}: {value!r} cannot be written on a config line")
    return "".join(f"{key} = {value}\n" for key, value in entries)


def build_sweep_spec(config: RunConfig) -> SweepSpec:
    """Resolve the config's grid: a preset (with fix overrides) or raw axes.

    A gnuplot script plots one or two sweep axes (every preset has at most
    two), so ``gnuplot = true`` with more is refused here, before any point
    is computed or file written.
    """
    axes, fixed = config.sweep_axes, config.fixed
    if config.preset is not None:
        base = PRESETS[config.preset]
        axes, fixed = base.axes, {**dict(base.fixed), **dict(fixed)}
    if config.gnuplot and len(axes) > 2:
        raise ConfigError(
            "config key 'gnuplot': a gnuplot script plots one or two sweep "
            f"axes, got {len(axes)}"
        )
    try:
        return SweepSpec(axes=axes, fixed=fixed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
