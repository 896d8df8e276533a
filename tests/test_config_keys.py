"""Each row of ``config.KEYS``: a key's flag sets what its file line sets,
every config the table allows survives its canonical text, and a bad value
of any key exits 1 with one error line and no file."""

import contextlib
import io
import math
import os
import re
import sys
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nmzi import cli
from nmzi.config import (
    KEYS,
    MODES,
    RunConfig,
    _as_bool,
    _as_int,
    build_sweep_spec,
    canonical_config_text,
    parse_config,
)
from nmzi.correlation import ALIAS_TARGETS, PRESETS, SWEEP_PARAMS
from nmzi.montecarlo import SourceParams
from test_cli import KEY_FLAG_VALUE

# A value each key accepts that differs from KEY_FLAG_VALUE's.
OTHER_VALUE = {
    "preset": "fig3",
    "sweep.phi": "0:2:0.5",
    "fix.psi": "1",
    "out": "y.csv",
    "angles": "radians",
    "gnuplot": "false",
    "mu": "0.1",
    "bins": "200",
    "seed": "2",
    "routing": "binomial",
    "normalization": "analytic",
}
# The flags that take no value: each sets its key to KEY_FLAG_VALUE's value.
BARE_FLAGS = ("--degrees", "--gnuplot")


def _base_entries(mode: str, key: str) -> dict:
    """Entries that make ``mode`` runnable and show ``key``'s value."""
    if mode == "verify":
        # Enough pairs per point at KEY_FLAG_VALUE's and OTHER_VALUE's bins.
        return {} if key == "mu" else {"mu": "1"}
    # An angle in a fix entry shows whether --degrees converted it.
    base = {"fix.zeta": "30"}
    if key not in ("preset", "sweep.phi"):
        base["preset"] = "fig2"
    return base


def _load(mode, tmp_path, entries, flag_args=()):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    args = cli._build_parser().parse_args([mode, "--config", str(cfg), *flag_args])
    return cli._load_config(args)


# verify's base source (mu = 1) is outside the strongly attenuated regime.
@pytest.mark.filterwarnings("ignore:mean photon number")
@pytest.mark.parametrize(
    "mode, key",
    [
        (mode, key)
        for key in KEY_FLAG_VALUE
        for mode in KEYS[key.partition(".")[0]][0]
    ],
)
def test_a_flag_sets_what_its_file_line_sets_and_wins_over_it(mode, key, tmp_path):
    flag, value = KEY_FLAG_VALUE[key]
    param = key.partition(".")[2]
    if flag in BARE_FLAGS:
        flag_args = [flag]
    else:
        flag_args = [flag, f"{param}={value}" if param else value]
    base = _base_entries(mode, key)
    from_file = _load(mode, tmp_path, {**base, key: value})
    from_flag = _load(mode, tmp_path, base, flag_args)
    assert from_flag == from_file
    other = _load(mode, tmp_path, {**base, key: OTHER_VALUE[key]})
    assert other != from_flag
    assert _load(mode, tmp_path, {**base, key: OTHER_VALUE[key]}, flag_args) == from_flag


# Every word the gnuplot key reads, in any letter case.
_GNUPLOT_WORDS = ("true", "yes", "on", "1", "false", "no", "off", "0")
_PARAMS = st.sampled_from(SWEEP_PARAMS)


@st.composite
def _word_in_any_case(draw, words):
    word = draw(st.sampled_from(words))
    return "".join(draw(st.sampled_from((c.lower(), c.upper()))) for c in word)


@st.composite
def _sweep_entries(draw):
    entries = {}
    for param in draw(st.lists(_PARAMS, min_size=1, max_size=2, unique=True)):
        start = draw(st.floats(-1e3, 1e3))
        step = draw(st.floats(1e-3, 10.0))
        stop = start + step * draw(st.integers(1, 6))
        entries[f"sweep.{param}"] = f"{start!r}:{stop!r}:{step!r}"
    return entries


def _is_one_line_value(value: str) -> bool:
    # One config line carries it: no line break, no surrounding whitespace,
    # and no ``#`` that a reader would take for a comment.
    return (
        value.splitlines() == [value]
        and value.strip() == value
        and not value.startswith("#")
        and not any(value[i - 1].isspace() and value[i] == "#" for i in range(1, len(value)))
    )


# Valid values of each key but the grid keys, which are drawn together.
VALUES = {
    "fix": st.dictionaries(
        _PARAMS.map(lambda p: f"fix.{p}"),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        min_size=1,
        max_size=3,
    ),
    "out": st.text(min_size=1, max_size=20).filter(_is_one_line_value),
    "angles": st.sampled_from(("radians", "degrees")),
    "gnuplot": _word_in_any_case(_GNUPLOT_WORDS),
    "mu": st.floats(1e-300, 50.0).map(repr),
    "bins": st.integers(1, 2**63 - 1).map(str),
    "seed": st.integers(0, 2**64 - 1).map(str),
    "routing": st.sampled_from(("paired", "binomial")),
    "normalization": st.sampled_from(("analytic", "measured")),
}
_GRID_KEYS = ("preset", "sweep")


def test_every_key_but_mode_has_a_value_strategy():
    assert set(VALUES) | set(_GRID_KEYS) == set(KEYS) - {"mode"}
    assert set(BAD_ENTRIES) == set(KEYS) - {"mode"}


def _min_verify_bins(entries: dict) -> float:
    """The fewest bins at which verify expects 10 post-selected pairs per
    point: ``bins e^-mu mu^2 / 2``, halved under binomial routing."""
    mu = float(entries.get("mu", KEYS["mu"][1]))
    per_bin = math.exp(-mu) * mu * mu / 2.0
    if entries.get("routing", KEYS["routing"][1]) == "binomial":
        per_bin /= 2.0
    return 10.0 / per_bin * (1.0 + 1e-9) if per_bin else math.inf


@st.composite
def config_entries(draw):
    mode = draw(st.sampled_from(MODES))
    entries = {"mode": mode}
    if mode in KEYS["preset"][0]:
        if draw(st.booleans()):
            entries["preset"] = draw(st.sampled_from(sorted(PRESETS)))
        else:
            entries.update(draw(_sweep_entries()))
    for key, strategy in VALUES.items():
        if mode in KEYS[key][0] and draw(st.booleans()):
            value = draw(strategy)
            entries.update(value if isinstance(value, dict) else {key: value})
    if mode == "verify":
        # Only a source above verify's floor of 10 pairs per point is valid.
        least = _min_verify_bins(entries)
        if least >= 2**63:
            entries.pop("mu")
            least = _min_verify_bins(entries)
        if "bins" in entries or int(KEYS["bins"][1]) < least:
            entries["bins"] = str(draw(st.integers(math.ceil(least), 2**63 - 1)))
    return entries


# The first draw of an ``out`` path in a fresh checkout builds hypothesis's
# unicode table, which takes about a second.
@settings(suppress_health_check=[HealthCheck.too_slow])
@given(config_entries())
def test_every_config_the_table_allows_survives_its_canonical_text(entries):
    text = "".join(f"{key} = {value}\n" for key, value in entries.items())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = parse_config(text)
        assert parse_config(canonical_config_text(config)) == config
    # The one warning a valid config may raise, once per parse.
    strong = config.source is not None and config.source.mean_photon_number > 0.5
    assert [str(w.message).startswith("mean photon number") for w in caught] == [True] * (
        2 if strong else 0
    )



def _refusal(entries: dict) -> str | None:
    """The config error the CLI prints for a grid that ``SweepSpec`` refuses,
    as a pattern, or None: a fixed polarizer angle whose doubling overflows,
    or a parameter set twice (by two axes, an axis and a fixed value, or an
    alias and one of its targets)."""
    preset = PRESETS.get(entries.get("preset"))
    axes = [axis.name for axis in preset.axes] if preset else []
    fixed = dict(preset.fixed) if preset else {}
    to_radians = math.radians if entries.get("angles") == "degrees" else float
    for key, value in entries.items():
        head, _, param = key.partition(".")
        if head == "sweep":
            axes.append(param)
        elif head == "fix":
            fixed[param] = to_radians(float(value))
    for name, value in fixed.items():
        if name in ("xi", "theta", "zeta") and abs(value) > sys.float_info.max / 2:
            return r"config error: fixed parameter '\w+': polarizer angle above"
    targets = [t for name in axes + list(fixed) for t in ALIAS_TARGETS.get(name, (name,))]
    if len(targets) != len(set(targets)):
        return r"config error: parameter '\w+' set twice"
    return None


def _run_in_a_fresh_directory(mode: str, entries: dict):
    """``cli.main([mode, "--config", ...])`` in a temporary directory: its
    status, stdout and stderr lines, and the files it left with their text."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        patch.delenv(cli.OUT_DIR_ENV, raising=False)
        with open("run.cfg", "w", encoding="utf-8") as handle:
            handle.writelines(f"{key} = {value}\n" for key, value in entries.items())
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main([mode, "--config", "run.cfg"])
        files = {}
        for name in sorted(set(os.listdir(directory)) - {"run.cfg"}):
            with open(name, encoding="ascii") as handle:
                files[name] = handle.read()
    return status, stdout.getvalue().splitlines(), stderr.getvalue().splitlines(), files


# The test's own parse of a bright source warns, as the CLI's run did.
@pytest.mark.filterwarnings("ignore:mean photon number")
@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(config_entries())
def test_every_config_the_table_allows_runs_end_to_end(entries):
    mode = entries["mode"]
    if "out" in entries:
        entries = {**entries, "out": "scan.csv"}
    status, out, err, files = _run_in_a_fresh_directory(mode, entries)
    errors = [line for line in err if not line.startswith("warning: ")]
    refusal = _refusal(entries)
    if refusal:
        assert (status, out, files) == (1, [], {})
        assert len(errors) == 1 and re.match(refusal, errors[0]), errors
        return
    assert (status, errors) == (0, []), err
    if mode == "verify":
        assert len(out) == 12 and files == {}
        return
    config = parse_config("".join(f"{key} = {value}\n" for key, value in entries.items()))
    csv_name = entries.get("out", f"{mode}_{entries.get('preset', 'sweep')}.csv")
    written = [csv_name, csv_name[: -len(".csv")] + ".gp"] if config.gnuplot else [csv_name]
    assert sorted(files) == sorted(written)
    header, *lines = files[csv_name].splitlines()
    assert len(lines) == build_sweep_spec(config).n_points
    for name, cells in zip(header.split(","), zip(*(line.split(",") for line in lines))):
        if name in ("R_hat_AD", "stderr_AD", "R_hat_BC", "stderr_BC"):
            assert all(math.isfinite(float(cell)) or cell == "nan" for cell in cells), name
        else:
            assert all(math.isfinite(float(cell)) for cell in cells), name


def test_record_defaults_are_the_table_defaults():
    # The records restate these defaults for callers that build them directly.
    assert RunConfig.normalization == KEYS["normalization"][1]
    assert RunConfig.gnuplot is _as_bool("gnuplot", KEYS["gnuplot"][1])
    assert SourceParams.routing == KEYS["routing"][1]
    assert SourceParams.rng_seed == _as_int("seed", KEYS["seed"][1])


_SOURCE_KEYS = ("mu", "bins", "seed", "routing", "normalization")


@given(st.fixed_dictionaries({key: VALUES[key] for key in _SOURCE_KEYS}))
def test_every_source_the_table_allows_runs_a_monte_carlo_sweep(source):
    flags = [arg for key, value in source.items() for arg in (KEYS[key][2], value)]
    with tempfile.TemporaryDirectory() as directory:
        out = os.path.join(directory, "scan.csv")
        argv = ["montecarlo", "--sweep", "phi=0:3:1", "--fix", "xi=0.7", *flags, "--out", out]
        assert cli.main(argv) == 0
        with open(out) as handle:
            header, *lines = handle.read().splitlines()
    assert len(lines) == 4
    columns = dict(zip(header.split(","), zip(*(line.split(",") for line in lines))))
    n_pairs = [int(cell) for cell in columns["n_pairs"]]
    for name in ("R_hat_AD", "stderr_AD", "R_hat_BC", "stderr_BC"):
        assert all(math.isfinite(float(cell)) or cell == "nan" for cell in columns[name])
    assert all(cell == "nan" for n, cell in zip(n_pairs, columns["R_hat_AD"]) if n == 0)


# Values each key refuses, whatever the rest of a valid config holds.  The
# grid keys stand for all of a config's grid entries, and ``fix`` for all of
# its fixed ones; an empty value is refused for every key.
BAD_ENTRIES = {
    "preset": [{"preset": "fig5"}, {"preset": "FIG2"}],
    "sweep": [
        {"sweep.phi": "0:1"},
        {"sweep.phi": "1:0:0.5"},
        {"sweep.psi": "0:1:0"},
        {"sweep.psi": "0:1:-1"},
        {"sweep.xi": "0:inf:1"},
        {"sweep.xi": "0:1:x"},
        {"sweep.rho": "0:1e300:1e-300"},
        {"sweep.theta": "1e16:10000000000000064:1.5"},
        {"sweep.chi": "0:1:0.5"},
    ],
    "fix": [{"fix.phi": "nan"}, {"fix.psi": "-inf"}, {"fix.xi": "1e400"}, {"fix.chi": "1"}],
    "out": [{"out": "."}, {"out": "missing/x.csv"}, {"out": "run.cfg/x.csv"}, {"out": "a\0b.csv"}],
    "angles": [{"angles": "grads"}, {"angles": "Degrees"}],
    "gnuplot": [{"gnuplot": "maybe"}, {"gnuplot": "2"}],
    "mu": [{"mu": "0"}, {"mu": "-0.1"}, {"mu": "nan"}, {"mu": "1e-400"}, {"mu": "x"}],
    "bins": [{"bins": "0"}, {"bins": "-3"}, {"bins": str(2**63)}, {"bins": "1e6"}],
    "seed": [{"seed": "-1"}, {"seed": str(2**64)}, {"seed": "1.5"}],
    "routing": [{"routing": "both"}, {"routing": "Paired"}],
    "normalization": [{"normalization": "none"}, {"normalization": "Measured"}],
}
_ERROR_PREFIXES = ("config error: ", "error: ", "usage error: ")


def _without(entries: dict, key: str) -> dict:
    """``entries`` without the entries that ``key`` stands for."""
    heads = _GRID_KEYS if key in _GRID_KEYS else (key,)
    return {k: v for k, v in entries.items() if k.partition(".")[0] not in heads}


@st.composite
def bad_configs(draw):
    """A valid config with one key's entries swapped for a bad value."""
    entries = draw(config_entries())
    mode = entries["mode"]
    key = draw(st.sampled_from([key for key in BAD_ENTRIES if mode in KEYS[key][0]]))
    bad = draw(st.sampled_from(BAD_ENTRIES[key] + [{next(iter(BAD_ENTRIES[key][0])): ""}]))
    return mode, {**_without(entries, key), **bad}


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(bad_configs())
def test_every_bad_value_exits_one_with_one_error_line_and_no_file(bad):
    status, out, lines, files = _run_in_a_fresh_directory(*bad)
    errors = [line for line in lines if not line.startswith("warning: ")]
    assert status == 1, lines
    assert len(errors) == 1 and errors[0].startswith(_ERROR_PREFIXES), lines
    assert out == []
    assert files == {}
