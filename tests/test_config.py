"""Config parsing: grammar, overrides, unit conversion, canonical round-trip."""

import math
import re

import pytest

from nmzi.cli import main
from nmzi.config import (
    ConfigError,
    RunConfig,
    build_sweep_spec,
    canonical_config_text,
    parse_config,
)
from nmzi.correlation import PRESETS, SweepAxis, SweepSpec

FILE_TEXT = """
# alice drives phi, bob stays at zero
mode = analytic
sweep.phi = 0:6.2832:0.0628   # radians
fix.psi = 0.0
fix.xi = 0.7853981633974483
fix.theta = 0.7853981633974483
out = run.csv
"""


def test_parse_file_text():
    config = parse_config(FILE_TEXT)
    assert config.mode == "analytic"
    assert config.preset is None
    assert len(config.sweep_axes) == 1
    axis = config.sweep_axes[0]
    assert axis.name == "phi"
    assert axis.start == 0.0 and axis.step == 0.0628
    assert dict(config.fixed)["psi"] == 0.0
    assert config.out_path == "run.csv"
    assert config.gnuplot is False


def test_overrides_win_over_file():
    config = parse_config(FILE_TEXT, {"out": "other.csv", "fix.psi": "1.5"})
    assert config.out_path == "other.csv"
    assert dict(config.fixed)["psi"] == 1.5
    # untouched keys survive
    assert config.sweep_axes[0].name == "phi"


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="unknown config key 'frequency'"):
        parse_config("mode = analytic\nfrequency = 10\npreset = fig2\n")
    with pytest.raises(ConfigError, match="sweep.banana"):
        parse_config("mode = analytic\nsweep.banana = 0:1:0.1\n")


def test_preset_sweep_conflict_is_distinct():
    with pytest.raises(ConfigError, match="conflicts with explicit sweep"):
        parse_config(
            "mode = analytic\npreset = fig2\nsweep.phi = 0:1:0.1\n"
        )


def test_nonpositive_step_is_distinct():
    with pytest.raises(ConfigError, match="step must be positive"):
        parse_config("mode = analytic\nsweep.phi = 0:1:0\n")
    with pytest.raises(ConfigError, match="step must be positive"):
        parse_config("mode = analytic\nsweep.phi = 0:1:-0.1\n")


def test_start_must_precede_stop():
    with pytest.raises(ConfigError, match="start must be below stop"):
        parse_config("mode = analytic\nsweep.phi = 2:1:0.1\n")


def test_malformed_line_and_duplicates():
    with pytest.raises(ConfigError, match="malformed config line 2"):
        parse_config("mode = analytic\njust some words\n")
    with pytest.raises(ConfigError, match="duplicate config key 'mode'"):
        parse_config("mode = analytic\nmode = verify\npreset = fig2\n")


def test_bad_literals_name_the_key():
    with pytest.raises(ConfigError, match="'mu'"):
        parse_config("mode = montecarlo\npreset = fig2\nmu = fast\n")
    with pytest.raises(ConfigError, match="'bins'"):
        parse_config("mode = montecarlo\npreset = fig2\nbins = 1e6\n")
    with pytest.raises(ConfigError, match="'gnuplot'"):
        parse_config("mode = analytic\npreset = fig2\ngnuplot = maybe\n")
    with pytest.raises(ConfigError, match="config key 'mode': expected one of"):
        parse_config("mode = foo\npreset = fig2\n")
    with pytest.raises(ConfigError, match="config key 'angles': expected radians or degrees"):
        parse_config("mode = analytic\npreset = fig2\nangles = gradians\n")
    with pytest.raises(ConfigError, match="'sweep.phi': expected start:stop:step"):
        parse_config("mode = analytic\nsweep.phi = 0:1\n")
    with pytest.raises(ConfigError, match="'fix.xi': value must be finite"):
        parse_config("mode = analytic\npreset = fig3\nfix.xi = inf\n")


def test_missing_mode_and_missing_grid():
    with pytest.raises(ConfigError, match="missing config key 'mode'"):
        parse_config("preset = fig2\n")
    with pytest.raises(ConfigError, match="no sweep specified"):
        parse_config("mode = analytic\n")
    # verify runs without any grid
    assert parse_config("mode = verify\n").mode == "verify"


def test_degrees_directive_converts_to_radians():
    degrees = parse_config(
        "mode = analytic\nangles = degrees\n"
        "sweep.rho = 0:360:1.8\nfix.zeta = 45\n"
    )
    axis = degrees.sweep_axes[0]
    assert abs(axis.stop - 2.0 * math.pi) < 1e-12
    assert abs(axis.step - math.pi / 100.0) < 1e-12
    assert abs(dict(degrees.fixed)["zeta"] - math.pi / 4.0) < 1e-12
    # Equivalent radians config parses to the same stored values.
    radians = parse_config(
        "mode = analytic\n"
        f"sweep.rho = 0:{math.radians(360.0)!r}:{math.radians(1.8)!r}\n"
        f"fix.zeta = {math.radians(45.0)!r}\n"
    )
    assert radians == degrees


def test_degrees_does_not_touch_source_parameters():
    config = parse_config(
        "mode = montecarlo\npreset = fig2\nangles = degrees\nmu = 0.2\nbins = 1000\n"
    )
    assert config.source.mean_photon_number == 0.2
    assert config.source.n_time_bins == 1000


def test_montecarlo_defaults():
    config = parse_config("mode = montecarlo\npreset = fig2\n")
    assert config.source is not None
    assert config.source.mean_photon_number == 0.05
    assert config.source.n_time_bins == 1_000_000
    assert config.source.rng_seed == 0
    assert config.source.routing == "paired"
    assert config.normalization == "analytic"


@pytest.mark.parametrize(
    "key, value",
    [
        ("mu", "0.1"),
        ("bins", "1000"),
        ("seed", "3"),
        ("routing", "binomial"),
        ("normalization", "measured"),
    ],
)
def test_analytic_refuses_keys_it_does_not_read(key, value):
    message = f"config key '{key}' does not apply to mode 'analytic'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(f"mode = analytic\npreset = fig2\n{key} = {value}\n")


@pytest.mark.parametrize(
    "key, value",
    [
        ("preset", "fig2"),
        ("sweep.phi", "0:1:0.5"),
        ("fix.psi", "0.3"),
        ("out", "x.csv"),
        ("gnuplot", "true"),
        ("normalization", "measured"),
        ("angles", "degrees"),
    ],
)
def test_verify_refuses_keys_it_does_not_read(key, value):
    message = f"config key '{key}' does not apply to mode 'verify'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(f"mode = verify\n{key} = {value}\n")



def test_source_validation_surfaces_as_config_error():
    with pytest.raises(ConfigError, match="mean_photon_number"):
        parse_config("mode = montecarlo\npreset = fig2\nmu = -1\n")
    with pytest.raises(ConfigError, match="routing"):
        parse_config("mode = montecarlo\npreset = fig2\nrouting = quantum\n")


def test_sub_resolution_step_is_a_config_error(tmp_path, capsys):
    # Accepted, this axis wrote 101 rows holding 51 distinct phi values.
    out = tmp_path / "sub.csv"
    argv = ["analytic", "--sweep", "phi=1e16:1.00000000000001e16:1", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "config error: config key 'sweep.phi': axis phi: step 1.0 is below the "
        "spacing 2.0 of doubles at its grid values\n"
    )
    assert not out.exists()
    # A step of exactly one ulp there is accepted.
    argv[2] = "phi=1e16:1.00000000000002e16:2"
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == 102


def test_removed_streams_key_is_named():
    # Earlier versions read a 'streams' key; it is unknown like any other.
    with pytest.raises(ConfigError, match="unknown config key 'streams'"):
        parse_config("mode = montecarlo\npreset = fig2\nstreams = 4\n")


def test_grid_cap_is_a_config_error():
    with pytest.raises(ConfigError, match="sweep.phi.*cap of 10000000"):
        parse_config("mode = analytic\nsweep.phi = 0:1:1e-9\n")
    config = parse_config(
        "mode = analytic\nsweep.phi = 0:1:1e-4\nsweep.psi = 0:1:1e-4\n"
    )
    with pytest.raises(ConfigError, match="100020001 grid points"):
        build_sweep_spec(config)


def test_axis_declaration_order_preserved():
    config = parse_config(
        "mode = analytic\nsweep.psi = 0:1:0.5\nsweep.phi = 0:2:0.5\n"
    )
    assert [a.name for a in config.sweep_axes] == ["psi", "phi"]


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(mode="analytic", preset="fig2"),
        RunConfig(
            mode="analytic",
            sweep_axes=(SweepAxis("phi", 0.0, 2.0 * math.pi, 0.1),),
            fixed=(("psi", 0.3), ("theta", 0.7), ("xi", 1.1)),
            out_path="data/out.csv",
            gnuplot=True,
        ),
        parse_config(
            "mode = montecarlo\npreset = fig3\nmu = 0.125\nbins = 123456\n"
            "seed = 99\nrouting = binomial\n"
            "normalization = measured\nout = x.csv\n"
        ),
        parse_config(
            "mode = analytic\nangles = degrees\nsweep.rho = 0:360:1.8\n"
            "fix.zeta = 45\n"
        ),
        RunConfig(mode="analytic", preset="fig2", out_path="runs/a#1.csv"),
    ],
)
def test_canonical_text_round_trips(config):
    assert parse_config(canonical_config_text(config)) == config


def test_hash_starts_a_comment_only_at_line_start_or_after_whitespace():
    config = parse_config(
        "# a comment line\nmode = analytic\npreset = fig2\nout = runs/a#1.csv\t# note\n"
    )
    assert config.out_path == "runs/a#1.csv"


@pytest.mark.parametrize("out_path", ["", "a\nb.csv", " a.csv", "a.csv\t", "a #1.csv", "#a.csv"])
def test_canonical_text_refuses_values_a_line_cannot_carry(out_path):
    config = RunConfig(mode="analytic", preset="fig2", out_path=out_path)
    with pytest.raises(ValueError, match="config key 'out'"):
        canonical_config_text(config)


def test_run_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        RunConfig(mode="interactive")
    with pytest.raises(ConfigError):
        RunConfig(mode="analytic", preset="fig2", normalization="fancy")
    unknown = r"config key 'preset': expected one of \('fig2', 'fig3', 'fig4'\), got 'fig9'"
    with pytest.raises(ConfigError, match=unknown):
        RunConfig(mode="analytic", preset="fig9")
    with pytest.raises(ConfigError, match="conflicts"):
        RunConfig(
            mode="analytic",
            preset="fig2",
            sweep_axes=(SweepAxis("phi", 0.0, 1.0, 0.1),),
        )


def test_build_sweep_spec_resolves_presets_and_axes():
    preset_spec = build_sweep_spec(RunConfig(mode="analytic", preset="fig2"))
    assert preset_spec == PRESETS["fig2"]
    overridden = build_sweep_spec(
        RunConfig(mode="analytic", preset="fig2", fixed=(("zeta", -0.7853981633974483),))
    )
    assert dict(overridden.fixed)["zeta"] == -0.7853981633974483
    assert overridden.axes == PRESETS["fig2"].axes
    explicit = build_sweep_spec(
        RunConfig(
            mode="analytic",
            sweep_axes=(SweepAxis("phi", 0.0, 1.0, 0.1),),
            fixed=(("psi", 0.0),),
        )
    )
    assert explicit.axes[0].name == "phi"
    with pytest.raises(ConfigError, match="at least one axis"):
        build_sweep_spec(RunConfig(mode="verify"))


def test_a_spec_keeps_a_read_only_copy_of_its_fixed_values():
    spec = build_sweep_spec(RunConfig(mode="analytic", preset="fig2"))
    with pytest.raises(TypeError):
        spec.fixed["zeta"] = 0.0
    assert dict(PRESETS["fig2"].fixed) == {"zeta": math.pi / 4}
    given = {"psi": 0.5, "theta": 0.25}
    copied = SweepSpec(axes=(SweepAxis("phi", 0.0, 1.0, 0.5),), fixed=given)
    given["psi"] = 1.0
    assert dict(copied.fixed)["psi"] == 0.5
    # Equal specs hash equal, whatever order the fixed values came in.
    same = SweepSpec(axes=copied.axes, fixed={"theta": 0.25, "psi": 0.5})
    assert same == copied and hash(same) == hash(copied)
    assert hash(PRESETS["fig2"]) == hash(SweepSpec(PRESETS["fig2"].axes, {"zeta": math.pi / 4}))


def test_conflicting_parameters_fail_when_the_spec_is_built():
    explicit = parse_config(
        "mode = analytic\nsweep.rho = 0:1:0.5\nfix.phi = 0.0\n"
    )
    with pytest.raises(ConfigError, match="'phi' set twice"):
        build_sweep_spec(explicit)
    # A fix that collides with a preset's axis is refused the same way.
    with pytest.raises(ConfigError, match="'psi' set twice"):
        build_sweep_spec(parse_config("mode = analytic\npreset = fig2\nfix.psi = 1.0\n"))
