"""End-to-end tests of the command-line interface via ``main(argv)``."""

import argparse
import functools
import math
import time

import pytest

from nmzi import cli
from nmzi.cli import main
from nmzi.config import _validate_key, parse_config
from nmzi.elements import ElementConventions

QUARTER = math.pi / 4.0

THREE_AXES = ["--sweep", "phi=0:1:0.5", "--sweep", "psi=0:1:0.5", "--sweep", "xi=0:1:0.5"]


def _run_mc(out_path, seed="11"):
    return main(
        [
            "montecarlo",
            "--sweep",
            "rho=0:6.4:1.6",
            "--fix",
            f"zeta={QUARTER!r}",
            "--mu",
            "0.2",
            "--bins",
            "40000",
            "--seed",
            seed,
            "--out",
            str(out_path),
        ]
    )


def test_analytic_preset_writes_full_grid(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert main(["analytic", "--preset", "fig2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 201
    assert lines[0].startswith("phi,psi,xi,theta,i_A")
    assert f"wrote 201 grid points to {out}" in capsys.readouterr().out


def test_montecarlo_runs_are_byte_identical_for_a_seed(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert _run_mc(first) == 0
    assert _run_mc(second) == 0
    assert first.read_bytes() == second.read_bytes()
    third = tmp_path / "c.csv"
    assert _run_mc(third, seed="12") == 0
    assert third.read_bytes() != first.read_bytes()


def test_points_without_pairs_are_written_as_nan(tmp_path, capsys):
    # About 1.2 pairs per point at 1000 bins: many points draw none.
    out = tmp_path / "fig2.csv"
    assert main(["montecarlo", "--preset", "fig2", "--bins", "1000", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 201
    empty = [row for row in rows if row[-1] == "0"]
    assert empty and all(row[11:15] == ["nan"] * 4 for row in empty)
    assert all("nan" not in row for row in rows if row[-1] != "0")
    assert capsys.readouterr().err == ""


def test_degrees_flag_reproduces_radian_run(tmp_path):
    deg = tmp_path / "deg.csv"
    rad = tmp_path / "rad.csv"
    argv_deg = [
        "analytic",
        "--sweep",
        "phi=0:180:45",
        "--fix",
        "psi=0",
        "--fix",
        "xi=45",
        "--fix",
        "theta=45",
        "--degrees",
        "--out",
        str(deg),
    ]
    argv_rad = [
        "analytic",
        "--sweep",
        f"phi=0:{math.radians(180)!r}:{math.radians(45)!r}",
        "--fix",
        "psi=0",
        "--fix",
        f"xi={math.radians(45)!r}",
        "--fix",
        f"theta={math.radians(45)!r}",
        "--out",
        str(rad),
    ]
    assert main(argv_deg) == 0
    assert main(argv_rad) == 0
    assert deg.read_bytes() == rad.read_bytes()


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["analytic", "--preset", "fig9"], "config key 'preset'"),
        (
            ["analytic", "--preset", "fig2", "--sweep", "phi=0:1:0.5"],
            "conflicts with explicit sweep axes",
        ),
        (["analytic", "--sweep", "phi=0:1:0"], "step must be positive"),
        (["analytic", "--sweep", "phi=1:0:0.1"], "start must be below stop"),
        (["analytic", "--sweep", "phi"], "expects PARAM=VALUE"),
        (["analytic", "--sweep", "bogus=0:1:0.5"], "unknown"),
        (["analytic"], "no sweep specified"),
        (["analytic", "--config", "/nonexistent/f.cfg"], "cannot read config file"),
        (
            ["montecarlo", "--preset", "fig2", "--mu", "-1"],
            "mean_photon_number must be positive",
        ),
        (["frobnicate"], "usage error"),
        (
            ["montecarlo", "--preset", "fig2", "--bins", str(10**20)],
            "below 2**63",
        ),
        (
            ["analytic", "--sweep", "phi=0:1:0.5", "--sweep", "phi=0:2:0.5"],
            "config error: --sweep gives 'phi' twice",
        ),
        (
            ["analytic", "--sweep", "phi=0:1:0.5", "--fix", "psi=0", "--fix", " psi = 1"],
            "config error: --fix gives 'psi' twice",
        ),
        (["analytic", "--gnuplot", *THREE_AXES], "config error: config key 'gnuplot'"),
        (["montecarlo", "--gnuplot", *THREE_AXES], "config error: config key 'gnuplot'"),
        (["verify", "--skip-montecarlo"], "usage error"),
        (
            ["analytic", "--preset", "fig2", "--gnuplot", "--out", "scan.GP"],
            "config error: config key 'out'",
        ),
        (
            ["analytic", "--preset", "fig2", "--out", ""],
            "config error: config key 'out' has an empty value",
        ),
        (
            ["analytic", "--preset", "fig2", "--out", "   "],
            "config error: config key 'out' has an empty value",
        ),
        (
            ["analytic", "--preset", "fig2", "--preset", "fig3"],
            "usage error: argument --preset: may be given only once",
        ),
        (
            ["montecarlo", "--preset", "fig2", "--mu", "0.05", "--mu", "0.1"],
            "usage error: argument --mu: may be given only once",
        ),
    ],
)
def test_usage_errors_exit_one(argv, fragment, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NMZI_OUT_DIR", raising=False)
    assert main(argv) == 1
    assert fragment in capsys.readouterr().err
    # Refused before any work: no CSV, gnuplot script or temp file is left.
    assert list(tmp_path.iterdir()) == []


def test_verify_passes_and_prints_one_line_per_check(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "all 11 checks passed"


def test_verify_detects_corrupted_conventions(capsys, monkeypatch):
    # Negative control: break the polarizing splitter's reflection phase and
    # check that the CLI reports the failed check with exit code 2.
    monkeypatch.setattr(
        cli,
        "run_verification",
        functools.partial(
            cli.run_verification,
            conventions=ElementConventions(pbs_reflection_phase=1.0),
        ),
    )
    code = main(["verify"])
    assert code == 2
    out = capsys.readouterr().out
    assert "FAIL  composed station matches closed form" in out
    assert "1 of 11 checks FAILED" in out


def test_photon_number_warning_is_one_stderr_line(tmp_path, capsys):
    out = tmp_path / "bright.csv"
    argv = ["montecarlo", "--sweep", "rho=0:1.6:0.8", "--mu", "0.6", "--bins", "20000"]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: mean photon number 0.6 is outside the strongly attenuated "
        "regime (mu << 1); pair post-selection discards most bins\n"
    )
    assert len(out.read_text().splitlines()) == 4
    # The Python API still warns as before once main has returned.
    with pytest.warns(UserWarning, match="mean photon number 0.6"):
        parse_config(None, {"mode": "montecarlo", "sweep.rho": "0:1:1", "mu": "0.6"})


def test_out_dir_env_names_the_default_path(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NMZI_OUT_DIR", str(tmp_path))
    assert main(["analytic", "--preset", "fig3"]) == 0
    assert (tmp_path / "analytic_fig3.csv").exists()
    capsys.readouterr()


def test_config_file_drives_a_run_and_flags_win(tmp_path, capsys):
    config_out = tmp_path / "from_config.csv"
    flag_out = tmp_path / "from_flag.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# synchronized scan\n"
        "preset = fig2\n"
        f"out = {config_out}\n"
    )
    assert main(["analytic", "--config", str(cfg)]) == 0
    assert config_out.exists()
    assert (
        main(["analytic", "--config", str(cfg), "--out", str(flag_out)]) == 0
    )
    assert flag_out.exists()
    assert flag_out.read_bytes() == config_out.read_bytes()
    capsys.readouterr()


def test_config_file_with_byte_order_mark_drives_the_same_run(tmp_path, capsys):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    body = "preset = fig2\nfix.zeta = 0.5\n"
    plain.write_text("mode = analytic\n" + body, encoding="utf-8")
    marked.write_text("mode = analytic\n" + body, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for cfg in (plain, marked):
        assert main(["analytic", "--config", str(cfg), "--out", str(cfg) + ".csv"]) == 0
    capsys.readouterr()
    assert (tmp_path / "marked.cfg.csv").read_bytes() == (tmp_path / "plain.cfg.csv").read_bytes()


def test_every_flag_dest_is_its_config_key():
    parser = cli._build_parser()
    (modes,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    _validate_key(modes.dest)
    for sub in modes.choices.values():
        for action in sub._actions:
            if action.dest not in ("help", "config", "sweep", "fix"):
                _validate_key(action.dest)
    args = parser.parse_args(
        ["analytic", "--sweep", "phi=0:180:45", "--degrees", "--gnuplot"]
    )
    assert cli._load_config(args) == parse_config(
        "mode = analytic\nsweep.phi = 0:180:45\nangles = degrees\ngnuplot = true\n"
    )


def test_gnuplot_script_lands_next_to_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["analytic", "--preset", "fig2", "--gnuplot", "--out", str(out)]) == 0
    script = tmp_path / "scan.gp"
    assert script.exists()
    assert str(out) in script.read_text()
    assert str(script) in capsys.readouterr().out


@pytest.mark.parametrize(
    "sweeps",
    [["phi=0:1:1e-12"], ["phi=0:1:1e-4", "psi=0:1:1e-4"]],
    ids=["one_axis", "two_axes"],
)
def test_oversized_grid_exits_one_at_once(sweeps, tmp_path, capsys):
    argv = ["montecarlo", "--out", str(tmp_path / "x.csv")]
    for item in sweeps:
        argv += ["--sweep", item]
    started = time.perf_counter()
    assert main(argv) == 1
    # Counting the points takes microseconds; building 10^8 would take minutes.
    assert time.perf_counter() - started < 5.0
    assert "cap of 10000000" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_removed_streams_key_exits_one_and_names_it(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = fig2\nstreams = 4\n")
    assert main(["montecarlo", "--config", str(cfg)]) == 1
    assert "config error: unknown config key 'streams'" in capsys.readouterr().err
    assert main(["montecarlo", "--preset", "fig2", "--streams", "4"]) == 1
    assert "--streams" in capsys.readouterr().err


def test_config_keys_a_mode_does_not_read_exit_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = fig2\nmu = 0.1\n")
    assert main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "config error: config key 'mu' does not apply to mode 'analytic'" in err
    assert not (tmp_path / "x.csv").exists()
    assert main(["verify", "--config", str(cfg)]) == 1
    assert "config key 'preset' does not apply to mode 'verify'" in capsys.readouterr().err


# The exact option strings each subcommand accepts, stated here apart from
# config.KEY_MODES so that a slip in the mapping shows.
MODE_FLAGS = {
    "analytic": ["--config", "--preset", "--sweep", "--fix", "--out", "--degrees", "--gnuplot"],
    "montecarlo": [
        "--config", "--preset", "--sweep", "--fix", "--out", "--degrees", "--gnuplot",
        "--mu", "--bins", "--seed", "--routing", "--normalization",
    ],
    "verify": ["--config", "--mu", "--bins", "--seed", "--routing"],
}

# Each config key, the flag that sets it and a value the key accepts.
KEY_FLAG_VALUE = {
    "preset": ("--preset", "fig2"),
    "sweep.phi": ("--sweep", "0:1:0.5"),
    "fix.psi": ("--fix", "0"),
    "out": ("--out", "x.csv"),
    "angles": ("--degrees", "degrees"),
    "gnuplot": ("--gnuplot", "true"),
    "mu": ("--mu", "0.05"),
    "bins": ("--bins", "100"),
    "seed": ("--seed", "1"),
    "routing": ("--routing", "paired"),
    "normalization": ("--normalization", "measured"),
}


@pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
def test_each_mode_takes_exactly_its_flags(mode, tmp_path, capsys, monkeypatch):
    parser = cli._build_parser()
    (modes,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = [
        option
        for action in modes.choices[mode]._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    ]
    assert sorted(options) == sorted(MODE_FLAGS[mode])
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    for key, (flag, value) in KEY_FLAG_VALUE.items():
        if flag in MODE_FLAGS[mode]:
            continue
        cfg.write_text(f"{key} = {value}\n")
        assert main([mode, "--config", str(cfg)]) == 1
        assert f"config key {key!r} does not apply to mode {mode!r}" in capsys.readouterr().err
    # Refused before any work: nothing but the config file is left.
    assert {path.name for path in tmp_path.iterdir()} <= {"run.cfg"}
