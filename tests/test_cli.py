"""End-to-end tests of the command-line interface via ``main(argv)``, and of
the process entry that ``python -m nmzi.cli`` and the ``nmzi`` script run."""

import argparse
import ast
import errno
import functools
import gc
import math
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nmzi import cli, verify
from nmzi.cli import main
from nmzi.config import _validate_key, parse_config
from nmzi.elements import ElementConventions

QUARTER = math.pi / 4.0

ROOT = Path(__file__).resolve().parent.parent

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


def test_measured_normalization_with_a_dark_detector_writes_nan(tmp_path, capsys):
    # Detector C never fires on the fig4 grid, so BC has no measured
    # normalization; AD has pairs at every point.
    out = tmp_path / "fig4.csv"
    argv = ["montecarlo", "--preset", "fig4", "--normalization", "measured", "--out", str(out)]
    assert main(argv) == 0
    header, *lines = out.read_text().splitlines()
    columns = dict(zip(header.split(","), zip(*(line.split(",") for line in lines))))
    assert len(lines) == 10_201
    assert set(columns["R_hat_BC"]) == set(columns["stderr_BC"]) == {"nan"}
    assert all(math.isfinite(float(v)) for v in columns["R_hat_AD"] + columns["stderr_AD"])
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
        (
            ["analytic", "--preset", "fig2", "--out", "nodir/x.csv"],
            "config error: config key 'out'",
        ),
        (
            ["montecarlo", "--preset", "fig2", "--normalization", "fancy"],
            "config error: normalization must be one of ('analytic', 'measured'), "
            "got 'fancy'",
        ),
        # sin(2 xi) would overflow: refused, not written as nan or a numpy error.
        (
            ["analytic", "--sweep", "phi=0:1:0.5", "--fix", "xi=1e308"],
            "config error: fixed parameter 'xi': polarizer angle",
        ),
        (
            ["montecarlo", "--sweep", "zeta=0:1e308:1e307", "--bins", "100"],
            "config error: config key 'sweep.zeta': axis zeta: polarizer angle",
        ),
        # Too dim for verify's nine check points: refused before sampling.
        (["verify", "--bins", "1000"], "config error: config keys 'bins' and 'mu'"),
        (["verify", "--bins", "2"], "config error: config keys 'bins' and 'mu'"),
        (["verify", "--mu", "1e-300"], "config error: config keys 'bins' and 'mu'"),
    ],
)
def test_usage_errors_exit_one(argv, fragment, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NMZI_OUT_DIR", raising=False)
    assert main(argv) == 1
    assert fragment in capsys.readouterr().err
    # Refused before any work: no CSV, gnuplot script or temp file is left.
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_is_refused_before_the_sweep(tmp_path, capsys, monkeypatch):
    def expand(spec):
        raise AssertionError("the sweep was expanded")

    monkeypatch.setattr(cli, "sweep_settings", expand)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NMZI_OUT_DIR", raising=False)
    (tmp_path / "taken").mkdir()
    (tmp_path / "scan.gp").mkdir()
    # A rename over a FIFO would put a regular file in its place.
    os.mkfifo(tmp_path / "pipe.csv")
    os.mkfifo(tmp_path / "fifo.gp")
    for flags, fragment in [
        (["--out", "taken"], "taken is a directory"),
        (["--out", "nodir/x.csv"], "no directory nodir"),
        (["--gnuplot", "--out", "scan.csv"], "scan.gp is a directory"),
        (["--out", "pipe.csv"], "pipe.csv is not a regular file"),
        (["--gnuplot", "--out", "fifo.csv"], "fifo.gp is not a regular file"),
        # The script's plot command would be split over two lines.
        (["--gnuplot", "--out", "a\nb.csv"], "a gnuplot script cannot name 'a\\nb.csv'"),
    ]:
        assert main(["analytic", "--preset", "fig2", *flags]) == 1
        assert f"config error: config key 'out': {fragment}" in capsys.readouterr().err
    for name in ("pipe.csv", "fifo.gp"):
        assert stat.S_ISFIFO(os.lstat(tmp_path / name).st_mode)
    # A default path in a missing NMZI_OUT_DIR is refused the same way.
    monkeypatch.setenv("NMZI_OUT_DIR", str(tmp_path / "missing"))
    assert main(["montecarlo", "--preset", "fig2"]) == 1
    assert "config error: config key 'out': no directory" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "fifo.gp", "pipe.csv", "scan.gp", "taken"
    ]
    assert list((tmp_path / "taken").iterdir()) == []


def test_failed_write_exits_one_and_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError(errno.EACCES, "Permission denied")

    monkeypatch.setattr("nmzi.output.os.replace", refuse)
    out = tmp_path / "scan.csv"
    out.write_text("old\n")
    assert main(["analytic", "--preset", "fig2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write CSV to {out}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert out.read_text() == "old\n"
    assert [path.name for path in tmp_path.iterdir()] == ["scan.csv"]


@pytest.mark.skipif(
    not hasattr(os, "pathconf"), reason="os.pathconf, which gives the longest file name, is absent"
)
def test_longest_file_name_the_directory_takes_is_written(tmp_path, capsys):
    # The temporary file beside it must not need a longer name.
    name = "y" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(".csv")) + ".csv"
    assert main(["analytic", "--preset", "fig2", "--out", str(tmp_path / name)]) == 0
    assert [path.name for path in tmp_path.iterdir()] == [name]
    assert len((tmp_path / name).read_text().splitlines()) == 1 + 201
    assert capsys.readouterr().err == ""


def test_nul_in_out_is_refused_before_the_sweep(tmp_path, capsys, monkeypatch):
    def expand(spec):
        raise AssertionError("the sweep was expanded")

    monkeypatch.setattr(cli, "sweep_settings", expand)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("preset = fig2\nout = a\0b.csv\n")
    assert main(["analytic", "--config", "run.cfg"]) == 1
    assert capsys.readouterr().err == (
        "config error: config key 'out': no file name holds a NUL, got 'a\\x00b.csv'\n"
    )
    assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]


def test_dim_verify_source_is_refused_before_sampling(capsys, monkeypatch):
    def sample(settings, source):
        raise AssertionError("the source was sampled")

    monkeypatch.setattr(verify, "run_experiment", sample)
    # 11.9 expected pairs per point under binomial routing at 20 000 bins is
    # enough; 9.5 at 16 000 bins is not.
    assert main(["verify", "--bins", "16000", "--routing", "binomial"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "config error: config keys 'bins' and 'mu': 9.51 expected post-selected "
        "pairs per verify point, below 10\n"
    )
    with pytest.raises(AssertionError, match="the source was sampled"):
        main(["verify", "--bins", "20000", "--routing", "binomial"])


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


# A name in UTF-8, and one whose byte no encoding decodes (held as a surrogate).
@pytest.mark.parametrize("name", ["é.csv", os.fsdecode(b"b\xff.csv")], ids=["utf8", "raw_byte"])
def test_gnuplot_script_names_a_non_ascii_csv_by_its_bytes(name, tmp_path):
    out = os.path.join(str(tmp_path), name)
    assert main(["analytic", "--preset", "fig2", "--gnuplot", "--out", out]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted([name, os.path.splitext(name)[0] + ".gp"])
    script = (tmp_path / (os.path.splitext(name)[0] + ".gp")).read_bytes()
    (plot,) = [line for line in script.splitlines() if line.startswith(b"plot ")]
    assert os.fsencode(out) in plot


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
# the config.KEYS table so that a slip in the table shows.
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


# ``python -m nmzi.cli ARGV`` in a child that prints its freeze count last.
_ENTRY_CHILD = (
    "import atexit, gc, runpy\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
    "runpy.run_module('nmzi.cli', run_name='__main__', alter_sys=True)\n"
)


def _run_entry(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", _ENTRY_CHILD, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_process_entry_freezes_the_heap_and_keeps_the_output(tmp_path, capsys):
    child_csv, main_csv = tmp_path / "child.csv", tmp_path / "main.csv"
    done = _run_entry(["analytic", "--preset", "fig2", "--out", str(child_csv)], tmp_path)
    assert done.returncode == 0, done.stderr
    wrote, frozen = done.stdout.splitlines()
    assert wrote == f"wrote 201 grid points to {child_csv}"
    assert frozen.startswith("frozen ") and int(frozen.split()[1]) > 0
    assert main(["analytic", "--preset", "fig2", "--out", str(main_csv)]) == 0
    capsys.readouterr()
    assert child_csv.read_bytes() == main_csv.read_bytes()

    done = _run_entry(["analytic", "--preset", "fig2", "--preset", "fig3"], tmp_path)
    assert done.returncode == 1
    assert done.stderr == "usage error: argument --preset: may be given only once\n"


def test_main_leaves_the_freeze_count_alone(tmp_path, capsys):
    before = gc.get_freeze_count()
    assert main(["analytic", "--preset", "fig2", "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["analytic", "--preset", "fig2", "--preset", "fig3"]) == 1
    capsys.readouterr()
    assert gc.get_freeze_count() == before


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is missing on Python 3.10")
def test_script_entry_is_the_main_block_entry():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    module, _, function = project["scripts"]["nmzi"].partition(":")
    assert module == "nmzi.cli" and callable(getattr(cli, function))
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = (
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    )
    assert [ast.unparse(statement) for statement in block.body] == [f"{function}()"]
