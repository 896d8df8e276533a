"""CSV and gnuplot emission: schema, values, determinism, error handling."""

import csv
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from nmzi import output
from nmzi.correlation import PRESETS, record_at, sweep_settings
from nmzi.montecarlo import (
    ESTIMATE_COLUMNS,
    SourceParams,
    estimate_columns,
    run_experiment,
)
from nmzi.output import (
    ANALYTIC_COLUMNS,
    csv_rows,
    emit_csv,
    emit_gnuplot,
    gnuplot_script,
)

QUARTER = math.pi / 4.0


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def sweep(name):
    """Settings and computed columns of a preset sweep."""
    settings = sweep_settings(PRESETS[name])
    return settings, record_at(settings)


def test_header_and_column_order():
    settings, records = sweep("fig2")
    rows = "".join(csv_rows(settings, records)).splitlines(keepends=True)
    header = rows[0].rstrip("\n").split(",")
    assert header == list(ANALYTIC_COLUMNS)
    assert header[:4] == ["phi", "psi", "xi", "theta"]
    assert header[-1] == "R_AD_normalized"
    assert len(rows) == len(records) + 1
    assert all(row.endswith("\n") and row.count(",") == 10 for row in rows)


def test_normalized_column_peaks_at_one(tmp_path):
    path = tmp_path / "fig2.csv"
    emit_csv(*sweep("fig2"), path)
    rows = read_rows(path)
    assert len(rows) == 201
    # at rho = pi/2 the synchronized correlation is maximal
    halfway = min(
        rows, key=lambda r: abs(float(r["phi"]) - math.pi / 2.0)
    )
    assert abs(float(halfway["R_AD_normalized"]) - 1.0) < 1e-12
    for row in rows:
        expected = math.sin(float(row["phi"])) ** 2
        assert abs(float(row["R_AD_normalized"]) - expected) < 1e-12


def test_two_phase_map_values(tmp_path):
    path = tmp_path / "fig3.csv"
    emit_csv(*sweep("fig3"), path)
    rows = read_rows(path)

    def at(phi, psi):
        for row in rows:
            if (
                abs(float(row["phi"]) - phi) < 1e-9
                and abs(float(row["psi"]) - psi) < 1e-9
            ):
                return row
        raise AssertionError(f"no row at ({phi}, {psi})")

    origin = at(0.0, 0.0)
    # Both fringe products vanish at the origin; the peaks sit at opposite
    # phase corners.
    assert abs(float(origin["R_AD"])) < 1e-12
    assert abs(float(origin["R_BC"])) < 1e-12
    assert abs(float(at(math.pi, 0.0)["R_AD"]) - 4.0) < 1e-12
    assert abs(float(at(0.0, math.pi)["R_BC"]) - 4.0) < 1e-12
    # normalization peak on this grid is the true maximum 4
    assert abs(float(at(math.pi, 0.0)["R_AD_normalized"]) - 1.0) < 1e-12


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Values whose text a renderer that dedups by value could get wrong: signed
# zeros, nans with different payloads and signs, infinities, subnormals.
_EDGE_FLOATS = [
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    _float_from_bits(0x7FF8000000000000),
    _float_from_bits(0x7FF8000000000001),
    _float_from_bits(0xFFF8000000000000),
    _float_from_bits(0x7FF0000000000123),
    5e-324,
    -5e-324,
    2.225073858507201e-308,
    1.0,
    1.0 / 3.0,
]

_REFERENCE_HEADER = "phi,psi,xi,theta,i_A,i_B,i_C,i_D,R_AD,R_BC,R_AD_normalized"
_REFERENCE_MC_HEADER = ",R_hat_AD,stderr_AD,R_hat_BC,stderr_BC,n_pairs"


@st.composite
def _repetitive_columns(draw, n_rows, n_columns, values):
    """Columns whose cells mostly come from a small palette, so values repeat."""
    palette = draw(st.lists(values, min_size=1, max_size=4))
    cell = st.sampled_from(palette) | values
    column = st.lists(cell, min_size=n_rows, max_size=n_rows)
    return [draw(column) for _ in range(n_columns)]


@st.composite
def _sweeps(draw):
    n = draw(st.integers(1, 12))
    floats = st.sampled_from(_EDGE_FLOATS) | st.floats(width=64)
    settings = np.array(draw(_repetitive_columns(n, 4, floats))).T
    records = np.array(draw(_repetitive_columns(n, 6, floats))).T
    mc_columns = None
    if draw(st.booleans()):
        mc_columns = [np.array(c) for c in draw(_repetitive_columns(n, 4, floats))]
        int64 = st.integers(-(2**63), 2**63 - 1)
        (n_pairs,) = draw(_repetitive_columns(n, 1, int64))
        mc_columns.append(np.array(n_pairs, dtype=np.int64))
    return settings, records, mc_columns


def _reference_rows(settings, records, mc_columns):
    """The CSV restated one cell at a time, with the header written out."""
    r_ad = records[:, 4]
    peak = r_ad.max()
    normalized = r_ad / peak if peak > 0.0 else np.zeros_like(r_ad)
    header = _REFERENCE_HEADER
    columns = [*settings.T.tolist(), *records.T.tolist(), normalized.tolist()]
    if mc_columns is not None:
        header += _REFERENCE_MC_HEADER
        columns += [column.tolist() for column in mc_columns]
    rows = [header + "\n"]
    for row in zip(*columns):
        cells = ["{:.16e}".format(value) for value in row[:15]]
        if mc_columns is not None:
            cells.append("{}".format(row[15]))
        rows.append(",".join(cells) + "\n")
    return rows


@given(_sweeps())
@example(
    (
        np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0]]),
        np.array([[-0.0, 0.0, 1.0, 1.0, 0.0, -0.0], [0.0, -0.0, 1.0, 1.0, 0.0, 0.0]]),
        None,
    )
)
@hyp_settings(max_examples=100, deadline=None)
def test_csv_rows_match_a_per_cell_restatement(sweep):
    settings, records, mc_columns = sweep
    with np.errstate(all="ignore"):
        rows = csv_rows(settings, records, mc_columns)
        expected = _reference_rows(settings, records, mc_columns)
    assert type(rows) is list
    assert all(type(row) is str for row in rows)
    assert "".join(rows).splitlines(keepends=True) == expected


@pytest.mark.parametrize("n_rows", [1, 1023, 1024, 1025, 2049])
@pytest.mark.parametrize("with_mc", [False, True], ids=["analytic", "mc"])
def test_row_blocks_join_to_the_per_cell_restatement(n_rows, with_mc):
    rng = np.random.default_rng(n_rows)
    palette = np.array(_EDGE_FLOATS + [0.25, -3.5e-7, 1e300])

    def column():
        # Half the cells from a small palette, so that values repeat.
        values = rng.normal(size=n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)
        return np.where(rng.random(n_rows) < 0.5, rng.choice(palette, n_rows), values)

    settings = np.stack([column() for _ in range(4)], axis=1)
    records = np.stack([column() for _ in range(6)], axis=1)
    # The R_AD peak sits in the last block, and every block is normalized by it.
    records[:, 4] = rng.uniform(0.0, 1.0, n_rows)
    records[-1, 4] = 2.0
    mc_columns = None
    if with_mc:
        mc_columns = [column() for _ in range(4)]
        mc_columns.append(rng.integers(0, 3, n_rows) * rng.integers(0, 2**62, n_rows))
    with np.errstate(all="ignore"):
        rows = csv_rows(settings, records, mc_columns)
        expected = _reference_rows(settings, records, mc_columns)
    assert rows[0] == expected[0]
    assert [chunk.count("\n") for chunk in rows[1:]] == [
        min(1024, n_rows - start) for start in range(0, n_rows, 1024)
    ]
    assert "".join(rows) == "".join(expected)


def test_empty_records_error_and_no_file(tmp_path):
    path = tmp_path / "nothing.csv"
    settings, records = sweep("fig2")
    with pytest.raises(ValueError, match="no records"):
        emit_csv(settings[:0], records[:0], path)
    assert not path.exists()


def test_mc_columns_and_alignment(tmp_path):
    settings, records = sweep("fig2")
    settings, records = settings[:20], records[:20]
    src = SourceParams(mean_photon_number=0.2, n_time_bins=50_000, rng_seed=6)
    fates = run_experiment(record_at(settings)[:, :4], src).fates
    mc = estimate_columns(fates, "analytic")
    path = tmp_path / "mc.csv"
    emit_csv(settings, records, path, mc)
    with open(path, newline="") as handle:
        header = next(csv.reader(handle))
    assert header == list(ANALYTIC_COLUMNS) + list(ESTIMATE_COLUMNS)
    rows = read_rows(path)
    r_hat_ad, _, _, stderr_bc, _ = mc
    n_pairs = fates.sum(axis=1).tolist()
    for row, n, r_hat, stderr in zip(rows, n_pairs, r_hat_ad, stderr_bc):
        assert int(row["n_pairs"]) == n
        assert float(row["R_hat_AD"]) == r_hat
        assert float(row["stderr_BC"]) == stderr
    with pytest.raises(ValueError, match="do not align"):
        emit_csv(settings, records, path, [column[:-1] for column in mc])


def test_byte_determinism_analytic(tmp_path):
    settings, records = sweep("fig2")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(settings, records, a)
    emit_csv(settings, records, b)
    assert a.read_bytes() == b.read_bytes()


def test_byte_determinism_mc(tmp_path):
    settings, records = sweep("fig2")
    settings, records = settings[:8], records[:8]
    src = SourceParams(mean_photon_number=0.1, n_time_bins=100_000, rng_seed=21)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        mc = estimate_columns(run_experiment(records[:, :4], src).fates, "analytic")
        emit_csv(settings, records, path, mc)
    assert a.read_bytes() == b.read_bytes()


def test_rows_end_with_bare_newline(tmp_path):
    path = tmp_path / "x.csv"
    settings, records = sweep("fig2")
    emit_csv(settings[:5], records[:5], path)
    data = path.read_bytes()
    assert data.endswith(b"\n")
    assert b"\r" not in data


def test_floats_round_trip_exactly(tmp_path):
    path = tmp_path / "x.csv"
    settings, records = sweep("fig2")
    emit_csv(settings, records, path)
    second_line = path.read_text().splitlines()[2]
    cell = second_line.split(",")[0]
    assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2,3}", cell)
    assert float(cell) == settings[1, 0]


def test_io_error_includes_path(tmp_path):
    settings, records = sweep("fig2")
    bad = tmp_path / "missing_dir" / "x.csv"
    with pytest.raises(OSError, match="cannot write CSV to .*missing_dir"):
        emit_csv(settings[:3], records[:3], bad)


@pytest.mark.parametrize(
    "error, raised, match",
    [
        (RuntimeError("interrupted"), RuntimeError, "interrupted"),
        (OSError(28, "No space left on device"), OSError, "cannot write CSV to"),
    ],
    ids=["interrupt", "disk_full"],
)
def test_failed_write_keeps_old_file_and_no_temp(tmp_path, monkeypatch, error, raised, match):
    path = tmp_path / "x.csv"
    settings, records = sweep("fig2")
    emit_csv(settings[:3], records[:3], path)
    before = path.read_bytes()

    real_rows = output.csv_rows

    def half_then_fail(*args):
        rows = real_rows(*args)
        yield from rows[: len(rows) // 2]
        raise error

    monkeypatch.setattr(output, "csv_rows", half_then_fail)
    with pytest.raises(raised, match=match):
        emit_csv(settings, records, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def test_rewrite_replaces_existing_file(tmp_path):
    path = tmp_path / "x.csv"
    settings, records = sweep("fig2")
    emit_csv(settings, records, path)
    emit_csv(settings[:3], records[:3], path)
    assert len(path.read_text().splitlines()) == 1 + 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


FIG2_MC_SCRIPT = (
    "set datafile separator ','\n"
    "set key autotitle columnhead\n"
    "set xlabel 'rho (rad)'\n"
    "set ylabel 'coincidence correlation'\n"
    "plot 'fig2.csv' using 1:9 with lines title 'R_AD', "
    "'fig2.csv' using 1:12:13 with yerrorbars title 'R_AD (MC)'\n"
)

FIG3_SCRIPT = (
    "set datafile separator ','\n"
    "set key autotitle columnhead\n"
    "set xlabel 'phi (rad)'\n"
    "set ylabel 'psi (rad)'\n"
    "set view map\n"
    "splot 'fig3.csv' using 1:2:9 with pm3d title 'R_AD'\n"
)


def test_gnuplot_script_single_axis(tmp_path):
    assert gnuplot_script("fig2.csv", ["rho"], with_mc=True) == FIG2_MC_SCRIPT
    # A quote in the path is doubled, as gnuplot's single-quoted strings need.
    assert gnuplot_script("it's.csv", ["rho"], with_mc=True) == FIG2_MC_SCRIPT.replace(
        "'fig2.csv'", "'it''s.csv'"
    )
    # without MC there are no error bars
    assert "yerrorbars" not in gnuplot_script("fig2.csv", ["rho"], with_mc=False)


def test_gnuplot_script_two_axes_and_errors(tmp_path):
    script = gnuplot_script("fig3.csv", ["phi", "psi"], with_mc=False)
    assert script == FIG3_SCRIPT
    with pytest.raises(ValueError):
        gnuplot_script("x.csv", [], with_mc=False)
    with pytest.raises(ValueError):
        gnuplot_script("x.csv", ["phi", "psi", "xi"], with_mc=False)
    path = tmp_path / "plot.gp"
    emit_gnuplot("fig3.csv", path, ["phi", "psi"], with_mc=False)
    assert path.read_text() == script
