"""CSV emission for sweep results, analytic and Monte Carlo.

Columns, in order:

    phi, psi, xi, theta, i_A, i_B, i_C, i_D, R_AD, R_BC, R_AD_normalized

and, when Monte Carlo results ride along:

    R_hat_AD, stderr_AD, R_hat_BC, stderr_BC, n_pairs

``R_AD_normalized`` is R_AD divided by its maximum over the emitted sweep
(0 when the sweep never rises above 0), so the column peaks at 1 on any
grid that reaches the true maximum.  Floats are printed with 17 significant
digits (full round-trip precision) and rows end with a bare newline, making
the byte stream a pure function of the records.

Files are written to a temporary name in the target directory and renamed
into place, so an interrupted run leaves the previous file (or none), never
a truncated one.
"""

from __future__ import annotations

import contextlib
import csv
import os
from typing import Callable, Sequence, TextIO

from .correlation import CorrelationRecord
from .montecarlo import McPointResult

ANALYTIC_COLUMNS = (
    "phi",
    "psi",
    "xi",
    "theta",
    "i_A",
    "i_B",
    "i_C",
    "i_D",
    "R_AD",
    "R_BC",
    "R_AD_normalized",
)

MC_COLUMNS = ("R_hat_AD", "stderr_AD", "R_hat_BC", "stderr_BC", "n_pairs")


def _fmt(value: float) -> str:
    # 17 significant digits: enough to reproduce the double exactly.
    return f"{value:.16e}"


def csv_rows(
    records: Sequence[CorrelationRecord],
    mc_results: Sequence[McPointResult] | None = None,
) -> list[list[str]]:
    """Render records (plus optional aligned MC results) to text cells."""
    if not records:
        raise ValueError("no records to write; refusing to emit an empty CSV")
    if mc_results is not None and len(mc_results) != len(records):
        raise ValueError(
            f"Monte Carlo results ({len(mc_results)}) do not align with the "
            f"analytic records ({len(records)})"
        )
    peak = max(record.r_ad for record in records)
    rows = [list(ANALYTIC_COLUMNS) + (list(MC_COLUMNS) if mc_results else [])]
    for index, record in enumerate(records):
        s = record.settings
        normalized = record.r_ad / peak if peak > 0.0 else 0.0
        row = [
            _fmt(s.phi_a),
            _fmt(s.psi_b),
            _fmt(s.xi_a),
            _fmt(s.theta_b),
            _fmt(record.i_a),
            _fmt(record.i_b),
            _fmt(record.i_c),
            _fmt(record.i_d),
            _fmt(record.r_ad),
            _fmt(record.r_bc),
            _fmt(normalized),
        ]
        if mc_results:
            point = mc_results[index]
            ad = point.estimates["AD"]
            bc = point.estimates["BC"]
            row += [
                _fmt(ad.value),
                _fmt(ad.std_error),
                _fmt(bc.value),
                _fmt(bc.std_error),
                str(point.counts.n_post_selected_pairs),
            ]
        rows.append(row)
    return rows


def _write_atomically(path, write: Callable[[TextIO], None], what: str) -> None:
    """Run ``write`` on a fresh file beside ``path``, then rename it over ``path``.

    On any failure the temporary file is removed and ``path`` is untouched.
    """
    head, tail = os.path.split(os.fspath(path))
    temp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        # O_EXCL: never write through an existing file or link of that name.
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="ascii", newline="") as handle:
                write(handle)
            os.replace(temp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def emit_csv(
    records: Sequence[CorrelationRecord],
    path,
    mc_results: Sequence[McPointResult] | None = None,
) -> None:
    """Write the sweep to ``path``; validation happens before any file opens."""
    rows = csv_rows(records, mc_results)
    _write_atomically(
        path,
        lambda handle: csv.writer(handle, lineterminator="\n").writerows(rows),
        "CSV",
    )


# Column positions (1-based, for gnuplot) of the plottable quantities.
_AXIS_COLUMN = {"phi": 1, "rho": 1, "psi": 2, "xi": 3, "zeta": 3, "theta": 4}


def gnuplot_script(
    csv_path: str, axis_names: Sequence[str], with_mc: bool
) -> str:
    """A ready-to-run gnuplot script plotting R_AD against the sweep axes.

    One axis gives a line plot (plus Monte Carlo error bars when present);
    two axes give a surface map.
    """
    if not axis_names or len(axis_names) > 2:
        raise ValueError("gnuplot output supports one or two sweep axes")
    columns = [_AXIS_COLUMN[name] for name in axis_names]
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{axis_names[0]} (rad)'",
    ]
    if len(columns) == 1:
        lines.append("set ylabel 'coincidence correlation'")
        plot = f"plot '{csv_path}' using {columns[0]}:9 with lines title 'R_AD'"
        if with_mc:
            plot += (
                f", '{csv_path}' using {columns[0]}:12:13 "
                "with yerrorbars title 'R_AD (MC)'"
            )
        lines.append(plot)
    else:
        lines += [
            f"set ylabel '{axis_names[1]} (rad)'",
            "set view map",
            f"splot '{csv_path}' using {columns[0]}:{columns[1]}:9 "
            "with pm3d title 'R_AD'",
        ]
    return "\n".join(lines) + "\n"


def emit_gnuplot(
    csv_path: str, script_path, axis_names: Sequence[str], with_mc: bool
) -> None:
    text = gnuplot_script(csv_path, axis_names, with_mc)
    _write_atomically(script_path, lambda handle: handle.write(text), "gnuplot script")
