"""CSV emission for sweep results, analytic and Monte Carlo.

Columns, in order:

    phi, psi, xi, theta, i_A, i_B, i_C, i_D, R_AD, R_BC, R_AD_normalized

and, when Monte Carlo results ride along:

    R_hat_AD, stderr_AD, R_hat_BC, stderr_BC, n_pairs

The first four are the ``(N, 4)`` settings array, the next six the array
:func:`nmzi.correlation.record_at` returns for it, and the Monte Carlo five
the columns :func:`nmzi.montecarlo.estimate_columns` returns for the sweep,
appended as they are.  ``R_AD_normalized`` is R_AD divided by its maximum
over the emitted sweep (0 when the sweep never rises above 0), so the column
peaks at 1 on any grid that reaches the true maximum.  Floats are printed
with 17 significant digits (full round-trip precision), ``n_pairs`` as an
integer, and rows end with a bare newline, making the byte stream a pure
function of the inputs.

Rendering goes column by column, because a sweep's columns repeat values
heavily (a 101 x 101 map has 101 distinct values per axis): each column's
distinct values are formatted once and the text is gathered back through
``np.unique``'s inverse index, then each row's cells are joined.  Floats are
told apart by bit pattern, not by value, so ``-0.0`` and ``0.0`` keep their
own text.

Files are written to a temporary name in the target directory and renamed
into place, so an interrupted run leaves the previous file (or none), never
a truncated one.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Sequence, TextIO

import numpy as np

from .correlation import RECORD_COLUMNS, SETTINGS_COLUMNS
from .montecarlo import ESTIMATE_COLUMNS

ANALYTIC_COLUMNS = SETTINGS_COLUMNS + RECORD_COLUMNS + ("R_AD_normalized",)

# 17 significant digits: enough to reproduce the double exactly.
_FLOAT = "{:.16e}"


def csv_rows(
    settings: np.ndarray,
    records: np.ndarray,
    mc_columns: Sequence[np.ndarray] | None = None,
) -> list[str]:
    """Render the sweep to CSV lines, header first, each ending in a newline.

    ``records`` is ``record_at(settings)``; ``mc_columns``, when given, is
    ``estimate_columns`` of the sweep, aligned with the rows of ``settings``.
    """
    if len(settings) == 0:
        raise ValueError("no records to write; refusing to emit an empty CSV")
    if mc_columns is not None and len(mc_columns[-1]) != len(settings):
        raise ValueError(
            f"Monte Carlo results ({len(mc_columns[-1])}) do not align with the "
            f"analytic records ({len(settings)})"
        )
    r_ad = records[:, RECORD_COLUMNS.index("R_AD")]
    peak = r_ad.max()
    normalized = r_ad / peak if peak > 0.0 else np.zeros_like(r_ad)
    columns = [*settings.T, *records.T, normalized]
    header = ANALYTIC_COLUMNS
    formats = [_FLOAT] * len(columns)
    if mc_columns is not None:
        columns += mc_columns
        header += ESTIMATE_COLUMNS
        formats += [_FLOAT] * 4 + ["{}"]
    formats[-1] += "\n"
    cells = map(_column_cells, columns, formats)
    return [",".join(header) + "\n", *map(",".join, zip(*cells))]


def _column_cells(column: np.ndarray, cell: str) -> list[str]:
    """``cell.format`` of each value of ``column``, each distinct value formatted once.

    Float64 columns are keyed by their bit patterns: keying by value would give
    ``-0.0`` the text of ``0.0``.
    """
    values = np.ascontiguousarray(column)
    keys = values.view(np.uint64) if values.dtype == np.float64 else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    text = list(map(cell.format, distinct.view(values.dtype).tolist()))
    return [text[i] for i in inverse.tolist()]


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
    settings: np.ndarray,
    records: np.ndarray,
    path,
    mc_columns: Sequence[np.ndarray] | None = None,
) -> None:
    """Write the sweep to ``path``; validation happens before any file opens."""
    rows = csv_rows(settings, records, mc_columns)
    _write_atomically(path, lambda handle: handle.writelines(rows), "CSV")


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
