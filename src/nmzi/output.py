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
distinct values are formatted once, each with the comma or newline that ends
its cell, and ``np.unique``'s inverse indexes place them in an ``(N, C)``
object array of cells.  The floats go through one numpy kernel,
:func:`nmzi._digits.float_cells`, which gives ``"{:.16e}"``'s text exactly,
faster than CPython's one-at-a-time formatter; it is imported on the first
call, so ``import nmzi.cli`` does not compile it or build its tables.
Floats are told apart by bit pattern, not by value, so ``-0.0`` and ``0.0``
keep their own text, and a point with no Monte Carlo estimate prints
``nan``.  Each block of 1024 rows of cells is joined into one string: no
per-line string is built.

Files are written to a temporary name in the target directory and renamed
into place, so an interrupted run leaves the previous file (or none), never
a truncated one.
"""

from __future__ import annotations

import contextlib
import os
import sys
from typing import Iterable, Sequence

import numpy as np

from .correlation import ALIAS_TARGETS, RECORD_COLUMNS, SETTINGS_COLUMNS
from .montecarlo import ESTIMATE_COLUMNS

ANALYTIC_COLUMNS = SETTINGS_COLUMNS + RECORD_COLUMNS + ("R_AD_normalized",)

# Rows per text chunk: a chunk is joined at once from the cells' text.
_ROW_BLOCK = 1024


def csv_rows(
    settings: np.ndarray,
    records: np.ndarray,
    mc_columns: Sequence[np.ndarray] | None = None,
) -> list[str]:
    """Render the sweep to CSV text: the header line, then one chunk per 1024 rows.

    Every line, header included, ends in a newline, so ``"".join`` of the
    result is the file.  ``records`` is ``record_at(settings)``;
    ``mc_columns``, when given, is ``estimate_columns`` of the sweep, aligned
    with the rows of ``settings``.
    """
    if len(settings) == 0:
        raise ValueError("no records to write; refusing to emit an empty CSV")
    if mc_columns is not None and len(mc_columns[-1]) != len(settings):
        raise ValueError(
            f"Monte Carlo results ({len(mc_columns[-1])}) do not align with the "
            f"analytic records ({len(settings)})"
        )
    # Loaded on first use, like nmzi.verify: only a CSV needs the kernel.
    from ._digits import float_cells

    r_ad = records[:, RECORD_COLUMNS.index("R_AD")]
    peak = r_ad.max()
    normalized = r_ad / peak if peak > 0.0 else np.zeros_like(r_ad)
    header = ANALYTIC_COLUMNS
    floats = [*settings.T, *records.T, normalized]
    if mc_columns is not None:
        header += ESTIMATE_COLUMNS
        floats += mc_columns[:-1]
    # Each column's distinct values are formatted once, with the cell's end;
    # floats are told apart by bit pattern.
    cells = np.empty((len(settings), len(header)), dtype=object)
    for j, column in enumerate(floats):
        end = "\n" if j == len(header) - 1 else ","
        keys = np.ascontiguousarray(column, dtype=np.float64).view(np.uint64)
        keys, inverse = np.unique(keys, return_inverse=True)
        cells[:, j] = np.array(float_cells(keys.view(np.float64), end), dtype=object)[inverse]
    if mc_columns is not None:
        keys, inverse = np.unique(mc_columns[-1], return_inverse=True)
        cells[:, -1] = np.array([f"{key}\n" for key in keys.tolist()], dtype=object)[inverse]
    chunks = [",".join(header) + "\n"]
    for start in range(0, len(cells), _ROW_BLOCK):
        # A 1-D object array lists fast; a 2-D one builds a list per row.
        chunks.append("".join(cells[start : start + _ROW_BLOCK].ravel().tolist()))
    return chunks


def _write_atomically(path, chunks: Iterable[str], what: str) -> None:
    """Write ``chunks`` to a fresh file beside ``path``, then rename it over ``path``.

    On any failure the temporary file is removed and ``path`` is untouched.
    The temporary name has a fixed length, so any name the directory takes
    can be written.
    """
    temp = os.path.join(os.path.dirname(path), f".nmzi-{os.urandom(6).hex()}.tmp")
    try:
        # O_EXCL: never write through an existing file or link of that name.
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            # The CSV is ASCII; a script names its CSV by the path's own bytes.
            codec = sys.getfilesystemencoding(), sys.getfilesystemencodeerrors()
            with open(fd, "w", encoding=codec[0], errors=codec[1], newline="") as handle:
                handle.writelines(chunks)
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
    _write_atomically(path, csv_rows(settings, records, mc_columns), "CSV")


def _column(name: str) -> int:
    """The 1-based CSV column gnuplot reads for ``name``; an alias plots
    against its first target."""
    name = ALIAS_TARGETS.get(name, (name,))[0]
    return (ANALYTIC_COLUMNS + ESTIMATE_COLUMNS).index(name) + 1


def gnuplot_script(csv_path: str, axis_names: Sequence[str], with_mc: bool) -> str:
    """A ready-to-run gnuplot script plotting R_AD against the sweep axes.

    One axis gives a line plot (plus Monte Carlo error bars when present);
    two axes give a surface map.
    """
    if not axis_names or len(axis_names) > 2:
        raise ValueError("gnuplot output supports one or two sweep axes")
    axes = ":".join(str(_column(name)) for name in axis_names)
    r_ad = _column("R_AD")
    # gnuplot reads '' as one quote inside a single-quoted string.
    csv_path = csv_path.replace("'", "''")
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{axis_names[0]} (rad)'",
    ]
    if len(axis_names) == 1:
        lines.append("set ylabel 'coincidence correlation'")
        plot = f"plot '{csv_path}' using {axes}:{r_ad} with lines title 'R_AD'"
        if with_mc:
            plot += (
                f", '{csv_path}' using {axes}:{_column('R_hat_AD')}:{_column('stderr_AD')} "
                "with yerrorbars title 'R_AD (MC)'"
            )
        lines.append(plot)
    else:
        lines += [
            f"set ylabel '{axis_names[1]} (rad)'",
            "set view map",
            f"splot '{csv_path}' using {axes}:{r_ad} with pm3d title 'R_AD'",
        ]
    return "\n".join(lines) + "\n"


def emit_gnuplot(csv_path: str, script_path, axis_names: Sequence[str], with_mc: bool) -> None:
    text = gnuplot_script(csv_path, axis_names, with_mc)
    _write_atomically(script_path, [text], "gnuplot script")
