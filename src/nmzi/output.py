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
its cell.  The floats of all columns go through one numpy kernel,
:func:`nmzi._digits.float_cells`, which gives ``"{:.16e}"``'s text exactly,
faster than CPython's one-at-a-time formatter; it is imported on the first
call, so ``import nmzi.cli`` does not compile it.  Floats are told apart by
bit pattern, not by value, so ``-0.0`` and ``0.0`` keep their own text, and
a point with no Monte Carlo estimate prints ``nan``.  The cells' text is
then gathered through ``np.unique``'s inverse indexes as one object array
per block of 1024 rows and joined into one string per block: no per-line
string is built.

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
    # cell[i, j] indexes the text of row i's value in column j, each distinct
    # value formatted once per column.  Floats are told apart by bit pattern.
    cell = np.empty((len(settings), len(header)), dtype=np.intp)
    distinct = []
    offset = 0
    for j, column in enumerate(floats):
        keys = np.ascontiguousarray(column, dtype=np.float64).view(np.uint64)
        keys, cell[:, j] = np.unique(keys, return_inverse=True)
        cell[:, j] += offset
        offset += len(keys)
        distinct.append(keys)
    ends = np.full(len(header), ord(","), dtype=np.uint8)
    ends[-1] = ord("\n")
    texts = float_cells(
        np.concatenate(distinct).view(np.float64),
        np.repeat(ends[: len(floats)], [len(keys) for keys in distinct]),
    )
    if mc_columns is not None:
        keys, cell[:, -1] = np.unique(mc_columns[-1], return_inverse=True)
        cell[:, -1] += offset
        texts += [f"{key}\n" for key in keys.tolist()]
    text = np.array(texts, dtype=object)
    chunks = [",".join(header) + "\n"]
    for start in range(0, len(cell), _ROW_BLOCK):
        # A 1-D object array lists fast; a 2-D one builds a list per row.
        block = text[cell[start : start + _ROW_BLOCK]].ravel()
        chunks.append("".join(block.tolist()))
    return chunks


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
    # gnuplot reads '' as one quote inside a single-quoted string.
    csv_path = csv_path.replace("'", "''")
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
