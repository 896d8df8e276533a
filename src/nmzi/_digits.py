"""Exact ``"{:.16e}"`` text for arrays of doubles, computed in numpy.

CPython formats one float at a time, at about a microsecond each, and a CSV
of a 101 x 101 map has ~16 000 distinct values.  :func:`float_cells` gives
the same text for a whole array at once.

``"{:.16e}"`` is the double's exact value rounded to 17 significant digits,
half to even.  With ``E = floor(log10 |x|)`` those digits are the integer
nearest to ``|x| * 10**(16 - E)``, a number in ``[1e16, 1e17)``.  The power
of ten is held as a double-double ``hi + lo``, rounded from the exact Python
integer, and the product is Dekker's: ``x * hi`` splits exactly into its
rounded value ``p`` and its error, by the 2**27 + 1 splitting of both
factors (numpy has no fused multiply-add, and a ufunc never fuses two
operations), and ``x * lo`` joins the error in ``t`` (Dekker 1971, Numer.
Math. 18:224).  ``p`` is a whole number, and ``p + t`` is within 1e-13 of
the exact product, so ``p + rint(t)`` is the correctly rounded digit string
unless the product lies next to a half-integer.

The fast path takes a value only where that text is certain:

- ``|x|`` lies in ``[1e-99, 1e99]``, so its exponent has two digits and no
  split factor can overflow;
- ``p`` lies at least 64 inside ``[1e16, 1e17)``.  ``|t|`` is at most
  ``ulp(p) / 2 + x * |lo|``, about 2 at the bottom and 19 at the top, so
  ``p + t`` is then inside too: ``E`` is right (``log10`` can be off by
  one next to a power of ten, which puts ``p`` outside), and rounding
  cannot carry to ``10**17``;
- ``t`` lies at least 1e-6 from a half-integer, so a tie or a value near
  one is not rounded on the product's error.

CPython formats every other value: zeros, subnormals, nan and infinities,
``|x|`` outside ``[1e-99, 1e99]``, products within the margin of either
end, and near-ties.  A CSV of the presets sends a few of them per file.
"""

from __future__ import annotations

import numpy as np

# Values per batch: every temporary of a batch stays in the CPU's caches.
_BATCH = 1024

_SPLITTER = 134217729.0  # 2**27 + 1
_TIE_BAND = 1e-6
_LOWEST, _HIGHEST = 1e-99, 1e99
# |E| of a value in [1e-99, 1e99], with log10 off by one at the ends.
_LARGEST_EXPONENT = 100
# How far inside [1e16, 1e17) the rounded product must lie; |t| <= 19.
_MARGIN = 64.0

# Byte columns of one cell: sign, lead digit, ".", 16 digits, "e", exponent
# sign, two exponent digits, the cell's end byte, and the "\0" that the
# decoded text is split on.  The sign is dropped where unused.
_WIDTH = 25


def float_cells(values: np.ndarray, ends: np.ndarray) -> list[str]:
    """``"{:.16e}".format(v) + chr(end)`` for each double ``v`` of ``values``.

    ``ends`` holds one ASCII byte per value (a ``uint8`` array), the text
    that follows the value in its cell, such as a separator.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    ends = np.ascontiguousarray(ends, dtype=np.uint8)
    digits = _four_digit_groups()
    # powers[:, E + 100] is 10**(16 - E) as (hi, lo), built on first use.
    powers = np.zeros((2, 2 * _LARGEST_EXPONENT + 1))
    cells: list[str] = []
    for start in range(0, len(values), _BATCH):
        stop = start + _BATCH
        cells += _batch_cells(values[start:stop], ends[start:stop], digits, powers)
    return cells


def _batch_cells(
    values: np.ndarray,
    ends: np.ndarray,
    digits: np.ndarray,
    powers: np.ndarray,
) -> list[str]:
    """:func:`float_cells` of at most one batch of values."""
    x = np.abs(values)
    # False for nan as well as for zeros, subnormals, infinities and extremes.
    exact = (x >= _LOWEST) & (x <= _HIGHEST)
    x[~exact] = 1.0
    exponent = np.floor(np.log10(x)).astype(np.int64)
    p, t = _scaled(x, exponent, powers)
    exact &= (p >= 1e16 + _MARGIN) & (p <= 1e17 - _MARGIN)
    exact &= np.abs(t - np.floor(t) - 0.5) >= _TIE_BAND
    q = p.astype(np.int64) + np.rint(t).astype(np.int64)

    groups = np.empty((len(q), 4), dtype=np.intp)
    for column in range(3, -1, -1):
        rest = q // 10_000
        groups[:, column] = q - rest * 10_000
        q = rest
    size = np.abs(exponent)
    cell = np.empty((len(q), _WIDTH), dtype=np.uint8)
    cell[:, 0] = ord("-")
    cell[:, 1] = q + ord("0")
    cell[:, 2] = ord(".")
    cell[:, 3:19] = digits[groups].view(np.uint8)
    cell[:, 19] = ord("e")
    cell[:, 20] = np.where(exponent < 0, ord("-"), ord("+"))
    cell[:, 21] = size // 10 + ord("0")
    cell[:, 22] = size % 10 + ord("0")
    cell[:, 23] = ends
    cell[:, 24] = 0
    used = np.ones(cell.shape, dtype=bool)
    used[:, 0] = np.signbit(values)
    text = cell[used].tobytes().decode("ascii").split("\0")
    text.pop()
    for i in np.flatnonzero(~exact).tolist():
        text[i] = "{:.16e}".format(float(values[i])) + chr(ends[i])
    return text


def _scaled(
    x: np.ndarray, exponent: np.ndarray, powers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``p + t ~ x * 10**(16 - exponent)``: ``p`` rounded, ``t`` the rest.

    ``powers`` holds ``_power_of_ten(16 - E)`` at column ``E + 100``; the
    columns of exponents met here for the first time are filled in.
    """
    column = exponent + _LARGEST_EXPONENT
    met = np.bincount(column, minlength=powers.shape[1]) > 0
    for i in np.flatnonzero(met & (powers[0] == 0.0)).tolist():
        powers[:, i] = _power_of_ten(16 + _LARGEST_EXPONENT - i)
    hi = powers[0, column]
    lo = powers[1, column]
    p = x * hi
    split = x * _SPLITTER
    x_hi = split - (split - x)
    x_lo = x - x_hi
    split = hi * _SPLITTER
    hi_hi = split - (split - hi)
    hi_lo = hi - hi_hi
    t = ((x_hi * hi_hi - p) + x_hi * hi_lo + x_lo * hi_hi) + x_lo * hi_lo
    return p, t + x * lo


def _power_of_ten(k: int) -> tuple[float, float]:
    """``10**k`` as ``hi + lo``: ``hi`` rounded from the exact value, ``lo`` the rest rounded."""
    numerator, denominator = 10 ** max(k, 0), 10 ** max(-k, 0)
    # Integer true division rounds correctly.
    hi = numerator / denominator
    hi_numerator, hi_denominator = hi.as_integer_ratio()
    rest = numerator * hi_denominator - hi_numerator * denominator
    return hi, rest / (denominator * hi_denominator)


def _four_digit_groups() -> np.ndarray:
    """The ASCII text of 0000 to 9999, four bytes each, as 10 000 ``uint32``."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    text[..., 0] = digit[:, None, None, None]
    text[..., 1] = digit[:, None, None]
    text[..., 2] = digit[:, None]
    text[..., 3] = digit
    return text.view(np.uint32).reshape(10_000)
