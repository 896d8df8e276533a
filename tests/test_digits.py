"""The numpy ``{:.16e}`` kernel against CPython's formatter, value by value."""

from fractions import Fraction

import numpy as np
import pytest

from nmzi._digits import float_cells


def _near_ties():
    """Doubles whose 17-digit scaling lies 3/(2*5**j) from a half-integer.

    ``x = m * 2**e`` with ``e > j`` and ``m * 2**e = 5 * 10**(j - 1) +- 3 *
    2**(j - 1)`` modulo ``10**j`` scales by ``10**-j`` to ``Q + 1/2 +- 3 /
    (2 * 5**j)``, and ``Q`` has the parity that sends half-to-even rounding
    of ``Q + 1/2`` the wrong way: a double-double product that loses the
    offset prints the wrong last digit.
    """
    values = []
    for j in range(21, 25):
        exponent = 16 + j
        for e in range(j + 1, 4 * j + 20):
            for offset in (3 * 2 ** (j - 1), -3 * 2 ** (j - 1)):
                residue = offset * pow(2**e, -1, 5**j) % 5**j
                low = max(2**52, -(-(10**exponent) // 2**e))
                high = min(2**53, -(-(10 ** (exponent + 1)) // 2**e))
                first = residue + -(-(low - residue) // 5**j) * 5**j
                values += [float(m * 2**e) for m in range(first, high, 5**j)]
    return values


def _powers_of_ten():
    exact = np.array([float(f"1e{k}") for k in range(-300, 301)])
    return np.concatenate([exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf)])


def _near_powers_of_ten():
    # Every double within 64 ulps of each 1e{k}, with both signs: the band
    # just inside either end of the fast range, the 1e-99 and 1e99 edges too.
    exact = np.array([float(f"1e{k}") for k in range(-300, 301)])
    near = (exact.view(np.int64)[:, None] + np.arange(-64, 65)).ravel().view(np.float64)
    return np.concatenate([near, -near])


def _integers_and_halves():
    whole = np.arange(200_001, dtype=np.float64)
    return np.concatenate([whole, -whole, whole + 0.5, -whole - 0.5])


def _range_edges():
    edges = np.array([1e250, -1e250, 1e-250, -1e-250])
    return np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])


_SPECIAL_BITS = [
    0x7FF8000000000000,  # nan
    0x7FF8000000000001,
    0xFFF8000000000000,  # nan with the sign bit
    0x7FF0000000000123,  # signalling nan
    0x0000000000000001,  # subnormals
    0x000FFFFFFFFFFFFF,
    0x8000000000000001,
    0x0010000000000000,  # smallest normal
]


def _random_bits():
    return np.random.default_rng(7).integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)


def _specials():
    bits = np.array(_SPECIAL_BITS, dtype=np.uint64).view(np.float64)
    return np.concatenate([[0.0, -0.0, np.inf, -np.inf], bits])


CASES = {
    "random_bits": _random_bits,
    "powers_of_ten": _powers_of_ten,
    "near_powers_of_ten": _near_powers_of_ten,
    "integers_and_halves": _integers_and_halves,
    "range_edges": _range_edges,
    "specials": _specials,
    "near_ties": _near_ties,
}


@pytest.mark.parametrize("case", CASES)
def test_cells_equal_cpython_format(case):
    values = np.asarray(CASES[case](), dtype=np.float64)
    expected = ["{:.16e}".format(value) for value in values.tolist()]
    # One end per call, as a CSV column's cells end alike; both are checked.
    for end in (",", "\n"):
        cells = float_cells(values, end)
        if cells != [text + end for text in expected]:
            wrong = [
                (value.hex(), cell, want + end)
                for value, cell, want in zip(values.tolist(), cells, expected)
                if cell != want + end
            ]
            pytest.fail(f"{len(wrong)} of {len(values)} cells differ, e.g. {wrong[:3]}")


def test_near_ties_lie_within_the_double_double_error():
    # The family above must reach below 1e-15 of a tie, the product's error
    # scale, or it would not test the tie band.
    distances = []
    for value in _near_ties():
        scaled = Fraction(value) / 10 ** (len(str(int(value))) - 17)
        distances.append(abs(scaled - int(scaled) - Fraction(1, 2)))
    assert len(distances) >= 50
    assert min(distances) < 1e-15
