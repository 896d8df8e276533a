"""Correctness checks for the benchmark's CLI outputs.

The closed forms are restated here from the model's definition, not imported
from nmzi, so a defect in the program's formulas cannot vouch for itself:

    A: 1 - sin(2 xi) cos(phi)      B: 1 + sin(2 xi) cos(phi)
    C: 1 - sin(2 theta) cos(psi)   D: 1 + sin(2 theta) cos(psi)

Intensities are the factors over 4 (i0 = 1); R_AD = A * D and R_BC = B * C.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
import re

ANALYTIC_HEADER = [
    "phi", "psi", "xi", "theta", "i_A", "i_B", "i_C", "i_D",
    "R_AD", "R_BC", "R_AD_normalized",
]
MC_HEADER = ANALYTIC_HEADER + ["R_hat_AD", "stderr_AD", "R_hat_BC", "stderr_BC", "n_pairs"]

ANALYTIC_TOL = 1e-12

# False-alarm probability of one two-sided 5 sigma test.  A Monte Carlo CSV
# makes 3 tests per row, so each test gets an equal share of this budget
# (Bonferroni): the whole file then raises a false alarm no more often than a
# single 5 sigma test would.
FAMILY_ALPHA = math.erfc(5.0 / math.sqrt(2.0))

# Normalization of the analytic estimator: R_hat = p_hat / (1/4)^2.
_MARGINAL_SQ = 1.0 / 16.0

_QUARTER = math.pi / 4.0


def _axis(step: float) -> list[float]:
    return [k * step for k in range(int(2.0 * math.pi / step + 1e-9) + 1)]


def preset_grid(preset: str) -> list[tuple[float, float, float, float]]:
    """(phi, psi, xi, theta) of every row of a preset sweep, row-major."""
    if preset == "fig2":
        return [(r, r, _QUARTER, _QUARTER) for r in _axis(math.pi / 100.0)]
    axis = _axis(math.pi / 50.0)
    if preset == "fig3":
        return [(p, s, _QUARTER, _QUARTER) for p in axis for s in axis]
    if preset == "fig4":
        return [(p, 0.0, x, _QUARTER) for p in axis for x in axis]
    raise ValueError(f"unknown preset {preset!r}")


def fringe_factors(phi: float, psi: float, xi: float, theta: float) -> tuple[float, ...]:
    """Fringe factors of detectors (A, B, C, D)."""
    alice = math.sin(2.0 * xi) * math.cos(phi)
    bob = math.sin(2.0 * theta) * math.cos(psi)
    return 1.0 - alice, 1.0 + alice, 1.0 - bob, 1.0 + bob


def _parse(text: str, header: list[str], rows_expected: int) -> tuple[list[list[str]], list[str]]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0].split(",") != header:
        return [], [f"header is {lines[0] if lines else ''!r}, expected {','.join(header)!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != rows_expected:
        return [], [f"{len(rows)} rows, expected {rows_expected}"]
    bad = [i for i, row in enumerate(rows) if len(row) != len(header)]
    if bad:
        return [], [f"row {bad[0] + 1} has the wrong number of cells"]
    return rows, []


def _check_closed_forms(rows: list[list[str]], grid: list[tuple]) -> list[str]:
    """Grid columns, intensities and correlations of every row to ANALYTIC_TOL."""
    expected = []
    for settings in grid:
        a, b, c, d = fringe_factors(*settings)
        expected.append((*settings, a / 4.0, b / 4.0, c / 4.0, d / 4.0, a * d, b * c))
    peak = max(row[8] for row in expected)
    problems = []
    for index, (row, want) in enumerate(zip(rows, expected)):
        want = (*want, want[8] / peak if peak > 0.0 else 0.0)
        try:
            got = [float(cell) for cell in row[: len(want)]]
        except ValueError:
            problems.append(f"row {index + 1}: unparsable cell")
            continue
        for name, g, w in zip(ANALYTIC_HEADER, got, want):
            if not abs(g - w) <= ANALYTIC_TOL:
                problems.append(f"row {index + 1}: {name} = {g!r}, expected {w!r}")
    return problems


def check_analytic(text: str, preset: str) -> list[str]:
    """Check an analytic CSV: header, row count and every cell to 1e-12."""
    grid = preset_grid(preset)
    rows, problems = _parse(text, ANALYTIC_HEADER, len(grid))
    return problems or _check_closed_forms(rows, grid)


def _binomial_tail(k: int, n: int, p: float) -> float:
    """Two-sided exact tail of Binomial(n, p) at k: 2 min(P[X<=k], P[X>=k])."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if not 0 <= k <= n:
        return 0.0
    log_pmf = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )
    term = math.exp(log_pmf)
    tail = term
    odds = p / (1.0 - p)
    j = k
    if k <= n * p:
        # Below the mean the pmf falls as j falls.
        while j > 0 and term > tail * 1e-17:
            term *= j / ((n - j + 1) * odds)
            tail += term
            j -= 1
    else:
        while j < n and term > tail * 1e-17:
            term *= (n - j) / (j + 1) * odds
            tail += term
            j += 1
    return min(1.0, 2.0 * tail)


def check_montecarlo(text: str, preset: str, mu: float, bins: int, routing: str) -> dict:
    """Check a Monte Carlo CSV against the closed forms it estimates.

    Per row, the coincidence counts behind ``R_hat_AD`` and ``R_hat_BC`` are
    Binomial(n_pairs, R / 16) and ``n_pairs`` is Binomial(bins, P(n=2) * f),
    with f = 1 for paired and 1/2 for binomial routing.  The CSV's ``stderr``
    columns are not used: they read 0 at dark points.  A test fails when its
    exact two-sided tail is below FAMILY_ALPHA / (number of tests).

    Returns ``{"problems": [...], "max_z": float}``, where ``max_z`` is the
    largest |R_hat - R| / sigma with sigma = sqrt(p (1 - p) / n_pairs) * 16
    over rows with sigma > 0 (and for n_pairs, its own binomial sigma).
    """
    grid = preset_grid(preset)
    rows, problems = _parse(text, MC_HEADER, len(grid))
    if problems:
        return {"problems": problems, "max_z": math.nan}
    problems = _check_closed_forms(rows, grid)
    share = 1.0 if routing == "paired" else 0.5
    q = math.exp(-mu) * mu * mu / 2.0 * share
    pairs_sigma = math.sqrt(bins * q * (1.0 - q))
    threshold = FAMILY_ALPHA / (3 * len(rows))
    max_z = 0.0
    col = {name: i for i, name in enumerate(MC_HEADER)}
    for index, (row, settings) in enumerate(zip(rows, grid)):
        where = f"row {index + 1}"
        try:
            n = int(row[col["n_pairs"]])
            r_hat = {pair: float(row[col["R_hat_" + pair]]) for pair in ("AD", "BC")}
        except ValueError:
            problems.append(f"{where}: unparsable Monte Carlo cell")
            continue
        max_z = max(max_z, abs(n - bins * q) / pairs_sigma)
        if _binomial_tail(n, bins, q) < threshold:
            problems.append(f"{where}: n_pairs = {n} is improbable for {bins} bins x {q:.6g}")
        if n <= 0:
            problems.append(f"{where}: no post-selected pairs")
            continue
        a, b, c, d = fringe_factors(*settings)
        for pair, truth in (("AD", a * d), ("BC", b * c)):
            p = truth * _MARGINAL_SQ
            exact_k = r_hat[pair] * _MARGINAL_SQ * n
            k = round(exact_k)
            if abs(exact_k - k) > 1e-6 * max(1.0, k):
                problems.append(f"{where}: R_hat_{pair} is not a whole coincidence count")
                continue
            sigma = math.sqrt(p * (1.0 - p) / n) / _MARGINAL_SQ
            if sigma > 0.0:
                max_z = max(max_z, abs(r_hat[pair] - truth) / sigma)
            if _binomial_tail(k, n, p) < threshold:
                problems.append(
                    f"{where}: R_hat_{pair} = {r_hat[pair]!r} is improbable for "
                    f"R = {truth!r} over {n} pairs"
                )
    return {"problems": problems, "max_z": max_z}


_VERIFY_PASSED = re.compile(r"^all (\d+) checks passed$", re.MULTILINE)


def check_verify(stdout: str) -> list[str]:
    """`nmzi verify` must report all N checks passed (its exit code is checked by the caller)."""
    return [] if _VERIFY_PASSED.search(stdout) else ["no 'all N checks passed' line"]
