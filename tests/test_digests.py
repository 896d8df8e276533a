"""Output bytes pinned by SHA-256, so reproducibility is checked against a
fixed digest and not only run against run.

The analytic digests pin the closed forms and the CSV format: they hold on
any platform whose ``math.sin``/``math.cos`` round as this one's do.  The
Monte Carlo digests also pin the sampler's draw order and numpy's bit
generators and distribution algorithms.  ``nmzi verify``'s stdout is pinned
the same way, since its printed deviations carry the checks' results.  A
digest that moves means the output of that configuration changed; say why in
CHANGES.md and re-pin.

Every pin here was taken under numpy 2.4.6 and Python 3.11.7.  NumPy may
change a distribution algorithm between releases (NEP 19), so one multinomial
draw is also pinned by value: if it fails beside the Monte Carlo digests, the
cause is numpy, not this program.
"""

import hashlib

import numpy as np
import pytest

from nmzi.cli import main

ANALYTIC_SHA256 = {
    "fig2": "bfbecbce2c84342d354597566edce891e668151c126bf2d41768ce06bf5e56e3",
    "fig3": "e85ba0fe785e9017ea15fa038bb0059eb4b76d8974f07bcf23aca58a651deefd",
    "fig4": "a6ee902f0f67ccf5a068a969e887bbf31c48d9750c5543af8e52fd71e0ad430b",
}

MONTECARLO_SHA256 = {
    "paired": "f99c4b11d8ceef42c3b328122f417e37721d2f62bb1ed39bb2f9f810f0c96070",
    "binomial": "e1e1eae59858dac463ef668a90bfa2c41ac7aa983361aacd4defa78ce515e519",
    # ROUTING-NORMALIZATION: the same sweep with --normalization measured.
    "paired-measured": "01c2663a08c9596acd754df57a3fb22ced17a37d02f39ebad81bd8e712fceee1",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("preset", sorted(ANALYTIC_SHA256))
def test_analytic_csv_digest(preset, tmp_path, capsys):
    out = tmp_path / f"{preset}.csv"
    assert main(["analytic", "--preset", preset, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _digest(out) == ANALYTIC_SHA256[preset]


@pytest.mark.parametrize("case", sorted(MONTECARLO_SHA256))
def test_montecarlo_csv_digest(case, tmp_path, capsys):
    routing, _, normalization = case.partition("-")
    out = tmp_path / f"mc_{case}.csv"
    argv = [
        "montecarlo",
        "--sweep", "rho=0:6.4:0.8",
        "--fix", "zeta=0.7853981633974483",
        "--mu", "0.2",
        "--bins", "50000",
        "--seed", "20220223",
        "--routing", routing,
        "--out", str(out),
    ]
    if normalization:
        argv += ["--normalization", normalization]
    assert main(argv) == 0
    capsys.readouterr()
    assert _digest(out) == MONTECARLO_SHA256[case]


# The benchmark's largest Monte Carlo render: 10 201 rows of 16 columns, whose
# R_hat, stderr and n_pairs values repeat heavily across the grid.
FIG4_BINOMIAL_SHA256 = "70788952df2dd60874e605beb3d5c61b1122a07e236646389318fafe6e823699"


def test_montecarlo_fig4_binomial_digest(tmp_path, capsys):
    out = tmp_path / "mc_fig4_binomial.csv"
    argv = [
        "montecarlo",
        "--preset", "fig4",
        "--mu", "0.2",
        "--bins", "20000",
        "--routing", "binomial",
        "--seed", "20220223",
        "--out", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert _digest(out) == FIG4_BINOMIAL_SHA256


VERIFY_SHA256 = {
    # Default source: mu 0.05, 10^6 bins, seed 0.
    "default": "fd9f185522473ab771c3a212ef128f901754782b76383402930c23cb70ba5977",
    "bins-20000": "75e03fc53e64ae7fdc49b96dbf8319383a94c7f41e7717d99ceaabf1a68767f8",
}


@pytest.mark.parametrize("case", sorted(VERIFY_SHA256))
def test_verify_stdout_digest(case, capsys):
    argv = ["verify"] + (["--bins", "20000"] if case == "bins-20000" else [])
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == VERIFY_SHA256[case]


def test_numpy_multinomial_known_answer():
    # Two 12-class rows shaped like the sampler's: small fate masses, then a
    # large remainder class last (row 0), and near-uniform classes (row 1).
    pvals = np.array([
        [0.002, 0.004, 0.006, 0.008, 0.010, 0.012, 0.014, 0.016, 0.018, 0.020, 0.030, 0.860],
        [0.100, 0.100, 0.100, 0.100, 0.100, 0.100, 0.100, 0.100, 0.100, 0.050, 0.040, 0.010],
    ])
    rng = np.random.default_rng(np.random.SeedSequence(20220223, spawn_key=(0,)))
    assert rng.multinomial(50000, pvals).tolist() == [
        [92, 203, 342, 425, 479, 579, 703, 768, 973, 973, 1572, 42891],
        [4918, 5093, 4914, 4930, 5012, 5130, 5008, 4987, 4995, 2534, 1967, 512],
    ]
