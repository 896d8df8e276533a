"""Output bytes pinned by SHA-256, so reproducibility is checked against a
fixed digest and not only run against run.

The analytic digests pin the closed forms and the CSV format: they hold on
any platform whose ``math.sin``/``math.cos`` round as this one's do.  The
Monte Carlo digests also pin the sampler's draw order and numpy's bit
generators and distribution algorithms.  A digest that moves means the output
of that configuration changed; say why in CHANGES.md and re-pin.
"""

import hashlib

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
