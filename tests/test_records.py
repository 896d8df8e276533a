"""The package's records and the import budget of the sweep path.

Every record class derives from ``nmzi._Record``: fields by position or
keyword, immutability, field equality within one class, and a repr that
names the class.  ``import nmzi.cli`` must load neither the Jones model
(``verify``, ``station``, ``elements``), the CSV float kernel (``_digits``)
nor any dataclass, and neither the import nor a whole ``nmzi analytic`` run
may load ``numpy.random`` or ``nmzi.verify``.  The sampler is handed its
detection probabilities: ``import nmzi.montecarlo`` leaves the closed form
unloaded, and a Monte Carlo run or check evaluates ``record_at`` once.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nmzi.cli import main
from nmzi.config import RunConfig
from nmzi.correlation import SweepAxis, SweepSpec, record_at
from nmzi.elements import ElementConventions
from nmzi.montecarlo import (
    CoincidenceCounts,
    McPointResult,
    SamplingTally,
    SourceParams,
    SweepCounts,
)
from nmzi.verify import CheckResult, VerificationReport, _check_montecarlo

SRC = Path(__file__).resolve().parent.parent / "src"

AXIS = SweepAxis("phi", 0.0, 1.0, 0.5)
TALLY = SamplingTally(100, 7, 1, 0)
FATES = (1, 2, 0, 0, 1, 0, 1, 0, 2)

# One builder per record class: each call makes a new record of equal fields.
RECORDS = {
    "RunConfig": lambda: RunConfig("analytic", preset="fig2", out_path="a.csv"),
    "SweepAxis": lambda: SweepAxis("phi", 0.0, 1.0, 0.5),
    "SweepSpec": lambda: SweepSpec((AXIS,), {"psi": 0.3}),
    "SourceParams": lambda: SourceParams(0.05, 1000, rng_seed=3),
    "SamplingTally": lambda: SamplingTally(100, 7, 1, 0),
    "CoincidenceCounts": lambda: CoincidenceCounts(FATES),
    "McPointResult": lambda: McPointResult(CoincidenceCounts(FATES), TALLY),
    "SweepCounts": lambda: SweepCounts(np.zeros((2, 12), dtype=np.int64)),
    "ElementConventions": lambda: ElementConventions(pbs_reflection_phase=-1.0),
    "CheckResult": lambda: CheckResult("check", 0.0, 1e-12),
    "VerificationReport": lambda: VerificationReport((CheckResult("check", 0.0, 1e-12),)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_field_records(name):
    first, second = RECORDS[name](), RECORDS[name]()
    field = type(first)._fields[0]
    with pytest.raises(AttributeError):
        setattr(first, field, getattr(second, field))
    with pytest.raises(AttributeError):
        delattr(first, field)
    assert repr(first).startswith(f"{name}(")
    if name == "SweepCounts":
        # Identity equality: its count array has no single truth value.
        assert first == first and first != second
    else:
        assert first == second


def test_record_fields_hash_and_defaults():
    config = RunConfig("analytic", preset="fig2", out_path="a.csv")
    same = RunConfig(mode="analytic", out_path="a.csv", preset="fig2")
    assert config == same and hash(config) == hash(same)
    assert config != RunConfig("analytic", preset="fig3", out_path="a.csv")
    assert RunConfig._fields[:2] == ("mode", "preset")
    assert (config.normalization, config.gnuplot) == ("analytic", False)
    # Records of different classes never compare equal.
    assert SamplingTally(1, 0, 0, 0) != (1, 0, 0, 0)
    for bad in ({}, {"mode": "analytic", "colour": "red"}):
        with pytest.raises(TypeError):
            RunConfig(**bad)
    with pytest.raises(TypeError):
        RunConfig("analytic", mode="analytic")
    with pytest.raises(TypeError):
        SamplingTally(1, 2, 3, 4, 5)
    # The fixed values are a tuple, so specs cannot share a mutation.
    with pytest.raises(TypeError):
        SweepSpec((AXIS,)).fixed["psi"] = 1.0


def test_sweep_path_import_loads_no_jones_model_and_no_dataclass():
    probe = (
        "import json, os, sys, tempfile\n"
        "import nmzi.cli\n"
        "modules = [m for m in sys.modules if m == 'nmzi' or m.startswith('nmzi.')]\n"
        "generated = [f'{m}.{name}' for m in modules\n"
        "             for name, obj in vars(sys.modules[m]).items()\n"
        "             if isinstance(obj, type) and hasattr(obj, '__dataclass_fields__')]\n"
        "lazy = ('numpy.random', 'nmzi.verify')\n"
        "after_import = [m for m in lazy if m in sys.modules]\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    out = os.path.join(tmp, 'fig2.csv')\n"
        "    status = nmzi.cli.main(['analytic', '--preset', 'fig2', '--out', out])\n"
        "after_run = [m for m in lazy if m in sys.modules]\n"
        "print(json.dumps({'modules': modules, 'generated': generated, 'status': status,\n"
        "                  'after_import': after_import, 'after_run': after_run}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert "nmzi.cli" in loaded["modules"]
    # The CSV float kernel loads on the first csv_rows call.
    for heavy in ("nmzi.verify", "nmzi.station", "nmzi.elements", "nmzi._digits"):
        assert heavy not in loaded["modules"]
    assert loaded["generated"] == []
    # Neither the import nor a whole analytic run loads the sampler's
    # generators (numpy.random, with secrets and OpenSSL) or the checks.
    assert loaded["status"] == 0
    assert loaded["after_import"] == []
    assert loaded["after_run"] == []


def test_sampler_import_leaves_the_closed_form_unloaded():
    probe = (
        "import json, sys\n"
        "import nmzi.montecarlo\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('nmzi')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert "nmzi.montecarlo" in loaded
    assert "nmzi.correlation" not in loaded


def test_a_monte_carlo_run_and_check_evaluate_the_closed_form_once(tmp_path, monkeypatch):
    calls = []

    def counted(settings):
        calls.append(len(settings))
        return record_at(settings)

    # Every name a loaded nmzi module binds to the closed form.
    for name, module in list(sys.modules.items()):
        if name.startswith("nmzi") and getattr(module, "record_at", None) is record_at:
            monkeypatch.setattr(module, "record_at", counted)
    out = str(tmp_path / "mc.csv")
    assert main(["montecarlo", "--preset", "fig2", "--bins", "20000", "--out", out]) == 0
    assert calls == [201]
    calls.clear()
    _check_montecarlo(SourceParams(0.05, 1_000_000))
    assert calls == [9]
