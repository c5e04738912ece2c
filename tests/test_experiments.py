"""Row formatting, and the replay of the shipped results."""

import collections
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from dperm import problems
from dperm.config import parse_config_file
from dperm.experiments import (
    CSV_COLUMNS,
    Row,
    _at_cell_precision,
    _cell,
    _location_risk,
    rows_to_csv,
    run_experiment,
)
from dperm.mechanisms import pth_power_erm_batch
from dperm.problems import Dataset

REPO = Path(__file__).resolve().parent.parent


class TestCell:
    def test_formats(self):
        assert _cell(None) == ""
        assert _cell(True) == "true"
        assert _cell(False) == "false"
        assert _cell(3) == "3"
        assert _cell(np.int64(3)) == "3"
        assert _cell(0.1) == "0.1"
        assert _cell(np.float64(1 / 3)) == "0.333333333333"
        assert _cell("em") == "em"

    def test_twelve_significant_digits(self):
        assert _cell(0.600646730605123) == "0.600646730605"


def test_rows_to_csv_quotes_commas():
    row = Row(
        experiment="audit",
        mechanism="em(threshold,eps=1)",
        problem="threshold",
        n=3,
        epsilon=1.0,
        delta=0.0,
        seed=0,
        metric="max_log_ratio",
        value=0.5,
        stderr=None,
        bound=1.0,
        passed=True,
    )
    text = rows_to_csv([row])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert '"em(threshold,eps=1)"' in lines[1]
    assert lines[1].endswith("true")


# Drivers that take each block of Monte Carlo trials as arrays: seeds,
# uniforms and datasets, with no generator and no dataset built per trial.
# What each builds does not depend on its trial count.  The one generator
# is the loss-range probe of the problem's constructor.  consistency_mc's
# exact stability audit at n = 100 over 2 atoms builds 101 multisets and
# 200 swapped neighbours; its law rows read one id array and build none.
TRIAL_BLOCK_BUILDS = {
    "aerm": {"generator": 1},
    "boost": {"generator": 1},
    "consistency_mc": {"generator": 1, "dataset": 301},
    "phase": {"generator": 1},
}


@pytest.mark.parametrize(
    "conf",
    sorted((REPO / "scripts").glob("*.conf")),
    ids=lambda p: p.stem,
)
def test_shipped_config_reproduces_its_csv(conf, monkeypatch):
    built = collections.Counter()
    default_rng, of_atoms = np.random.default_rng, Dataset._of_checked_atoms.__func__
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: built.update(["generator"]) or default_rng(*a))
    # Every dataset of atoms, from of_atoms or a block item, is built here.
    monkeypatch.setattr(Dataset, "_of_checked_atoms",
                        classmethod(lambda cls, *a: built.update(["dataset"]) or of_atoms(cls, *a)))
    config = parse_config_file(str(conf))
    text = rows_to_csv(run_experiment(config).rows)
    assert text.encode("utf-8") == (REPO / config.output).read_bytes()
    if conf.stem in TRIAL_BLOCK_BUILDS:
        assert built == TRIAL_BLOCK_BUILDS[conf.stem]


def test_witness_floats_are_at_cell_precision():
    assert _at_cell_precision({"a": [0.6427692060063804, 3, True], "b": "x"}) == \
        {"a": [0.642769206006, 3, True], "b": "x"}
    assert type(_at_cell_precision(np.float64(1 / 3))) is float


def test_counterexample_witness_gaps_are_its_csv_cells():
    # The digits of a gap past the twelfth depend on the BLAS and the
    # Python version, so the witness keeps the twelve the CSV keeps, and the
    # committed manifest holds the witness a rerun writes.
    config = parse_config_file(str(REPO / "scripts" / "counterexample.conf"))
    outcome = run_experiment(config)
    cells = {row["metric"]: float(row["value"])
             for row in csv.DictReader(io.StringIO(rows_to_csv(outcome.rows)))}
    (witness,) = outcome.witnesses
    assert witness["gaps"] == [cells[f"max_aerm_gap[grid={g}]"]
                               for g in witness["resolutions"]]
    manifest = json.loads((REPO / (config.output + ".manifest.json")).read_text())
    assert manifest["witnesses"] == outcome.witnesses


@pytest.mark.parametrize("power", [problems.PTH_POWER, 4])
def test_rates_risk_and_erm_use_the_loss_exponent(monkeypatch, power):
    # pth_power_mean's loss, the rates learner's ERM and its closed-form
    # population risk each read problems.PTH_POWER; an exponent written
    # into any one of them fails at one of these two powers.
    monkeypatch.setattr(problems, "PTH_POWER", power)
    problem, _ = problems.pth_power_mean()

    def mean_loss(h, x):
        return problem.loss_matrix(np.asarray(h, float)[:, None], Dataset(x=x)).mean(axis=1)

    h = np.array([0.0, 0.1, 0.37, 0.5, 0.9])
    # The midpoint rule on 200,000 cells for the mean loss over x ~ U[0, 1].
    cells = (np.arange(200_000) + 0.5) / 200_000
    assert np.allclose(_location_risk(h), mean_loss(h, cells), rtol=1e-8, atol=0)
    # The ERM minimizes the mean loss: no step of 1e-3 either way lowers it.
    x = np.array([0.0, 0.1, 0.2, 1.0])
    erm = pth_power_erm_batch(x[None, :])[0]
    risks = mean_loss([erm - 1e-3, erm, erm + 1e-3], x)
    assert risks[1] < min(risks[0], risks[2])
