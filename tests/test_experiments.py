"""Row formatting, and the replay of the shipped results."""

import collections
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dperm import experiments, problems
from dperm.analysis import (
    CounterexampleResult,
    CounterexampleRow,
    GapReport,
    TailCheckRow,
    aerm_bound,
)
from dperm.config import default_config, parse_config_file
from dperm.experiments import (
    AUDIT_TOL,
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
    # The digits of a gap past the twelfth may depend on the numpy build and
    # the Python version, so the witness keeps the twelve the CSV keeps, and
    # the committed manifest holds the witness a rerun writes.
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
    # run_rates names this problem by its builder, without building it.
    assert problem.name == problems.pth_power_mean.__name__

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


GAPS_CHILD = """
from dperm.analysis import counterexample_experiment
from dperm.config import parse_config_file

config = parse_config_file("scripts/counterexample.conf")
result = counterexample_experiment(config["epsilon"], config["n"], config["resolutions"])
print(" ".join(row.max_gap.hex() for row in result.rows))
"""


def test_counterexample_gaps_do_not_depend_on_blas_threads():
    # Each gap's expectation is numpy's own sum, not a BLAS dot product,
    # whose 65,536-wide sum OpenBLAS splits by its thread count.
    gaps = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": threads}
        child = subprocess.run([sys.executable, "-c", GAPS_CHILD], env=env, cwd=REPO,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        gaps.append(child.stdout.split())
    assert len(gaps[0]) == 4 and gaps[0] == gaps[1]


def _gaps(**measured):
    """A consistency report of zero gaps but ``measured``."""
    zeros = dict.fromkeys(["excess_risk", "generalization_gap", "aerm_gap", "stability_gap",
                           "excess_se", "generalization_se", "aerm_se"], 0.0)
    return GapReport(mode="mc", n=3, trials=2, **{**zeros, **measured})


def _sweep(*rows):
    """A counterexample sweep of (max_gap, ratio) rows, at grids 2, 4, ..."""
    return CounterexampleResult(epsilon=1.0, n=3, rows=tuple(
        CounterexampleRow(resolution=2 ** (i + 1), max_gap=gap, argmax_dataset=0, ratio=ratio)
        for i, (gap, ratio) in enumerate(rows)))


def _at_most(edge):
    """A value <= edge rule: passes at the edge, fails one float above."""
    return [(edge, True), (math.nextafter(edge, math.inf), False)]


# The consistency driver's bounds at its defaults (n = 3, eps = 1, 16 thresholds).
STABILITY_BOUND = math.expm1(1.0)
AERM_BOUND = aerm_bound(3, 1.0, 16, 0.0, 0.0)
GEN_SE, EXCESS_SE, AERM_SE = 0.01, 0.03, 0.04
GEN_EDGE = 0.25 + (4.0 * GEN_SE + AUDIT_TOL)
EXCESS_EDGE = 0.125 + 0.25 + (4.0 * math.hypot(EXCESS_SE, AERM_SE) + AUDIT_TOL)
ABOVE_HALF = math.nextafter(0.5, math.inf)

# (experiment, the analysis call its driver makes, its measurement at a
# value, the judged metric, and (value, passed) at and past the rule's edge)
RULE_EDGES = {
    "consistency-stability": (
        "consistency", "consistency_suite", lambda v: _gaps(stability_gap=v), "stability_gap",
        _at_most(STABILITY_BOUND + AUDIT_TOL)),
    "consistency-aerm": (
        "consistency", "consistency_suite", lambda v: _gaps(aerm_gap=v, aerm_se=AERM_SE),
        "aerm_gap", _at_most(AERM_BOUND + AUDIT_TOL)),
    "consistency-generalization-positive": (
        "consistency", "consistency_suite",
        lambda v: _gaps(stability_gap=0.25, generalization_gap=v, generalization_se=GEN_SE),
        "generalization_gap", _at_most(GEN_EDGE)),
    "consistency-generalization-negative": (
        "consistency", "consistency_suite",
        lambda v: _gaps(stability_gap=0.25, generalization_gap=v, generalization_se=GEN_SE),
        "generalization_gap", [(-GEN_EDGE, True), (math.nextafter(-GEN_EDGE, -math.inf), False)]),
    "consistency-decomposition": (
        "consistency", "consistency_suite",
        lambda v: _gaps(excess_risk=v, generalization_gap=0.125, aerm_gap=0.25,
                        excess_se=EXCESS_SE, aerm_se=AERM_SE),
        "excess_risk", _at_most(EXCESS_EDGE)),
    "counterexample-final-gap": (
        "counterexample", "counterexample_experiment", lambda v: _sweep((v, 1.0)),
        "final_gap_exceeds_half", [(ABOVE_HALF, True), (0.5, False)]),
    "counterexample-gated-gap": (
        "counterexample", "counterexample_experiment", lambda v: _sweep((v, 14.0)),
        "max_aerm_gap[grid=2]", [(ABOVE_HALF, True), (0.5, False)]),
    "counterexample-monotone": (
        "counterexample", "counterexample_experiment", lambda v: _sweep((0.625, 1.0), (v, 1.0)),
        "gap_monotone_nondecreasing",
        [(0.625 - AUDIT_TOL, True), (math.nextafter(0.625 - AUDIT_TOL, -math.inf), False)]),
    # At ratio_threshold (14 by default) a gap below one half fails; one
    # float below it the row is informational.
    "counterexample-ratio-gate": (
        "counterexample", "counterexample_experiment", lambda v: _sweep((0.25, v)),
        "max_aerm_gap[grid=2]", [(14.0, False), (math.nextafter(14.0, -math.inf), None)]),
    "utility-tail": (
        "utility-tail", "utility_tail_check",
        lambda v: [TailCheckRow(t=0.1, tail_mass=v, bound=0.25)],
        "tail_mass[t=0.1]", _at_most(0.25 + 1e-12)),
}


@pytest.mark.parametrize("experiment,call,measured,metric,verdicts",
                         RULE_EDGES.values(), ids=RULE_EDGES.keys())
def test_each_rule_holds_at_its_float_edge(monkeypatch, experiment, call, measured, metric,
                                           verdicts):
    # The driver judges a measurement built at the edge of its rule.
    for value, passed in verdicts:
        monkeypatch.setattr(experiments, call, lambda *args, **kwargs: measured(value))
        rows = {row.metric: row for row in run_experiment(default_config(experiment)).rows}
        assert rows[metric].passed is passed, (value, rows[metric])
