"""The benchmark under perfbench/ still binds to the package.

perfbench traces dperm functions by name, wraps its mechanism factories and
generates its configs from dperm's schemas.  A change under src/ that breaks
any of these should fail here, in the test suite, and not first in a
benchmark run.
"""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

import dperm
from dperm.analysis import _audit_laws, exhaustive_neighbor_pairs
from dperm.config import parse_config_text
from dperm.experiments import _audit_problem
from dperm.mechanisms import exponential_mechanism
from dperm.problems import (PROBLEM_BUILDERS, Dataset, Problem, discrete_points,
                            labeled_threshold, risk_vector)
from dperm.seeding import trial_rng

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["repeated-data", "fresh-data"])
def test_workload_builds_under_instrumentation(perfbench, name, tmp_path):
    tracing, workloads = perfbench
    with tracing.instrument(tracing.Tracer()):
        workload = workloads.build(name, 0, str(tmp_path))
    assert workload.ops
    assert list(tmp_path.glob("*.conf"))


@pytest.mark.parametrize("op", ["audit", "stability"])
def test_multiset_key_splits_datasets_as_the_law_table(perfbench, op, tmp_path):
    # analysis.laws_per_multiset divides the laws an audit builds by the
    # distinct multiset_key values it sees: one law per multiset only while
    # that key splits the audit's datasets exactly as the audit's law rows.
    tracing, workloads = perfbench
    config = parse_config_text(workloads._config(
        workloads.EXACT_AUDIT[op], workloads.REFERENCE_SEED, str(tmp_path / "out.csv")))
    problem, space, universe = _audit_problem(config)
    pairs = list(exhaustive_neighbor_pairs(universe, config["n"]))
    _, _, left, right, _ = _audit_laws(exponential_mechanism(problem, space, 1.0), pairs)
    keys = {(tracing.multiset_key(d), int(row))
            for (a, b), i, j in zip(pairs, left, right) for d, row in ((a, i), (b, j))}
    assert len({k for k, _ in keys}) == len({row for _, row in keys}) == len(keys)
    assert len(keys) == math.comb(universe.n + config["n"] - 1, config["n"])


@pytest.mark.parametrize("audit", ["audit_pure_dp", "audit_approx_dp", "stability_audit"])
def test_each_audit_reads_one_item_per_pair(perfbench, audit):
    # repeated-data's work_per_s counts the items an audit reads from its
    # pairs argument (tracing.count_audit_pairs), so an audit must read one
    # item per neighbor pair, the pair itself.
    tracing, _ = perfbench
    problem, space = PROBLEM_BUILDERS["threshold"](resolution=8)
    universe = labeled_threshold(0.5, support_size=4).support
    pairs = list(exhaustive_neighbor_pairs(universe, 3))
    extra = {"audit_pure_dp": (), "audit_approx_dp": (1.0,), "stability_audit": ()}
    counter = [0]
    with tracing.count_audit_pairs(counter):
        report = getattr(dperm.analysis, audit)(
            exponential_mechanism(problem, space, 1.0), iter(pairs), *extra[audit])
    # Sum over the 20 multisets of 3 points over 4 atoms: distinct atoms x 3.
    assert counter[0] == len(pairs) == 120
    assert getattr(report, "pairs_probed", len(pairs)) == len(pairs)


def test_loss_cells_are_the_cells_risk_vector_evaluates(perfbench):
    # problems.loss_cells counts |H| x n per traced risk_vector call; one
    # dataset, atom ids or not, takes the loss path over its n points.
    tracing, _ = perfbench
    problem, space = PROBLEM_BUILDERS["threshold"](resolution=16)
    dataset = labeled_threshold(0.5, support_size=4).sample(30, trial_rng(0, 0))
    assert len(np.unique(dataset.atom_ids)) < dataset.n
    cells = []

    def loss_matrix(payloads, data):
        cells.append(len(payloads) * data.n)
        return problem.loss_matrix(payloads, data)

    recorded = Problem(name=problem.name, dimension=problem.dimension, loss_matrix=loss_matrix)
    risk_vector(recorded, space, dataset)
    assert sum(cells) == tracing._extra("loss_cells", (recorded, space, dataset))


def test_traced_sample_is_one_span_per_draw(perfbench):
    # perfbench assigns a traced wrapper over each factory-built mechanism's
    # sample; the draw through it is one span and the untraced id.
    tracing, _ = perfbench
    mechanisms = importlib.import_module("dperm.mechanisms")
    problem, space = PROBLEM_BUILDERS["finite-support"](6, 2)
    weights = 0.7 ** np.arange(6)
    data = discrete_points((np.arange(6) + 0.5) / 6, probs=weights / weights.sum()).sample(
        60, trial_rng(0, 2))

    def draws():
        em = mechanisms.exponential_mechanism(problem, space, 1.0)
        boost = mechanisms.boost_high_confidence(em, space, 0.2, 1.0)
        return [em.sample(data, 12), boost.sample(data, 12)]

    expected = draws()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert draws() == expected
    spans = [tracer.names[i] for i in tracer.name_id]
    assert spans.count("mechanisms.sample") == 1
    assert spans.count("mechanisms.boost_sample") == 1


def test_traced_chain_is_one_mh_span(perfbench):
    # perfbench wraps RandomWalkSampler.run as the mechanisms.mh span and
    # counts burn_in + steps per call as mechanisms.mh.steps, so its step_us
    # is the self time of one run per step: the whole chain must run inside
    # that one method call, with no traced span below it.
    tracing, _ = perfbench
    mechanisms = importlib.import_module("dperm.mechanisms")
    problem, _ = PROBLEM_BUILDERS["pth-power"]()
    data = Dataset(x=trial_rng(3, 1).uniform(0.2, 0.8, 40))
    sampler = mechanisms.logconcave_sampler(problem, 0.0, 1.0, 2.0, 2000)
    expected = sampler.run(data, 11)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        chain = sampler.run(data, 11)
    assert np.array_equal(chain.samples, expected.samples)
    assert [tracer.names[i] for i in tracer.name_id] == ["mechanisms.mh"]
    metrics = tracing.layer_metrics(tracer, 0, tracer.span_count(), 0.0, tracer.extra,
                                    tracer.audit_laws)
    assert metrics["mechanisms.mh.calls"] == 1
    assert metrics["mechanisms.mh.steps"] == sampler.burn_in + sampler.steps == 3000


def _dotted(node):
    """``a.b.c`` of an attribute chain rooted at a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_package_name_perfbench_reads_resolves(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name: dperm
                          for a in node.names if a.name == "dperm"})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dperm"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if not hasattr(module, alias.name):
                    try:  # ``from dperm import cli`` names a submodule
                        importlib.import_module(name)
                    except ImportError:
                        missing.append(name)
                        continue
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if not chain or chain[0] not in bound:
            continue
        target = bound[chain[0]]
        for attr in chain[1:]:
            if not hasattr(target, attr):
                missing.append(".".join(chain))
                break
            target = getattr(target, attr)
    assert not missing
