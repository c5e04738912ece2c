"""Spans and counters recorded around the public calls into each dperm layer.

Nothing under ``src/`` is changed.  :func:`instrument` replaces each traced
function at every name a dperm module binds it to (``from .x import f``
copies the reference, so patching only the defining module would miss the
callers), wraps the classmethods and methods listed in ``METHODS``, and
wraps the mechanism factories so that the ``law`` / ``sample`` closures of
every ``Mechanism`` they return are traced as well.  The originals are put
back when the context exits.

A span is (name, operation id, parent span, start, end).  Spans stay in
compact in-memory arrays; :meth:`Tracer.save` writes them out at the end and
:func:`layer_metrics` reduces them to counts and self times (a span's
duration minus the part its child spans cover).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name, extra counter)
FUNCTIONS = [
    ("seeding", "trial_rng", "seeding.trial_rng", None),
    ("spaces", "sublevel_set", "spaces.sublevel_set", None),
    ("spaces", "estimate_sublevel_condition", "spaces.estimate_sublevel_condition", None),
    ("problems", "objective_vector", "problems.objective_vector", None),
    ("problems", "risk_vector", "problems.risk_vector", "loss_cells"),
    ("mechanisms", "pth_power_erm_batch", "mechanisms.pth_power_erm_batch", "points"),
    ("analysis", "audit_pure_dp", "analysis.audit_pure_dp", None),
    ("analysis", "audit_approx_dp", "analysis.audit_approx_dp", None),
    ("analysis", "stability_audit", "analysis.stability_audit", None),
    ("analysis", "aerm_gap", "analysis.aerm_gap", None),
    ("analysis", "consistency_suite", "analysis.consistency_suite", None),
    ("analysis", "sample_counts", "analysis.sample_counts", None),
    ("analysis", "chi_square_gof", "analysis.chi_square_gof", None),
    ("config", "parse_config_file", "config.parse_config", None),
    ("experiments", "rows_to_csv", "experiments.rows_to_csv", None),
    ("cli", "_cmd_run", "cli.run", None),
]

# Generators: each step of the iteration is one span, each item one pair.
GENERATORS = [
    ("analysis", "exhaustive_neighbor_pairs", "analysis.neighbor_pairs"),
    ("analysis", "sampled_neighbor_pairs", "analysis.neighbor_pairs"),
]

# (module, class, attribute, span name, extra counter)
METHODS = [
    ("mechanisms", "MechanismDistribution", "from_logits", "mechanisms.from_logits", None),
    ("problems", "DataDistribution", "sample", "problems.DataDistribution.sample", None),
    ("problems", "Dataset", "take", "problems.Dataset.take", None),
    ("mechanisms", "RandomWalkSampler", "run", "mechanisms.mh", "steps"),
]

# Factory -> span names of the returned mechanism's law and sample closures.
FACTORIES = {
    "exponential_mechanism": ("mechanisms.em_law", "mechanisms.sample"),
    "erm_mechanism": ("mechanisms.erm_law", "mechanisms.sample"),
    "membership_flag_mechanism": ("mechanisms.flag_law", "mechanisms.sample"),
    "subsample_wrapper": ("mechanisms.subsample_law", "mechanisms.sample"),
    "boost_high_confidence": ("mechanisms.boost_law", "mechanisms.boost_sample"),
}

# Audit entry points whose law requests are counted per distinct multiset.
AUDITS = (
    "analysis.audit_pure_dp",
    "analysis.audit_approx_dp",
    "analysis.stability_audit",
)

MODULES = ("seeding", "spaces", "problems", "mechanisms", "analysis", "config",
           "experiments", "cli")


def _extra(kind, args):
    """Work counted at a boundary besides the call itself."""
    if kind == "loss_cells":  # risk_vector(problem, space, dataset)
        return args[1].size * args[2].n
    if kind == "points":  # pth_power_erm_batch(x)
        return int(np.asarray(args[0]).size)
    if kind == "steps":  # RandomWalkSampler.run(self, dataset, seed)
        return int(args[0].burn_in + args[0].steps)
    raise ValueError(kind)


def multiset_key(dataset) -> bytes:
    """Content of a dataset with the point order forgotten."""
    rows = dataset.x.reshape(dataset.n, -1)
    if dataset.y is not None:
        rows = np.column_stack([rows, dataset.y])
    return rows[np.lexsort(rows.T[::-1])].tobytes()


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.op_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.operation = -1
        self.extra: dict[str, int] = {}
        # audit span index -> (law requests, distinct multisets seen)
        self.audit_laws: dict[int, list] = {}

    def name(self, text: str) -> int:
        if text not in self._ids:
            self._ids[text] = len(self.names)
            self.names.append(text)
        return self._ids[text]

    def begin(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.op_id.append(self.operation)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def span_count(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            op_id=np.frombuffer(self.op_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _traced(tracer: Tracer, fn, span: str, extra=None):
    nid = tracer.name(span)
    key = span + "." + extra if extra else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if key:
            tracer.count(key, _extra(extra, args))
        index = tracer.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(index)

    return traced


def _traced_generator(tracer: Tracer, fn, span: str):
    nid = tracer.name(span)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index = tracer.begin(nid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.finish(index)
            tracer.count(span + ".count", 1)
            yield item

    return traced


def _traced_law(tracer: Tracer, law, span: str, audit_ids: frozenset):
    nid = tracer.name(span)

    @functools.wraps(law)
    def traced(dataset, *args, **kwargs):
        parent = tracer.stack[-1] if tracer.stack else -1
        if parent >= 0 and tracer.name_id[parent] in audit_ids:
            seen = tracer.audit_laws.setdefault(parent, [0, set()])
            seen[0] += 1
            seen[1].add(multiset_key(dataset))
        index = tracer.begin(nid)
        try:
            return law(dataset, *args, **kwargs)
        finally:
            tracer.finish(index)

    return traced


def _traced_factory(tracer: Tracer, factory, law_span: str, sample_span: str,
                    audit_ids: frozenset):
    @functools.wraps(factory)
    def traced(*args, **kwargs):
        mech = factory(*args, **kwargs)
        if mech.law is not None:
            mech.law = _traced_law(tracer, mech.law, law_span, audit_ids)
            if law_span == "mechanisms.boost_law":
                tuples = mech.space.size ** mech.info["parts"]
                law = mech.law

                def counted(dataset, *a, **k):
                    tracer.count("mechanisms.boost_law.tuples", tuples)
                    return law(dataset, *a, **k)

                mech.law = counted
        mech.sample = _traced(tracer, mech.sample, sample_span)
        return mech

    return traced


def _rebind(original, replacement, saved: list) -> None:
    """Point every dperm module-level name bound to ``original`` at
    ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "dperm" and not mod_name.startswith("dperm."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                saved.append((module, attr, value))
                setattr(module, attr, replacement)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the spans of this module into the imported dperm package."""
    mods = {name: importlib.import_module("dperm." + name) for name in MODULES}
    audit_ids = frozenset(tracer.name(s) for s in AUDITS)
    saved: list = []
    try:
        for mod, attr, span, extra in FUNCTIONS:
            fn = getattr(mods[mod], attr)
            _rebind(fn, _traced(tracer, fn, span, extra), saved)
        for mod, attr, span in GENERATORS:
            fn = getattr(mods[mod], attr)
            _rebind(fn, _traced_generator(tracer, fn, span), saved)
        for mod, cls_name, attr, span, extra in METHODS:
            cls = getattr(mods[mod], cls_name)
            raw = vars(cls)[attr]
            saved.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(_traced(tracer, raw.__func__, span, extra)))
            else:
                setattr(cls, attr, _traced(tracer, raw, span, extra))
        for attr, (law_span, sample_span) in FACTORIES.items():
            fn = getattr(mods["mechanisms"], attr)
            wrapped = _traced_factory(tracer, fn, law_span, sample_span, audit_ids)
            _rebind(fn, wrapped, saved)
        drivers = mods["experiments"].EXPERIMENTS
        for key, fn in list(drivers.items()):
            saved.append((drivers, key, fn))
            drivers[key] = _traced(tracer, fn, "experiments." + fn.__name__)
        yield tracer
    finally:
        _restore(saved)


def _restore(saved: list) -> None:
    for owner, attr, value in reversed(saved):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)


@contextlib.contextmanager
def count_audit_pairs(counter: list):
    """Add to ``counter[0]`` each neighbor pair an audit entry point consumes.

    Installed in untraced runs too: it touches only three calls per audit.
    """
    import dperm

    def counting(fn):
        @functools.wraps(fn)
        def wrapper(mechanism, pairs, *args, **kwargs):
            def each():
                for pair in pairs:
                    counter[0] += 1
                    yield pair

            return fn(mechanism, each(), *args, **kwargs)

        return wrapper

    saved: list = []
    try:
        for attr in ("audit_pure_dp", "audit_approx_dp", "stability_audit"):
            fn = getattr(dperm.analysis, attr)
            _rebind(fn, counting(fn), saved)
        yield counter
    finally:
        _restore(saved)


def span_names() -> tuple:
    """Every span name :func:`instrument` can record."""
    import dperm

    names = [s for _, _, s, _ in FUNCTIONS] + [s for _, _, s in GENERATORS]
    names += [m[3] for m in METHODS]
    for law, sample in FACTORIES.values():
        names += [law, sample]
    names += ["experiments." + fn.__name__
              for fn in dperm.experiments.EXPERIMENTS.values()]
    return tuple(dict.fromkeys(names))


def self_times(tracer: Tracer, first: int, last: int):
    """Self time, name id and parent of the spans first..last-1."""
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)[first:last]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[first:last]
    start = np.frombuffer(tracer.start, dtype=np.float64)[first:last]
    end = np.frombuffer(tracer.end, dtype=np.float64)[first:last]
    duration = end - start
    local = parent - first
    has_parent = local >= 0
    child_time = np.bincount(
        local[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - child_time, name_id, local, duration


def layer_metrics(tracer: Tracer, first: int, last: int, wall: float,
                  extra: dict, audit_laws: dict) -> dict:
    """Counts and self times of one traced operation run (spans first..last-1).

    Every value is additive over runs; :func:`derive` adds the ratios.
    """
    for span in span_names():
        tracer.name(span)
    own, name_id, local, duration = self_times(tracer, first, last)
    names = tracer.names
    counts = np.bincount(name_id, minlength=len(names))
    selfs = np.bincount(name_id, weights=own, minlength=len(names))

    # Laws built inside draws: from_logits spans with a sample span above.
    sample_id = tracer.name("mechanisms.sample")
    inside = np.zeros(len(local), dtype=bool)
    for i, p in enumerate(local):
        if p >= 0:
            inside[i] = inside[p] or name_id[p] == sample_id
    laws_in_draws = int(np.sum(inside & (name_id == tracer.name("mechanisms.from_logits"))))

    # Base laws: law spans whose parent is a subsample-wrapper law.
    law_ids = [tracer.name(s) for s, _ in FACTORIES.values()]
    has_parent = local >= 0
    base_laws = int(np.sum(
        has_parent
        & np.isin(name_id, law_ids)
        & (name_id[np.where(has_parent, local, 0)] == tracer.name("mechanisms.subsample_law"))
    ))

    out = {}
    for span in span_names():
        out[span + ".calls"] = int(counts[tracer.name(span)])
        out[span + ".self_s"] = float(selfs[tracer.name(span)])
    out.update({
        "problems.loss_cells": extra.get("problems.risk_vector.loss_cells", 0),
        "mechanisms.subsample_law.base_laws": base_laws,
        "mechanisms.laws_in_draws": laws_in_draws,
        "mechanisms.boost_law.tuples": extra.get("mechanisms.boost_law.tuples", 0),
        "mechanisms.pth_power_erm_batch.points":
            extra.get("mechanisms.pth_power_erm_batch.points", 0),
        "mechanisms.mh.steps": extra.get("mechanisms.mh.steps", 0),
        "analysis.neighbor_pairs.count": extra.get("analysis.neighbor_pairs.count", 0),
        "analysis.law_requests": sum(v[0] for v in audit_laws.values()),
        "analysis.distinct_multisets": sum(len(v[1]) for v in audit_laws.values()),
    })
    modules = {m: 0.0 for m in MODULES}
    for i, span in enumerate(names):
        modules[span.split(".", 1)[0]] += float(selfs[i])
    for m, value in modules.items():
        out[m + ".self_s"] = value
    top_level = float(duration[local < 0].sum())
    out["bench.self_s"] = max(0.0, wall - top_level)
    return out


def derive(totals: dict) -> None:
    """Add the ratio metrics to summed :func:`layer_metrics` values."""

    def ratio(num, den, scale=1.0):
        return scale * totals[num] / totals[den] if totals[den] else 0.0

    totals["mechanisms.laws_per_draw"] = ratio("mechanisms.laws_in_draws",
                                               "mechanisms.sample.calls")
    totals["mechanisms.mh.step_us"] = ratio("mechanisms.mh.self_s", "mechanisms.mh.steps", 1e6)
    totals["analysis.laws_per_multiset"] = ratio("analysis.law_requests",
                                                 "analysis.distinct_multisets")
