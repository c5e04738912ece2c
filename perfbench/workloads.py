"""The benchmark workloads and the checks on their outputs.

A workload is a list of operations.  An operation is one driver run through
``dperm.cli.main(["run", <config>])`` or one group of library calls, and it
returns a digest of its output plus the units of work it did.  Each
operation also checks its verdicts and raises :class:`CheckFailed` on a
wrong one; at the reference seed the caller compares digests with
``reference.json`` as well.

Every input comes from the workload seed: it is the ``seed`` line of each
generated config and the root of every dataset drawn here.  The program
sees only those configs and datasets.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

REFERENCE_SEED = 0

# Checked rows that are red by design and must stay red.
MUST_FAIL = {"gap_monotone_nondecreasing", "loglog_slope"}

# Fixed-law verdicts.  The p-value floor is far below any plausible value
# for a correct sampler; the TV ceiling is twice the value a 4e4-step chain
# reaches against the grid law.
GOF_P_MIN = 1e-6
CHAIN_TV_MAX = 0.1


class CheckFailed(Exception):
    """An operation's output differs from what the program must produce."""


@dataclass
class Result:
    """Digest of one operation's output and the work it did.

    ``work`` maps a unit (pairs, trials, points, draws, mh_steps) to
    (count, seconds spent on it).
    """

    digest: str
    work: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[], Result]


@dataclass
class Workload:
    name: str
    unit: str          # the unit of work_per_s
    focus: tuple       # span names of the layer this workload is chosen for
    ops: list
    pairs: list        # [audit pairs read so far], see tracing.count_audit_pairs


def _config(body: str, seed: int, output: str) -> str:
    return f"{body.strip()}\nseed = {seed}\noutput = {output}\n"


EXACT_AUDIT = {
    "audit": """
experiment = audit
problem = threshold
resolution = 64
universe = 6
n = 5
epsilon = 0.5, 1.0, 2.0
subsample_m = 2
approx_delta = 0.1
""",
    "stability": """
experiment = stability
problem = threshold
resolution = 64
universe = 6
n = 5
epsilon = 0.25, 0.5, 1.0, 2.0
""",
    "consistency": """
experiment = consistency
mode = exact
n = 60
epsilon = 1.0
resolution = 64
trials = 200
""",
    "counterexample": """
experiment = counterexample
epsilon = 1.0
n = 3
resolutions = 16, 256, 4096, 65536
ratio_threshold = 14.0
""",
    "utility_tail": """
experiment = utility-tail
problem = threshold
resolution = 32
n = 60
epsilon = 1.0
t_count = 20
t_min = 0.01
t_max = 0.5
""",
}

# (config, Monte Carlo trials it runs: one fresh dataset drawn and learned on)
MC_TRIALS = {
    "boost": ("""
experiment = boost
cells = 8
subset_size = 3
skew = 0.7
n = 600
base_epsilon = 2.0
epsilon = 2.0
delta = 0.1, 0.3
trials = 2000
calibration_trials = 500
""", 2 * (2000 + 500)),
    "aerm": ("""
experiment = aerm
cells = 8
subset_size = 3
n_grid = 100, 1000, 10000
epsilon = 0.1, 1.0
trials = 40
""", 3 * 2 * 40),
    "phase": ("""
experiment = phase
rates = 0.5, 1.0
n_grid = 100, 1000, 10000
trials = 1000
resolution = 257
support_size = 512
theta = 0.5
""", 2 * 3 * 1000),
    "consistency_mc": ("""
experiment = consistency
mode = mc
n = 100
epsilon = 1.0
resolution = 16
trials = 2000
""", 2000),
    "sublevel": ("""
experiment = sublevel
problem = logistic
resolution = 64
n = 200
t_count = 8
t_min = 0.02
t_max = 0.5
replications = 20
""", 20),
}

RATES_TRIALS = 60
RATES_N_GRID = (100, 1000, 10000, 100000)
RATES = f"""
experiment = rates
n_grid = {", ".join(map(str, RATES_N_GRID))}
trials = {RATES_TRIALS}
epsilon_exponent = 0.9
slope_lo = -1.1
slope_hi = -0.7
"""

EXPECTED_EXIT = {"counterexample": 2, "rates": 2}


def check_verdicts(name: str, text: str) -> None:
    """Every checked row passes, except the red-by-design rows, which fail."""
    for row in csv.DictReader(io.StringIO(text)):
        red = row["metric"] in MUST_FAIL
        if row["passed"] == ("true" if red else "false"):
            raise CheckFailed(
                f"{name}: {row['metric']} passed={row['passed']} "
                f"value={row['value']} bound={row['bound']}"
            )


def cli_op(name: str, path: str, csv_path: str, pair_counter=None,
           unit: str = "", units: int = 0) -> Op:
    """One driver run through the CLI, writing its CSV to ``csv_path``."""
    expected = EXPECTED_EXIT.get(name, 0)

    def run() -> Result:
        from dperm import cli

        before = pair_counter[0] if pair_counter else 0
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["run", path])
        seconds = time.perf_counter() - start
        if code != expected:
            raise CheckFailed(f"{name}: exit code {code}, expected {expected}: "
                              f"{sink.getvalue().strip()[-500:]}")
        with open(csv_path, "rb") as handle:
            data = handle.read()
        check_verdicts(name, data.decode("utf-8"))
        count = pair_counter[0] - before if pair_counter else units
        return Result(hashlib.sha256(data).hexdigest(), {unit: (count, seconds)})

    return Op(name, run)


def _digest(*arrays) -> str:
    """SHA-256 of the arrays printed at 12 significant digits."""
    text = "\n".join(
        ",".join("%.12g" % v for v in np.asarray(a, dtype=float).ravel())
        for a in arrays
    )
    return hashlib.sha256(text.encode()).hexdigest()


def fixed_law_ops(seed: int, draws: int = 4000, boost_draws: int = 1500,
                  chain_steps: int = 40000) -> list:
    """Library calls shaped like the slowest sampler tests, on datasets
    fixed for the whole run, so each law could be built once and reused."""
    from dperm import analysis, mechanisms, problems
    from dperm.seeding import spawn_seed, trial_rng

    threshold_data = problems.labeled_threshold(0.5, support_size=64).sample(
        40, trial_rng(seed, 0))
    chain_data = problems.Dataset(x=trial_rng(seed, 1).uniform(0.2, 0.8, 40))
    weights = 0.7 ** np.arange(6)
    support = problems.discrete_points(
        (np.arange(6) + 0.5) / 6, probs=weights / weights.sum())
    boost_data = support.sample(60, trial_rng(seed, 2))
    boost_laws: list = []

    def boosted():
        problem, space = problems.finite_support_estimation(6, 2)
        base = mechanisms.exponential_mechanism(problem, space, 1.0)
        # delta 0.2 gives ceil(ln 15) = 3 parts: |H|^a = 22^3 = 10,648 tuples.
        return mechanisms.boost_high_confidence(base, space, 0.2, 1.0)

    def sample_counts() -> Result:
        problem, space = problems.threshold_classification(resolution=16)
        mech = mechanisms.exponential_mechanism(problem, space, 1.0)
        law = mech.law(threshold_data).probabilities
        start = time.perf_counter()
        counts = analysis.sample_counts(mech, threshold_data, draws,
                                        spawn_seed(seed, 10))
        seconds = time.perf_counter() - start
        gof = analysis.chi_square_gof(law, counts)
        if not gof.pvalue > GOF_P_MIN:
            raise CheckFailed(f"sample_counts: GOF p={gof.pvalue:.3g}")
        return Result(_digest(law, counts), {"draws": (draws, seconds)})

    def metropolis() -> Result:
        problem, grid = problems.pth_power_mean(resolution=64)
        grid_law = mechanisms.exponential_mechanism(problem, grid, 2.0).law(chain_data)
        sampler = mechanisms.logconcave_sampler(problem, 0.0, 1.0, 2.0, chain_steps)
        start = time.perf_counter()
        chain = sampler.run(chain_data, spawn_seed(seed, 11))
        seconds = time.perf_counter() - start
        empirical = analysis.empirical_law_on_grid(chain.samples, 0.0, 1.0, 64)
        tv = analysis.total_variation(grid_law.probabilities, empirical)
        if not tv <= CHAIN_TV_MAX:
            raise CheckFailed(f"metropolis: TV {tv:.3g} > {CHAIN_TV_MAX}")
        steps = sampler.burn_in + sampler.steps
        return Result(_digest(grid_law.probabilities, empirical),
                      {"mh_steps": (steps, seconds)})

    def boost_law() -> Result:
        law = boosted().law(boost_data).probabilities
        boost_laws[:] = [law]
        return Result(_digest(law))

    def boost_sampling() -> Result:
        if not boost_laws:
            boost_law()
        mech = boosted()
        root = spawn_seed(seed, 12)
        start = time.perf_counter()
        out = [mech.sample(boost_data, spawn_seed(root, i)) for i in range(boost_draws)]
        seconds = time.perf_counter() - start
        counts = np.bincount(out, minlength=mech.space.size)
        gof = analysis.chi_square_gof(boost_laws[0], counts)
        if not gof.pvalue > GOF_P_MIN:
            raise CheckFailed(f"boost_draws: GOF p={gof.pvalue:.3g}")
        return Result(_digest(counts), {"draws": (boost_draws, seconds)})

    return [
        Op("sample_counts", sample_counts),
        Op("metropolis", metropolis),
        Op("boost_law", boost_law),
        Op("boost_draws", boost_sampling),
    ]


def _write_config(directory: str, name: str, body: str, seed: int):
    """Write one generated config, check that it parses, return its paths."""
    from dperm.config import parse_config_text

    csv_path = os.path.join(directory, name + ".csv")
    text = _config(body, seed, csv_path)
    parse_config_text(text)
    path = os.path.join(directory, name + ".conf")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path, csv_path


def build(name: str, seed: int, directory: str) -> Workload:
    """Generate the inputs of one workload under ``directory``."""
    pair_counter = [0]
    if name == "repeated-data":
        ops = [
            cli_op(op, *_write_config(directory, op, body, seed),
                   pair_counter=pair_counter, unit="pairs")
            for op, body in EXACT_AUDIT.items()
        ]
        # Law construction (the audits) and the fixed-law samplers.
        focus = ("mechanisms.from_logits", "mechanisms.em_law",
                 "mechanisms.subsample_law", "mechanisms.boost_law",
                 "mechanisms.sample", "mechanisms.boost_sample", "mechanisms.mh")
        return Workload(name, "pairs", focus, ops + fixed_law_ops(seed), pair_counter)
    if name == "fresh-data":
        ops = [
            cli_op(op, *_write_config(directory, op, body, seed),
                   unit="trials", units=trials)
            for op, (body, trials) in MC_TRIALS.items()
        ]
        points = sum(RATES_N_GRID) * RATES_TRIALS
        ops.append(cli_op("rates", *_write_config(directory, "rates", RATES, seed),
                          unit="points", units=points))
        # Data generation, laws on fresh data, large-n losses, the rates kernel.
        focus = ("problems.DataDistribution.sample", "mechanisms.sample",
                 "mechanisms.boost_sample", "mechanisms.from_logits",
                 "problems.risk_vector", "mechanisms.pth_power_erm_batch")
        return Workload(name, "trials", focus, ops, pair_counter)
    raise KeyError(name)


# repeated-data: every input recurs (the audits revisit each multiset many
# times; the sampler operations reuse one dataset), so a law built once
# could serve again.  fresh-data: every Monte Carlo trial draws a new
# dataset, so nothing can be reused.
NAMES = ("repeated-data", "fresh-data")
