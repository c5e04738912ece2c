"""Flat key = value run configurations for the experiment drivers.

A config file is plain text: one ``key = value`` assignment per line,
``#`` starts a comment, blank lines are ignored, and list values are
comma-separated.  ``experiment`` selects the driver and fixes which other
keys are accepted; every other key has a default, so the one-line file
``experiment = audit`` is a complete configuration.

Example::

    # audit the private threshold learner
    experiment = audit
    seed = 7
    output = out/audit.csv
    epsilon = 0.5, 1.0, 2.0
    n = 3
    universe = 4

Unknown keys, unknown experiments, duplicate keys, type mismatches and
values outside a key's bounds (``dperm list --keys``) all raise
:class:`ConfigError` with the offending line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ConfigError",
    "Field",
    "RunConfig",
    "SCHEMAS",
    "parse_config_text",
    "parse_config_file",
    "config_to_text",
]


class ConfigError(ValueError):
    """A run configuration that cannot be accepted as written."""


@dataclass(frozen=True)
class Field:
    kind: str  # int | float | str | ints | floats
    default: object
    help: str = ""
    bounds: str = ""  # interval every number must lie in, e.g. "(0, inf)"

    def check(self, key: str, value, where: str = "") -> None:
        """Raise ConfigError (message prefixed by ``where``) unless every
        number in ``value`` lies in ``bounds``; NaN lies in no interval."""
        if not self.bounds:
            return
        lo, hi = (float(t) for t in self.bounds[1:-1].split(","))
        closed_lo, closed_hi = self.bounds[0] == "[", self.bounds[-1] == "]"
        for v in value if isinstance(value, tuple) else (value,):
            above = v > lo or (closed_lo and v == lo)
            below = v < hi or (closed_hi and v == hi)
            if not (above and below):
                raise ConfigError(
                    f"{where}{key} must lie in {self.bounds}, got {v!r}"
                )


POSITIVE = "(0, inf)"
# Every privacy level; shipped configs use at most 2, and e^epsilon stays
# far inside the float range (math.exp overflows past about 709).
EPSILON = "(0, 100]"
FINITE = "(-inf, inf)"
PROBABILITY = "(0, 1)"
AT_LEAST_1 = "[1, inf)"
AT_LEAST_2 = "[2, inf)"
CELLS = "[1, 50]"  # finite_support_estimation's limit
SUBSET = "[0, 50]"


# Keys shared by every experiment.
COMMON_FIELDS: dict[str, Field] = {
    "seed": Field("int", 0, "root seed; trial i uses an independent derived stream"),
    "output": Field("str", "", "CSV destination; empty writes rows to stdout"),
}

SCHEMAS: dict[str, dict[str, Field]] = {
    "audit": {
        "problem": Field("str", "threshold", "threshold or finite-support"),
        "resolution": Field(
            "int", 8, "hypothesis grid size (threshold problem)", AT_LEAST_1
        ),
        "cells": Field("int", 8, "cell count (finite-support problem)", CELLS),
        "subset_size": Field(
            "int", 3, "max support size (finite-support problem)", SUBSET
        ),
        "universe": Field("int", 4, "number of data atoms", "[2, 6]"),
        "n": Field("int", 3, "dataset size for neighbor enumeration", AT_LEAST_1),
        "epsilon": Field(
            "floats", (0.5, 1.0, 2.0), "privacy levels to audit", EPSILON
        ),
        "subsample_m": Field(
            "int", 2, "fixed subsample size for amplification rows", AT_LEAST_1
        ),
        "approx_delta": Field(
            "float", 0.1, "delta of the approximate-budget base", PROBABILITY
        ),
    },
    "stability": {
        "problem": Field("str", "threshold", "threshold or finite-support"),
        "resolution": Field(
            "int", 8, "hypothesis grid size (threshold problem)", AT_LEAST_1
        ),
        "cells": Field("int", 8, "cell count (finite-support problem)", CELLS),
        "subset_size": Field(
            "int", 3, "max support size (finite-support problem)", SUBSET
        ),
        "universe": Field("int", 4, "number of data atoms", "[2, 6]"),
        "n": Field("int", 3, "dataset size for neighbor enumeration", AT_LEAST_1),
        "epsilon": Field("floats", (0.25, 0.5, 1.0, 2.0), "privacy levels", EPSILON),
    },
    "aerm": {
        "cells": Field("int", 8, "cell count of the support problem", CELLS),
        "subset_size": Field("int", 3, "max support size", SUBSET),
        "n_grid": Field("ints", (50, 200), "dataset sizes", AT_LEAST_2),
        "epsilon": Field("floats", (0.5, 1.0), "privacy levels", EPSILON),
        "trials": Field("int", 40, "datasets per (n, epsilon) cell", AT_LEAST_2),
    },
    "utility-tail": {
        "problem": Field("str", "threshold", "threshold or finite-support"),
        "resolution": Field(
            "int", 32, "hypothesis grid size (threshold problem)", AT_LEAST_1
        ),
        "cells": Field("int", 8, "cell count (finite-support problem)", CELLS),
        "subset_size": Field("int", 3, "max support size", SUBSET),
        "n": Field("int", 60, "dataset size", AT_LEAST_1),
        "epsilon": Field("float", 1.0, "privacy level", EPSILON),
        "t_count": Field("int", 20, "number of tail thresholds", AT_LEAST_1),
        "t_min": Field("float", 0.01, "smallest tail threshold", POSITIVE),
        "t_max": Field("float", 0.5, "largest tail threshold", POSITIVE),
    },
    "consistency": {
        "mode": Field("str", "exact", "exact or mc"),
        "n": Field("int", 3, "dataset size", AT_LEAST_1),
        "epsilon": Field("float", 1.0, "privacy level of the learner", EPSILON),
        "trials": Field("int", 200, "datasets in mc mode", AT_LEAST_2),
        "resolution": Field("int", 16, "hypothesis grid size", AT_LEAST_1),
    },
    "counterexample": {
        "epsilon": Field("float", 1.0, "privacy level of the learner", EPSILON),
        "n": Field("int", 3, "dataset size of the packed family", AT_LEAST_1),
        "resolutions": Field(
            "ints", tuple(2**k for k in range(1, 17)), "grid sizes to sweep", AT_LEAST_1
        ),
        "ratio_threshold": Field(
            "float",
            14.0,
            "ln(resolution) / (n epsilon / 4) above which the gap must exceed 1/2",
            FINITE,
        ),
    },
    "phase": {
        "rates": Field("floats", (0.5, 1.0), "subsampling exponents r", "[0, 1]"),
        "n_grid": Field("ints", (100, 1000, 10000), "dataset sizes", AT_LEAST_1),
        "trials": Field("int", 200, "datasets per (r, n) cell", AT_LEAST_2),
        "resolution": Field("int", 257, "hypothesis grid size", AT_LEAST_1),
        "support_size": Field("int", 512, "data support size", AT_LEAST_1),
        "theta": Field("float", 0.5, "true threshold", "[0, 1]"),
    },
    "boost": {
        "cells": Field("int", 8, "cell count of the support problem", CELLS),
        "subset_size": Field("int", 3, "max support size", SUBSET),
        "skew": Field("float", 0.7, "cell i carries probability ~ skew^i", "(0, 1]"),
        "n": Field("int", 600, "dataset size", AT_LEAST_1),
        "base_epsilon": Field(
            "float", 2.0, "privacy level of the base learner", EPSILON
        ),
        "epsilon": Field("float", 2.0, "privacy level of the selection step", EPSILON),
        "delta": Field("floats", (0.05, 0.2), "confidence targets", PROBABILITY),
        "trials": Field("int", 500, "measurement datasets per target", AT_LEAST_2),
        "calibration_trials": Field(
            "int", 300, "datasets used to calibrate C", AT_LEAST_2
        ),
    },
    "rates": {
        "n_grid": Field(
            "ints", (100, 1000, 10000, 100000), "dataset sizes", AT_LEAST_2
        ),
        "trials": Field("int", 500, "datasets per size", AT_LEAST_2),
        "epsilon_exponent": Field("float", 0.9, "epsilon(n) = n**(-exponent)", FINITE),
        "slope_lo": Field(
            "float", -1.1, "lower edge of the asserted slope band", FINITE
        ),
        "slope_hi": Field(
            "float", -0.7, "upper edge of the asserted slope band", FINITE
        ),
    },
    "sublevel": {
        "problem": Field("str", "logistic", "logistic or finite-support"),
        "resolution": Field(
            "int", 64, "hypothesis grid size (logistic problem)", AT_LEAST_1
        ),
        "cells": Field("int", 8, "cell count (finite-support problem)", CELLS),
        "subset_size": Field("int", 3, "max support size", SUBSET),
        "n": Field("int", 200, "dataset size per replication", AT_LEAST_1),
        "t_count": Field("int", 8, "number of sublevel thresholds", AT_LEAST_2),
        "t_min": Field("float", 0.02, "smallest threshold", POSITIVE),
        "t_max": Field("float", 0.5, "largest threshold", POSITIVE),
        "replications": Field("int", 20, "datasets per threshold", AT_LEAST_1),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """A fully-resolved run: experiment name, common keys, typed params."""

    experiment: str
    seed: int = 0
    output: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.experiment not in SCHEMAS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"expected one of {', '.join(sorted(SCHEMAS))}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        schema = SCHEMAS[self.experiment]
        merged = {}
        for key, spec in schema.items():
            value = self.params.get(key, spec.default)
            if isinstance(value, list):
                value = tuple(value)
            merged[key] = value
        extra = set(self.params) - set(schema)
        if extra:
            raise ConfigError(
                f"unknown keys for experiment {self.experiment!r}: "
                f"{', '.join(sorted(extra))}"
            )
        for key, value in merged.items():
            schema[key].check(key, value)
        object.__setattr__(self, "params", merged)

    def __getitem__(self, key: str):
        return self.params[key]


def _parse_scalar(kind: str, token: str, key: str, line_no: int):
    token = token.strip()
    if not token:
        raise ConfigError(f"line {line_no}: empty value for key {key!r}")
    try:
        if kind == "int":
            return int(token)
        if kind == "float":
            return float(token)
        if kind == "str":
            return token
    except ValueError:
        raise ConfigError(
            f"line {line_no}: key {key!r} expects {kind}, got {token!r}"
        ) from None
    raise ConfigError(f"line {line_no}: unhandled kind {kind!r}")


def _parse_value(spec: Field, raw: str, key: str, line_no: int):
    if spec.kind in ("int", "float", "str"):
        return _parse_scalar(spec.kind, raw, key, line_no)
    if spec.kind in ("ints", "floats"):
        inner = "int" if spec.kind == "ints" else "float"
        parts = [p for p in raw.split(",")]
        if not parts or all(not p.strip() for p in parts):
            raise ConfigError(f"line {line_no}: empty list for key {key!r}")
        return tuple(_parse_scalar(inner, p, key, line_no) for p in parts)
    raise ConfigError(f"line {line_no}: unhandled kind {spec.kind!r}")


def parse_config_text(text: str) -> RunConfig:
    """Parse config text into a RunConfig, validating against the schema."""
    assignments: dict[str, tuple[str, int]] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {line_no}: missing key before '='")
        if key in assignments:
            raise ConfigError(
                f"line {line_no}: duplicate key {key!r} "
                f"(first set on line {assignments[key][1]})"
            )
        assignments[key] = (value.strip(), line_no)

    if "experiment" not in assignments:
        raise ConfigError("config must set 'experiment'")
    experiment, _ = assignments.pop("experiment")
    if experiment not in SCHEMAS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; "
            f"expected one of {', '.join(sorted(SCHEMAS))}"
        )
    schema = SCHEMAS[experiment]

    seed = 0
    output = ""
    params: dict = {}
    for key, (raw, line_no) in assignments.items():
        if key in COMMON_FIELDS:
            value = _parse_value(COMMON_FIELDS[key], raw, key, line_no)
            if key == "seed":
                seed = value
            else:
                output = value
            continue
        if key not in schema:
            accepted = sorted(set(schema) | set(COMMON_FIELDS))
            raise ConfigError(
                f"line {line_no}: unknown key {key!r} for experiment "
                f"{experiment!r}; accepted keys: {', '.join(accepted)}"
            )
        params[key] = _parse_value(schema[key], raw, key, line_no)
        schema[key].check(key, params[key], f"line {line_no}: ")
    return RunConfig(experiment=experiment, seed=seed, output=output, params=params)


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_text(config: RunConfig) -> str:
    """Canonical text form; parsing it back yields an equal RunConfig."""
    lines = [f"experiment = {config.experiment}", f"seed = {config.seed}"]
    if config.output:
        lines.append(f"output = {config.output}")
    for key in sorted(config.params):
        lines.append(f"{key} = {_format_value(config.params[key])}")
    return "\n".join(lines) + "\n"


def describe_schema(experiment: str) -> list[tuple[str, str, str]]:
    """(key, kind, help) rows for an experiment, common keys first."""
    if experiment not in SCHEMAS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    fields = {**COMMON_FIELDS, **SCHEMAS[experiment]}
    return [
        (k, f.kind, f"{f.help}; in {f.bounds}" if f.bounds else f.help)
        for k, f in fields.items()
    ]


def default_config(experiment: str, **overrides) -> RunConfig:
    """RunConfig with schema defaults, overridden by keyword arguments."""
    seed = overrides.pop("seed", 0)
    output = overrides.pop("output", "")
    return RunConfig(experiment=experiment, seed=seed, output=output, params=overrides)
