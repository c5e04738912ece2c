"""Config parsing: schemas, round trips, and rejection messages."""

import glob
import os

import pytest

from dperm.config import (
    SCHEMAS,
    ConfigError,
    RunConfig,
    config_to_text,
    default_config,
    describe_schema,
    parse_config_file,
    parse_config_text,
)

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


@pytest.mark.parametrize("experiment", sorted(SCHEMAS))
def test_round_trip_defaults(experiment):
    config = default_config(experiment, seed=3, output="out.csv")
    assert parse_config_text(config_to_text(config)) == config


def test_defaults_merged_and_overrides_win():
    config = default_config("audit", n=5)
    assert config["n"] == 5
    assert set(config.params) == set(SCHEMAS["audit"])
    assert config["universe"] == 4


def test_lists_become_tuples():
    config = RunConfig(experiment="audit", params={"epsilon": [0.5, 1.0]})
    assert config["epsilon"] == (0.5, 1.0)


def test_parse_basics():
    text = """
    # audit at two privacy levels
    experiment = audit

    epsilon = 0.5, 2.0   # trailing comment
    n = 4
    seed = 11
    output = results/a.csv
    """
    config = parse_config_text(text)
    assert config.experiment == "audit"
    assert config.seed == 11
    assert config.output == "results/a.csv"
    assert config["epsilon"] == (0.5, 2.0)
    assert config["n"] == 4
    assert config["resolution"] == 8  # untouched default


def test_getitem_hits_params_only():
    config = default_config("stability")
    with pytest.raises(KeyError):
        config["no_such_key"]


class TestRejections:
    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="must set 'experiment'"):
            parse_config_text("n = 3\n")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config_text("experiment = nope\n")

    def test_unknown_key_carries_line_number(self):
        text = "experiment = audit\nuniversse = 3\n"
        with pytest.raises(ConfigError, match="line 2.*universse"):
            parse_config_text(text)

    def test_duplicate_key_names_both_lines(self):
        text = "experiment = audit\nn = 3\n\nn = 4\n"
        with pytest.raises(ConfigError, match="line 4.*first set on line 2"):
            parse_config_text(text)

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="expects int"):
            parse_config_text("experiment = audit\nn = 3.5\n")

    def test_bad_float_in_list(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config_text("experiment = audit\nepsilon = 0.5, abc\n")

    def test_line_without_assignment(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("experiment = audit\njust words\n")

    def test_missing_key_before_equals(self):
        with pytest.raises(ConfigError, match="missing key"):
            parse_config_text("experiment = audit\n= 3\n")

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("experiment = audit\nseed = -1\n")

    def test_unknown_key_in_constructor(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            RunConfig(experiment="audit", params={"bogus": 1})


@pytest.mark.parametrize(
    "experiment, assignment",
    [
        ("audit", "epsilon = 0.5, -1"),
        ("audit", "epsilon = nan"),
        ("audit", "epsilon = inf"),
        ("audit", "approx_delta = 1.0"),
        ("audit", "n = 0"),
        ("audit", "subsample_m = 0"),
        ("audit", "universe = 7"),
        ("stability", "resolution = 0"),
        ("aerm", "n_grid = 50, 1"),
        ("aerm", "trials = 1"),
        ("utility-tail", "t_min = 0"),
        ("consistency", "trials = 1"),
        ("counterexample", "resolutions = 16, 0"),
        ("phase", "rates = 0.5, 1.5"),
        ("phase", "theta = -0.1"),
        ("boost", "delta = 0.1, 0"),
        ("boost", "skew = 0"),
        ("boost", "calibration_trials = 1"),
        ("boost", "cells = 51"),
        ("rates", "n_grid = 1, 100"),
        ("rates", "epsilon_exponent = nan"),
        ("sublevel", "replications = 0"),
    ],
)
def test_out_of_range_value_rejected(experiment, assignment):
    key = assignment.split("=")[0].strip()
    with pytest.raises(ConfigError, match=f"^line 2: {key} must lie in"):
        parse_config_text(f"experiment = {experiment}\n{assignment}\n")


def test_bounds_are_inclusive_where_closed():
    config = parse_config_text("experiment = phase\nrates = 0, 1\ntheta = 1\n")
    assert config["rates"] == (0.0, 1.0)
    with pytest.raises(ConfigError, match="^universe must lie in"):
        default_config("audit", universe=1)


def test_shipped_configs_in_range():
    paths = sorted(glob.glob(os.path.join(SCRIPTS, "*.conf")))
    assert paths
    for path in paths:
        parse_config_file(path)


def test_describe_schema_lists_common_keys_first():
    rows = describe_schema("phase")
    keys = [key for key, _, _ in rows]
    assert keys[:2] == ["seed", "output"]
    assert "rates" in keys
    with pytest.raises(ConfigError):
        describe_schema("nope")


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("experiment = consistency\nmode = mc\ntrials = 50\n")
    config = parse_config_file(str(path))
    assert config["mode"] == "mc"
    assert config["trials"] == 50
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(str(tmp_path / "missing.conf"))
