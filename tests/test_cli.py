"""End-to-end CLI behavior: run, list, summarize, and exit codes."""

import json

import pytest

from dperm import experiments
from dperm.cli import main
from dperm.experiments import CSV_COLUMNS, EXPERIMENTS


def write(path, text):
    path.write_text(text)
    return str(path)


AUDIT_CONF = """
experiment = audit
epsilon = 1.0
universe = 2
n = 2
resolution = 4
subsample_m = 1
seed = 5
"""

COUNTEREXAMPLE_CONF = """
experiment = counterexample
resolutions = 16, 256
seed = 0
"""


class TestRun:
    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "audit.csv"
        conf = write(tmp_path / "a.conf", AUDIT_CONF + f"output = {out}\n")
        assert main(["run", conf]) == 0

        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) > 1

        manifest = json.loads((tmp_path / "audit.csv.manifest.json").read_text())
        assert manifest["experiment"] == "audit"
        assert manifest["rows"] == len(lines) - 1
        assert manifest["passed"] is True
        assert "seed = 5" in manifest["config_text"]
        assert list(manifest) == sorted(manifest)

        status = capsys.readouterr().out
        assert "audit:" in status and str(out) in status

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "audit.csv"
        conf = write(tmp_path / "a.conf", AUDIT_CONF + f"output = {out}\n")
        assert main(["run", conf]) == 0
        first = out.read_bytes()
        assert main(["run", conf]) == 0
        assert out.read_bytes() == first

    def test_stdout_mode(self, tmp_path, capsys):
        conf = write(tmp_path / "a.conf", AUDIT_CONF)
        assert main(["run", conf]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_failing_assertion_exits_2(self, tmp_path, capsys):
        out = tmp_path / "ce.csv"
        conf = write(
            tmp_path / "ce.conf", COUNTEREXAMPLE_CONF + f"output = {out}\n"
        )
        # resolutions 16 -> 256 keep the gap under the must-exceed gate but
        # the run still reports the final-gap check, which fails at 256 only
        # on the full acceptance sweep; this small sweep passes.
        code = main(["run", conf])
        assert code == 0
        assert out.exists()

    def test_config_error_exits_1(self, tmp_path, capsys):
        conf = write(tmp_path / "bad.conf", "experiment = audit\nn = oops\n")
        assert main(["run", conf]) == 1
        assert capsys.readouterr().err.startswith("config-error:")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("epsilon = -1", "line 2: epsilon must lie in (0, 100]"),
            # Each key is in range; together they are not.
            ("problem = finite-support\ncells = 3\nsubset_size = 4",
             "subset_size must be <= cells"),
        ],
    )
    def test_out_of_range_value_exits_1(self, tmp_path, capsys, body, message):
        conf = write(tmp_path / "bad.conf", f"experiment = audit\n{body}\n")
        assert main(["run", conf]) == 1
        assert capsys.readouterr().err.startswith(f"config-error: {message}")

    @pytest.mark.parametrize(
        "text, message",
        [
            # One cell leaves the audit universe a single atom.
            ("experiment = audit\nproblem = finite-support\ncells = 1\nsubset_size = 1",
             "the audit universe needs >= 2 atoms"),
            ("experiment = stability\nproblem = finite-support\ncells = 1\nsubset_size = 1",
             "the audit universe needs >= 2 atoms"),
            ("experiment = consistency\nmode = bogus", "mode must be 'exact' or 'mc'"),
            # Each driver names the problems it takes.
            ("experiment = audit\nproblem = logistic",
             "problem must be 'threshold' or 'finite-support', got 'logistic'"),
            ("experiment = stability\nproblem = pth-power",
             "problem must be 'threshold' or 'finite-support', got 'pth-power'"),
            ("experiment = utility-tail\nproblem = logistic",
             "problem must be 'threshold' or 'finite-support', got 'logistic'"),
            ("experiment = sublevel\nproblem = threshold",
             "problem must be 'logistic' or 'finite-support', got 'threshold'"),
        ],
    )
    def test_mistake_found_by_the_driver_exits_1(self, tmp_path, capsys, text, message):
        conf = write(tmp_path / "bad.conf", f"{text}\n")
        assert main(["run", conf]) == 1
        assert capsys.readouterr().err.startswith(f"config-error: {message}")

    def test_subsample_m_past_n_exits_1_before_any_audit(self, tmp_path, capsys, monkeypatch):
        def audit(*args, **kwargs):
            raise AssertionError("an audit ran before subsample_m was checked")

        monkeypatch.setattr(experiments, "audit_pure_dp", audit)
        conf = write(tmp_path / "bad.conf", "experiment = audit\nn = 3\nsubsample_m = 4\n")
        assert main(["run", conf]) == 1
        assert capsys.readouterr().err.startswith(
            "config-error: subsample_m must lie in 1..n, got 4")

    @pytest.mark.parametrize(
        "text, prefix",
        [
            # e^epsilon past the float range: each epsilon key has a ceiling.
            ("experiment = audit\nepsilon = 800",
             "config-error: line 2: epsilon must lie in (0, 100]"),
            ("experiment = stability\nepsilon = 800",
             "config-error: line 2: epsilon must lie in (0, 100]"),
            ("experiment = consistency\nepsilon = 800",
             "config-error: line 2: epsilon must lie in (0, 100]"),
            ("experiment = boost\nepsilon = 800",
             "config-error: line 2: epsilon must lie in (0, 100]"),
            ("experiment = counterexample\nepsilon = 300\nn = 3",
             "config-error: line 2: epsilon must lie in (0, 100]"),
            # Inside the ceiling, e^(epsilon n) still overflows at n = 8.
            ("experiment = counterexample\nepsilon = 100\nn = 8\nresolutions = 16",
             "size-limit: packing needs ceil(e^(eps*n)) = ceil(inf) datasets"),
            ("experiment = rates\nepsilon_exponent = -400",
             "config-error: epsilon_exponent = -400.0 gives epsilon(n) = inf and noise "
             "scale 0.0 at n = 100"),
            ("experiment = rates\nepsilon_exponent = 400",
             "config-error: epsilon_exponent = 400.0 gives epsilon(n) = 0.0 and noise "
             "scale inf at n = 100"),
            ("experiment = phase\nn_grid = 100, 100, 1000",
             "config-error: n_grid must not repeat a size"),
        ],
    )
    def test_values_past_float_arithmetic_exit_1(self, tmp_path, capsys, text, prefix):
        conf = write(tmp_path / "bad.conf", f"{text}\n")
        assert main(["run", conf]) == 1
        assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize("below", [(), ("file",)], ids=["directory", "below-a-file"])
    def test_unusable_output_exits_1_before_the_run(self, tmp_path, capsys, monkeypatch, below):
        # An existing directory, or a path below a regular file, cannot take
        # the CSV: a config error naming the path, raised before any run.
        (tmp_path / "file").write_text("")
        out = tmp_path.joinpath(*below, "out.csv") if below else tmp_path
        monkeypatch.setitem(EXPERIMENTS, "audit", lambda config: pytest.fail("ran"))
        conf = write(tmp_path / "a.conf", AUDIT_CONF + f"output = {out}\n")
        assert main(["run", conf]) == 1
        assert capsys.readouterr().err.startswith(f"config-error: cannot write output {str(out)!r}")

    def test_missing_file_exits_1(self, capsys):
        assert main(["run", "/nonexistent/x.conf"]) == 1
        assert capsys.readouterr().err.startswith("config-error:")

    def test_program_fault_exits_3(self, tmp_path, capsys, monkeypatch):
        # A ValueError from inside a driver is a fault in the program, not a
        # bad config, and must not be reported as config-error.
        def broken(config):
            raise ValueError("law does not sum to one")

        monkeypatch.setitem(EXPERIMENTS, "audit", broken)
        conf = write(tmp_path / "a.conf", AUDIT_CONF)
        assert main(["run", conf]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal-error: ValueError: law does not sum")

    def test_size_limit_exits_1(self, tmp_path, capsys):
        conf = write(
            tmp_path / "big.conf", "experiment = audit\nuniverse = 6\nn = 14\n"
        )
        assert main(["run", conf]) == 1
        assert capsys.readouterr().err.startswith("size-limit:")


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "audit", "stability", "aerm", "utility-tail", "consistency",
            "counterexample", "phase", "boost", "rates", "sublevel",
        ):
            assert name in out

    def test_keys_listing(self, capsys):
        assert main(["list", "--keys", "boost"]) == 0
        out = capsys.readouterr().out
        assert "base_epsilon" in out
        assert "seed" in out

    def test_keys_unknown_experiment(self, capsys):
        assert main(["list", "--keys", "nope"]) == 1
        assert capsys.readouterr().err.startswith("config-error:")


class TestSummarize:
    def run_audit(self, tmp_path):
        out = tmp_path / "audit.csv"
        conf = write(tmp_path / "a.conf", AUDIT_CONF + f"output = {out}\n")
        assert main(["run", conf]) == 0
        return out

    def test_table(self, tmp_path, capsys):
        out = self.run_audit(tmp_path)
        assert main(["summarize", str(out)]) == 0
        table = capsys.readouterr().out
        assert "audit" in table
        assert "failures" in table

    def test_failing_rows_exit_2(self, tmp_path, capsys):
        path = tmp_path / "fail.csv"
        header = ",".join(CSV_COLUMNS)
        row = "audit,em,threshold,3,1,0,0,max_log_ratio,2.0,0,1.0,false"
        path.write_text(header + "\n" + row + "\n")
        assert main(["summarize", str(path)]) == 2
        assert "assertion-failure:" in capsys.readouterr().err

    def test_malformed_header_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        assert main(["summarize", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config-error:")

    def test_wrong_cell_count_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\nonly,three,cells\n")
        assert main(["summarize", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config-error:")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("dperm ")


def test_no_arguments_shows_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
