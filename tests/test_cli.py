"""Black-box tests of the command line interface and its exit-code contract."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

import gtrig
from gtrig.cli import cli
from gtrig.functions import ParamPair, sin_pq

from conftest import LEMNISCATE_CONSTANT, SIN23_AT_1


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(cli, list(args))


class TestPi:
    def test_classical(self, runner):
        result = run(runner, "pi", "--p", "2", "--q", "2")
        assert result.exit_code == 0
        assert result.output.strip() == "3.1415926535897931"

    def test_lemniscate(self, runner):
        result = run(runner, "pi", "--p", "2", "--q", "4")
        assert result.exit_code == 0
        assert float(result.output) == pytest.approx(LEMNISCATE_CONSTANT, rel=1e-13)

    def test_invalid_exponent_exits_2(self, runner):
        result = run(runner, "pi", "--p", "1", "--q", "2")
        assert result.exit_code == 2
        assert "must exceed 1" in result.output

    def test_missing_flag_exits_2(self, runner):
        result = run(runner, "pi", "--p", "2")
        assert result.exit_code == 2


class TestEval:
    def test_classical_sine(self, runner):
        result = run(
            runner, "eval", "--p", "2", "--q", "2", "--fn", "sin",
            "--x", "0.5235987755982988",
        )
        assert result.exit_code == 0
        assert result.output.strip() == "0.5"

    def test_oracle_value(self, runner):
        result = run(
            runner, "eval", "--p", "2", "--q", "3", "--fn", "sin", "--x", "1.0"
        )
        assert result.exit_code == 0
        assert float(result.output) == pytest.approx(SIN23_AT_1, abs=1e-13)

    def test_arcsin_domain_violation_exits_2(self, runner):
        result = run(
            runner, "eval", "--p", "2", "--q", "3", "--fn", "arcsin", "--x", "1.5"
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("x", ["inf", "nan", "1e300"])
    def test_argument_without_a_meaningful_value_exits_2(self, runner, x):
        result = run(runner, "eval", "--p", "2", "--q", "2", "--fn", "sin", "--x", x)
        assert result.exit_code == 2

    def test_unknown_function_exits_2(self, runner):
        result = run(
            runner, "eval", "--p", "2", "--q", "2", "--fn", "tan", "--x", "1.0"
        )
        assert result.exit_code == 2


class TestTable:
    def test_classical_sine_rows(self, runner):
        result = run(
            runner, "table", "--p", "2", "--q", "2", "--fn", "sin",
            "--from", "0", "--to", "1", "--step", "0.5",
        )
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "x,value"
        assert len(lines) == 4
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        vs = [float(line.split(",")[1]) for line in lines[1:]]
        assert xs == [0.0, 0.5, 1.0]
        for x, v in zip(xs, vs):
            assert v == pytest.approx(math.sin(x), abs=1e-12)

    def test_csv_round_trip_is_bit_identical(self, runner):
        result = run(
            runner, "table", "--p", "2", "--q", "3", "--fn", "sin",
            "--from", "0", "--to", "1.2", "--step", "0.2",
        )
        assert result.exit_code == 0
        pp = ParamPair(2.0, 3.0)
        for line in result.output.strip().split("\n")[1:]:
            x_text, v_text = line.split(",")
            again = sin_pq(pp, float(x_text)).value
            assert repr(again) == v_text

    def test_json_format(self, runner):
        result = run(
            runner, "table", "--p", "2", "--q", "2", "--fn", "cos",
            "--from", "0", "--to", "1", "--step", "0.25", "--format", "json",
        )
        assert result.exit_code == 0
        records = json.loads(result.output)
        assert len(records) == 5
        assert set(records[0]) == {"x", "value"}
        assert records[0]["value"] == 1.0

    @pytest.mark.parametrize(
        "fn, start, stop", [("sin", "-3", "3"), ("cos", "-3", "3"), ("arcsin", "0", "1")]
    )
    def test_json_rows_are_the_bytes_of_json_dumps(self, runner, fn, start, stop):
        result = run(
            runner, "table", "--p", "2", "--q", "3", "--fn", fn,
            "--from", start, "--to", stop, "--step", "0.013", "--format", "json",
        )
        assert result.exit_code == 0
        records = json.loads(result.output)
        assert len(records) > 50
        assert result.output == "[" + ", ".join(map(json.dumps, records)) + "]\n"

    @pytest.mark.parametrize(
        "fn, start, stop, step, rows",
        [("arcsin", "0.09", "1", "0.07", 14), ("sin", "0", "1.2", "0.2", 7)],
    )
    def test_last_row_is_clamped_to_to(self, runner, fn, start, stop, step, rows):
        # from + i*step rounds past --to on the last row
        result = run(
            runner, "table", "--p", "2", "--q", "3", "--fn", fn,
            "--from", start, "--to", stop, "--step", step,
        )
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")[1:]
        assert len(lines) == rows
        assert float(lines[-1].split(",")[0]) == float(stop)

    def test_step_exceeding_range_exits_2(self, runner):
        result = run(
            runner, "table", "--p", "2", "--q", "2", "--fn", "sin",
            "--from", "0", "--to", "1", "--step", "2",
        )
        assert result.exit_code == 2

    def test_reversed_range_exits_2(self, runner):
        result = run(
            runner, "table", "--p", "2", "--q", "2", "--fn", "sin",
            "--from", "1", "--to", "0", "--step", "0.5",
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "start, stop, step",
        [("-inf", "0", "1"), ("-1e308", "1e308", "1"), ("0", "1e300", "1e-10")],
    )
    def test_non_finite_grid_exits_2(self, runner, start, stop, step):
        # (to - from) / step overflows, so the grid has no finite number of rows
        result = run(
            runner, "table", "--p", "2", "--q", "2", "--fn", "sin",
            "--from", start, "--to", stop, "--step", step,
        )
        assert result.exit_code == 2

    def test_arcsin_range_check_exits_2(self, runner):
        result = run(
            runner, "table", "--p", "2", "--q", "2", "--fn", "arcsin",
            "--from", "0", "--to", "1.5", "--step", "0.5",
        )
        assert result.exit_code == 2

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "table.csv"
        result = run(
            runner, "table", "--p", "2", "--q", "2", "--fn", "sin",
            "--from", "0", "--to", "1", "--step", "0.5", "--out", str(out),
        )
        assert result.exit_code == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("x,value\n")
        assert text.count("\n") == 4

    def test_rows_are_streamed_in_bounded_memory(self, runner, tmp_path):
        # the grid is never held whole: 20,001 rows took 10 MB when it was
        out = tmp_path / "table.json"
        tracemalloc.start()
        try:
            result = run(
                runner, "table", "--p", "2", "--q", "2", "--fn", "arcsin",
                "--from", "0", "--to", "1", "--step", "5e-5",
                "--format", "json", "--out", str(out),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0
        assert len(json.loads(out.read_text(encoding="utf-8"))) == 20001
        assert peak < 1_000_000

    def test_failing_first_row_leaves_output_file_untouched(self, runner, tmp_path):
        out = tmp_path / "table.csv"
        out.write_bytes(b"kept\r\n")
        result = run(
            runner, "table", "--p", "1.01", "--q", "2", "--fn", "sin",
            "--from", "0", "--to", "1", "--step", "0.5", "--out", str(out),
        )
        assert result.exit_code == 2
        assert "error:" in result.stderr
        assert out.read_bytes() == b"kept\r\n"

    def test_rows_before_a_failing_row_are_written(self, runner):
        # x = 1e16 is past 2**53; the ten rows below it come out first
        result = run(
            runner, "table", "--p", "2", "--q", "2", "--fn", "sin",
            "--from", "0", "--to", "1e16", "--step", "1e15",
        )
        assert result.exit_code == 2
        assert "error:" in result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == "x,value"
        assert [float(line.split(",")[0]) for line in lines[1:]] == [
            i * 1e15 for i in range(10)
        ]

    @pytest.mark.parametrize("fn, lo, hi", [("sin", -9.0, 9.0), ("cos", -9.0, 9.0), ("arcsin", 0.0, 1.0)])
    def test_rows_across_chunks_match_scalar_calls(self, runner, fn, lo, hi):
        # 2501 rows span three array chunks; each row is the scalar call's bits
        step = (hi - lo) / 2500
        result = run(
            runner, "table", "--p", "2", "--q", "3", "--fn", fn,
            "--from", repr(lo), "--to", repr(hi), "--step", repr(step),
        )
        assert result.exit_code == 0
        rows = result.output.splitlines()[1:]
        assert len(rows) == 2501
        one = gtrig.cli._FUNCTIONS[fn]
        pp = ParamPair(2.0, 3.0)
        for i, line in enumerate(rows):
            x = lo + i * step
            assert line == f"{x!r},{one(pp, x)!r}"

    def test_unwritable_output_exits_3(self, runner, tmp_path):
        result = run(
            runner, "table", "--p", "2", "--q", "2", "--fn", "sin",
            "--from", "0", "--to", "1", "--step", "0.5",
            "--out", str(tmp_path / "missing" / "table.csv"),
        )
        assert result.exit_code == 3


class TestVerify:
    def test_single_identity_passes(self, runner):
        result = run(
            runner, "verify", "--identity", "dbl-2-3",
            "--samples", "50", "--tol", "1e-9", "--seed", "42",
        )
        assert result.exit_code == 0
        assert "True" in result.output

    def test_unknown_identity_exits_2(self, runner):
        result = run(runner, "verify", "--identity", "no-such-id")
        assert result.exit_code == 2
        assert "unknown identity" in result.stderr

    def test_requires_identity_or_all(self, runner):
        assert run(runner, "verify").exit_code == 2
        assert (
            run(runner, "verify", "--all", "--identity", "dbl-2-2").exit_code == 2
        )

    def test_list_identities(self, runner):
        result = run(runner, "verify", "--list-identities")
        assert result.exit_code == 0
        names = result.output.split()
        assert len(names) == 19
        assert "dbl-2-3" in names and "dbl-4:3-2" in names

    def test_json_reports(self, runner):
        result = run(
            runner, "verify", "--identity", "dbl-2-2", "--samples", "40",
            "--format", "json",
        )
        assert result.exit_code == 0
        reports = json.loads(result.output)
        assert reports[0]["identity_id"] == "dbl-2-2"
        assert reports[0]["passed"] is True

    def test_non_finite_errors_are_json_null(self, runner):
        # json.loads takes Infinity and NaN unless told otherwise
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        result = run(
            runner, "verify", "--identity", "dbl-2-2", "--perturb", "inf",
            "--format", "json", "--samples", "10",
        )
        assert result.exit_code == 1
        (report,) = json.loads(result.stdout, parse_constant=reject)
        assert report["max_abs_err"] is None
        assert report["rel_err"] is None

    def test_negative_seed_exits_2(self, runner):
        result = run(runner, "verify", "--identity", "dbl-2-2", "--seed", "-1")
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_failed_identity_exits_1(self, runner):
        result = run(
            runner, "verify", "--identity", "dbl-2-2", "--samples", "40",
            "--tol", "1e-16",
        )
        assert result.exit_code == 1

    def test_perturbation_fails_verification(self, runner):
        ok = run(
            runner, "verify", "--identity", "pythagorean", "--samples", "40",
        )
        assert ok.exit_code == 0
        perturbed = run(
            runner, "verify", "--identity", "pythagorean", "--samples", "40",
            "--perturb", "1e-6",
        )
        assert perturbed.exit_code == 1


def _child_env():
    # the subprocess imports the same gtrig as this process, installed or not
    src = str(Path(gtrig.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gtrig.cli", "pi", "--p", "2", "--q", "2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3.1415926535897931"


def test_closed_stdout_exits_1_quietly():
    # click's main quiets a broken pipe with exit 1; it is not a file error
    with subprocess.Popen(
        [sys.executable, "-m", "gtrig.cli", "table", "--p", "2", "--q", "2",
         "--fn", "sin", "--from", "0", "--to", "1", "--step", "0.001"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    ) as proc:
        proc.stdout.close()  # before the child has imported gtrig, let alone written
        stderr = proc.stderr.read()
    assert proc.returncode == 1
    assert stderr == b""


def test_reader_closing_mid_table_exits_1_quietly():
    # the reader goes after one line, so a write inside the row loop fails
    with subprocess.Popen(
        [sys.executable, "-m", "gtrig.cli", "table", "--p", "2", "--q", "3",
         "--fn", "sin", "--from", "0", "--to", "100", "--step", "0.0001"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert first == b"x,value\n"
    assert proc.returncode == 1
    assert stderr == b""
