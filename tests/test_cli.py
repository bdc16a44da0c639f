"""Command-line behavior: documents, exit codes, atomicity, determinism."""

import hashlib
import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from erdos_clopen import cli
from erdos_clopen.cli import EXIT_INVALID, EXIT_OK, main


@pytest.fixture()
def point_file(tmp_path):
    def write(name, coords):
        path = tmp_path / name
        path.write_text(json.dumps({"coords": coords}))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_zero_in_O(self, capsys, point_file):
        zero = point_file("zero.json", {})
        code, out, _ = run_cli(capsys, "check", "--point", zero, "--set", "O",
                               "--schedule", "default")
        assert code == EXIT_OK
        assert json.loads(out)["member"] is True

    def test_membership_trace(self, capsys, point_file):
        p = point_file("p.json", {"1": "2/1", "2": "1/1"})
        code, out, _ = run_cli(capsys, "check", "--point", p, "--set", "A")
        document = json.loads(out)
        assert code == EXIT_OK
        assert document["member"] is False
        assert document["trace"] == {"m_index": 1, "first_violating_index": 2}

    def test_ealpha_uses_alpha_only(self, capsys, point_file):
        p = point_file("p.json", {"1": "1/1"})
        code, out, _ = run_cli(capsys, "check", "--point", p, "--set", "Ealpha",
                               "--alpha-base", "2")
        assert code == EXIT_OK
        assert json.loads(out)["member"] is True

    def test_ealpha_decides_m_once(self, capsys, point_file, roots):
        """One root for alpha's base check and one for m: the membership
        answer is read off the m the trace reports."""
        p = point_file("p.json", {"1": "4/1", "2": "1/2"})
        code, out, _ = run_cli(capsys, "check", "--point", p, "--set", "Ealpha")
        assert code == EXIT_OK
        assert json.loads(out) == {"member": False, "set": "Ealpha", "trace": {"m_index": 1}}
        assert len(roots) == 2

    def test_malformed_rational_exits_2(self, capsys, point_file):
        bad = point_file("bad.json", {"1": "2/0"})
        code, _, err = run_cli(capsys, "check", "--point", bad, "--set", "A")
        assert code == EXIT_INVALID
        assert "invalid rational" in err

    def test_decimal_flag_rejected(self, capsys, point_file):
        p = point_file("p.json", {"1": "1/1"})
        code, _, err = run_cli(capsys, "check", "--point", p, "--set", "A",
                               "--alpha-base", "2.5")
        assert code == EXIT_INVALID
        assert "invalid rational" in err

    @pytest.mark.parametrize("document", [[1, 2], {"coords": [1]}])
    def test_malformed_point_shape_exits_2(self, capsys, tmp_path, document):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        code, _, err = run_cli(capsys, "check", "--point", str(bad), "--set", "A")
        assert code == EXIT_INVALID
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("coords, message", [
        ({" 1": "\u0663"}, "invalid point index"),  # int() would read {1: 3}
        ({" 1": "3"}, "invalid point index"),       # int() strips spaces
        ({"1_0": "3"}, "invalid point index"),      # int() reads 1_0 as 10
        ({"1": "\u0663"}, "invalid rational"),      # Arabic-Indic digit three
        ({"\u0661": "3"}, "invalid point index"),   # Arabic-Indic digit one
        ({"1": " 3"}, "invalid rational"),
        ({"1": "1_0/3"}, "invalid rational"),
    ])
    def test_loose_digit_syntax_exits_2(self, capsys, point_file, coords, message):
        bad = point_file("bad.json", coords)
        code, out, err = run_cli(capsys, "check", "--point", bad, "--set", "A")
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("coords, message", [
        ({"1": "7" * 4301}, "invalid rational: a numeral has more than 4300 digits"),
        ({"1": "-1/" + "7" * 4301}, "invalid rational: a numeral has more than 4300 digits"),
        ({"1": "0" * 4300 + "1"}, "invalid rational: a numeral has more than 4300 digits"),
        ({"7" * 4301: "1"}, "invalid point index: more than 4300 digits"),
    ])
    def test_numeral_past_4300_digits_exits_2(self, capsys, point_file, coords, message):
        bad = point_file("bad.json", coords)
        code, out, err = run_cli(capsys, "check", "--point", bad, "--set", "A")
        assert code == EXIT_INVALID and out == ""
        assert err == f"error: {message}\n"  # the numeral is not echoed

    def test_flag_past_4300_digits_exits_2(self, capsys, point_file):
        p = point_file("p.json", {"1": "1/1"})
        code, out, err = run_cli(capsys, "check", "--point", p, "--set", "A",
                                 "--alpha-base", "3" * 4301)
        assert code == EXIT_INVALID and out == ""
        assert err == "error: invalid rational: a numeral has more than 4300 digits\n"

    @pytest.mark.parametrize("coords", [
        {"1": "7" * 4300},
        {"1": "-1/" + "7" * 4300},
        {"1": "+" + "7" * 4300 + "/" + "3" * 4300},
        {"7" * 4300: "1"},
    ])
    def test_numeral_of_4300_digits_parses(self, capsys, point_file, coords):
        p = point_file("p.json", coords)
        code, out, err = run_cli(capsys, "check", "--point", p, "--set", "A")
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["set"] == "A"

    def test_square_alpha_base_rejected(self, capsys, point_file):
        p = point_file("p.json", {"1": "1/1"})
        code, _, err = run_cli(capsys, "check", "--point", p, "--set", "Ealpha",
                               "--alpha-base", "4/9")
        assert code == EXIT_INVALID
        assert "square" in err


class TestRadius:
    def test_closed_radius_document(self, capsys, point_file):
        p = point_file("p.json", {"1": "2/1", "2": "1/1"})
        code, out, _ = run_cli(capsys, "radius", "--point", p, "--kind", "closed")
        document = json.loads(out)
        assert code == EXIT_OK
        assert document["kind"] == "Claim2_r0"
        assert document["components"]["l0"] == 2

    def test_wrong_side_exits_2(self, capsys, point_file):
        p = point_file("p.json", {"1": "1/1"})
        code, _, err = run_cli(capsys, "radius", "--point", p, "--kind", "closed")
        assert code == EXIT_INVALID
        assert "inside A" in err

    def test_o_open_outside_O_exits_2(self, capsys, point_file):
        # x_2 = 2 exceeds beta_1 = sqrt(2) past m_1 = 1, so A_1 excludes x
        p = point_file("p.json", {"1": "2/1", "2": "2/1"})
        code, out, err = run_cli(capsys, "radius", "--point", p, "--kind", "o-open")
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_o_open_outside_O_names_the_excluding_index(self, capsys, point_file):
        p = point_file("p.json", {"1": "2/1", "2": "2/1"})
        code, _, err = run_cli(capsys, "radius", "--point", p, "--kind", "o-open")
        assert code == EXIT_INVALID
        assert err == "error: point is outside O (A_1 excludes it); no O-openness radius\n"

    def test_den_cap_flag(self, capsys, point_file):
        p = point_file("p.json", {"1": "2/1", "2": "1/1"})
        code, out, _ = run_cli(capsys, "radius", "--point", p, "--kind",
                               "closed", "--den-cap", "100")
        bound = json.loads(out)["bound"]
        num, den = map(int, bound.split("/"))
        assert code == EXIT_OK and den <= 100

    def test_o_open_kind_uses_schedule(self, capsys, point_file):
        p = point_file("p.json", {"1": "2/1", "2": "1/1"})
        code, out, _ = run_cli(capsys, "radius", "--point", p, "--kind",
                               "o-open", "--schedule", "default")
        document = json.loads(out)
        assert code == EXIT_OK
        assert document["kind"] == "Claim4_W"
        assert document["components"]["n0"] == 2

    def test_certificate_past_4300_digits_prints(self, capsys, point_file):
        """Every numeral of the point is within the input limit, but the
        prefix-norm base of its certificate has 6,001 digits."""
        p = point_file("p.json", {"1": "1", "2": "1" + "0" * 3000 + "/7", "3": "1"})
        code, out, err = run_cli(capsys, "radius", "--point", p, "--kind", "closed")
        assert code == EXIT_OK and err == ""
        document = json.loads(out)
        assert document["kind"] == "Claim2_r0"
        base = document["components"]["prefix_margin"]["terms"][0]["root"]["base"]
        assert len(base.split("/")[0]) == 6001

    @pytest.mark.parametrize("kind, expected", [("closed", EXIT_OK), ("open", EXIT_INVALID)])
    def test_int_string_limit_is_restored(self, capsys, point_file, kind, expected):
        p = point_file("p.json", {"1": "2/1", "2": "1/1"})
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            code, _, _ = run_cli(capsys, "radius", "--point", p, "--kind", kind)
            assert code == expected
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(previous)


class TestScheduleFiles:
    def test_custom_schedule_file(self, capsys, point_file, tmp_path):
        schedule = tmp_path / "sched.json"
        schedule.write_text(json.dumps(
            {"alpha_scale": "2/1", "beta_scale": "1/1", "degree": 4}))
        # norm 5 < alpha_1^2 = 4*sqrt(2) under the doubled schedule
        p = point_file("p.json", {"1": "2/1", "2": "1/1"})
        code, out, _ = run_cli(capsys, "check", "--point", p, "--set", "O",
                               "--schedule", str(schedule))
        document = json.loads(out)
        assert code == EXIT_OK
        assert document["member"] is True
        assert document["trace"]["alpha_cutoff"] == 1

    def test_bad_schedule_degree_exits_2(self, capsys, point_file, tmp_path):
        schedule = tmp_path / "sched.json"
        schedule.write_text(json.dumps(
            {"alpha_scale": "1/1", "beta_scale": "1/1", "degree": 2}))
        p = point_file("p.json", {})
        code, _, err = run_cli(capsys, "check", "--point", p, "--set", "O",
                               "--schedule", str(schedule))
        assert code == EXIT_INVALID
        assert "degree" in err

    def test_json_integer_past_4300_digits_exits_2(self, capsys, point_file, tmp_path):
        schedule = tmp_path / "sched.json"
        schedule.write_text('{"alpha_scale": "1/1", "degree": ' + "7" * 5000 + "}")
        p = point_file("p.json", {})
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "check", "--point", p, "--set", "O",
                                 "--schedule", str(schedule))
        assert time.perf_counter() - started < 1.0
        assert code == EXIT_INVALID and out == ""
        assert err == "error: invalid JSON integer: more than 4300 digits\n"

    def test_malformed_schedule_shape_exits_2(self, capsys, point_file, tmp_path):
        schedule = tmp_path / "sched.json"
        schedule.write_text(json.dumps([1, 2]))
        p = point_file("p.json", {})
        code, _, err = run_cli(capsys, "check", "--point", p, "--set", "O",
                               "--schedule", str(schedule))
        assert code == EXIT_INVALID
        assert err.startswith("error: ") and err.count("\n") == 1


class TestWitnessAndRefute:
    def test_witness_matches_module_example(self, capsys, tmp_path):
        out_path = tmp_path / "w.json"
        code, out, _ = run_cli(capsys, "witness", "--ball-radius", "1",
                               "--source", "ray", "--schedule", "default",
                               "--out", str(out_path))
        assert code == EXIT_OK
        document = json.loads(out_path.read_text())
        assert document == json.loads(out)
        assert document["q"] == "1/2"
        assert document["l_star"] == 2
        assert document["x"]["coords"] == {"1": "4/1"}

    def test_file_source(self, capsys, tmp_path):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([{"coords": {"7": "-5/1", "8": "-3/1"}}]))
        code, out, _ = run_cli(capsys, "witness", "--ball-radius", "1",
                               "--source", f"file:{pts}")
        assert code == EXIT_OK
        assert json.loads(out)["case"] == "Negative"

    def test_bounded_file_source_exits_2(self, capsys, tmp_path):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([{"coords": {"1": "1/1"}}]))
        code, _, err = run_cli(capsys, "witness", "--ball-radius", "1",
                               "--source", f"file:{pts}")
        assert code == EXIT_INVALID
        assert "norm above the threshold" in err

    def test_tiny_ball_radius_succeeds(self, capsys, roots):
        code, out, _ = run_cli(capsys, "witness", "--ball-radius", f"1/{10 ** 18}")
        assert code == EXIT_OK
        document = json.loads(out)
        assert document["m_star"] == document["failing_n"] == 1414213562373095051
        assert all(check["holds"] for check in document["checks"])
        assert len(roots) <= 16  # a count that does not grow with m*

    def test_refute_verdict(self, capsys, tmp_path):
        out_path = tmp_path / "v.json"
        code, out, _ = run_cli(capsys, "refute", "--ball-radius", "1",
                               "--source", "ray", "--out", str(out_path))
        assert code == EXIT_OK
        document = json.loads(out_path.read_text())
        assert document["holds"] is True
        assert "witness" in document and "premise" in document

    def test_unknown_source_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "refute", "--ball-radius", "1",
                               "--source", "nope")
        assert code == EXIT_INVALID
        assert "unknown source" in err


class TestVerify:
    def test_small_suite_passes(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out, _ = run_cli(capsys, "verify", "--claims", "1,remark",
                               "--samples", "40", "--seed", "7",
                               "--report", str(report))
        assert code == EXIT_OK
        document = json.loads(report.read_text())
        assert [entry["claim"] for entry in document] == ["C1", "Remark"]
        assert all(entry["violations"] == [] for entry in document)
        assert all(entry["elapsed_ms"] is None for entry in document)

    def test_seed_determines_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "verify", "--claims", "1,5", "--samples", "30",
                "--seed", "9", "--report", str(a))
        run_cli(capsys, "verify", "--claims", "1,5", "--samples", "30",
                "--seed", "9", "--report", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_claim_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--claims", "6",
                               "--samples", "1")
        assert code == EXIT_INVALID
        assert "unknown claim" in err

    def test_huge_max_index_is_fast(self, capsys):
        started = time.perf_counter()
        code, _, _ = run_cli(capsys, "verify", "--claims", "1", "--samples", "50",
                             "--max-index", "1000000000000")
        assert code == EXIT_OK
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("caps", [
        ["--max-numerator", str(2 ** 64 + 1)],
        ["--max-denominator", str(2 ** 64 + 1)],
        ["--max-index", str(2 ** 64 + 1)],
        ["--max-support", str(2 ** 64), "--max-index", str(2 ** 64)],
        ["--max-support", str(2 ** 70), "--max-index", str(2 ** 64)],
    ])
    def test_caps_past_two_to_the_64_exit_2(self, caps):
        """A 64-bit draw cannot cover more than 2^64 values; such caps once
        sent the sampler's rejection loop round forever."""
        proc = subprocess.run(
            [sys.executable, "-m", "erdos_clopen.cli", "verify", "--samples", "1",
             "--claims", "1", *caps],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == EXIT_INVALID
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("caps", [
        ["--max-support", str(2 ** 64), "--max-index", str(2 ** 64 - 1)],
        ["--max-support", "1001", "--max-index", "1001"],
    ])
    def test_draws_past_1000_coordinates_exit_2(self, caps):
        """Such caps once sent the sampler's index insertion loop round for
        up to 2^64 - 1 coordinates."""
        proc = subprocess.run(
            [sys.executable, "-m", "erdos_clopen.cli", "verify", "--samples", "1",
             "--claims", "1", *caps],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == EXIT_INVALID
        assert proc.stdout == ""
        assert proc.stderr == ("error: a draw has at most 1000 coordinates: "
                               "min(max_support, max_index) must be <= 1000\n")

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seeds_outside_64_bits_exit_2(self, capsys, seed):
        """The sampler keeps a seed's low 64 bits: --seed 2^64 + 1 once
        drew the points of --seed 1 and reported its own seed."""
        code, out, err = run_cli(capsys, "verify", "--claims", "1", "--samples", "1",
                                 "--seed", seed)
        assert code == EXIT_INVALID and out == ""
        assert err == "error: seed must be in [0, 2^64)\n"

    def test_largest_64_bit_seed_runs(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--claims", "1", "--samples", "3",
                               "--seed", str(2 ** 64 - 1))
        assert code == EXIT_OK
        assert json.loads(out)[0]["config"]["sample"]["seed"] == 2 ** 64 - 1

    def test_draws_of_1000_coordinates_run(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--samples", "1", "--claims", "1",
                                 "--max-support", "1000", "--max-index", "1000")
        assert code == EXIT_OK, err
        assert json.loads(out)[0]["claim"] == "C1"

    @pytest.mark.parametrize("caps", [
        ["--max-numerator", str(2 ** 64)],
        ["--max-denominator", str(2 ** 64)],
        ["--max-index", str(2 ** 64)],
        ["--max-support", str(2 ** 64)],
    ])
    def test_caps_of_two_to_the_64_run(self, caps):
        proc = subprocess.run(
            [sys.executable, "-m", "erdos_clopen.cli", "verify", "--samples", "5",
             "--claims", "1", *caps],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)[0]["claim"] == "C1"

    def test_timings_flag_fills_elapsed(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--claims", "1", "--samples",
                               "5", "--seed", "1", "--timings")
        assert code == EXIT_OK
        assert json.loads(out)[0]["elapsed_ms"] is not None


class TestIntegerFlags:
    """Integer flags take ASCII digits only, as rationals do: int() alone
    once ran `--den-cap 1_000` with cap 1000, an Arabic-Indic 3 as 3 and
    " 7" as 7."""

    FLAGS = ["--den-cap", "--samples", "--seed", "--inner", "--max-support",
             "--max-index", "--max-numerator", "--max-denominator"]

    @staticmethod
    def argv(point_file, flag, text):
        if flag == "--den-cap":
            p = point_file("p.json", {"1": "2/1", "2": "1/1"})
            return ["radius", "--point", p, "--kind", "closed", flag, text]
        return ["verify", "--claims", "1", "--samples", "1", flag, text]

    @pytest.mark.parametrize("flag", FLAGS)
    @pytest.mark.parametrize("text", ["1_000", "٣", " 7", "1" * 4301])
    def test_loose_digits_exit_2(self, capsys, point_file, flag, text):
        with pytest.raises(SystemExit) as exc:
            main(self.argv(point_file, flag, text))
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_INVALID and captured.out == ""
        assert f"argument {flag}: invalid integer: " in captured.err

    @pytest.mark.parametrize("flag", FLAGS)
    def test_signed_ascii_digits_parse(self, capsys, point_file, flag):
        code, out, err = run_cli(capsys, *self.argv(point_file, flag, "+7"))
        assert code == EXIT_OK, err
        assert json.loads(out)


class TestUsageErrors:
    """A malformed command line is one line of stderr and exit 2, as every
    other input error is, with no usage block before it."""

    @staticmethod
    def stderr_of(capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_INVALID and captured.out == ""
        return captured.err

    def test_loose_digits(self, capsys):
        assert self.stderr_of(capsys, "verify", "--samples", "1_000") == (
            "error: argument --samples: invalid integer: '1_000' (expected ASCII digits)\n")

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["check", "--point", "p.json", "--set", "B"],
        ["radius", "--point", "p.json", "--kind", "half-open"],
        ["check", "--set", "O"],
        ["witness"],
        ["verify", "--samples"],
        ["verify", "--unknown"],
    ])
    def test_one_line(self, capsys, argv):
        err = self.stderr_of(capsys, *argv)
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "usage:" not in err


class TestReadmeExamples:
    def test_cli_block_parses(self):
        """Every `erdos-clopen` command in README's CLI section, with its
        backslash-continued lines joined, parses: a renamed or removed flag
        shows here, not in a reader's shell."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```")[1].replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in block.splitlines()
                    if line.startswith("erdos-clopen ")]
        assert commands
        parser = cli.build_parser()
        for argv in commands:
            assert parser.parse_args(argv).handler is not None


class TestOutputDiscipline:
    def test_pretty_env_toggles_indentation_only(self, capsys, point_file,
                                                 monkeypatch):
        zero = point_file("zero.json", {})
        _, compact, _ = run_cli(capsys, "check", "--point", zero, "--set", "O")
        monkeypatch.setenv("ERDOS_REPORT_PRETTY", "1")
        _, pretty, _ = run_cli(capsys, "check", "--point", zero, "--set", "O")
        assert compact != pretty
        assert json.loads(compact) == json.loads(pretty)

    @pytest.mark.parametrize("value", ["0", ""])
    def test_pretty_env_off_values(self, capsys, point_file, monkeypatch, value):
        p = point_file("p.json", {"1": "2/1", "2": "1/1"})
        monkeypatch.delenv("ERDOS_REPORT_PRETTY", raising=False)
        _, unset, _ = run_cli(capsys, "radius", "--point", p, "--kind", "o-open")
        monkeypatch.setenv("ERDOS_REPORT_PRETTY", value)
        _, off, _ = run_cli(capsys, "radius", "--point", p, "--kind", "o-open")
        assert off == unset

    @pytest.mark.parametrize("argv", [
        ["check", "--set", "O", "--point", "zero.json", "--out", ""],
        ["verify", "--samples", "1", "--claims", "1", "--report", ""],
    ])
    def test_empty_output_path_exits_2(self, capsys, point_file, tmp_path,
                                       monkeypatch, argv):
        point_file("zero.json", {})
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == ["zero.json"]

    def test_no_partial_file_on_error(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, _, _ = run_cli(capsys, "witness", "--ball-radius", "0",
                             "--source", "ray", "--out", str(target))
        assert code == EXIT_INVALID
        assert not target.exists()
        assert not list(tmp_path.glob(".out.json.*"))

    def test_missing_point_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "--point", "/nonexistent.json",
                               "--set", "A")
        assert code == EXIT_INVALID


class TestInputErrors:
    """Exit 2 is reserved for an `InputError` or an `OSError`: malformed
    input is one line of stderr, and any other exception propagates."""

    @pytest.mark.parametrize("role", ["point", "schedule", "source"])
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path, role):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        ok_point = tmp_path / "p.json"
        ok_point.write_text(json.dumps({"coords": {"1": "1/1"}}))
        argv = {
            "point": ["check", "--point", str(deep), "--set", "A"],
            "schedule": ["check", "--point", str(ok_point), "--set", "O",
                         "--schedule", str(deep)],
            "source": ["witness", "--ball-radius", "1", "--source", f"file:{deep}"],
        }[role]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_library_bug_is_not_input(self, capsys, monkeypatch, point_file, error):
        def broken(*args, **kwargs):
            raise error("bug")

        monkeypatch.setattr(cli, "openness_radius", broken)
        p = point_file("p.json", {"1": "1/1"})
        with pytest.raises(error):
            main(["radius", "--point", p, "--kind", "open"])

    @pytest.mark.parametrize("name, content, extra, message", [
        ("syntax", b'{"coords": ', [],
         "Expecting value: line 1 column 12 (char 11)"),
        ("utf8", b'{"coords": {"1": "\xff"}}', [],
         "'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"),
        ("den_cap", b'{"coords": {"1": "2/1", "2": "1/1"}}', ["--den-cap", "0"],
         "den_cap must be >= 1, got 0"),
    ])
    def test_malformed_point_or_flag_message(self, capsys, tmp_path, name, content,
                                             extra, message):
        path = tmp_path / f"{name}.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "radius", "--point", str(path),
                                 "--kind", "closed", *extra)
        assert code == EXIT_INVALID and out == ""
        named = f"{path}: " if name in ("syntax", "utf8") else ""  # a JSON error names its file
        assert err == f"error: {named}{message}\n"

    def test_malformed_schedule_is_named(self, capsys, point_file, tmp_path):
        """With a good point and a broken schedule, the message names the
        schedule file, so the user knows which of the two to mend."""
        schedule = tmp_path / "s.json"
        schedule.write_bytes(b'{"degree": ')
        code, out, err = run_cli(capsys, "check", "--point", point_file("p.json", {"1": "1/1"}),
                                 "--set", "O", "--schedule", str(schedule))
        assert code == EXIT_INVALID and out == ""
        assert err == f"error: {schedule}: Expecting value: line 1 column 12 (char 11)\n"

    def test_zero_schedule_scale_message(self, capsys, point_file, tmp_path):
        schedule = tmp_path / "sched.json"
        schedule.write_text(json.dumps({"alpha_scale": "0/1"}))
        code, out, err = run_cli(capsys, "check", "--point", point_file("p.json", {}),
                                 "--set", "O", "--schedule", str(schedule))
        assert code == EXIT_INVALID and out == ""
        assert err == "error: schedule scales must be positive\n"

    @pytest.mark.parametrize("command", ["check", "radius", "witness"])
    def test_misspelled_point_key_exits_2(self, capsys, tmp_path, command):
        """A point with any key but "coords" is rejected, not read as the
        zero point; in a `file:` source every item is checked."""
        misspelled = {"cords": {"1": "3/1"}}
        path = tmp_path / "p.json"
        path.write_text(json.dumps([{"coords": {"1": "30/1"}}, misspelled]
                                   if command == "witness" else misspelled))
        argv = {
            "check": ["check", "--point", str(path), "--set", "O"],
            "radius": ["radius", "--point", str(path), "--kind", "closed"],
            "witness": ["witness", "--ball-radius", "1", "--source", f"file:{path}"],
        }[command]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INVALID and out == ""
        assert err == "error: unknown point key 'cords' (expected 'coords')\n"

    def test_empty_point_object_is_zero(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{}")
        code, out, _ = run_cli(capsys, "check", "--point", str(path), "--set", "O")
        assert code == EXIT_OK
        assert json.loads(out)["member"] is True

    def test_misspelled_schedule_key_exits_2(self, capsys, point_file, tmp_path):
        """A misspelled key is rejected, not replaced by its default."""
        schedule = tmp_path / "s.json"
        schedule.write_text(json.dumps({"alpha_scale": "1/2", "beta_scal": "5/1"}))
        code, out, err = run_cli(capsys, "check", "--point", point_file("p.json", {"1": "1/1"}),
                                 "--set", "O", "--schedule", str(schedule))
        assert code == EXIT_INVALID and out == ""
        assert err == ("error: unknown schedule key 'beta_scal' "
                       "(expected alpha_scale, beta_scale or degree)\n")

    def test_file_source_object_message(self, capsys, tmp_path):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"coords": {"1": "9/1"}}))
        code, out, err = run_cli(capsys, "witness", "--ball-radius", "1",
                                 "--source", f"file:{pts}")
        assert code == EXIT_INVALID and out == ""
        assert err == "error: point file must hold a JSON array of points\n"


class TestPinnedOutputBytes:
    """sha256 of documents recorded from the implementation that stored
    points as Fraction entries; a change of representation must leave the
    bytes alone."""

    @pytest.fixture(autouse=True)
    def compact(self, monkeypatch):
        monkeypatch.delenv("ERDOS_REPORT_PRETTY", raising=False)

    def test_verify_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "200", "--seed", "42")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a1f364293fe3e88891dd2e0de56f2321fc58c499d631989d2010a50abbe8976a")

    def test_witness_document(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--ball-radius", "1/100",
                               "--source", "ray")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f1e983defd9214a3241cb33a932b0cc12894f60aceaa29a36a745e5c70b26f4f")
