import json

import pytest

from portvc.cli import (
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k2_el(tmp_path):
    p = tmp_path / "k2.el"
    p.write_text("2\n0 1\n")
    return str(p)


@pytest.fixture
def star3_el(tmp_path):
    p = tmp_path / "star3.el"
    p.write_text("4\n0 1\n0 2\n0 3\n")
    return str(p)


class TestRun:
    def test_k2_report(self, capsys, k2_el):
        code, out, _ = run_cli(capsys, "run", "--input", k2_el)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["n"] == 2
        assert report["m"] == 1
        assert report["cover_size"] == 2
        assert report["lower_bound"] == 1
        assert report["certified_ratio"] == "2/1"
        assert report["rounds_run"] == 3
        assert report["cover"] == [0, 1]
        assert all(v == "pass" for v in report["checks"].values())

    def test_star3_report_with_oracle(self, capsys, star3_el):
        code, out, _ = run_cli(capsys, "run", "--input", star3_el, "--with-oracle")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["cover_size"] == 2
        assert report["lower_bound"] == 1
        assert report["certified_ratio"] == "2/1"
        assert report["oracle_size"] == 1
        assert report["true_ratio"] == "2/1"

    def test_empty_graph(self, capsys, tmp_path):
        p = tmp_path / "empty.el"
        p.write_text("3\n")
        code, out, _ = run_cli(capsys, "run", "--input", str(p))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["cover_size"] == 0
        assert report["certified_ratio"] is None
        assert all(v == "pass" for v in report["checks"].values())

    def test_rerun_is_byte_identical(self, capsys, star3_el):
        _, out1, _ = run_cli(capsys, "run", "--input", star3_el)
        _, out2, _ = run_cli(capsys, "run", "--input", star3_el)
        assert out1 == out2

    def test_pg_format_round_trip(self, capsys, tmp_path):
        p = tmp_path / "k2.pg"
        p.write_text("2 1\n0 1 1\n1 1 0\n")
        code, out, _ = run_cli(capsys, "run", "--input", str(p), "--format", "pg")
        assert code == EXIT_OK
        assert json.loads(out)["cover_size"] == 2

    def test_trace_flag_writes_transcript(self, capsys, k2_el, tmp_path):
        trace = tmp_path / "k2.trace"
        code, _, _ = run_cli(capsys, "run", "--input", k2_el, "--trace", str(trace))
        assert code == EXIT_OK
        assert trace.read_text() == (
            "1 0 1 propose\n1 1 1 propose\n2 0 1 accept\n2 1 1 accept\n"
        )

    def test_parse_error_exit_code(self, capsys, tmp_path):
        p = tmp_path / "bad.el"
        p.write_text("2\n0 zero\n")
        code, _, err = run_cli(capsys, "run", "--input", str(p))
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_oversized_el_header_refused(self, capsys, tmp_path):
        p = tmp_path / "huge.el"
        p.write_text("1000000000\n0 1\n")
        code, _, err = run_cli(capsys, "run", "--input", str(p))
        assert code == EXIT_PARSE
        assert "line 1: node count 1000000000 exceeds the limit" in err

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--input", str(tmp_path / "nope.el"))
        assert code == EXIT_IO

    def test_random_numbering_without_seed_is_usage_error(self, capsys, k2_el):
        code, _, _ = run_cli(capsys, "run", "--input", k2_el, "--numbering", "random")
        assert code == EXIT_USAGE


class TestGen:
    def test_cycle_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "cycle", "6")
        assert code == EXIT_OK
        assert out == "6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"

    def test_star_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "star.el"
        code, _, _ = run_cli(capsys, "gen", "star", "5", "-o", str(out_path))
        assert code == EXIT_OK
        assert out_path.read_text().startswith("6\n0 1\n")

    def test_random_deterministic_and_bounded(self, capsys, tmp_path):
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        run_cli(capsys, "gen", "random", "20", "4", "0.3", "--seed", "7", "-o", str(a))
        run_cli(capsys, "gen", "random", "20", "4", "0.3", "--seed", "7", "-o", str(b))
        assert a.read_text() == b.read_text()
        deg = [0] * 20
        for line in a.read_text().splitlines()[1:]:
            u, v = map(int, line.split())
            deg[u] += 1
            deg[v] += 1
        assert max(deg) <= 4

    def test_bad_params_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "cycle", "2")
        assert code == EXIT_USAGE
        code, _, _ = run_cli(capsys, "gen", "random", "10", "3", "0.5")  # no seed
        assert code == EXIT_USAGE

    def test_random_too_many_nodes_refused(self, capsys):
        code, out, err = run_cli(capsys, "gen", "random", "1000000000", "3", "0.0", "--seed", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "n 1000000000 exceeds the limit of 1000000" in err

    def test_random_too_many_candidates_refused(self, capsys):
        code, out, err = run_cli(capsys, "gen", "random", "100000", "3", "0.5", "--seed", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "expected candidate count p*C(n,2) = 2499975000 exceeds the limit of 2000000" in err


class TestOracle:
    def test_c5(self, capsys, tmp_path):
        p = tmp_path / "c5.el"
        p.write_text("5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        code, out, _ = run_cli(capsys, "oracle", "--input", str(p))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["optimum_size"] == 3

    def test_k2(self, capsys, k2_el):
        code, out, _ = run_cli(capsys, "oracle", "--input", k2_el)
        assert code == EXIT_OK
        assert json.loads(out)["optimum_size"] == 1

    def test_star(self, capsys, star3_el):
        code, out, _ = run_cli(capsys, "oracle", "--input", star3_el)
        assert json.loads(out)["optimum_size"] == 1

    def test_cap_refusal_exit_code(self, capsys, k2_el):
        code, _, err = run_cli(capsys, "oracle", "--input", k2_el, "--cap", "1")
        assert code == EXIT_ORACLE
        assert "oracle refusal" in err


class TestSweep:
    def test_k2_no_port_freedom(self, capsys, k2_el):
        code, out, _ = run_cli(capsys, "sweep", "--input", k2_el, "--trials", "10", "--seed", "1")
        assert code == EXIT_OK
        lines = [json.loads(line) for line in out.splitlines()]
        summary = lines[-1]
        assert summary["trials"] == 10
        assert summary["cover_size_min"] == summary["cover_size_max"] == 2
        assert summary["all_checks_pass"] is True

    def test_star5_cover_always_two(self, capsys, tmp_path):
        p = tmp_path / "star5.el"
        p.write_text("6\n0 1\n0 2\n0 3\n0 4\n0 5\n")
        code, out, _ = run_cli(capsys, "sweep", "--input", str(p), "--trials", "50", "--seed", "3")
        assert code == EXIT_OK
        lines = [json.loads(line) for line in out.splitlines()]
        trials, summary = lines[:-1], lines[-1]
        assert all(t["cover_size"] == 2 for t in trials)
        assert all(t["checks_pass"] for t in trials)
        assert summary["cover_size_mean"] == "2/1"

    def test_random_graph_ratio_below_three(self, capsys, tmp_path):
        gen = tmp_path / "r.el"
        run_cli(capsys, "gen", "random", "16", "4", "0.3", "--seed", "2", "-o", str(gen))
        code, out, _ = run_cli(capsys, "sweep", "--input", str(gen), "--trials", "100", "--seed", "0")
        assert code == EXIT_OK
        summary = json.loads(out.splitlines()[-1])
        num, _, den = summary["max_certified_ratio"].partition("/")
        assert int(num) <= 3 * int(den)

    def test_deterministic(self, capsys, star3_el):
        _, out1, _ = run_cli(capsys, "sweep", "--input", star3_el, "--trials", "5", "--seed", "9")
        _, out2, _ = run_cli(capsys, "sweep", "--input", star3_el, "--trials", "5", "--seed", "9")
        assert out1 == out2

    def test_zero_trials_usage_error(self, capsys, k2_el):
        code, _, _ = run_cli(capsys, "sweep", "--input", k2_el, "--trials", "0")
        assert code == EXIT_USAGE

    def test_default_seed_is_zero(self, capsys, star3_el):
        _, out1, _ = run_cli(capsys, "sweep", "--input", star3_el, "--trials", "5")
        _, out2, _ = run_cli(capsys, "sweep", "--input", star3_el, "--trials", "5", "--seed", "0")
        assert out1 == out2

    def test_numbering_flag_refused(self, capsys, k2_el):
        # .el inputs are always read with sorted numbering; the trials permute the ports
        code, out, err = run_cli(capsys, "sweep", "--input", k2_el, "--numbering", "random")
        assert code == EXIT_USAGE
        assert "--numbering" in err
        assert out == ""


class TestVerify:
    def test_genuine_trace(self, capsys, star3_el, tmp_path):
        trace = tmp_path / "t.trace"
        run_cli(capsys, "run", "--input", star3_el, "--trace", str(trace))
        code, out, _ = run_cli(capsys, "verify", "--input", star3_el, "--trace", str(trace))
        assert code == EXIT_OK
        assert json.loads(out)["violations"] == []

    def test_corrupted_trace(self, capsys, star3_el, tmp_path):
        trace = tmp_path / "t.trace"
        run_cli(capsys, "run", "--input", star3_el, "--trace", str(trace))
        corrupted = trace.read_text().replace("2 0 1 accept", "2 0 1 reject")
        trace.write_text(corrupted)
        code, out, _ = run_cli(capsys, "verify", "--input", star3_el, "--trace", str(trace))
        assert code == EXIT_INVARIANT
        assert json.loads(out)["violations"] != []


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys, )[0] == EXIT_USAGE

    def test_unknown_flag(self, capsys, k2_el):
        assert run_cli(capsys, "run", "--input", k2_el, "--bogus")[0] == EXIT_USAGE
