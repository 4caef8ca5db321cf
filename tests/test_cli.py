import contextlib
import gc
import io
import json
import os

import pytest

from portvc import analysis, cli, graph, simulator
from portvc.cli import (
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PARSE,
    EXIT_USAGE,
    build_parser,
    main,
)
from portvc.errors import AnalysisFault, ProtocolFault


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
        trace.write_text("x" * 1000)
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
        code, _, _ = run_cli(capsys, "gen", "path", "3", "-o", str(out_path))
        assert code == EXIT_OK
        assert out_path.read_text() == "3\n0 1\n1 2\n"

    def test_output_to_a_device(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "path", "3", "-o", os.devnull)
        assert (code, out) == (EXIT_OK, "")

    def test_output_to_a_directory_is_an_io_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "gen", "path", "3", "-o", str(tmp_path))
        assert (code, out) == (EXIT_IO, "")
        assert err.startswith("i/o error:")

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
        for argv, message in (
            (("bogus", "3"), "argument kind: invalid choice: 'bogus' "
                             "(choose from 'cycle', 'path', 'clique', 'star', 'random')"),
            (("cycle", "2"), "cycle needs n >= 3, got 2"),
            (("random", "10", "3", "0.5"), "random generator requires --seed"),
            (("cycle",), "cycle generator takes params: n; got 0"),
            (("cycle", "abc"), "cycle generator takes params: n; n must be an integer, got 'abc'"),
            (("path", "3", "4"), "path generator takes params: n; got 2"),
            (("star", "3", "4"), "star generator takes params: leaves; got 2"),
            (("clique", "2.5"), "clique generator takes params: n; n must be an integer, got '2.5'"),
            # `int` and `float` read these, but `vc` refuses `_`, non-ASCII digits and padding
            (("cycle", "1_0"), "cycle generator takes params: n; n must be an integer, got '1_0'"),
            (("cycle", "\u0666"),
             "cycle generator takes params: n; n must be an integer, got '\u0666'"),
            (("cycle", " 4"), "cycle generator takes params: n; n must be an integer, got ' 4'"),
            (("random", "10", "3", "0.5_0", "--seed", "1"),
             "random generator takes params: n max_degree p; p must be a number, got '0.5_0'"),
            (("random", "10", "x", "0.5", "--seed", "1"),
             "random generator takes params: n max_degree p; max_degree must be an integer, "
             "got 'x'"),
            (("random", "10", "3", "half", "--seed", "1"),
             "random generator takes params: n max_degree p; p must be a number, got 'half'"),
            # refused before allocating: `vc run` could not read the file back
            (("path", "1000001"), "n 1000001 exceeds the limit of 1000000"),
            (("cycle", "1000001"), "n 1000001 exceeds the limit of 1000000"),
            (("star", "1000000"), "n 1000001 exceeds the limit of 1000000"),
            # only random draws anything, so a seed elsewhere would be ignored
            *(((kind, "4", "--seed", "9"), "--seed applies only to the random generator")
              for kind in ("cycle", "path", "clique", "star")),
        ):
            code, out, err = run_cli(capsys, "gen", *argv)
            assert (code, out, err) == (EXIT_USAGE, "", f"usage error: {message}\n"), argv

    def test_random_too_many_nodes_refused(self, capsys):
        code, out, err = run_cli(capsys, "gen", "random", "1000000000", "3", "0.0", "--seed", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "n 1000000000 exceeds the limit of 1000000" in err

    def test_clique_too_many_pairs_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(graph, "MAX_RANDOM_CANDIDATES", 10)
        assert run_cli(capsys, "gen", "clique", "5")[0] == EXIT_OK  # C(5,2) = 10
        code, out, err = run_cli(capsys, "gen", "clique", "6")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "usage error: clique pair count C(n,2) = 15 exceeds the limit of 10\n"

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

    def test_cap_refusal_exit_code(self, capsys, tmp_path):
        p = str(tmp_path / "p.el")
        run_cli(capsys, "gen", "path", "33", "-o", p)
        for command in ("oracle", "run --with-oracle"):
            code, out, err = run_cli(capsys, *command.split(), "--input", p)
            assert (code, out) == (EXIT_ORACLE, ""), command
            assert err == "oracle refusal: instance has 33 nodes, cap is 32; use the certificate\n"

    def test_cap_is_not_an_option(self, capsys, k2_el):
        code, out, err = run_cli(capsys, "oracle", "--input", k2_el, "--cap", "5")
        assert (code, out, err) == (EXIT_USAGE, "", "usage error: unrecognized arguments: --cap 5\n")


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

    def test_trial_is_a_random_numbering_run(self, capsys, tmp_path):
        el = str(tmp_path / "r.el")
        run_cli(capsys, "gen", "random", "40", "4", "0.15", "--seed", "3", "-o", el)
        code, out, _ = run_cli(capsys, "sweep", "--input", el, "--seed", "5", "--trials", "3")
        assert code == EXIT_OK
        trials = [json.loads(line) for line in out.splitlines()[:-1]]
        runs = []
        for seed in ("5", "6", "7"):
            code, out, _ = run_cli(capsys, "run", "--input", el, "--numbering", "random",
                                   "--seed", seed)
            assert code == EXIT_OK
            runs.append(json.loads(out))
        assert [t["cover_size"] for t in trials] == [r["cover_size"] for r in runs] == [36, 35, 33]
        assert [t["certified_ratio"] for t in trials] == [r["certified_ratio"] for r in runs]
        assert all(t["checks_pass"] for t in trials)

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

    def test_trace_vc_wrote_is_not_parsed(self, capsys, monkeypatch, star3_el, tmp_path):
        trace = tmp_path / "t.trace"
        run_cli(capsys, "run", "--input", star3_el, "--trace", str(trace))

        def unparsed(text):
            raise AssertionError("a trace in the form vc writes was parsed")
        monkeypatch.setattr(simulator, "parse_transcript", unparsed)
        code, out, _ = run_cli(capsys, "verify", "--input", star3_el, "--trace", str(trace))
        assert (code, out) == (EXIT_OK, '{"violations": []}\n')

    def test_violation_text_and_order(self, capsys, k2_el, tmp_path):
        # claimed entries not derivable, sorted, then missing entries, sorted
        trace = tmp_path / "t.trace"
        trace.write_text("1 0 1 propose\n1 1 1 propose\n2 0 1 reject\n2 1 1 accept\n"
                         "2 1 1 accept\n")
        code, out, _ = run_cli(capsys, "verify", "--input", k2_el, "--trace", str(trace))
        assert code == EXIT_INVARIANT
        assert out == (
            '{"violations": ["claimed entry not derivable: (2, 0, 1, \'reject\')", '
            '"claimed entry not derivable: (2, 1, 1, \'accept\')", '
            '"missing entry: (2, 0, 1, \'accept\')"]}\n')


class TestFailingChecks:
    def test_failed_check_still_prints_the_full_report(self, capsys, monkeypatch, star3_el):
        def one_sided_pairing(g, result):
            raise AnalysisFault("pair symmetry violated: injected")
        _, passing, _ = run_cli(capsys, "run", "--input", star3_el)
        for layer, replacement, check in [
            ("check_cover", lambda g, cover: False, "cover-valid"),
            ("check_pair_symmetry", one_sided_pairing, "pair-symmetry"),
        ]:
            with monkeypatch.context() as patch:
                patch.setattr(analysis, layer, replacement)
                code, out, err = run_cli(capsys, "run", "--input", star3_el)
            expected = json.loads(passing)
            expected["checks"][check] = "fail"
            assert (code, json.loads(out), err) == (EXIT_INVARIANT, expected, "")

    def test_fault_inside_run_prints_no_report(self, capsys, monkeypatch, star3_el):
        def fault(g):
            raise ProtocolFault("step 2, node 0: injected")
        monkeypatch.setattr(simulator, "run", fault)
        code, out, err = run_cli(capsys, "run", "--input", star3_el)
        assert (code, out) == (EXIT_INVARIANT, "")
        assert err == "invariant violation: step 2, node 0: injected\n"

    def test_sweep_names_the_first_failing_seed(self, capsys, monkeypatch, star3_el):
        calls = iter(range(5))
        monkeypatch.setattr(analysis, "check_cover", lambda g, cover: next(calls) not in (1, 3))
        code, out, _ = run_cli(capsys, "sweep", "--input", star3_el, "--trials", "5",
                               "--seed", "10")
        *lines, summary = map(json.loads, out.splitlines())
        assert [line["checks_pass"] for line in lines] == [True, False, True, False, True]
        assert (summary["all_checks_pass"], summary["failing_seed"]) == (False, 11)
        assert code == EXIT_INVARIANT


class TestUndecodableInput:
    @pytest.mark.parametrize("argv", [
        ("run",), ("run", "--format", "pg"), ("oracle",), ("sweep",),
        ("verify", "--trace", "unread.trace"),
    ])
    def test_graph_file_is_a_parse_error(self, capsys, tmp_path, argv):
        p = tmp_path / "bad"
        p.write_bytes(b"3\n0 1\n\xff\xfe1 2\n")
        code, out, err = run_cli(capsys, *argv, "--input", str(p))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "parse error: line 3: not UTF-8 text\n"

    def test_trace_file_is_refused_like_a_malformed_line(self, capsys, k2_el, tmp_path):
        trace = tmp_path / "bad.trace"
        trace.write_bytes(b"1 0 1 propose\n1 1 1 \xffpropose\n")
        code, out, err = run_cli(capsys, "verify", "--input", k2_el, "--trace", str(trace))
        assert code == EXIT_INVARIANT
        assert out == ""
        assert err == "invariant violation: transcript line 2: not UTF-8 text\n"


def _quiet_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


# (earlier, later) argvs; "{star}", "{trace}" and "{out}" name files
REUSE_PAIRS = [
    (("sweep", "--input", "{star}", "--trials", "3", "--seed", "4"),
     ("sweep", "--input", "{star}", "--trials", "3")),
    (("sweep", "--input", "{star}", "--trials", "7"),
     ("sweep", "--input", "{star}")),
    (("run", "--input", "{star}", "--numbering", "random", "--seed", "5"),
     ("run", "--input", "{star}")),
    (("run", "--input", "{star}", "--with-oracle", "--trace", "{trace}"),
     ("run", "--input", "{star}")),
    (("gen", "random", "12", "3", "0.4", "--seed", "7"), ("gen", "cycle", "5")),
    (("gen", "star", "3", "-o", "{out}"), ("gen", "star", "3")),
    (("oracle", "--input", "{pg}", "--format", "pg"), ("oracle", "--input", "{star}")),
    (("verify", "--input", "{star}", "--trace", "{trace}"), ("run", "--input", "{star}")),
]

# one passing argv per command; run in this order, each reads what the ones before it wrote
PASSING_COMMANDS = [
    ("gen", "random", "14", "3", "0.4", "--seed", "2", "-o", "{el}"),
    ("run", "--input", "{el}", "--trace", "{trace}", "--with-oracle"),
    ("verify", "--input", "{el}", "--trace", "{trace}"),
    ("sweep", "--input", "{el}", "--trials", "3"),
    ("oracle", "--input", "{el}"),
]


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("earlier, later", REUSE_PAIRS)
    def test_later_call_ignores_earlier_flags(self, star3_el, tmp_path, earlier, later):
        pg = tmp_path / "star3.pg"
        pg.write_text("4 3\n0 3 1 2 3\n1 1 0\n2 1 0\n3 1 0\n")
        paths = {"star": star3_el, "trace": str(tmp_path / "t.trace"),
                 "out": str(tmp_path / "o.el"), "pg": str(pg)}
        earlier = [a.format(**paths) for a in earlier]
        later = [a.format(**paths) for a in later]
        _quiet_main(["run", "--input", star3_el, "--trace", paths["trace"]])
        build_parser.cache_clear()
        first = _quiet_main(later)  # as the first command of a process
        build_parser.cache_clear()
        _quiet_main(earlier)
        assert _quiet_main(later) == first

    def test_sweep_seed_defaults_to_zero_after_a_seeded_sweep(self, star3_el):
        _quiet_main(["sweep", "--input", star3_el, "--trials", "2", "--seed", "4"])
        _, out = _quiet_main(["sweep", "--input", star3_el, "--trials", "2"])
        assert [json.loads(line)["seed"] for line in out.splitlines()[:-1]] == [0, 1]


class TestNoCyclicGarbage:
    """A passing command frees all it allocates by reference counting."""

    @pytest.mark.parametrize("argv", PASSING_COMMANDS)
    def test_command_leaves_no_cycles(self, tmp_path, argv):
        paths = {"el": str(tmp_path / "g.el"), "trace": str(tmp_path / "g.trace")}
        argv = [a.format(**paths) for a in argv]
        assert _quiet_main(["gen", "random", "14", "3", "0.4", "--seed", "2",
                            "-o", paths["el"]])[0] == EXIT_OK
        assert _quiet_main(["run", "--input", paths["el"], "--trace", paths["trace"]])[0] == EXIT_OK
        assert _quiet_main(argv)[0] == EXIT_OK  # warm-up: first-call caches
        out = io.StringIO()
        gc.collect()
        gc.disable()
        try:
            with contextlib.redirect_stdout(out):
                code = main(argv)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert code == EXIT_OK
        assert garbage == 0


def _invalid_command(word):
    return (f"argument command: invalid choice: {word!r} "
            "(choose from 'run', 'gen', 'oracle', 'sweep', 'verify')")


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys, )[0] == EXIT_USAGE

    def test_unknown_flag(self, capsys, k2_el):
        assert run_cli(capsys, "run", "--input", k2_el, "--bogus")[0] == EXIT_USAGE

    # the quoted wording on every supported Python, not only up to 3.13.0
    @pytest.mark.parametrize("argv, message", [
        (("run", "--input", "unread", "--format", "xx"),
         "argument --format: invalid choice: 'xx' (choose from 'pg', 'el')"),
        (("verify", "--input", "unread", "--trace", "unread", "--numbering", "xx"),
         "argument --numbering: invalid choice: 'xx' (choose from 'sorted', 'input', 'random')"),
        (("bogus",),
         "argument command: invalid choice: 'bogus' "
         "(choose from 'run', 'gen', 'oracle', 'sweep', 'verify')"),
    ])
    def test_invalid_choice_text(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (EXIT_USAGE, "", f"usage error: {message}\n")

    # only an empty argv and `-h`/`--help` reach the top-level parser, so these
    # read the same on every Python; argparse's own handling of a leading `--`
    # or unknown option differs between patch releases
    @pytest.mark.parametrize("argv, message", [
        ((), "the following arguments are required: command"),
        (("--",), _invalid_command("--")),
        (("--", "run", "--input", "unread"), _invalid_command("--")),
        (("--", "bogus"), _invalid_command("--")),
        (("--bogus",), _invalid_command("--bogus")),
        (("-x", "run", "--input", "unread"), _invalid_command("-x")),
        (("gen",), "the following arguments are required: kind"),
    ])
    def test_one_grammar(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (EXIT_USAGE, "", f"usage error: {message}\n")

    # `int` would read these as 10, 6 and 1, but `vc` refuses `_`, non-ASCII digits and padding
    @pytest.mark.parametrize("token", ["1_0", "\u0666", " 1"])
    @pytest.mark.parametrize("argv", [
        ("gen", "random", "10", "3", "0.5", "--seed", "{}"),
        ("run", "--input", "unread", "--numbering", "random", "--seed", "{}"),
        ("verify", "--input", "unread", "--trace", "unread", "--numbering", "random",
         "--seed", "{}"),
        ("sweep", "--input", "unread", "--seed", "{}"),
        ("sweep", "--input", "unread", "--trials", "{}"),
    ])
    def test_integer_option_grammar(self, capsys, argv, token):
        message = f"argument {argv[-2]}: invalid int value: {token!r}"
        assert run_cli(capsys, *(a.format(token) for a in argv)) == (
            EXIT_USAGE, "", f"usage error: {message}\n")

    def test_no_argument_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["vc", "gen", "path", "3"])
        assert main() == EXIT_OK
        assert capsys.readouterr().out == "3\n0 1\n1 2\n"


def _parsed(parse, argv):
    """What `parse(argv)` gives: the namespace without `command`, the usage
    error's text, or the exit code and stdout of `-h`."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parse(list(argv))
    except cli._UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    return {k: v for k, v in vars(args).items() if k != "command"}


def _refuse_to_parse(*args, **kwargs):
    raise AssertionError("a parser that main must not use parsed")


class TestDispatch:
    """`main` parses a command's arguments with that command's parser alone."""

    @pytest.mark.parametrize("argv", [
        *(argv for pair in REUSE_PAIRS for argv in pair),
        *PASSING_COMMANDS,
        ("run", "--input={star}", "--numbering=random", "--seed=5"),
        ("gen", "star", "3", "-o{out}"),
        ("run", "--inp", "{star}"),
        ("sweep", "--input", "a.el", "--trials", "2", "--input", "b.el", "--trials", "3"),
        ("gen", "random", "12", "3", "0.4", "--seed", "-7"),
        ("run", "--input", "{star}", "--numbering", "random", "--seed", "-5"),
        ("oracle", "--input", "{star}", "--numbering", "sorted"),
        ("gen", "--", "cycle", "4"),
        ("gen", "cycle", "--", "4"),
        ("gen", "cycle", "4", "--"),
        ("run", "--", "--input", "{star}"),
        ("run", "--input", "{star}", "--"),
        ("run", "--input", "--", "{star}"),
        *((command, "-h") for command in ("run", "gen", "oracle", "sweep", "verify")),
        ("-h",),
        (),
        ("oracle", "--input", "{star}", "--seed", "3"),
        ("run", "--input", "{star}", "--bogus"),
        ("run", "--input", "{star}", "stray"),
        ("oracle",),
        ("gen", "cycle", "4", "--seed", "x"),
    ])
    def test_same_parse_as_the_top_level_parser(self, argv):
        assert _parsed(cli._parse, argv) == _parsed(build_parser().parse_args, argv)

    def test_commands_run_without_the_top_level_parser(self, monkeypatch, tmp_path):
        paths = {"el": str(tmp_path / "g.el"), "trace": str(tmp_path / "g.trace")}
        # on the instance's dict, so that undoing it leaves no bound method behind
        monkeypatch.setitem(vars(build_parser()), "parse_known_args", _refuse_to_parse)
        for argv in PASSING_COMMANDS:
            assert _quiet_main([a.format(**paths) for a in argv])[0] == EXIT_OK, argv

    def test_cache_clear_resets_the_command_parsers(self, monkeypatch, star3_el):
        stale = build_parser().commands["run"]
        monkeypatch.setitem(vars(stale), "parse_known_args", _refuse_to_parse)
        build_parser.cache_clear()
        assert build_parser().commands["run"] is not stale
        assert _quiet_main(["run", "--input", star3_el])[0] == EXIT_OK


class TestPgFixesItsPorts:
    @pytest.fixture
    def k2_pg(self, tmp_path):
        p = tmp_path / "k2.pg"
        p.write_text("2 1\n0 1 1\n1 1 0\n")
        return str(p)

    # the optimum reads no port numbers, so oracle takes neither flag on any input
    @pytest.mark.parametrize("command", [("run",), ("oracle",), ("verify", "--trace", "unread")])
    @pytest.mark.parametrize("flag", [("--numbering", "sorted"), ("--seed", "3")])
    def test_numbering_and_seed_refused(self, capsys, k2_pg, command, flag):
        code, out, err = run_cli(capsys, *command, "--input", k2_pg, "--format", "pg", *flag)
        assert (code, out) == (EXIT_USAGE, "")
        if command == ("oracle",):
            assert err == f"usage error: unrecognized arguments: {' '.join(flag)}\n"
        else:
            assert err == f"usage error: {flag[0]} applies only to .el inputs, not --format pg\n"

    @pytest.mark.parametrize("command", [("run",), ("oracle",), ("verify", "--trace", "unread")])
    @pytest.mark.parametrize("numbering", [(), ("--numbering", "sorted"), ("--numbering", "input")])
    def test_seed_without_random_numbering_refused(self, capsys, k2_el, command, numbering):
        code, out, err = run_cli(capsys, *command, "--input", k2_el, *numbering, "--seed", "3")
        assert (code, out) == (EXIT_USAGE, "")
        if command == ("oracle",):
            refused = " ".join((*numbering, "--seed", "3"))
            assert err == f"usage error: unrecognized arguments: {refused}\n"
        else:
            assert err == "usage error: --seed applies only to --numbering random\n"

    def test_sweep_seed_still_picks_the_trials(self, capsys, k2_pg):
        code, out, _ = run_cli(capsys, "sweep", "--input", k2_pg, "--format", "pg",
                               "--trials", "2", "--seed", "5")
        assert code == EXIT_OK
        assert [json.loads(line).get("seed") for line in out.splitlines()] == [5, 6, None]

    def test_unset_numbering_is_sorted_for_el(self, capsys, tmp_path):
        p = tmp_path / "p3.el"
        p.write_text("3\n0 2\n0 1\n")  # node 0 lists 2 before 1
        traces = {}
        for numbering in (None, "sorted", "input"):
            trace = tmp_path / f"{numbering}.trace"
            flags = () if numbering is None else ("--numbering", numbering)
            assert run_cli(capsys, "run", "--input", str(p), "--trace", str(trace), *flags)[0] == 0
            traces[numbering] = trace.read_text()
        assert traces[None] == traces["sorted"] != traces["input"]
