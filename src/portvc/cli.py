"""Command-line interface: run, gen, oracle, sweep, verify.

All reports are JSON on stdout; ratios are exact rational strings, never
floats, so reruns are byte-identical. Exit codes: 0 ok, 1 usage, 2 parse,
3 invariant violation, 4 oracle refusal, 5 I/O.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from collections.abc import Callable
from fractions import Fraction

from . import graph, oracle, simulator
from .checks import analyze
from .errors import GraphError, OracleRefusal, ParseError, ProtocolFault

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_ORACLE = 4
EXIT_IO = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # on the top-level parser: each command's parser

    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _invalid_choice(value: str, choices) -> str:
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _add_choice(p: argparse.ArgumentParser, name: str, choices: tuple[str, ...],
                **kwargs) -> None:
    """Add an argument that takes one of `choices`.

    Its `type` refuses any other value before argparse's own check, in the
    wording Python 3.10 to 3.13.0 print: later patch releases drop the
    quotes around the choices. `choices` still gives the usage line its
    `{...}`.
    """
    def one_of(value: str) -> str:
        if value not in choices:
            raise argparse.ArgumentTypeError(_invalid_choice(value, choices))
        return value
    p.add_argument(name, choices=choices, type=one_of, **kwargs)


def _int(token: str) -> int:  # an integer option, read as graph files read one
    return graph.plain_number(int, token)


_int.__name__ = "int"  # argparse's refusal names it: "invalid int value: '1_0'"


def _ratio_str(r: Fraction | None) -> str | None:
    if r is None:
        return None
    return f"{r.numerator}/{r.denominator}"


def _read_text(path: str, refusal: Callable[[int], Exception]) -> str:
    """The file's UTF-8 text. A byte that does not decode raises
    `refusal(line)`, where `line` counts from 1."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise refusal(data.count(b"\n", 0, exc.start) + 1) from None


def _write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8, replacing what the file held.

    A regular file is overwritten in place and then cut to the new length
    rather than opened with O_TRUNC: ext4 starts writeback of a written
    file's blocks when it is closed after a truncation to zero, so each
    `vc gen -o` or `vc run --trace` over an earlier output blocked on the
    disk. A failed write leaves the file incomplete either way.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _load_graph(path: str, fmt: str, policy: str | None, seed: int | None) -> graph.PortGraph:
    """The graph in `path`. A `.pg` file fixes its ports, so it refuses a
    numbering policy or seed; an `.el` file is numbered by `policy`, sorted
    when unset, and takes a seed only for random numbering."""
    for flag, value in (("--numbering", policy), ("--seed", seed)):
        if fmt == "pg" and value is not None:
            raise _UsageError(f"{flag} applies only to .el inputs, not --format pg")
    if seed is not None and policy != "random":
        raise _UsageError("--seed applies only to --numbering random")
    text = _read_text(path, lambda line: ParseError("not UTF-8 text", line))
    if fmt == "pg":
        return graph.parse(text)
    el = graph.parse_edge_list(text)
    return graph.from_edge_list(el, policy or "sorted", seed)


def _report_for(g: graph.PortGraph, with_oracle: bool) -> tuple[dict, bool]:
    ra = analyze(g)
    cert = ra.certificate
    report = {
        "n": g.node_count,
        "m": g.num_edges,
        "delta": g.max_degree,
        "cover_size": ra.result.cover_size,
        "lower_bound": cert.lower_bound if cert else 0,
        "certified_ratio": _ratio_str(cert.certified_ratio) if cert else None,
        "rounds_run": ra.result.rounds_run,
        "last_active_step": ra.result.last_active_step,
        "cover": sorted(ra.result.cover),
        "checks": {name: ("pass" if ok else "fail") for name, ok in ra.checks.items()},
    }
    if with_oracle:
        res = oracle.solve(g)
        report["oracle_size"] = res.optimum_size
        report["true_ratio"] = (
            _ratio_str(Fraction(ra.result.cover_size, res.optimum_size))
            if res.optimum_size > 0
            else None
        )
    return report, ra.all_pass


def cmd_run(args) -> int:
    g = _load_graph(args.input, args.format, args.numbering, args.seed)
    report, all_pass = _report_for(g, args.with_oracle)
    if args.trace:
        _, transcript = simulator.run(g)
        _write_text(args.trace, simulator.format_transcript(transcript.flat))
    print(json.dumps(report))
    return EXIT_OK if all_pass else EXIT_INVARIANT


def cmd_gen(args) -> int:
    if args.seed is not None and args.kind != "random":
        raise _UsageError("--seed applies only to the random generator")
    el = graph.generate(args.kind, *args.params, seed=args.seed)
    text = graph.serialize_edge_list(el)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = _load_graph(args.input, args.format, None, None)
    res = oracle.solve(g)
    print(json.dumps({
        "n": g.node_count,
        "m": g.num_edges,
        "optimum_size": res.optimum_size,
        "optimum_cover": sorted(res.optimum_cover),
        "explored_nodes": res.explored_nodes,
    }))
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    base = _load_graph(args.input, args.format, None, None)
    sizes = []
    max_ratio: Fraction | None = None
    failing_seed = None
    for trial in range(args.trials):
        trial_seed = args.seed + trial
        g = graph.permute_ports(base, trial_seed)
        ra = analyze(g)
        cert = ra.certificate
        ratio = cert.certified_ratio if cert else None
        if ratio is not None and (max_ratio is None or ratio > max_ratio):
            max_ratio = ratio
        sizes.append(ra.result.cover_size)
        line = {
            "trial": trial,
            "seed": trial_seed,
            "cover_size": ra.result.cover_size,
            "certified_ratio": _ratio_str(ratio),
            "checks_pass": ra.all_pass,
        }
        print(json.dumps(line))
        if not ra.all_pass and failing_seed is None:
            failing_seed = trial_seed
    mean = Fraction(sum(sizes), len(sizes))
    summary = {
        "trials": args.trials,
        "n": base.node_count,
        "m": base.num_edges,
        "cover_size_min": min(sizes),
        "cover_size_max": max(sizes),
        "cover_size_mean": _ratio_str(mean),
        "max_certified_ratio": _ratio_str(max_ratio),
        "all_checks_pass": failing_seed is None,
        "failing_seed": failing_seed,
    }
    print(json.dumps(summary))
    return EXIT_OK if failing_seed is None else EXIT_INVARIANT


def cmd_verify(args) -> int:
    g = _load_graph(args.input, args.format, args.numbering, args.seed)
    text = _read_text(
        args.trace, lambda line: ProtocolFault(f"transcript line {line}: not UTF-8 text"))
    violations = simulator.replay(g, text)
    print(json.dumps({"violations": violations}))
    return EXIT_OK if not violations else EXIT_INVARIANT


def _add_input_flags(p: argparse.ArgumentParser, numbering: bool = True) -> None:
    p.add_argument("--input", required=True, help="input graph file")
    _add_choice(p, "--format", ("pg", "el"), default="el")
    if numbering:
        _add_choice(p, "--numbering", graph.NUMBERING_POLICIES,
                    help="port numbering policy for .el inputs (default sorted)")
        p.add_argument("--seed", type=_int, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `vc` argument parser, built on first call and shared after that.

    argparse parsers are reference cycles, so building one per command
    would leave garbage for the cyclic collector. The parser is never
    mutated after it is built: `parse_args` fills a fresh namespace.
    `main` parses a command's arguments with its parser in `commands`.
    """
    parser = _Parser(prog="vc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the cover algorithm and all checks")
    _add_input_flags(p_run)
    p_run.add_argument("--trace", help="write the transcript to this path")
    p_run.add_argument("--with-oracle", action="store_true",
                       help="also solve exactly and report the true ratio")
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("gen", help="generate a graph as an .el file")
    _add_choice(p_gen, "kind", tuple(graph.GENERATORS))
    p_gen.add_argument("params", nargs="*", default=())
    p_gen.add_argument("--seed", type=_int, default=None)
    p_gen.add_argument("--output", "-o", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_oracle = sub.add_parser("oracle", help="exact minimum vertex cover")
    _add_input_flags(p_oracle, numbering=False)  # the optimum reads no port numbers
    p_oracle.set_defaults(func=cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="rerun under many port numberings")
    _add_input_flags(p_sweep, numbering=False)  # .el inputs are read with sorted numbering
    p_sweep.add_argument("--seed", type=_int, default=0)
    p_sweep.add_argument("--trials", type=_int, default=10)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="replay a transcript against a graph")
    _add_input_flags(p_verify)
    p_verify.add_argument("--trace", required=True)
    p_verify.set_defaults(func=cmd_verify)

    parser.commands = sub.choices
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """`argv` parsed in one pass, by the parser of the command it names.

    Through the top-level parser, every token would be classified once to
    find the command and again by the command's parser. Only an empty argv
    and one led by `-h` or `--help` go through the top-level parser; any
    other first word that names no command, `--` and other options
    included, is refused here, because argparse's handling of those
    differs between Python patch releases. The namespace lacks only
    `command`, which no command reads.
    """
    parser = build_parser()
    if not argv or argv[0] in ("-h", "--help"):
        return parser.parse_args(argv)
    command = parser.commands.get(argv[0])
    if command is None:
        raise _UsageError(f"argument command: {_invalid_choice(argv[0], parser.commands)}")
    return command.parse_args(argv[1:])


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OracleRefusal as exc:
        print(f"oracle refusal: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except ProtocolFault as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except GraphError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
