"""Ops and the correctness gate.

An op is a short sequence of `vc` commands, each run in-process through
`portvc.cli.main(argv)` exactly as a user runs `vc`, with stdout and stderr
captured. The gate decides whether an op's outputs are correct.
"""
from __future__ import annotations

import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from .inputs import sha256

CliMain = Callable[[list], int]


@dataclass(frozen=True)
class Op:
    """One op of a workload.

    Ops with the same `key` read the same input, so their `vc run` reports
    must be byte-identical. `m` is the edge count the benchmark built, when
    it built the graph itself; `gen_output` is the file `vc gen` writes.
    """

    key: str
    argvs: tuple[tuple[str, ...], ...]
    m: int | None = None
    gen_output: str | None = None


@dataclass(frozen=True)
class Call:
    command: str
    rc: int
    out: str
    err: str


def invoke(cli_main: CliMain, argv: tuple[str, ...]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli_main(list(argv))
        except Exception:  # a crash is a failed op, not a crashed benchmark
            traceback.print_exc()
            rc = -1
    return Call(argv[0], rc, out.getvalue(), err.getvalue())


def execute(cli_main: CliMain, op: Op) -> tuple[float, list[Call]]:
    """Run the op's commands in order; return the wall time and the calls.

    A command that exits non-zero ends the op, as it would end a shell `&&`.
    """
    calls = []
    t0 = perf_counter()
    for argv in op.argvs:
        call = invoke(cli_main, argv)
        calls.append(call)
        if call.rc != 0:
            break
    return perf_counter() - t0, calls


@dataclass
class Gate:
    """Counts attempted and failed ops; an op passes only if

    - every command exits 0;
    - every named check of `vc run` reports `pass`;
    - `vc verify`, when the op runs it, reports `violations == []`;
    - the `vc run` report, and the `vc gen` output when there is one, are
      byte-identical to those of the first op with the same key;
    - the reported edge count equals the one the benchmark built.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    first: dict[str, tuple[str, str | None]] = field(default_factory=dict)

    def check(self, op: Op, calls: list[Call]) -> int | None:
        """Return the op's edge count if it passed, else None."""
        self.attempted += 1
        try:
            return self._edges_if_correct(op, calls)
        except _Failed as exc:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"op {op.key}: {exc}")
            return None

    def _edges_if_correct(self, op: Op, calls: list[Call]) -> int:
        for call in calls:
            if call.rc != 0:
                raise _Failed(f"`vc {call.command}` exited {call.rc}: {call.err.strip()[-300:]}")
        if len(calls) != len(op.argvs):
            raise _Failed("not every command ran")
        by_cmd = {c.command: c for c in calls}
        try:
            report = json.loads(by_cmd["run"].out)
            failing = [name for name, verdict in report["checks"].items() if verdict != "pass"]
            verify = json.loads(by_cmd["verify"].out) if "verify" in by_cmd else None
            m = report["m"]
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            raise _Failed(f"unreadable report: {exc!r}") from None
        if failing:
            raise _Failed(f"checks failed: {failing}")
        if verify is not None and verify != {"violations": []}:
            raise _Failed(f"verify reported {by_cmd['verify'].out.strip()[:300]}")
        if op.m is not None and m != op.m:
            raise _Failed(f"report has m={m}, the input has {op.m}")
        gen_digest = None
        if op.gen_output is not None:
            with open(op.gen_output) as fh:
                gen_digest = sha256(fh.read())
        digests = (sha256(by_cmd["run"].out), gen_digest)
        if self.first.setdefault(op.key, digests) != digests:
            raise _Failed("output differs from the first op on the same input")
        return m


class _Failed(Exception):
    pass
