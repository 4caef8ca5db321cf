"""Golden `vc` output: stdout and exit codes, byte for byte.

Each case under `tests/data/golden/` is an input graph plus the output of
`vc run --trace`, the trace file, `vc verify` on that trace,
`vc sweep --trials 3`, `vc oracle` and `vc run --with-oracle`. The random
input is itself the golden stdout of a seeded `vc gen random`, and the
stdout of `vc gen` for each other kind is pinned at two small sizes. A
change that alters any report, transcript or exit code fails here.

Regenerate the files (only when an output change is intended) with
`PYTHONPATH=src python tests/test_golden.py`.
"""
from __future__ import annotations

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from portvc import graph
from portvc.cli import main

from reference_graph import serialize

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"

GEN_ARGV = ("gen", "random", "12", "3", "0.4", "--seed", "5")

# `vc gen` kinds without a seed, each at two sizes
GEN_KINDS = [(kind, size) for kind, sizes in (
    ("cycle", ("3", "5")),
    ("path", ("1", "4")),
    ("clique", ("1", "4")),
    ("star", ("1", "3")),
) for size in sizes]

# case name -> (input file, extra input flags)
CASES = {
    "cycle7": ("cycle7.el", ("--numbering", "random", "--seed", "3")),
    "star5": ("star5.el", ()),
    "path6": ("path6.el", ()),
    "clique6": ("clique6.pg", ("--format", "pg")),
    "random12": ("random12.el", ("--numbering", "input")),
    "tight6": ("tight6.pg", ("--format", "pg")),
}

# A run that reaches the factor 3: every node joins the cover, whose optimum
# is {4, 5}. Edges 0-4, 0-5, 1-4, 1-5, 2-4, 3-5, neighbours in port order.
TIGHT6 = "6 6\n0 2 4 5\n1 2 5 4\n2 1 4\n3 1 5\n4 3 1 2 0\n5 3 0 3 1\n"


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _outputs(case: str, tmp: pathlib.Path) -> dict[str, str]:
    """File name -> content for every golden output of one case."""
    name, flags = CASES[case]
    src = ("--input", str(GOLDEN / name)) + flags
    # sweep and oracle read .el with sorted numbering and take no --numbering or --seed
    unnumbered = ("--input", str(GOLDEN / name)) + (
        ("--format", "pg") if name.endswith(".pg") else ())
    trace = tmp / f"{case}.trace"
    files = {}
    codes = {}
    for cmd, argv in (
        ("run", ("run",) + src + ("--trace", str(trace))),
        ("verify", ("verify",) + src + ("--trace", str(trace))),
        ("sweep", ("sweep",) + unnumbered + ("--trials", "3")),
        ("oracle", ("oracle",) + unnumbered),
        ("run_oracle", ("run",) + src + ("--with-oracle",)),
    ):
        codes[cmd], files[f"{case}.{cmd}.out"] = _cli(argv)
        if cmd == "run":
            files[f"{case}.trace"] = trace.read_text()
    files[f"{case}.exit.json"] = json.dumps(codes, sort_keys=True) + "\n"
    return files


def test_gen_random_is_golden():
    code, out = _cli(GEN_ARGV)
    assert code == 0
    assert out == (GOLDEN / "random12.el").read_text()


@pytest.mark.parametrize("kind, size", GEN_KINDS)
def test_gen_kinds_are_golden(kind, size):
    assert _cli(("gen", kind, size)) == (0, (GOLDEN / f"{kind}{size}.gen.out").read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_are_golden(case, tmp_path):
    for fname, content in _outputs(case, tmp_path).items():
        assert content == (GOLDEN / fname).read_text(), fname


def _regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for fname, text in (
        ("cycle7.el", graph.serialize_edge_list(graph.cycle_edges(7))),
        ("star5.el", graph.serialize_edge_list(graph.star_edges(5))),
        ("path6.el", graph.serialize_edge_list(graph.path_edges(6))),
        ("clique6.pg", serialize(
            graph.permute_ports(graph.from_edge_list(graph.clique_edges(6)), 7))),
        ("random12.el", _cli(GEN_ARGV)[1]),
        ("tight6.pg", TIGHT6),
    ):
        (GOLDEN / fname).write_text(text)
    for kind, size in GEN_KINDS:
        (GOLDEN / f"{kind}{size}.gen.out").write_text(_cli(("gen", kind, size))[1])
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for fname, content in _outputs(case, pathlib.Path(tmp)).items():
                (GOLDEN / fname).write_text(content)


if __name__ == "__main__":
    _regenerate()
