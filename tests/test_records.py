"""The record contract: every record is an immutable `NamedTuple`.

Records compare, hash and print by their fields, are copied with
`_replace`, and importing `portvc` builds none of them with `dataclasses`.
"""
import os
import pathlib
import subprocess
import sys

import pytest

from portvc import analysis, checks, double_cover, graph, oracle, simulator
from portvc.algorithm import NodeState

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _records() -> dict:
    """One instance of each record type, most from a run on K2."""
    el = graph.EdgeList.from_pairs(2, [(1, 0)])
    g = graph.from_edge_list(el)
    ra = checks.analyze(g)
    h = double_cover.extract_matching(double_cover.build_double_cover(g), ra.transcript.flat)
    return {
        "NodeState": NodeState(degree=1),
        "EdgeList": el,
        "PortGraph": g,
        "Transcript": ra.transcript,
        "TranscriptEntry": ra.transcript.entries[0],
        "CoverResult": ra.result,
        "PairGraph": ra.pair_graph,
        "Certificate": ra.certificate,
        "DoubleCover": h,
        "RunAnalysis": ra,
        "OracleResult": oracle.solve(g),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", RECORDS)
class TestRecordContract:
    def test_is_a_named_tuple_of_its_name(self, name):
        r = RECORDS[name]
        assert type(r).__name__ == name
        assert isinstance(r, tuple) and tuple(r) == tuple(getattr(r, f) for f in r._fields)

    def test_attribute_assignment_refused(self, name):
        r = RECORDS[name]
        for field in (r._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(r, field, None)

    def test_replace_changes_only_the_named_field(self, name):
        r = RECORDS[name]
        marker = object()
        for field in r._fields:
            copy = r._replace(**{field: marker})
            assert type(copy) is type(r)
            for f in r._fields:
                assert getattr(copy, f) is (marker if f == field else getattr(r, f))
        assert all(getattr(r, f) is not marker for f in r._fields)

    def test_repr_lists_the_fields_in_order(self, name):
        r = RECORDS[name]
        fields = ", ".join(f"{f}={getattr(r, f)!r}" for f in r._fields)
        assert repr(r) == f"{name}({fields})"


def test_equal_port_graphs_compare_and_hash_equal():
    built = graph.from_edge_list(graph.EdgeList(3, ((0, 1), (1, 2))))
    parsed = graph.parse("3 2\n0 1 1\n1 2 0 2\n2 1 1\n")
    assert built is not parsed
    assert built == parsed and hash(built) == hash(parsed)
    assert {built: 1}[parsed] == 1
    assert built != graph.from_edge_list(graph.EdgeList(3, ((0, 1), (0, 2))))


def test_import_loads_no_dataclasses():
    """A fresh `import portvc.cli` loads neither `dataclasses` nor `inspect`,
    which it would import to build dataclass methods from source text."""
    code = ("import sys, portvc.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "\n"
