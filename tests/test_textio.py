"""File formats: graph text, set-cover text, JSON/CSV rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import owned_graphs
from degprice.constructions import SetCoverInstance, parse_set_cover_file, serialize_set_cover
from degprice.errors import GraphFormatError, ResourceCapExceeded
from degprice.graph import MAX_NODES, OwnedGraph
from degprice.textio import (
    integer,
    numeral,
    parse_graph_file,
    serialize_graph,
    to_csv_text,
    to_json_text,
)


def test_parse_simple_path():
    g = parse_graph_file("n 3\n0 1\n1 2\n")
    assert g == OwnedGraph(3, [(0, 1), (1, 2)])
    assert g.targets(1) == {2} and g.targets(2) == set()


def test_comments_and_blank_lines_are_ignored():
    text = "# a path\n\nn 3\n  # indented comment\n0 1\n\n1 2\n"
    assert parse_graph_file(text) == OwnedGraph(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("", "empty file", None),
        ("nodes 3", "expected 'n <N>'", 1),
        ("n three", "non-integer field", 1),
        ("n 0", "must be positive", 1),
        ("n 3\n0 1 2", "expected '<owner> <target>'", 2),
        ("n 3\n0 x", "non-integer", 2),
        ("n 3\n0 1\n1 0", "already present", 3),
        ("n 3\n# pad\n\n1 1", "self-loop", 4),
        ("n 2\n0 5", "out of range", 2),
        # int() alone reads '_' and other scripts' digits
        ("n 1_0\n0 \u0663\n", "non-integer field in 'n 1_0'", 1),
        ("n 4\n0 \u0663\n", "non-integer field in '0 \u0663'", 2),
        ("n 4\n# 1_0\n0 1_0", "non-integer field in '0 1_0'", 3),
    ],
)
def test_graph_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(GraphFormatError, match=fragment) as exc:
        parse_graph_file(text)
    assert exc.value.line == line
    if line is not None:
        assert f"line {line}:" in str(exc.value)


def test_signed_ascii_numbers_stay_accepted():
    assert parse_graph_file("n +3\n+0 1\n1 +2\n") == OwnedGraph(3, [(0, 1), (1, 2)])
    assert [integer(text) for text in ("+3", "-1", " 7 ")] == [3, -1, 7]
    assert [numeral(text) for text in ("1/2", "0.1", "1e-3")] == ["1/2", "0.1", "1e-3"]


@pytest.mark.parametrize("text", ["1_0", "\u0663", "\uff13", "1/\u0662"])
def test_a_number_is_ascii_without_underscore(text):
    """``int`` alone reads the first three and ``Fraction`` all four; the
    rule refuses all four."""
    with pytest.raises(ValueError, match="not an ASCII number"):
        numeral(text)
    with pytest.raises(ValueError):
        integer(text)


def test_node_count_past_the_graph_cap_is_refused_before_allocating():
    with pytest.raises(ResourceCapExceeded, match=str(MAX_NODES)):
        parse_graph_file(f"n {MAX_NODES + 1}\n")


def test_serialize_graph_layout():
    g = OwnedGraph(3, [(2, 0), (0, 1)])
    assert serialize_graph(g) == "n 3\n0 1\n2 0\n"


@settings(max_examples=80)
@given(owned_graphs(max_n=7))
def test_graph_round_trip(g):
    assert parse_graph_file(serialize_graph(g)) == g


def test_set_cover_round_trip():
    inst = SetCoverInstance(universe_size=5, sets=((4, 3), (0, 1), (1, 2)), q=2)
    text = serialize_set_cover(inst)
    assert text == "u 5 q 2\n3 4\n0 1\n1 2\n"  # set order kept, elements sorted
    assert parse_set_cover_file(text) == inst


@st.composite
def set_cover_instances(draw):
    n = draw(st.integers(1, 9))
    q = draw(st.integers(1, n))
    one_set = st.lists(st.integers(0, n - 1), min_size=q, max_size=q, unique=True)
    sets = draw(st.lists(one_set, min_size=1, max_size=6))
    return SetCoverInstance(universe_size=n, sets=tuple(map(tuple, sets)), q=q)


@settings(max_examples=80)
@given(set_cover_instances())
def test_set_cover_round_trip_over_random_instances(inst):
    assert parse_set_cover_file(serialize_set_cover(inst)) == inst


@st.composite
def noisy_text(draw, lines):
    """``lines`` with blank, whitespace and ``#`` lines drawn around them,
    each indented and padded, each line ended by LF or CRLF; and the
    1-based line number on which each of ``lines`` lands."""
    filler = st.lists(st.sampled_from(["", "  ", "\t", "#", "# note", "  # indented"]), max_size=2)
    pad = st.sampled_from(["", " ", "  ", "\t"])
    out, numbers = [], []
    for line in lines:
        out += draw(filler)
        numbers.append(len(out) + 1)
        out.append(draw(pad) + line + draw(pad))
    out += draw(filler)
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in out), numbers


FORMATS = {
    "graph": (parse_graph_file, serialize_graph, owned_graphs(max_n=6)),
    "set-cover": (parse_set_cover_file, serialize_set_cover, set_cover_instances()),
}


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=60)
@given(data=st.data())
def test_blank_comment_indented_and_crlf_lines_change_nothing(fmt, data):
    """Both formats read the same object through any such noise, and a
    malformed line is reported on the line where it landed."""
    parse, serialize, objects = FORMATS[fmt]
    obj = data.draw(objects)
    lines = serialize(obj).splitlines()
    text, _ = data.draw(noisy_text(lines))
    assert parse(text) == obj
    bad = data.draw(st.integers(0, len(lines) - 1))
    lines[bad] = "x 1"  # a bad header keyword on line 0, a non-integer field below
    text, numbers = data.draw(noisy_text(lines))
    with pytest.raises(GraphFormatError) as exc:
        parse(text)
    assert exc.value.line == numbers[bad]


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("", "empty file", None),
        ("universe 5 q 2", "expected 'u <n> q <q>'", 1),
        ("u 5 q two", "non-integer field", 1),
        ("u 5 q 2\n0 1 2", "expected q=2", 2),
        ("u 5 q 2\n0 0", "duplicate element", 2),
        ("u 5 q 2\n# ok\n0 9", "outside universe", 3),
        ("u 5 q 2\n0 a", "non-integer field", 2),
        ("u \u0665 q 2\n0 1", "non-integer field", 1),
        ("u 5 q 2\n0 1_0", "non-integer field in '0 1_0'", 2),
    ],
)
def test_set_cover_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(GraphFormatError, match=fragment) as exc:
        parse_set_cover_file(text)
    assert exc.value.line == line


def test_set_cover_header_validation_still_applies():
    # structurally fine lines, but the header promises an empty instance
    with pytest.raises(GraphFormatError, match="at least one set"):
        parse_set_cover_file("u 4 q 2\n")


def test_json_and_csv_rendering():
    assert to_json_text({"b": 1, "a": [2]}) == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
    csv_text = to_csv_text(("n", "steps"), [(3, 7), (4, "unreachable")])
    assert csv_text == "n,steps\n3,7\n4,unreachable\n"
