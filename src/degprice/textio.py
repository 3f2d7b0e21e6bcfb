"""Text formats: graph files, set-cover instance files, JSON/CSV output.

Graph file: first line ``n <N>``, then one ``<owner> <target>`` line per
edge (0-indexed).  Lines starting with ``#`` are comments.  The edge
direction in the file encodes ownership.

Set-cover file: first line ``u <n> q <q>``, then one line of q element
ids per set.
"""

import csv
import io
import json

from degprice.costs import plain
from degprice.errors import GraphFormatError
from degprice.graph import OwnedGraph

__all__ = [
    "parse_graph_file",
    "serialize_graph",
    "parse_set_cover_file",
    "serialize_set_cover",
    "to_json_text",
    "to_csv_text",
]


def _content_lines(text):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def parse_graph_file(text):
    lines = _content_lines(text)
    try:
        number, header = next(lines)
    except StopIteration:
        raise GraphFormatError("empty file, expected 'n <N>' header") from None
    parts = header.split()
    if len(parts) != 2 or parts[0] != "n":
        raise GraphFormatError(f"expected 'n <N>' header, got {header!r}", line=number)
    try:
        n = int(parts[1])
    except ValueError:
        raise GraphFormatError(f"node count {parts[1]!r} is not an integer", line=number)
    if n < 1:
        raise GraphFormatError(f"node count must be positive, got {n}", line=number)
    g = OwnedGraph(n)
    for number, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected '<owner> <target>', got {line!r}", line=number)
        try:
            owner, target = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer node id in {line!r}", line=number)
        try:
            g.add_edge(owner, target)
        except ValueError as exc:
            raise GraphFormatError(str(exc), line=number) from exc
    return g


def serialize_graph(g):
    edges = (f"{owner} {target}" for owner, target in sorted(g.owned_edges))
    return "\n".join([f"n {g.n}", *edges]) + "\n"


def parse_set_cover_file(text):
    from degprice.constructions import SetCoverInstance, _checked_set

    lines = _content_lines(text)
    try:
        number, header = next(lines)
    except StopIteration:
        raise GraphFormatError("empty file, expected 'u <n> q <q>' header") from None
    parts = header.split()
    if len(parts) != 4 or parts[0] != "u" or parts[2] != "q":
        raise GraphFormatError(f"expected 'u <n> q <q>' header, got {header!r}", line=number)
    try:
        n, q = int(parts[1]), int(parts[3])
    except ValueError:
        raise GraphFormatError(f"non-integer header field in {header!r}", line=number)
    sets = []
    for number, line in lines:
        try:
            elements = tuple(int(p) for p in line.split())
        except ValueError:
            raise GraphFormatError(f"non-integer element in {line!r}", line=number)
        try:
            sets.append(_checked_set(elements, n, q))
        except ValueError as exc:
            raise GraphFormatError(str(exc), line=number) from exc
    try:
        return SetCoverInstance(universe_size=n, sets=tuple(sets), q=q)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def serialize_set_cover(inst):
    out = [f"u {inst.universe_size} q {inst.q}"]
    for s in inst.sets:
        out.append(" ".join(str(e) for e in sorted(s)))
    return "\n".join(out) + "\n"


def to_json_text(data):
    """JSON text; a Fraction prints through ``costs.plain``, as an int or the exact "p/q".

    A raw ``math.inf`` raises ValueError rather than printing ``Infinity``.
    """
    return json.dumps(data, indent=2, sort_keys=True, default=plain, allow_nan=False) + "\n"


def to_csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
