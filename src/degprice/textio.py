"""Text formats: graph files and JSON/CSV output, nothing else.

Graph file: first line ``n <N>``, then one ``<owner> <target>`` line per
edge (0-indexed).  Lines starting with ``#`` are comments.  The edge
direction in the file encodes ownership.  The set-cover file format
lives in ``constructions``, beside the instance it describes, and reads
its lines through ``content_lines``.
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
    "to_json_text",
    "to_csv_text",
]


def content_lines(text):
    """(line number, stripped line) of each line that is neither blank nor a ``#`` comment."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def parse_graph_file(text):
    lines = content_lines(text)
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
