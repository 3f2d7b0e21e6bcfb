"""Text formats: the record files, graph files and JSON/CSV output.

A record file is a header line of keywords, each followed by one int,
then one line of space-separated ints per record.  Blank lines and
lines starting with ``#`` are skipped; ``read_records`` and
``write_records`` are its one reader and writer.  A graph file is the
record file ``n <N>`` with one ``<owner> <target>`` line per edge
(0-indexed); the edge direction encodes ownership.  The set-cover file
``u <n> q <q>`` lives in ``constructions``, beside the instance it
describes.

A number in input, in a file or a CLI flag, is ASCII with no ``_``
(``numeral``): ``int`` and ``Fraction`` alone also read ``1_0`` and
other scripts' digits.
"""

import csv
import io
import json

from degprice.costs import plain
from degprice.errors import GraphFormatError
from degprice.graph import OwnedGraph

__all__ = [
    "numeral",
    "integer",
    "read_records",
    "write_records",
    "parse_graph_file",
    "serialize_graph",
    "to_json_text",
    "to_csv_text",
]


def numeral(text):
    """``text`` if it is ASCII with no ``_``, the one rule for a number in
    input; else ValueError.  ``read_records`` passes it whole lines, one
    call per line rather than one per field."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number without '_': {text!r}")
    return text


def integer(text):
    """An int given as text, such as a CLI flag: ``int`` of a ``numeral``."""
    return int(numeral(text))


def read_records(text, header):
    """(line number, ints) of each line that is neither blank nor a ``#`` comment.

    The first such line must be ``header``'s keywords, each followed by one
    int (``"n <N>"``, ``"u <n> q <q>"``), and gives those ints; every later
    line gives its fields, which must all be ints.  Each line must be a
    ``numeral``.  A fault raises GraphFormatError with its line number.  Streams over the lines; the
    header is read before the row loop, so the loop has no header branch.
    """
    keys = header.split()[::2]
    lines = enumerate(text.splitlines(), start=1)
    for number, raw in lines:
        line = raw.strip()
        if line and line[0] != "#":
            break
    else:
        raise GraphFormatError(f"empty file, expected {header!r} header")
    parts = line.split()
    if parts[::2] != keys or len(parts) != 2 * len(keys):
        raise GraphFormatError(f"expected {header!r} header, got {line!r}", line=number)
    try:
        yield number, [*map(int, numeral(line).split()[1::2])]
        for number, raw in lines:
            line = raw.strip()
            if line and line[0] != "#":
                yield number, [*map(int, numeral(line).split())]
    except ValueError:
        raise GraphFormatError(f"non-integer field in {line!r}", line=number) from None


def write_records(header, rows):
    """The ``header`` line, then one line of space-separated ints per row."""
    return "\n".join([header, *(" ".join(map(str, row)) for row in rows)]) + "\n"


def parse_graph_file(text):
    records = read_records(text, "n <N>")
    number, (n,) = next(records)
    if n < 1:
        raise GraphFormatError(f"node count must be positive, got {n}", line=number)
    g = OwnedGraph(n)
    for number, ids in records:
        if len(ids) != 2:
            # the message quotes the line as written, not its ints
            line = text.splitlines()[number - 1].strip()
            raise GraphFormatError(f"expected '<owner> <target>', got {line!r}", line=number)
        owner, target = ids
        try:
            g.add_edge(owner, target)
        except ValueError as exc:
            raise GraphFormatError(str(exc), line=number) from exc
    return g


def serialize_graph(g):
    return write_records(f"n {g.n}", sorted(g.owned_edges))


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
