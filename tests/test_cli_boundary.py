"""The CLI boundary under random argv: every command, run in process.

Flag numbers come from a fixed set, each value either tiny or past every
cap.  Graph and set-cover files carry bad headers, out-of-range ids, CR,
form feed, NUL and 0xFF bytes, and U+2028 and U+00A0.  ``--out``,
``--roles`` and ``--witness-dir`` may name a directory, a path in a
missing directory, or one file twice.  Whatever the argv, ``main``
returns an exit code, and a fault is one ``error:`` line that leaves
stdout empty and every file as it was.  ``fuzz/`` runs the same check
over more examples.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from degprice import cli

# "+3" in about half the draws, so that most commands get past their flags
NUMBERS = st.one_of(
    st.just("+3"), st.sampled_from(("+3", "07", "1e3", "\u0663", "1_0", "1/0", "2147483648"))
)
GRAPHS = st.one_of(st.just("{d}/graph.txt"), st.sampled_from(("{d}/dir", "{d}/missing.graph")))
OUTS = ("{d}/out.txt", "{d}/existing.txt", "{d}/dir", "{d}/missing/out.txt", "{d}/w/opt.graph")
ROLES = ("{d}/roles.json", "{d}/out.txt", "{d}/dir", "{d}/missing/roles.json")
WITNESS_DIRS = ("{d}/w", "{d}/dir", "{d}/missing/w", "{d}/existing.txt")


@st.composite
def record_files(draw, headers, rows, bad_rows):
    """A header and distinct rows, perhaps with a bad row, and perhaps with
    one CR, form feed, NUL or 0xFF byte, or one U+2028 or U+00A0, inserted
    anywhere."""
    lines = [draw(st.sampled_from(headers)), *draw(st.lists(st.sampled_from(rows), unique=True))]
    lines += draw(st.lists(st.sampled_from(bad_rows), max_size=1))
    text = "\n".join(lines).encode() + b"\n"
    at = draw(st.integers(0, len(text)))
    noise = (b"", b"", b"", b"\r", b"\x0c", b"\0", b"\xff", "\u2028".encode(), "\u00a0".encode())
    return text[:at] + draw(st.sampled_from(noise)) + text[at:]


GRAPH_FILES = record_files(
    ("n 4", "n 07", "n 2147483648", "n x", "u 4 q 4"),
    ("0 1", "1 2", "2 3", "3 0", "0 2", "1 3", "# note"),
    ("0 9", "1 1", "0", "0 1 2", "1 0"),
)
COVER_FILES = record_files(
    ("u 4 q 4", "u 8 q 4", "u 2147483648 q 4", "u 4 q 2147483648", "u 4 q 0", "n 4"),
    ("0 1 2 3", "4 5 6 7", "2 3 4 5"),
    ("0 1 2 9", "0 0 1 2", "0 1"),
)


@st.composite
def argvs(draw):
    def maybe(flag, values, share=1 / 3):
        return [flag, draw(values)] if draw(st.floats(0, 1)) < share else []

    def pick(values):
        return st.sampled_from(values)

    graph = draw(GRAPHS)
    command = draw(pick(("construct", "cost", "best-response", "verify", "dynamics",
                         "enumerate", "reduce", "preset")))
    if command == "construct":
        argv = [draw(pick(("star", "path", "cycle", "clique", "fig2a"))), *maybe("--n", NUMBERS)]
    elif command == "cost":
        argv = [graph, *maybe("--agent", NUMBERS), *maybe("--format", pick(("json", "text")))]
    elif command == "best-response":
        argv = [graph, "--agent", draw(NUMBERS)]
    elif command == "verify":
        argv = [graph, *maybe("--level", pick(("exact", "single-move")))]
        argv += maybe("--format", pick(("json", "text")))
    elif command == "dynamics":
        argv = [graph, *maybe("--scheme", pick(("round-robin", "uniform-random")))]
        argv += maybe("--seed", NUMBERS) + maybe("--max-steps", NUMBERS)
        argv += maybe("--schedule", pick(("adversarial", "degaog-ne", "{d}/graph.txt")))
        argv += maybe("--format", pick(("json", "csv", "text")))
    elif command == "enumerate":
        argv = ["--n", draw(NUMBERS), *maybe("--witness-dir", pick(WITNESS_DIRS), 2 / 3)]
    elif command == "reduce":
        argv = draw(pick((
            ["set-cover-to-gadget", "--instance", "{d}/cover.txt"],
            ["dominating-to-set-cover", "--graph", graph],
        )))
        if argv[0] == "set-cover-to-gadget":
            argv += maybe("--roles", pick(ROLES), 2 / 3)
    else:
        argv = [draw(pick((*sorted(cli.PRESETS), "none")))]
    if command in ("cost", "best-response", "verify", "dynamics", "enumerate"):
        argv += maybe("--game", pick(("ncg", "aog", "x")), 1 / 4) + maybe("--k", NUMBERS, 1 / 4)
        argv += maybe("--beta", NUMBERS, 1 / 4) + maybe("--gamma", NUMBERS, 1 / 4)
    argv += maybe("--out", pick(OUTS), 2 / 3)
    if draw(st.integers(0, 39)) == 23:
        argv.append("-h")
    return [command, *argv]


def files_under(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def check_main(argv, graph, cover):
    """Run ``main`` on ``argv`` beside the two record files and check its
    code, its error line and that a fault wrote nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "graph.txt").write_bytes(graph)
        (root / "cover.txt").write_bytes(cover)
        (root / "existing.txt").write_text("kept\n")
        (root / "dir").mkdir()
        argv = [a.format(d=tmp) for a in argv]
        before = files_under(root)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                assert exc.code == 0 and "-h" in argv
                return
        assert code in (0, 1, 2, 3)
        err = err.getvalue()
        assert err.startswith("error: ") or (code < 2 and err == "")
        if err:
            assert len(err.splitlines()) == 1 and err.endswith("\n")
            assert out.getvalue() == ""
            assert files_under(root) == before


@settings(max_examples=250, derandomize=True, deadline=None)
@given(argv=argvs(), graph=GRAPH_FILES, cover=COVER_FILES)
def test_main_returns_a_code_and_a_fault_writes_nothing(argv, graph, cover):
    check_main(argv, graph, cover)
