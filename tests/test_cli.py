"""Command-line behavior: output formats, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import degprice
from degprice import claims, cli, errors
from degprice.cli import main
from degprice.constructions import build_path, build_star, parse_set_cover_file
from degprice.costs import GameConfig, social_cost
from degprice.textio import parse_graph_file, serialize_graph


@pytest.fixture()
def star_file(tmp_path):
    p = tmp_path / "star.graph"
    p.write_text(serialize_graph(build_star(5)))
    return str(p)


@pytest.fixture()
def path_file(tmp_path):
    def make(n):
        p = tmp_path / f"path{n}.graph"
        p.write_text(serialize_graph(build_path(n)))
        return str(p)

    return make


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """``python -m degprice.cli argv`` in a subprocess, as a shell runs it."""
    src = Path(degprice.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "degprice.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


def test_construct_star(capsys):
    code, out, _ = run_cli(capsys, "construct", "star", "--n", "5")
    assert code == 0
    assert parse_graph_file(out) == build_star(5)


def test_construct_requires_n_for_families(capsys):
    code, _, err = run_cli(capsys, "construct", "star")
    assert code == 2
    assert "requires --n" in err
    code, _, err = run_cli(capsys, "construct", "hypercube", "--n", "8")
    assert code == 2
    assert "invalid choice: 'hypercube'" in err


def test_construct_figure_to_file(capsys, tmp_path):
    out_path = tmp_path / "net.graph"
    code, out, _ = run_cli(capsys, "construct", "fig2a", "--out", str(out_path))
    assert code == 0 and out == ""
    assert parse_graph_file(out_path.read_text()) == build_star(6)


def test_cost_reports_social_and_agent(capsys, star_file):
    code, out, _ = run_cli(capsys, "cost", star_file, "--agent", "0")
    assert code == 0
    data = json.loads(out)
    assert data["social_cost"] == 32
    assert data["cost"] == {"edge_cost": 0, "distance_cost": 4, "total": 4}
    code, out, _ = run_cli(capsys, "cost", star_file, "--format", "text")
    assert code == 0 and out.startswith("social cost: 32")
    code, out, _ = run_cli(capsys, "cost", star_file, "--agent", "1", "--format", "text")
    assert out == 'social cost: 32\nagent 1: {"distance_cost": 7, "edge_cost": 0, "total": 7}\n'


def test_cost_honors_price_flags(capsys, tmp_path):
    p = tmp_path / "p3.graph"
    p.write_text("n 3\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "cost", str(p), "--beta", "2", "--gamma", "0")
    data = json.loads(out)
    assert data["social_cost"] == 14
    assert "beta=2 gamma=0" in data["config"]


def test_cost_prices_stay_exact(capsys, tmp_path):
    """A decimal price flag is parsed as the exact fraction it names."""
    p = tmp_path / "c4.graph"
    p.write_text("n 4\n0 1\n1 2\n2 3\n0 3\n")
    code, out, _ = run_cli(capsys, "cost", str(p), "--gamma", "0.1")
    assert code == 0
    data = json.loads(out)
    exact = social_cost(parse_graph_file(p.read_text()), GameConfig(price_gamma=Fraction(1, 10)))
    assert exact == Fraction(122, 5)
    assert data["social_cost"] == "122/5"
    assert "gamma=1/10" in data["config"]


def test_census_ratios_print_exactly(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--game", "aog")
    data = json.loads(out)
    assert code == 0 and data["poa"] == "4/3" and data["pos"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["cost"],
        ["cost", "--agent", "0", "--format", "text"],
        ["verify", "--level", "exact"],
        ["verify", "--format", "text"],
        ["dynamics"],
        ["dynamics", "--format", "csv"],
        ["dynamics", "--format", "text"],
    ],
    ids=" ".join,
)
def test_fractional_prices_print_no_float(capsys, path_file, argv):
    """Costs such as 97/6 print as the exact "p/q" in every format."""
    command, *flags = argv
    code, out, _ = run_cli(
        capsys, command, path_file(6), *flags, "--beta", "1/3", "--gamma", "1/2"
    )
    assert code in (0, 1) and re.search(r"\d/\d", out)
    assert not re.search(r"\d\.\d|\d[eE][-+]?\d", out), out


def test_cost_past_the_float_range_prints_exactly(capsys, path_file):
    beta = f"{10**400}/3"
    code, out, err = run_cli(capsys, "cost", path_file(4), "--agent", "0", "--beta", beta)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert Fraction(data["cost"]["edge_cost"]) == Fraction(2 * 10**400, 3) - 1
    assert Fraction(data["social_cost"]) == social_cost(
        build_path(4), GameConfig(price_beta=Fraction(10**400, 3))
    )


def test_best_response_output(capsys, path_file):
    code, out, _ = run_cli(capsys, "best-response", path_file(4), "--agent", "0")
    assert code == 0
    data = json.loads(out)
    assert data["improves"] is True
    assert data["current_cost"] == 7
    assert data["best_cost"] == 6
    assert data["best_strategy"] == [1, 3]


def test_verify_exit_codes(capsys, star_file, path_file):
    code, out, _ = run_cli(capsys, "verify", star_file, "--level", "exact")
    assert code == 0
    assert json.loads(out)["is_equilibrium"] is True
    code, out, _ = run_cli(capsys, "verify", path_file(4))
    assert code == 1
    data = json.loads(out)
    assert data["is_equilibrium"] is False
    assert data["witness"]["kind"]["type"] == "add"


def test_missing_file_and_bad_flags_are_usage_errors(capsys, star_file):
    code, _, err = run_cli(capsys, "verify", "no-such-file.graph")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "verify", star_file, "--k", "wide")
    assert code == 2 and "--k" in err
    assert run_cli(capsys, "inspect", star_file)[0] == 2
    # --format exists only on cost, verify and dynamics
    assert run_cli(capsys, "construct", "star", "--n", "3", "--format", "json")[0] == 2


@pytest.mark.parametrize("flag", ["--beta", "--gamma"])
def test_zero_denominator_price_is_a_usage_error(star_file, flag):
    proc = run_module("cost", star_file, flag, "3/0")
    assert proc.returncode == 2
    assert flag in proc.stderr and "Traceback" not in proc.stderr


def test_zero_denominator_price_prints_usage(capsys, star_file):
    """In process too, a zero denominator is a usage error, not a traceback."""
    code, out, err = run_cli(capsys, "cost", star_file, "--beta", "1/0")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "--beta" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "path", "--n", "\u0663"],
        ["construct", "path", "--n", "1_0"],
        ["enumerate", "--n", "\u0663"],
        ["cost", "{graph}", "--agent", "\u0660"],
        ["best-response", "{graph}", "--agent", "0_0"],
        ["dynamics", "{graph}", "--scheme", "uniform-random", "--seed", "\u0661"],
        ["dynamics", "{graph}", "--max-steps", "1_0"],
        ["cost", "{graph}", "--beta", "\u0661/\u0662"],
        ["cost", "{graph}", "--gamma", "1_0"],
        ["enumerate", "--n", "3", "--k", "\u0662"],
        # a price past 1 000 digits is refused before any graph is read,
        # and 1e10000000 before Fraction computes 10**10000000
        ["cost", "{graph}", "--beta", "1e5000"],
        ["cost", "{graph}", "--gamma", "1e-5000"],
        ["verify", "{graph}", "--beta", "1e1000000"],
        ["cost", "{graph}", "--beta", "1e10000000"],
        ["cost", "{graph}", "--gamma", f"1/{10**1000}"],
        ["cost", "{graph}", "--beta", "9" * 1001],
    ],
)
def test_a_number_flag_must_be_ascii_without_underscore(capsys, path_file, argv):
    """int and Fraction alone read '_' and other scripts' digits; every
    such flag exits 2, prints nothing on stdout, and names on stderr the
    flag and the public type it reads, or for a price why it was refused."""
    code, out, err = run_cli(capsys, *(a.format(graph=path_file(4)) for a in argv))
    assert code == 2 and out == ""
    price_reason = "(not an ASCII number without '_':|more than 1000 digits in) '"
    expected = {"--beta": price_reason, "--gamma": price_reason, "--k": "invalid radius value"}
    assert re.search(f"argument {argv[-2]}: " + expected.get(argv[-2], "invalid integer value"), err)


@pytest.mark.parametrize(
    "value, reason",
    [
        ("1/0", "zero denominator in '1/0'"),
        ("1e5000", "more than 1000 digits in '1e5000'"),
        (f"1/{10**1000}", f"more than 1000 digits in '1/{10**1000}'"),
        ("1_0", "not an ASCII number without '_': '1_0'"),
        ("x", "invalid price value: 'x'"),
    ],
    ids=("zero-denominator", "far-exponent", "long-denominator", "underscore", "not-a-number"),
)
def test_a_refused_price_says_why(capsys, star_file, value, reason):
    """A price refused for a stated reason prints that reason, not only
    argparse's 'invalid price value'."""
    code, out, err = run_cli(capsys, "cost", star_file, "--beta", value)
    assert code == 2 and out == ""
    assert err == f"error: degprice cost: argument --beta: {reason}\n"


def test_a_price_of_1000_digits_is_read(capsys, path_file):
    """The price bound sits at 1 000 digits: 10**999 and 1/10**999 are read."""
    for flag, value in (("--beta", "1e999"), ("--gamma", "1e-999"), ("--beta", "0.1e1000")):
        code, out, _ = run_cli(capsys, "cost", path_file(4), "--agent", "0", flag, value)
        assert code == 0 and out.startswith("{")
    assert cli.price("1e999") == 10**999 and cli.price("1e-999") == Fraction(1, 10**999)


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(["inspect", "g.graph"], "'inspect'", id="unknown-subcommand"),
        pytest.param(["verify"], "graph", id="missing-positional"),
        pytest.param(["verify", "g.graph", "--game", "x"], "--game", id="bad-choice-flag"),
        pytest.param(["construct", "hypercube"], "'hypercube'", id="bad-choice-positional"),
        pytest.param(["reduce", "set-cover-to-gadget"], "--instance", id="missing-required-flag"),
        pytest.param(
            ["reduce", "dominating-to-set-cover", "--graph", "g", "--roles", "r"],
            "--roles",
            id="unrecognized-flag",
        ),
        pytest.param(
            ["construct", "star", "--n", "3", "--format", "json"],
            "--format",
            id="unrecognized-format",
        ),
        pytest.param(["cost", "g.graph", "--beta", "1/0"], "--beta", id="bad-price"),
        pytest.param(["cost", "g.graph", "--k", "wide"], "--k", id="bad-radius"),
        pytest.param(["construct", "path", "--n", "\u0663"], "--n", id="bad-integer"),
    ],
)
def test_every_flag_fault_is_one_error_line(capsys, argv, named):
    """A flag argparse refuses is a ValueError like any input fault: main
    returns 2, prints nothing on stdout and one error line naming the flag."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and named in err


def test_a_flag_fault_exits_2_from_the_shell():
    proc = run_module("reduce", "set-cover-to-gadget")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [["-h"], ["reduce", "set-cover-to-gadget", "-h"]], ids=" ".join)
def test_help_alone_exits(capsys, argv):
    """-h is the one flag that still exits from argparse, with 0."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: degprice") and err == ""


def test_signed_and_decimal_number_flags_stay_accepted(capsys, path_file):
    code, out, _ = run_cli(capsys, "construct", "path", "--n", "+3")
    assert code == 0 and parse_graph_file(out) == build_path(3)
    code, out, _ = run_cli(
        capsys, "cost", path_file(4), "--agent", "+0", "--k", "+2", "--beta", "1e-3", "--gamma=-1/2"
    )
    assert code == 0 and json.loads(out)["config"] == "ncg k=2 beta=1/1000 gamma=-1/2"


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", "g.graph"],
        ["best-response", "g.graph", "--agent", "0"],
        ["verify", "g.graph"],
        ["dynamics", "g.graph"],
        ["enumerate", "--n", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_game_flags_default_to_the_default_game(argv):
    """--game, --k, --beta and --gamma left out give GameConfig(): the
    library's defaults are the CLI's."""
    assert cli._config_from(cli.build_parser().parse_args(argv)) == GameConfig()


def test_candidate_cap_is_a_resource_exit(capsys, path_file):
    code, _, err = run_cli(
        capsys, "best-response", path_file(25), "--agent", "0"
    )
    assert code == 3
    assert "cap" in err


def test_distance_table_cap_is_a_resource_exit(capsys, tmp_path):
    big = tmp_path / "big.graph"
    big.write_text("n 200000\n")
    code, out, err = run_cli(capsys, "cost", str(big), "--agent", "0")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and "distance table limited" in err


def test_graph_size_cap_is_a_resource_exit(capsys, tmp_path):
    # 10^8 nodes would need about 45 GB of empty neighbour sets
    huge = tmp_path / "huge.graph"
    huge.write_text("n 100000000\n")
    # a list of the cycle's 2^31 edge targets alone would take 16 GiB
    for argv in (
        ("cost", str(huge)),
        ("construct", "path", "--n", "100000000"),
        ("construct", "cycle", "--n", "2147483648"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "graphs limited" in err


def test_clique_past_the_edge_cap_is_a_resource_exit(capsys):
    # 100 000 nodes would be about 5 * 10^9 edges; 1415 is the first clique past the cap
    for n in ("100000", "1415"):
        code, out, err = run_cli(capsys, "construct", "clique", "--n", n)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "edges" in err


def test_dynamics_csv_is_deterministic(capsys, path_file):
    argv = (
        "dynamics", path_file(6), "--game", "aog", "--k", "2", "--format", "csv"
    )
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    assert first == "n,steps,rounds,diameter,social_cost\n6,12,2,3,65\n"
    _, second, _ = run_cli(capsys, *argv)
    assert second == first


def test_dynamics_seeded_run_and_missing_seed(capsys, path_file):
    p = path_file(6)
    code, out, _ = run_cli(
        capsys, "dynamics", p, "--game", "aog", "--scheme", "uniform-random",
        "--seed", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "converged"
    assert all(s["after"] < s["before"] for s in data["steps"])
    code, _, err = run_cli(
        capsys, "dynamics", p, "--game", "aog", "--scheme", "uniform-random"
    )
    assert code == 2 and "needs a seed" in err


def test_dynamics_schedule_file(capsys, tmp_path, path_file):
    p = path_file(6)
    sched = tmp_path / "moves.json"
    sched.write_text(json.dumps([{"agent": 0, "type": "add", "target": 2}]))
    code, out, _ = run_cli(
        capsys, "dynamics", p, "--game", "aog", "--schedule", str(sched)
    )
    assert code == 0
    assert json.loads(out)["steps"][0]["kind"] == {"type": "add", "target": 2}
    # a non-improving scripted move is an assertion failure, not a crash
    sched.write_text(json.dumps([{"agent": 2, "type": "add", "target": 0}]))
    code, _, err = run_cli(
        capsys, "dynamics", p, "--game", "aog", "--schedule", str(sched)
    )
    assert code == 1 and "not strictly improving" in err


def test_dynamics_named_schedules(capsys, path_file):
    code, out, _ = run_cli(
        capsys, "dynamics", path_file(16), "--game", "aog", "--k", "2",
        "--schedule", "adversarial", "--format", "csv",
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "16"
    code, out, _ = run_cli(
        capsys, "dynamics", path_file(13), "--game", "aog",
        "--schedule", "degaog-ne", "--format", "text",
    )
    assert code == 0
    assert "outcome: converged" in out


def test_enumerate_census_with_witnesses(capsys, tmp_path):
    wdir = tmp_path / "wit"
    code, out, _ = run_cli(
        capsys, "enumerate", "--n", "3", "--game", "aog", "--witness-dir", str(wdir)
    )
    assert code == 0
    data = json.loads(out)
    assert data["equilibrium_count"] == 20
    assert data["opt_cost"] == 8 and data["worst_eq_cost"] == 10
    for name in ("opt.graph", "best-eq.graph", "worst-eq.graph"):
        assert parse_graph_file((wdir / name).read_text()).n == 3


def test_census_past_six_nodes_is_a_resource_exit(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "7")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: enumeration limited")


def test_enumerate_six_nodes_with_witnesses(capsys, tmp_path):
    wdir = tmp_path / "wit"
    code, out, _ = run_cli(
        capsys, "enumerate", "--n", "6", "--game", "aog", "--k", "2", "--witness-dir", str(wdir)
    )
    assert code == 0
    assert json.loads(out)["equilibrium_count"] == 13_797_888
    for name in ("opt.graph", "best-eq.graph", "worst-eq.graph"):
        assert parse_graph_file((wdir / name).read_text()).n == 6
    for name in ("best-eq.graph", "worst-eq.graph"):
        code, _, _ = run_cli(
            capsys, "verify", str(wdir / name), "--game", "aog", "--k", "2", "--level", "exact"
        )
        assert code == 0


def test_reduce_round_trip(capsys, tmp_path):
    inst_file = tmp_path / "inst.cover"
    inst_file.write_text("u 8 q 4\n0 1 2 3\n4 5 6 7\n2 3 4 5\n")
    roles_file = tmp_path / "roles.json"
    code, out, _ = run_cli(
        capsys, "reduce", "set-cover-to-gadget",
        "--instance", str(inst_file), "--roles", str(roles_file),
    )
    assert code == 0
    assert parse_graph_file(out).n == 53
    roles = json.loads(roles_file.read_text())
    assert roles["layout"]["nodes"] == 53
    assert sum(1 for r in roles["role_map"].values() if r == "set") == 3

    cyc = tmp_path / "c5.graph"
    cyc.write_text("n 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, out, _ = run_cli(capsys, "reduce", "dominating-to-set-cover", "--graph", str(cyc))
    assert code == 0
    inst = parse_set_cover_file(out)
    assert len(inst.sets) == 5 and inst.q == 3


def test_preset_runs_and_reports(capsys):
    code, out, _ = run_cli(capsys, "preset", "star-optimal")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["preset"] == "star-optimal"
    assert all(c["opt_cost"] == c["expected"] for c in data["checks"])


@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_every_preset_passes(capsys, name):
    code, out, _ = run_cli(capsys, "preset", name)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["preset"] == name


def test_a_failing_preset_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(claims.PRESETS, "star-optimal", lambda: ([], False))
    code, out, _ = run_cli(capsys, "preset", "star-optimal")
    assert code == 1
    assert json.loads(out)["passed"] is False


# the exit code of each error class: 3 for a cap, 2 for an input fault
# (a ValueError or OSError), 1 for any other package error
EXIT_BY_CLASS = {
    errors.DegpriceError: 1,
    errors.GraphFormatError: 2,
    errors.ResourceCapExceeded: 3,
    errors.CandidateCapExceeded: 3,
    errors.OracleBudgetExceeded: 3,
    errors.InfeasibleInstanceError: 2,
    errors.ScheduleReplayError: 1,
    ValueError: 2,
    OSError: 2,
}


def test_the_exit_table_names_every_error_class():
    classes = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)}
    assert classes <= set(EXIT_BY_CLASS)


@pytest.mark.parametrize("cls", EXIT_BY_CLASS, ids=lambda cls: cls.__name__)
def test_an_error_exits_by_its_class(capsys, monkeypatch, cls):
    exc = cls(0, 21, 20) if cls is errors.CandidateCapExceeded else cls("raised on purpose")

    def fail():
        raise exc

    monkeypatch.setitem(claims.PRESETS, "star-optimal", fail)
    code, out, err = run_cli(capsys, "preset", "star-optimal")
    assert code == EXIT_BY_CLASS[cls]
    assert err == f"error: {exc}\n" and out == ""


def test_a_swap_schedule_file_replays_the_fig3_cycle(capsys, tmp_path):
    graph, schedule = tmp_path / "g1.graph", tmp_path / "cycle.json"
    assert run_cli(capsys, "construct", "fig3-g1", "--out", str(graph))[0] == 0
    schedule.write_text(json.dumps([{"agent": u, **k.as_dict()} for u, k in claims.FIG3_CYCLE]))
    code, out, _ = run_cli(capsys, "dynamics", str(graph), "--schedule", str(schedule))
    assert code == 0
    assert json.loads(out)["outcome"] == "cycle-detected"


SCHEDULE_RUN = ["dynamics", "{graph}", "--schedule", "{sched}"]


@pytest.mark.parametrize(
    "argv, schedule, code, named",
    [
        pytest.param(["verify", "{dir}"], None, 2, "directory", id="directory"),
        pytest.param(["cost", "{graph}", "--agent", "9"], None, 2, "node id 9", id="agent-9"),
        pytest.param(
            SCHEDULE_RUN, {"agent": 0, "type": "add", "target": 2}, 2, "list", id="not-a-list"
        ),
        pytest.param(
            SCHEDULE_RUN, [{"agent": 0, "type": "add"}], 2, "schedule entry", id="no-target"
        ),
        pytest.param(
            SCHEDULE_RUN,
            [{"agent": "0", "type": "add", "target": 2}],
            2,
            "schedule entry",
            id="string-agent",
        ),
        pytest.param(
            SCHEDULE_RUN,
            [{"agent": 9, "type": "add", "target": 2}],
            1,
            "node id 9",
            id="schedule-agent-9",
        ),
        pytest.param(
            SCHEDULE_RUN + ["--game", "aog"],
            [{"agent": 0, "type": "delete", "target": 1}],
            1,
            "cannot drop edges",
            id="aog-delete",
        ),
        pytest.param(
            SCHEDULE_RUN + ["--k", "2"],
            [{"agent": 0, "type": "add", "target": 4}],
            1,
            "outside the allowed candidates",
            id="add-past-k",
        ),
        pytest.param(
            ["dynamics", "{graph}", "--schedule", "adversarial"],
            None,
            2,
            "add-only",
            id="adversarial-ncg",
        ),
        pytest.param(
            ["dynamics", "{graph}", "--schedule", "adversarial", "--game", "aog", "--k", "1"],
            None,
            2,
            "k >= 2",
            id="adversarial-k1",
        ),
        pytest.param(
            ["dynamics", "{graph}", "--schedule", "adversarial", "--game", "aog"],
            None,
            2,
            "n >= 12",
            id="adversarial-n5",
        ),
        pytest.param(
            ["dynamics", "{graph}", "--schedule", "degaog-ne", "--game", "aog"],
            None,
            2,
            "n >= 10",
            id="linear-n5",
        ),
        pytest.param(
            ["dynamics", "{graph11}", "--schedule", "degaog-ne", "--game", "aog"],
            None,
            2,
            "1 mod 3",
            id="linear-n11",
        ),
        pytest.param(
            ["dynamics", "{graph}", "--seed", "5"], None, 2, "takes no seed", id="seed-round-robin"
        ),
        pytest.param(
            SCHEDULE_RUN + ["--game", "aog", "--scheme", "uniform-random", "--seed", "3"],
            [{"agent": 0, "type": "add", "target": 2}],
            2,
            "--schedule",
            id="schedule-and-scheme",
        ),
        pytest.param(
            SCHEDULE_RUN + ["--game", "aog", "--seed", "3"],
            [{"agent": 0, "type": "add", "target": 2}],
            2,
            "--schedule",
            id="schedule-and-seed",
        ),
        pytest.param(
            SCHEDULE_RUN + ["--game", "aog", "--policy", "full-best-response"],
            [{"agent": 0, "type": "add", "target": 2}],
            2,
            "--schedule",
            id="schedule-and-policy",
        ),
        pytest.param(["enumerate", "--n", "1"], None, 2, "n >= 2", id="census-n1"),
        pytest.param(["enumerate", "--n", "0"], None, 2, "n >= 2", id="census-n0"),
        pytest.param(
            ["enumerate", "--n", "2", "--beta", "1", "--gamma", "-3"],
            None,
            2,
            "positive optimum; at n=2 it costs 0",
            id="census-zero-optimum",
        ),
        pytest.param(["reduce", "set-cover-to-gadget"], None, 2, "--instance", id="no-instance"),
        pytest.param(["reduce", "dominating-to-set-cover"], None, 2, "--graph", id="no-graph"),
        # a flag the command would ignore is refused before any file is read
        pytest.param(["construct", "fig2a", "--n", "99"], None, 2, "--n", id="figure-and-n"),
        pytest.param(
            ["reduce", "dominating-to-set-cover", "--graph", "{dir}/none.graph",
             "--instance", "{dir}/none.cover"],
            None,
            2,
            "unrecognized arguments: --instance",
            id="dominating-and-instance",
        ),
        pytest.param(
            ["reduce", "dominating-to-set-cover", "--graph", "{dir}/none.graph",
             "--roles", "{dir}/roles.json"],
            None,
            2,
            "unrecognized arguments: --roles",
            id="dominating-and-roles",
        ),
        pytest.param(
            ["reduce", "set-cover-to-gadget", "--instance", "{dir}/none.cover",
             "--graph", "{dir}/none.graph"],
            None,
            2,
            "unrecognized arguments: --graph",
            id="gadget-and-graph",
        ),
        # every output is checked before any is written, so a fault in the roles
        # file prints no graph
        pytest.param(
            ["reduce", "set-cover-to-gadget", "--instance", "{cover}", "--roles", "{dir}"],
            None,
            2,
            "directory",
            id="roles-a-directory",
        ),
    ],
)
def test_malformed_input_is_one_error_line(
    capsys, tmp_path, path_file, argv, schedule, code, named
):
    """Each malformed input exits 2 (1 for a move that does not replay) with one error line."""
    sched = tmp_path / "moves.json"
    sched.write_text(json.dumps(schedule))
    cover = tmp_path / "inst.cover"
    cover.write_text("u 8 q 4\n0 1 2 3\n4 5 6 7\n2 3 4 5\n")
    paths = {
        "dir": str(tmp_path),
        "graph": path_file(5),
        "graph11": path_file(11),
        "sched": str(sched),
        "cover": str(cover),
    }
    code_seen, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code_seen == code
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and named in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize(
    "argv, text, code, named",
    [
        # json.dumps cannot write this file, and json.loads recurses on it
        pytest.param(SCHEDULE_RUN, "[" * 200_000, 2, "input.txt nests", id="deep-schedule"),
        pytest.param(
            ["reduce", "set-cover-to-gadget", "--instance", "{sched}"],
            "u 4 q 0\n",
            2,
            "set size must be at least 1",
            id="set-size-0",
        ),
        pytest.param(
            ["reduce", "set-cover-to-gadget", "--instance", "{sched}"],
            "u 1000000000 q 4\n0 1 2 3\n",
            3,
            "6000000003 nodes",
            id="gadget-past-max-nodes",
        ),
        # an input fault, so exit 2 like a q < 4 instance, not an assertion failure
        pytest.param(
            ["reduce", "set-cover-to-gadget", "--instance", "{sched}"],
            "u 6 q 4\n0 1 2 3\n1 2 3 4\n",
            2,
            "appear in no set",
            id="gadget-uncoverable",
        ),
    ],
)
def test_raw_input_file_is_one_error_line(capsys, tmp_path, path_file, argv, text, code, named):
    """An input file written as raw text exits with its code and one error line."""
    raw = tmp_path / "input.txt"
    raw.write_text(text)
    paths = {"graph": path_file(5), "sched": str(raw)}
    code_seen, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code_seen == code
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and named in err
    assert "Traceback" not in err and out == ""


def files_under(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "argv, made, named",
    [
        pytest.param(
            ["enumerate", "--n", "3", "--witness-dir", "{d}/w", "--out", "{d}/D"],
            {"D": None},
            "Is a directory",
            id="witnesses-and-out-a-directory",
        ),
        pytest.param(
            ["reduce", "set-cover-to-gadget", "--instance", "{d}/i.cover",
             "--roles", "{d}/r.json", "--out", "{d}/D"],
            {"D": None},
            "Is a directory",
            id="roles-and-out-a-directory",
        ),
        pytest.param(
            ["enumerate", "--n", "3", "--witness-dir", "{d}/w"],
            {"w/worst-eq.graph": None},
            "Is a directory",
            id="worst-eq-a-directory",
        ),
        pytest.param(
            ["enumerate", "--n", "3", "--out", "{d}/out.json", "--witness-dir", "{d}/w"],
            {"out.json": "old out\n", "w/opt.graph": "old opt\n", "w/worst-eq.graph": None},
            "Is a directory",
            id="existing-outputs-kept",
        ),
        pytest.param(
            ["reduce", "set-cover-to-gadget", "--instance", "{d}/i.cover",
             "--roles", "{d}/same.txt", "--out", "{d}/same.txt"],
            {},
            "two outputs name one file",
            id="roles-and-out-one-file",
        ),
        pytest.param(
            ["reduce", "set-cover-to-gadget", "--instance", "{d}/i.cover",
             "--roles", "{d}/same.txt", "--out", "{d}/x/../same.txt"],
            {"x": None, "same.txt": "old\n"},
            "two outputs name one file",
            id="one-file-by-two-names",
        ),
        pytest.param(
            ["enumerate", "--n", "3", "--witness-dir", "{d}/w", "--out", "{d}/w/opt.graph"],
            {},
            "two outputs name one file",
            id="out-among-the-witnesses",
        ),
    ],
)
def test_a_fault_in_one_output_writes_none(capsys, tmp_path, argv, made, named):
    """A command writes all of its outputs or none: when one destination is
    refused (a directory, or a file that another output names too), main
    exits 2 with one error line, and every file is as it was before."""
    (tmp_path / "i.cover").write_text("u 8 q 4\n0 1 2 3\n4 5 6 7\n2 3 4 5\n")
    for name, text in made.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.mkdir() if text is None else path.write_text(text)
    before = files_under(tmp_path)
    code, out, err = run_cli(capsys, *(a.format(d=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and named in err
    assert files_under(tmp_path) == before


def test_an_output_in_a_symlink_loop_is_one_error_line(capsys, tmp_path):
    (tmp_path / "a").symlink_to("b")
    (tmp_path / "b").symlink_to("a")
    code, out, err = run_cli(capsys, "construct", "star", "--n", "3", "--out", str(tmp_path / "a"))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Too many levels of symbolic links" in err
    assert (tmp_path / "a").is_symlink() and (tmp_path / "b").is_symlink()


def test_a_fault_keeps_a_symlinked_output_as_it_was(capsys, tmp_path):
    """An output through a link whose target does not exist yet: a fault in
    a later output removes the target that the probe created, not the link."""
    (tmp_path / "link").symlink_to("target.json")
    (tmp_path / "w" / "worst-eq.graph").mkdir(parents=True)
    code, out, err = run_cli(
        capsys, "enumerate", "--n", "3", "--out", str(tmp_path / "link"),
        "--witness-dir", str(tmp_path / "w"),
    )
    assert code == 2 and out == "" and "Is a directory" in err
    assert (tmp_path / "link").is_symlink() and not (tmp_path / "target.json").exists()


def test_a_non_equilibrium_writes_its_witness_to_out(capsys, tmp_path, path_file):
    """Exit 1 is a result, not a fault: verify still writes its witness."""
    out_path = tmp_path / "witness.json"
    code, out, err = run_cli(capsys, "verify", path_file(4), "--out", str(out_path))
    assert code == 1 and out == "" and err == ""
    assert json.loads(out_path.read_text())["witness"]["kind"]["type"] == "add"


def test_text_witness_prints_costs_like_json(capsys, tmp_path, path_file):
    split = tmp_path / "split.graph"
    split.write_text("n 3\n0 1\n")
    code, out, _ = run_cli(capsys, "verify", str(split), "--level", "exact", "--format", "text")
    assert code == 1 and '"before": "unreachable"' in out
    code, out, _ = run_cli(
        capsys, "verify", path_file(4), "--beta", "1/3", "--gamma", "1/2", "--format", "text"
    )
    assert code == 1 and out.startswith("witness: {") and "Fraction(" not in out

