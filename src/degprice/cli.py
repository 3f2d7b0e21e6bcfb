"""Command-line front end.

Subcommands: construct, cost, best-response, verify, dynamics,
enumerate, reduce, preset.  ``preset NAME`` runs one of the paper's
claims from ``claims.PRESETS`` and prints its checks.  JSON is the
machine format; CSV exists for plotting convergence curves; text is a
short human summary.  Only cost, verify and dynamics take --format.  Every cost prints through
``costs.plain``.  Exit codes (``EXIT_CODES``): 0 success, 1 assertion
failure, 2 usage error, 3 resource cap exceeded.  Every fault, a flag
that does not parse included, prints one ``error:`` line on stderr and
``main`` returns its code; only ``-h`` exits, with 0.

Each ``_cmd_*`` computes and writes nothing: it returns its exit code and
its outputs, ``(path, text)`` pairs where the path ``None`` is stdout.
``main`` hands them to ``_write`` once the command has returned, so a
command writes every output or, when it raises, none.
"""

import argparse
import json
import os
import pathlib
import sys
from fractions import Fraction

from degprice import constructions
from degprice import textio
from degprice.claims import (
    DEG2AOG_2NE,
    DEGAOG_NE,
    PRESETS,
    adversarial_schedule,
    scripted_linear_sequences,
)
from degprice.costs import AOG, NCG, GameConfig, agent_cost, plain, social_cost
from degprice.dynamics import (
    BEST_SINGLE_EDGE,
    MAX_STEPS,
    POLICIES,
    ROUND_ROBIN,
    UNIFORM_RANDOM,
    ActivationScheme,
    run_dynamics,
)
from degprice.errors import DegpriceError, ResourceCapExceeded
from degprice.moves import EXACT, SINGLE_MOVE, best_response_exact, parse_schedule, verify_equilibrium
from degprice.oracle import equilibrium_census

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# the first class an error matches decides its exit code; an input fault
# is a ValueError by its class (GraphFormatError, InfeasibleInstanceError),
# and so is a flag fault (_Parser.error)
EXIT_CODES = (
    (ResourceCapExceeded, EXIT_RESOURCE),
    ((ValueError, OSError), EXIT_USAGE),
    (DegpriceError, EXIT_ASSERTION),
)

FAMILIES = {
    "star": constructions.build_star,
    "path": constructions.build_path,
    "cycle": constructions.build_cycle,
    "clique": constructions.build_clique,
}


# A price's numerator and denominator have at most this many digits.  Then
# the scale (the lcm of the two prices' denominators) stays below 10^2000,
# and with n <= APSP_MAX_NODES every printed cost and PoA stays under
# Python's 4 300-digit limit on turning an int into text.
PRICE_DIGITS = 1000


class _Parser(argparse.ArgumentParser):
    """argparse whose flag faults raise ValueError, so that ``main``
    reports them as it reports every other input fault."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _add_game_flags(p):
    p.add_argument("--game", choices=(NCG, AOG), default=GameConfig.variant)
    p.add_argument("--k", type=radius, default=GameConfig.locality_k, help="integer or 'global'")
    p.add_argument("--beta", type=price, default=GameConfig.price_beta)
    p.add_argument("--gamma", type=price, default=GameConfig.price_gamma)


def radius(text):
    """A locality radius: "global" gives None, anything else an integer."""
    return None if text == "global" else textio.integer(text)


def price(text):
    """A price coefficient kept exact: "0.1" and "1/2" become Fractions.

    A price refused for a stated reason raises ArgumentTypeError, whose
    text argparse prints; any other ValueError reads ``invalid price value``.
    """
    try:
        _, _, exponent = textio.numeral(text).lower().partition("e")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None
    # Fraction computes 10**exponent in full, so a far exponent is refused
    # first: past this bound no nonzero mantissa fits, as int reads at most
    # 4 300 digits
    if exponent and abs(int(exponent)) > PRICE_DIGITS + 4300:
        raise argparse.ArgumentTypeError(f"more than {PRICE_DIGITS} digits in {text!r}")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    if max(abs(value.numerator), value.denominator) >= 10**PRICE_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {PRICE_DIGITS} digits in {text!r}")
    return value.numerator if value.denominator == 1 else value


def _add_out_flags(p, *formats):
    p.add_argument("--out", type=pathlib.Path, default=None)
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])


def _config_from(args):
    return GameConfig(args.game, args.k, args.beta, args.gamma)


def _write(outputs):
    """Write each ``(path, text)`` of ``outputs``, the path ``None`` being
    stdout: all of them, or none when a destination is refused.  Pairs,
    not a dict: two equal paths would share one key and hide their clash.

    Two paths that name one file are refused.  Each file is then probed:
    opened for append, which truncates nothing, and closed at once.  When a
    probe fails, the files that did not exist before it are removed (for a
    symlink, its target and not the link) and its OSError, which names the
    path as given, is raised.  Only then is each text written.  A write
    that fails after every probe passed, as on a full disk, can leave the
    outputs before it written.
    """
    files = [path for path, _ in outputs if path is not None]
    real = {os.path.realpath(path) for path in files}
    if len(real) < len(files):
        raise ValueError(f"two outputs name one file among {', '.join(map(str, files))}")
    created = [path for path in real if not os.path.lexists(path)]
    try:
        for path in files:
            open(path, "a").close()
    except OSError:
        for path in created:
            pathlib.Path(path).unlink(missing_ok=True)
        raise
    for path, text in outputs:
        (sys.stdout.write if path is None else path.write_text)(text)


def _read_graph(path):
    return textio.parse_graph_file(pathlib.Path(path).read_text())


def _cmd_construct(args):
    if args.family in constructions.FIGURE_NAMES:
        if args.n is not None:
            raise ValueError(f"construct {args.family} is a packaged network; drop --n")
        g = constructions.build_figure_network(args.family)
    elif args.n is None:
        raise ValueError(f"construct {args.family} requires --n")
    else:
        g = FAMILIES[args.family](args.n)
    return EXIT_OK, [(args.out, textio.serialize_graph(g))]


def _cmd_cost(args):
    g = _read_graph(args.graph)
    cfg = _config_from(args)
    data = {"config": cfg.describe(), "social_cost": plain(social_cost(g, cfg))}
    if args.agent is not None:
        data["agent"] = args.agent
        data["cost"] = agent_cost(g, args.agent, cfg).as_dict()
    else:
        data["agents"] = [agent_cost(g, u, cfg).as_dict() for u in range(g.n)]
    if args.format == "text":
        lines = [f"social cost: {data['social_cost']}"]
        if args.agent is not None:
            lines.append(f"agent {args.agent}: {json.dumps(data['cost'], sort_keys=True)}")
        text = "\n".join(lines) + "\n"
    else:
        text = textio.to_json_text(data)
    return EXIT_OK, [(args.out, text)]


def _cmd_best_response(args):
    g = _read_graph(args.graph)
    cfg = _config_from(args)
    strategy, cost = best_response_exact(g, args.agent, cfg)
    current = agent_cost(g, args.agent, cfg).total
    data = {
        "config": cfg.describe(),
        "agent": args.agent,
        "current_cost": plain(current),
        "best_cost": plain(cost),
        "best_strategy": sorted(strategy),
        "improves": cost < current,
    }
    return EXIT_OK, [(args.out, textio.to_json_text(data))]


def _cmd_verify(args):
    g = _read_graph(args.graph)
    cfg = _config_from(args)
    report = verify_equilibrium(g, cfg, level=args.level)
    data = {"config": cfg.describe(), **report.as_dict()}
    if args.format == "text":
        witness = json.dumps(data["witness"], sort_keys=True)
        text = "equilibrium\n" if report.is_equilibrium else f"witness: {witness}\n"
    else:
        text = textio.to_json_text(data)
    return EXIT_OK if report.is_equilibrium else EXIT_ASSERTION, [(args.out, text)]


def _load_schedule(spec_text, g, cfg):
    """Resolve --schedule into a ready-to-run scripted scheme."""
    if spec_text == "adversarial":
        return adversarial_schedule(g.n, cfg)
    if spec_text in (DEGAOG_NE, DEG2AOG_2NE):
        return scripted_linear_sequences(g.n, spec_text)
    text = pathlib.Path(spec_text).read_text()
    try:
        entries = json.loads(text)
    except RecursionError:
        raise ValueError(f"schedule file {spec_text} nests too deeply") from None
    return ActivationScheme.scripted(parse_schedule(entries))


def _cmd_dynamics(args):
    # --scheme and --policy default to None, so that a flag given is a flag seen;
    # the scheme itself refuses a seed it does not read, or a missing one
    if args.schedule is None:
        scheme = ActivationScheme(
            args.scheme or ROUND_ROBIN, args.policy or BEST_SINGLE_EDGE, args.seed
        )
    elif args.scheme or args.policy or args.seed is not None:
        raise ValueError("--schedule replays its moves as given; drop --scheme, --seed, --policy")
    g = _read_graph(args.graph)
    cfg = _config_from(args)
    if args.schedule is not None:
        scheme = _load_schedule(args.schedule, g, cfg)
    trace = run_dynamics(g, cfg, scheme, max_steps=args.max_steps)
    if args.format == "csv":
        text = textio.to_csv_text(trace.CSV_HEADER, [trace.csv_row()])
    elif args.format == "text":
        *_, diameter, cost = trace.csv_row()
        text = (
            f"outcome: {trace.outcome}\nsteps: {len(trace.steps)}\n"
            f"activations: {trace.activations}\nrounds: {trace.rounds}\n"
            f"final diameter: {diameter}\nfinal social cost: {cost}\n"
        )
    else:
        text = textio.to_json_text(trace.as_dict())
    return EXIT_OK, [(args.out, text)]


def _cmd_enumerate(args):
    cfg = _config_from(args)
    summary = equilibrium_census(args.n, cfg)
    outputs = [(args.out, textio.to_json_text(summary.as_dict()))]
    if args.witness_dir is not None:
        # a directory holds no output, so a later fault may leave it empty
        args.witness_dir.mkdir(parents=True, exist_ok=True)
        for label, graph in (
            ("opt", summary.opt_witness),
            ("best-eq", summary.best_witness),
            ("worst-eq", summary.worst_witness),
        ):
            outputs.append((args.witness_dir / f"{label}.graph", textio.serialize_graph(graph)))
    return EXIT_OK, outputs


def _cmd_gadget(args):
    inst = constructions.parse_set_cover_file(pathlib.Path(args.instance).read_text())
    layout = constructions.set_cover_to_best_response_gadget(inst)
    outputs = [(args.out, textio.serialize_graph(layout.graph))]
    if args.roles is not None:
        role_map = {str(v): role for v, role in layout.role_map.items()}
        roles = {"layout": layout.as_dict(), "role_map": role_map}
        outputs.append((args.roles, textio.to_json_text(roles)))
    return EXIT_OK, outputs


def _cmd_dominating(args):
    inst = constructions.dominating_set_to_set_cover(_read_graph(args.graph))
    return EXIT_OK, [(args.out, constructions.serialize_set_cover(inst))]


def _cmd_preset(args):
    checks, passed = PRESETS[args.name]()
    report = {"preset": args.name, "passed": passed, "checks": checks}
    return EXIT_OK if passed else EXIT_ASSERTION, [(args.out, textio.to_json_text(report))]


def build_parser():
    parser = _Parser(prog="degprice", description="degree-priced network creation game toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a named network as a graph file")
    p.add_argument("family", choices=(*FAMILIES, *constructions.FIGURE_NAMES))
    p.add_argument("--n", type=textio.integer, default=None)
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("cost", help="agent cost breakdowns and social cost")
    p.add_argument("graph")
    p.add_argument("--agent", type=textio.integer, default=None)
    _add_game_flags(p)
    _add_out_flags(p, "json", "text")
    p.set_defaults(fn=_cmd_cost)

    p = sub.add_parser("best-response", help="exact best response for one agent")
    p.add_argument("graph")
    p.add_argument("--agent", type=textio.integer, required=True)
    _add_game_flags(p)
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_best_response)

    p = sub.add_parser("verify", help="equilibrium check (exit 1 if not an equilibrium)")
    p.add_argument("graph")
    p.add_argument("--level", choices=(EXACT, SINGLE_MOVE), default=SINGLE_MOVE)
    _add_game_flags(p)
    _add_out_flags(p, "json", "text")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("dynamics", help="run improving-response dynamics")
    p.add_argument("graph")
    p.add_argument("--scheme", choices=(ROUND_ROBIN, UNIFORM_RANDOM), default=None)
    p.add_argument("--policy", choices=POLICIES, default=None)
    p.add_argument(
        "--schedule",
        default=None,
        help=f"scripted run: 'adversarial', '{DEGAOG_NE}', '{DEG2AOG_2NE}', or a JSON move file",
    )
    p.add_argument("--seed", type=textio.integer, default=None)
    p.add_argument("--max-steps", type=textio.integer, default=MAX_STEPS)
    _add_game_flags(p)
    _add_out_flags(p, "json", "csv", "text")
    p.set_defaults(fn=_cmd_dynamics)

    p = sub.add_parser("enumerate", help="exhaustive small-n equilibrium census")
    p.add_argument("--n", type=textio.integer, required=True)
    p.add_argument("--witness-dir", type=pathlib.Path, default=None)
    _add_game_flags(p)
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("reduce", help="instance transformations")
    steps = p.add_subparsers(dest="transformation", required=True)
    p = steps.add_parser("set-cover-to-gadget", help="a set-cover instance's best-response gadget")
    p.add_argument("--instance", required=True)
    p.add_argument("--roles", type=pathlib.Path, default=None)
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_gadget)

    p = steps.add_parser("dominating-to-set-cover", help="a graph's dominating-set instance")
    p.add_argument("--graph", required=True)
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_dominating)

    p = sub.add_parser("preset", help="run a named experiment preset")
    p.add_argument("name", choices=sorted(PRESETS))
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_preset)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        code, outputs = args.fn(args)
        _write(outputs)
        return code
    except (DegpriceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
