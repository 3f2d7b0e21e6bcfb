"""Command-line front end.

Subcommands: construct, cost, best-response, verify, dynamics,
enumerate, reduce, preset.  ``preset NAME`` runs one of the paper's
claims from ``claims.PRESETS`` and prints its checks.  JSON is the
machine format; CSV exists for plotting convergence curves; text is a
short human summary.  Only cost, verify and dynamics take --format.  Every cost prints through
``costs.plain``.  Exit codes (``EXIT_CODES``): 0 success, 1 assertion
failure, 2 usage error, 3 resource cap exceeded.
"""

import argparse
import json
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
# is a ValueError by its class (GraphFormatError, InfeasibleInstanceError)
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


def _add_game_flags(p):
    p.add_argument("--game", choices=(NCG, AOG), default=GameConfig.variant)
    p.add_argument("--k", default="global", help="locality radius, integer or 'global'")
    p.add_argument("--beta", type=_price, default=GameConfig.price_beta)
    p.add_argument("--gamma", type=_price, default=GameConfig.price_gamma)


def _price(text):
    """A price coefficient kept exact: "0.1" and "1/2" become Fractions."""
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        # argparse turns a ValueError, not this, into a usage error
        raise ValueError(f"zero denominator in {text!r}") from None
    return value.numerator if value.denominator == 1 else value


def _add_out_flags(p, *formats):
    p.add_argument("--out", type=pathlib.Path, default=None)
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])


def _config_from(args):
    try:
        k = None if args.k == "global" else int(args.k)
    except ValueError:
        raise ValueError(f"--k must be an integer or 'global', got {args.k!r}")
    return GameConfig(
        variant=args.game, locality_k=k, price_beta=args.beta, price_gamma=args.gamma
    )


def _emit(args, text):
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)


def _read_graph(path):
    return textio.parse_graph_file(pathlib.Path(path).read_text())


def _cmd_construct(args):
    name = args.family
    if name in constructions.FIGURE_NAMES:
        if args.n is not None:
            raise ValueError(f"construct {name} is a packaged network; drop --n")
        g = constructions.build_figure_network(name)
    elif name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    elif args.n is None:
        raise ValueError(f"construct {name} requires --n")
    else:
        g = FAMILIES[name](args.n)
    _emit(args, textio.serialize_graph(g))
    return EXIT_OK


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
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, textio.to_json_text(data))
    return EXIT_OK


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
    _emit(args, textio.to_json_text(data))
    return EXIT_OK


def _cmd_verify(args):
    g = _read_graph(args.graph)
    cfg = _config_from(args)
    report = verify_equilibrium(g, cfg, level=args.level)
    data = {"config": cfg.describe()}
    data.update(report.as_dict())
    if args.format == "text":
        witness = json.dumps(data["witness"], sort_keys=True)
        _emit(args, "equilibrium\n" if report.is_equilibrium else f"witness: {witness}\n")
    else:
        _emit(args, textio.to_json_text(data))
    return EXIT_OK if report.is_equilibrium else EXIT_ASSERTION


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
        header = ("n", "steps", "rounds", "diameter", "social_cost")
        _emit(args, textio.to_csv_text(header, [trace.csv_row()]))
    elif args.format == "text":
        *_, diameter, cost = trace.csv_row()
        _emit(
            args,
            f"outcome: {trace.outcome}\nsteps: {len(trace.steps)}\n"
            f"activations: {trace.activations}\nrounds: {trace.rounds}\n"
            f"final diameter: {diameter}\nfinal social cost: {cost}\n",
        )
    else:
        _emit(args, textio.to_json_text(trace.as_dict()))
    return EXIT_OK


def _cmd_enumerate(args):
    cfg = _config_from(args)
    summary = equilibrium_census(args.n, cfg)
    if args.witness_dir is not None:
        args.witness_dir.mkdir(parents=True, exist_ok=True)
        for label, graph in (
            ("opt", summary.opt_witness),
            ("best-eq", summary.best_witness),
            ("worst-eq", summary.worst_witness),
        ):
            (args.witness_dir / f"{label}.graph").write_text(textio.serialize_graph(graph))
    _emit(args, textio.to_json_text(summary.as_dict()))
    return EXIT_OK


def _cmd_reduce(args):
    # the flags each transformation requires, then those it also takes
    needs = {
        "set-cover-to-gadget": (("instance",), ("roles",)),
        "dominating-to-set-cover": (("graph", "q"), ()),
    }
    required, optional = needs[args.transformation]
    for flag in ("instance", "graph", "q", "roles"):
        given = getattr(args, flag) is not None
        if flag in required and not given:
            raise ValueError(f"reduce {args.transformation} requires --{flag}")
        if given and flag not in required + optional:
            raise ValueError(f"reduce {args.transformation} takes no --{flag}")
    if args.transformation == "set-cover-to-gadget":
        inst = constructions.parse_set_cover_file(pathlib.Path(args.instance).read_text())
        layout = constructions.set_cover_to_best_response_gadget(inst)
        _emit(args, textio.serialize_graph(layout.graph))
        if args.roles is not None:
            roles = {
                "layout": layout.as_dict(),
                "role_map": {str(v): layout.role_map[v] for v in sorted(layout.role_map)},
            }
            args.roles.write_text(textio.to_json_text(roles))
    else:
        g = _read_graph(args.graph)
        inst = constructions.dominating_set_to_set_cover(g, args.q)
        _emit(args, constructions.serialize_set_cover(inst))
    return EXIT_OK


def _cmd_preset(args):
    fn = PRESETS[args.name]
    checks, passed = fn()
    report = {"preset": args.name, "passed": passed, "checks": checks}
    _emit(args, textio.to_json_text(report))
    return EXIT_OK if passed else EXIT_ASSERTION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="degprice", description="degree-priced network creation game toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a named network as a graph file")
    p.add_argument("family", help=f"{'|'.join(FAMILIES)} or a figure name")
    p.add_argument("--n", type=int, default=None)
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("cost", help="agent cost breakdowns and social cost")
    p.add_argument("graph")
    p.add_argument("--agent", type=int, default=None)
    _add_game_flags(p)
    _add_out_flags(p, "json", "text")
    p.set_defaults(fn=_cmd_cost)

    p = sub.add_parser("best-response", help="exact best response for one agent")
    p.add_argument("graph")
    p.add_argument("--agent", type=int, required=True)
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
        help="scripted run: 'adversarial', a named sequence, or a JSON move file",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=MAX_STEPS)
    _add_game_flags(p)
    _add_out_flags(p, "json", "csv", "text")
    p.set_defaults(fn=_cmd_dynamics)

    p = sub.add_parser("enumerate", help="exhaustive small-n equilibrium census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--witness-dir", type=pathlib.Path, default=None)
    _add_game_flags(p)
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("reduce", help="instance transformations")
    p.add_argument("transformation", choices=("set-cover-to-gadget", "dominating-to-set-cover"))
    p.add_argument("--instance", default=None)
    p.add_argument("--graph", default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--roles", type=pathlib.Path, default=None)
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("preset", help="run a named experiment preset")
    p.add_argument("name", choices=sorted(PRESETS))
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_preset)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DegpriceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
