"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 model error (the model cannot be
read, parsed, validated or normalized).  Solutions are
printed one per line, either as cube strings in component declaration
order or, with --json, as one JSON object per line mapping each component
name to "0", "1" or "*".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from .cubes import Cube, parse_state
from .dynamics import (
    BOOLEAN_MODES,
    attractors,
    build_stg,
    influence_graph,
    influence_to_dot,
    influence_to_json_obj,
    mp_projected_stg,
    reachability,
    stg_to_dot,
    stg_to_json_obj,
)
from .generator import FAMILIES, GenSpec, generate_bnet
from .network import NetworkError, NormalizationError, ParseError, parse_bnet
from .solver import fixed_points, maximal_trap_spaces, minimal_trap_spaces


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_model(path):
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    return parse_bnet(text)


def _parse_within(args, net):
    if args.within is None:
        return None
    return Cube.parse(args.within, net.names)


def _emit_cubes(stream, net, as_json, out):
    for cube in stream:
        if as_json:
            out.write(json.dumps(cube.to_dict(net.names)) + "\n")
        else:
            out.write(str(cube) + "\n")


def _cmd_fixpoints(args, out):
    net = _load_model(args.model)
    within = _parse_within(args, net)
    stream = (
        Cube.from_state(s) for s in fixed_points(net, within, limit=args.limit)
    )
    _emit_cubes(stream, net, args.json, out)
    return 0


def _cmd_trapspaces(args, out):
    net = _load_model(args.model)
    within = _parse_within(args, net)
    if args.max:
        stream = maximal_trap_spaces(net, within, limit=args.limit)
    else:
        stream = minimal_trap_spaces(net, within, limit=args.limit)
    _emit_cubes(stream, net, args.json, out)
    return 0


def _cmd_attractors(args, out):
    net = _load_model(args.model)
    start = None
    if args.reachable_from is not None:
        start = parse_state(args.reachable_from, net.n)
    stream = attractors(net, reachable_from=start, limit=args.limit)
    _emit_cubes(stream, net, args.json, out)
    return 0


def _cmd_reach(args, out):
    net = _load_model(args.model)
    x = parse_state(args.source, net.n)
    y = parse_state(args.target, net.n)
    verdict = reachability(net, x, y, mode=args.mode)
    out.write("true\n" if verdict else "false\n")
    return 0


def _cmd_stg(args, out):
    net = _load_model(args.model)
    restrict = None
    if args.restrict is not None:
        restrict = Cube.parse(args.restrict, net.names)
    if args.projected:
        if args.mode != "mp":
            raise UsageError("--projected requires --mode mp")
        stg = mp_projected_stg(net, restrict)
    else:
        stg = build_stg(net, args.mode, restrict)
    if args.format == "dot":
        out.write(stg_to_dot(stg))
    else:
        out.write(json.dumps(stg_to_json_obj(stg)) + "\n")
    return 0


def _cmd_influence(args, out):
    net = _load_model(args.model)
    graph = influence_graph(net)
    if args.format == "dot":
        out.write(influence_to_dot(graph))
    else:
        out.write(json.dumps(influence_to_json_obj(graph)) + "\n")
    return 0


def _cmd_generate(args, out):
    spec = GenSpec(n=args.nodes, gamma=args.gamma, family=args.family, seed=args.seed)
    text = generate_bnet(spec)
    if args.out:
        Path(args.out).write_text(text)
    else:
        out.write(text)
    return 0


def _cmd_bench(args, out):
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    if not args.timeout > 0:
        raise UsageError("--timeout must be > 0")
    if not Path(args.suite).is_dir():
        raise UsageError("suite directory %s not found" % args.suite)
    records = bench_mod.run_suite(args.suite, args.problem, args.timeout, args.jobs)
    tsv = bench_mod.to_tsv(records)
    if args.out:
        Path(args.out).write_text(tsv)
    else:
        out.write(tsv)
    out.write(bench_mod.format_summary(records))
    return 0


def build_parser():
    parser = _Parser(prog="bnkit", description="Boolean network analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_cmd(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("model", help="path to a .bnet model file")
        return cmd

    cmd = add_model_cmd("fixpoints", "enumerate fixed points")
    cmd.add_argument("--within", help="cube restriction ('01*' or 'a=1,b=0')")
    cmd.add_argument("--limit", type=int)
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(func=_cmd_fixpoints)

    cmd = add_model_cmd("trapspaces", "enumerate minimal or maximal trap spaces")
    group = cmd.add_mutually_exclusive_group()
    group.add_argument("--min", action="store_true", help="minimal (default)")
    group.add_argument("--max", action="store_true", help="maximal")
    cmd.add_argument("--within", help="cube restriction ('01*' or 'a=1,b=0')")
    cmd.add_argument("--limit", type=int)
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(func=_cmd_trapspaces)

    cmd = add_model_cmd("attractors", "enumerate most-permissive attractors")
    cmd.add_argument("--reachable-from", dest="reachable_from", help="binary state")
    cmd.add_argument("--limit", type=int)
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(func=_cmd_attractors)

    cmd = add_model_cmd("reach", "decide reachability between two states")
    cmd.add_argument("source", help="binary source state")
    cmd.add_argument("target", help="binary target state")
    cmd.add_argument(
        "--mode", default="mp", choices=("mp",) + BOOLEAN_MODES
    )
    cmd.set_defaults(func=_cmd_reach)

    cmd = add_model_cmd("stg", "emit the state transition graph")
    cmd.add_argument("--mode", default="asynchronous", choices=("mp",) + BOOLEAN_MODES)
    cmd.add_argument("--format", default="dot", choices=("dot", "json"))
    cmd.add_argument("--restrict", help="cube restriction")
    cmd.add_argument(
        "--projected",
        action="store_true",
        help="binary projection of the mp dynamics",
    )
    cmd.set_defaults(func=_cmd_stg)

    cmd = add_model_cmd("influence", "emit the signed influence graph")
    cmd.add_argument("--format", default="dot", choices=("dot", "json"))
    cmd.set_defaults(func=_cmd_influence)

    cmd = sub.add_parser("generate", help="generate a random network")
    cmd.add_argument("--nodes", type=int, required=True)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--gamma", type=float, default=2.5)
    cmd.add_argument("--family", default="inhibitor-dominant", choices=FAMILIES)
    cmd.add_argument("--out", help="output path (default: stdout)")
    cmd.set_defaults(func=_cmd_generate)

    cmd = sub.add_parser("bench", help="time-to-first-solution benchmark")
    cmd.add_argument("--suite", required=True, help="directory of .bnet files")
    cmd.add_argument("--problem", required=True, choices=bench_mod.PROBLEMS)
    cmd.add_argument("--timeout", type=float, default=3600.0)
    cmd.add_argument("--out", help="TSV output path (default: stdout)")
    cmd.add_argument("--jobs", type=int, default=1, help="parallel workers")
    cmd.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out)
    except UsageError as exc:
        err.write("usage error: %s\n" % exc)
        return 1
    except (ParseError, NetworkError, NormalizationError) as exc:
        err.write("model error: %s\n" % exc)
        return 2
    except (ValueError, OSError) as exc:
        # bad cubes, states and options (CubeError, DynamicsError and the
        # generator's checks are ValueErrors), or an --out path that
        # cannot be written
        err.write("usage error: %s\n" % exc)
        return 1


def entry():
    sys.exit(main())
