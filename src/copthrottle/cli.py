"""Command-line surface: analyze graphs, generate families, run the
verification suites, and play against the exact optimal opponent.

Exit codes are frozen for automation: 0 success, 1 invalid input,
2 budget exceeded, 3 verification failure.  Identical (command, input,
seed, budget) invocations produce byte-identical JSON/CSV output; every
number printed is recomputed by the underlying module call, never by
CLI-side arithmetic.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Optional, Sequence

from .chordal import is_chordal
from .engine import (
    GameState,
    canonical_config,
    capt_k,
    optimal_moves,
    solve_k,
    team_moves,
    value_to_json,
)
from .families import _FAMILY_PARAMS, generate_named
from .graph import BudgetExceeded, DEFAULT_BUDGET, Graph, radius_and_center
from .graphio import GraphFormatError, format_graph, load_graph
from .throttling import throttling_report
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; that code means budget here
        self.print_usage(sys.stderr)
        raise CliInputError(message)


class CliInputError(ValueError):
    pass


def _parse_params(items: Optional[Sequence[str]]) -> dict:
    params = {}
    for item in items or ():
        if "=" not in item:
            raise CliInputError(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = int(value)
        except ValueError as exc:
            raise CliInputError(f"--param value must be an integer: {item!r}") from exc
    return params


def _resolve_graph(args) -> Graph:
    if args.input and args.family:
        raise CliInputError("give exactly one of --input and --family")
    if args.input:
        try:
            return load_graph(args.input)
        except (OSError, GraphFormatError) as exc:
            raise CliInputError(f"cannot load {args.input}: {exc}") from exc
    if args.family:
        try:
            return generate_named(args.family, _parse_params(args.param))
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
    raise CliInputError("give one of --input or --family")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="copthrottle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def family(p):
        p.add_argument("--family", help="named family (see `generate --list`)")
        p.add_argument("--param", action="append", help="family parameter key=value")

    def graph(p):
        p.add_argument("--input", help="graph file (.json, .g6, or edge list)")
        family(p)
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p_an = sub.add_parser("analyze", help="throttling table, cop number, chordality")
    graph(p_an)
    p_an.add_argument("--format", default="text", choices=["text", "json", "csv", "dot"])
    p_an.add_argument("--k-max", type=int, default=None, dest="k_max")

    p_gen = sub.add_parser("generate", help="emit a family member")
    family(p_gen)
    p_gen.add_argument("--format", default="json", choices=["json", "dot"])
    p_gen.add_argument("--list", action="store_true", help="list family names")
    p_gen.add_argument("--seed", type=int, default=0)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True, help="suite name or 'all'")
    p_ver.add_argument("--count", type=int, default=None)
    p_ver.add_argument("--max-n", type=int, default=None, dest="max_n")
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--budget", type=int, default=None)
    p_ver.add_argument("--param", action="append", help="suite parameter key=value")
    p_ver.add_argument("--input", help="graph6 corpus file (outerplanar suite)")
    p_ver.add_argument("--format", default="text", choices=["text", "json"])

    p_pl = sub.add_parser("play", help="play against the exact optimal opponent")
    graph(p_pl)
    p_pl.add_argument("--cops", type=int, default=1)
    p_pl.add_argument("--as", dest="side", default="robber", choices=["robber", "cops"])
    return parser


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    g = _resolve_graph(args)
    if args.format == "dot":  # the graph alone: nothing to solve
        sys.stdout.write(format_graph(g, "dot"))
        return EXIT_OK
    report = throttling_report(g, k_max=args.k_max, budget=args.budget)
    chordal = is_chordal(g)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
        return EXIT_OK
    if args.format == "json":
        obj = report.to_json_obj()
        obj["chordal"] = chordal
        if chordal and g.is_connected():
            rad, _ = radius_and_center(g)
            obj["one_plus_radius"] = 1 + rad
            obj["prod_equals_one_plus_radius"] = report.th_prod == 1 + rad
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        return EXIT_OK
    name = g.name or "graph"
    print(f"{name}: n={g.n} m={g.m}  chordal={'yes' if chordal else 'no'}")
    print(f"cop number c(G) = {report.cop_number}")
    print("  k  capt_k  k+capt  k(1+capt)  witness")
    for row in report.rows:
        wit = " ".join(map(str, row.witness)) if row.witness is not None else "-"
        print(
            f"  {row.k:<3}{value_to_json(row.capt):<8}{value_to_json(row.th_sum):<8}"
            f"{value_to_json(row.th_prod):<11}{wit}"
        )
    print(f"th_c(G) = {report.th_sum}  at k={report.th_sum_k}, witness {report.th_sum_witness}")
    print(f"th_c_x(G) = {report.th_prod}  at k={report.th_prod_k}, witness {report.th_prod_witness}")
    if chordal and g.is_connected():
        rad, center = radius_and_center(g)
        verdict = "holds" if report.th_prod == 1 + rad else "VIOLATED"
        print(f"chordal product identity th_c_x = 1 + rad = {1 + rad}: {verdict}")
    if not report.complete:
        print("note: k-sweep truncated by --k-max before the pruning rule closed it")
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    if args.list:
        for name, params in sorted(_FAMILY_PARAMS.items()):
            print(f"{name}({', '.join(params)})" if params else f"{name}()")
        return EXIT_OK
    if not args.family:
        raise CliInputError("generate needs --family (or --list)")
    params = _parse_params(args.param)
    if args.seed and "seed" not in params and "seed" in _FAMILY_PARAMS.get(args.family.lower(), ()):
        params["seed"] = args.seed
    try:
        g = generate_named(args.family, params)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    sys.stdout.write(format_graph(g, args.format))
    if args.format == "json":
        sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    if names[0] not in SUITES:
        raise CliInputError(f"unknown suite {names[0]!r}; choose from {sorted(SUITES)} or 'all'")
    options = {"seed": args.seed, "count": args.count, "max_n": args.max_n, "budget": args.budget}
    params = _parse_params(args.param)
    if "l" in params:  # the m-ell suite's parameter is spelled ell
        params["ell"] = params.pop("l")
    if args.input:
        params["graph6_path"] = args.input
    for key in params:
        if key in options:
            raise CliInputError(f"--param {key}: use --{key.replace('_', '-')}")
        readers = [name for name in sorted(SUITES) if _reads(SUITES[name], key)]
        if not set(readers) & set(names):
            given = "--input" if key == "graph6_path" else f"--param {key}"
            raise CliInputError(f"no selected suite reads {given}; "
                                f"suites that do: {', '.join(readers) or 'none'}")
    results = [run_suite(name, **options, **params) for name in names]
    if args.format == "json":
        payload = [
            {
                "suite": r.name,
                "passed": r.passed,
                "failed": r.failed,
                "details": r.details,
                "first_counterexample": r.first_counterexample,
            }
            for r in results
        ]
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for r in results:
            print(r.summary())
            for d in r.details:
                print(f"    {d}")
            if r.first_counterexample and r.first_counterexample.get("graph"):
                print(f"    first counterexample graph: "
                      f"{json.dumps(r.first_counterexample['graph'], sort_keys=True)}")
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY


def _reads(suite, key: str) -> bool:
    """Whether ``suite`` names ``key`` among its keyword parameters."""
    param = inspect.signature(suite).parameters.get(key)
    return param is not None and param.kind is not param.VAR_KEYWORD


# ---------------------------------------------------------------------------
# play


def cmd_play(args) -> int:
    g = _resolve_graph(args)
    k = args.cops
    if k < 1:
        raise CliInputError("--cops must be at least 1")
    table = solve_k(g, k, budget=args.budget)
    human_robber = args.side == "robber"
    print(f"Cops and Robbers on {g.name or 'graph'} (n={g.n}), {k} cop(s); "
          f"you play the {'robber' if human_robber else 'cops'}.")

    if human_robber:
        value, cops = capt_k(g, k, table=table)
        if cops is None:
            cops = canonical_config(tuple(range(min(k, g.n))) + (0,) * max(0, k - g.n))
        print(f"cops open at {_spaced(cops)} (game value {value_to_json(value)})")
        start = _read_move("choose your start: move v> ", "move", 1, lambda vs: vs[0] < g.n,
                           f"vertex out of range; pick one of 0..{g.n - 1}",
                           "say: move v   (or quit)")
        if start is None:
            return EXIT_OK
        robber = start[0]
    else:
        placed = _read_move(f"place your {k} cop(s): place v1 ... vk> ", "place", k,
                            lambda vs: all(v < g.n for v in vs),
                            f"vertices must be in 0..{g.n - 1}", f"say: place v1 ... v{k}")
        if placed is None:
            return EXIT_OK
        cops = canonical_config(placed)
        row = [table.state_value(cops, r) for r in range(g.n)]
        robber = row.index(max(row))
        print(f"robber starts at {robber} (game value {value_to_json(max(row))})")

    rounds = 0
    while robber not in cops:
        if human_robber:
            cops = optimal_moves(g, table, GameState(cops, robber), "cops")[0]
            print(f"round {rounds + 1}: cops move to {_spaced(cops)}")
        else:
            moved = _read_move(
                f"round {rounds + 1}: your cops at {_spaced(cops)}; move v1 ... vk> ", "move", k,
                lambda vs: canonical_config(vs) in team_moves(g, cops),
                "illegal team move; each cop may stay or step to a neighbor\n"
                f"your cops: {_spaced(cops)}",
                f"say: move v1 ... v{k}  (or hint / value / quit)",
                value=lambda: table.state_value(cops, robber),
                hint=lambda: "optimal cop moves: " + "; ".join(
                    map(_spaced, optimal_moves(g, table, GameState(cops, robber), "cops")[:5])),
            )
            if moved is None:
                break
            cops = canonical_config(moved)
        rounds += 1
        if robber in cops:
            break
        if human_robber:
            moved = _read_move(
                f"robber at {robber}; move v> ", "move", 1, lambda vs: vs[0] in g.closed[robber],
                f"illegal move; legal: {_spaced(g.closed[robber])}",
                "say: move v  (or hint / value / quit)",
                value=lambda: max(table.state_value(cops, r) for r in g.closed[robber]),
                hint=lambda: "optimal robber moves: "
                + _spaced(optimal_moves(g, table, GameState(cops, robber), "robber")),
            )
            if moved is None:
                break
            robber = moved[0]
        else:
            robber = optimal_moves(g, table, GameState(cops, robber), "robber")[0]
            print(f"robber moves to {robber}")
    if robber in cops:
        print(f"capture! robber caught at {robber} after {rounds} round(s).")
    else:
        print(f"game abandoned after {rounds} round(s).")
    return EXIT_OK


def _read_move(prompt: str, verb: str, count: int, legal, refusal: str, usage: str,
               value=None, hint=None) -> Optional[list[int]]:
    """Prompt until a line ``verb v1 ... v<count>`` passes ``legal``; return
    its vertices, or None on ``quit`` or end of input.  ``value`` and
    ``hint``, where given, answer those words; elsewhere they get ``usage``."""
    while True:
        print(prompt, end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            return None
        print(line.rstrip("\n"))
        words = line.split()
        if not words:
            continue
        if words[0] == "quit":
            return None
        if words[0] == "value" and value is not None:
            print(f"value: {value_to_json(value())}")
        elif words[0] == "hint" and hint is not None:
            print(hint())
        elif words[0] == verb and len(words) == count + 1 and all(w.isdecimal() for w in words[1:]):
            vs = [int(w) for w in words[1:]]
            if legal(vs):
                return vs
            print(refusal)
        else:
            print(usage)


def _spaced(vertices) -> str:
    return " ".join(map(str, vertices))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command = {
            "analyze": cmd_analyze,
            "generate": cmd_generate,
            "verify": cmd_verify,
            "play": cmd_play,
        }[args.command]
        return command(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
