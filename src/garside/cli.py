"""Command-line frontend.

Exit codes: 0 success (and "conjugate" for conj), 1 not conjugate,
2 usage or parse error (bad input: WordError), 3 a budget exhausted
(BudgetExceeded, for an enumeration or a sliding trajectory), 4 a check
that guards an answer failed, 5 any other internal error.  Codes 4 and 5
are program faults: a one-line message goes to stderr and no answer is
printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .artin import artin_structure
from .bkl import bkl_structure
from .circuits import compute_scg, solve_csp
from .core import BudgetExceeded, Budgets, VerificationError
from .experiments import (
    emit_csv,
    emit_json,
    enumerate_length_one_classes,
    statistics_row,
)
from .sliding import is_rigid, prefix_products, sliding_trajectory
from .words import WordError, element_to_json, parse_word, render_element, render_simple

EXIT_OK = 0
EXIT_NOT_CONJUGATE = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3
EXIT_VERIFICATION = 4
EXIT_INTERNAL = 5


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser as it was.  Global
    # flags live in a parent parser so they are accepted both before
    # and after the subcommand; SUPPRESS keeps the subparser occurrence from
    # clobbering an earlier one with a default
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("common options")
    g.add_argument("--structure", choices=["artin", "bkl"],
                   default=argparse.SUPPRESS,
                   help="Garside structure on B_n (default: artin)")
    g.add_argument("--n", type=int, default=argparse.SUPPRESS,
                   help="number of strands (default: 4)")
    g.add_argument("--format", choices=["text", "json", "csv"],
                   default=argparse.SUPPRESS)
    g.add_argument("--max-vertices", type=int, default=argparse.SUPPRESS)
    g.add_argument("--max-set-size", type=int, default=argparse.SUPPRESS)
    g.add_argument("--max-trajectory", type=int, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="garside",
        description="Braid and Garside group conjugacy via cyclic sliding.",
        parents=[common],
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", parents=[common], help="left normal form of a word")
    p.add_argument("word")

    p = sub.add_parser("slide", parents=[common], help="iterated cyclic sliding")
    p.add_argument("word")
    p.add_argument("-k", type=int, default=1,
                   help="number of slidings (at most --max-trajectory)")

    p = sub.add_parser("traj", parents=[common],
                       help="full sliding trajectory with prefixes")
    p.add_argument("word")

    p = sub.add_parser("sc", parents=[common],
                       help="set of sliding circuits of the class")
    p.add_argument("word")

    p = sub.add_parser("scg", parents=[common],
                       help="sliding circuits graph: vertices and arrows")
    p.add_argument("word")

    p = sub.add_parser("conj", parents=[common],
                       help="decide conjugacy; print a verified witness")
    p.add_argument("word1")
    p.add_argument("word2")

    p = sub.add_parser("table", parents=[common],
                       help="length-1 class statistics row")
    p.add_argument("--inf", type=int, default=0, help="summit infimum i")

    p = sub.add_parser("rigid", parents=[common],
                       help="rigidity verdict and prefix products")
    p.add_argument("word")
    p.add_argument("-k", type=int, default=10,
                   help="longest prefix product shown (at most --max-trajectory)")

    return parser


# filled in after parsing; argparse.set_defaults would mutate the shared
# parent-parser actions and clobber flags given before the subcommand
_DEFAULTS = {
    "structure": "artin", "n": 4, "format": "text",
    "max_vertices": Budgets.max_vertices,
    "max_set_size": Budgets.max_set_size,
    "max_trajectory": Budgets.max_trajectory_states,
}


def _structure(args):
    if args.n < 2:
        raise WordError("need at least 2 strands")
    # the constructors build n-1 atoms (classical) or n(n-1)/2 atoms (dual)
    # of n entries each; bound that before allocating it
    n = args.n
    entries = (n - 1) * n if args.structure == "artin" else n * n * (n - 1) // 2
    if entries > args.max_set_size:
        raise BudgetExceeded(
            f"the {args.structure} atom table for --n {n} has {entries} entries, "
            f"over --max-set-size {args.max_set_size}"
        )
    return artin_structure(n) if args.structure == "artin" else bkl_structure(n)


def _budgets(args) -> Budgets:
    for flag in ("max_vertices", "max_set_size", "max_trajectory"):
        value = getattr(args, flag)
        if value < 0:
            flag = "--" + flag.replace("_", "-")
            raise WordError(f"{flag} must be non-negative, got {value}")
    return Budgets(
        max_vertices=args.max_vertices,
        max_set_size=args.max_set_size,
        max_trajectory_states=args.max_trajectory,
    )


def _slidings(args) -> int:
    """The -k of slide and rigid: k slidings, refused past the trajectory
    budget before any is done."""
    if args.k < 0:
        raise WordError(f"-k must be non-negative, got {args.k}")
    if args.k > args.max_trajectory:
        raise BudgetExceeded(
            f"-k {args.k} slidings exceed --max-trajectory {args.max_trajectory}"
        )
    return args.k


def _emit_element(x, args) -> str:
    if args.format == "json":
        return json.dumps(element_to_json(x))
    return render_element(x)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    for key, value in _DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        return _dispatch(args)
    except WordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except Exception as exc:
        # a program fault must not exit 1, which means "not conjugate"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _dispatch(args) -> int:
    budgets = _budgets(args)
    st = _structure(args)

    if args.command == "nf":
        print(_emit_element(parse_word(st, args.word), args))
        return EXIT_OK

    if args.command == "slide":
        x = parse_word(st, args.word)
        k = _slidings(args)
        traj = sliding_trajectory(x, budgets.max_trajectory_states)
        print(_emit_element(traj.state(k), args))
        return EXIT_OK

    if args.command == "traj":
        x = parse_word(st, args.word)
        traj = sliding_trajectory(x, budgets.max_trajectory_states)
        if args.format == "json":
            print(json.dumps({
                "states": [element_to_json(s) for s in traj.states],
                "prefixes": [list(p) for p in traj.prefixes],
                "entry_index": traj.entry_index,
                "period": traj.period,
            }))
        else:
            for i, s in enumerate(traj.states):
                print(f"{i}: {render_element(s)}  [prefix {render_simple(st, traj.prefixes[i])}]")
            print(f"entry {traj.entry_index}, period {traj.period}")
        return EXIT_OK

    if args.command == "sc":
        x = parse_word(st, args.word)
        vertices = compute_scg(x, budgets).vertices
        if args.format == "json":
            print(json.dumps([element_to_json(v) for v in vertices]))
        else:
            for v in vertices:
                print(render_element(v))
        return EXIT_OK

    if args.command == "scg":
        x = parse_word(st, args.word)
        graph = compute_scg(x, budgets)
        index = {v: i for i, v in enumerate(graph.vertices)}
        if args.format == "json":
            print(json.dumps({
                "vertices": [element_to_json(v) for v in graph.vertices],
                "arrows": [
                    {"source": index[a], "conjugator": list(c), "target": index[b]}
                    for a, c, b in graph.arrows
                ],
            }))
        else:
            for i, v in enumerate(graph.vertices):
                print(f"v{i}: {render_element(v)}")
            for a, c, b in sorted(graph.arrows, key=lambda arrow: (index[arrow[0]], arrow[1])):
                print(f"v{index[a]} --[{render_simple(st, c)}]--> v{index[b]}")
        return EXIT_OK

    if args.command == "conj":
        x = parse_word(st, args.word1)
        y = parse_word(st, args.word2)
        witness = solve_csp(x, y, budgets)
        if witness is None:
            print("NO")
            return EXIT_NOT_CONJUGATE
        if args.format == "json":
            print(json.dumps({"conjugate": True,
                              "witness": element_to_json(witness.conjugator)}))
        else:
            print(f"YES {render_element(witness.conjugator)}")
        return EXIT_OK

    if args.command == "table":
        if args.n < 3:
            raise WordError("table needs --n 3 or more: B_2 has no simple "
                            "strictly between 1 and Delta")
        classes = enumerate_length_one_classes(st, args.inf, budgets)
        row = statistics_row(args.structure, args.n, args.inf, classes)
        if args.format == "json":
            sys.stdout.write(emit_json([row]))
        else:
            sys.stdout.write(emit_csv([row]))
        return EXIT_OK

    if args.command == "rigid":
        x = parse_word(st, args.word)
        k = _slidings(args)
        verdict = is_rigid(x)
        chain = prefix_products(x, k, budgets.max_set_size)
        if args.format == "json":
            print(json.dumps({"rigid": verdict,
                              "prefix_products": [element_to_json(c) for c in chain]}))
        else:
            print("rigid" if verdict else "not rigid")
            for i, c in enumerate(chain):
                print(f"P_{i}: {render_element(c)}")
        return EXIT_OK

    raise RuntimeError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
