"""Command-line frontend.

Exit codes: 0 success (and "conjugate" for conj), 1 not conjugate,
2 usage or parse error (bad input: WordError), 3 a budget exhausted
(BudgetExceeded, for an enumeration or a sliding trajectory), 4 a check
that guards an answer failed, 5 any other internal error.  Codes 4 and 5
are program faults: a one-line message goes to stderr and no answer is
printed.  A reader that closes stdout early is no fault: the command keeps
its exit code.
"""

from __future__ import annotations

import itertools
import os
import re
import sys
from types import SimpleNamespace

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
from .sliding import is_rigid, sliding_trajectory
from .words import WordError, element_to_json, parse_word, render_element, render_simple

EXIT_OK = 0
EXIT_NOT_CONJUGATE = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3
EXIT_VERIFICATION = 4
EXIT_INTERNAL = 5


# Global flags, read before and after the command: flag -> (attribute, int
# or the tuple of choices, default, help)
_FLAGS = {
    "--structure": ("structure", ("artin", "bkl"), "artin", "Garside structure on B_n"),
    "--n": ("n", int, 4, "number of strands"),
    "--format": ("format", ("text", "json", "csv"), "text", "output format"),
    "--max-vertices": ("max_vertices", int, Budgets().max_vertices, "graph vertices"),
    "--max-set-size": ("max_set_size", int, Budgets().max_set_size, "elements of an enumerated set"),
    "--max-trajectory": ("max_trajectory", int, Budgets().max_trajectory_states,
                         "states of a sliding trajectory"),
}

# command -> (positionals, its own flags as in _FLAGS, one-line help)
_COMMANDS = {
    "nf": (("word",), {}, "left normal form of a word"),
    "slide": (("word",), {"-k": ("k", int, 1, "number of slidings (at most --max-trajectory)")},
              "iterated cyclic sliding"),
    "traj": (("word",), {}, "full sliding trajectory with prefixes"),
    "sc": (("word",), {}, "set of sliding circuits of the class"),
    "scg": (("word",), {}, "sliding circuits graph: vertices and arrows"),
    "conj": (("word1", "word2"), {}, "decide conjugacy; print a verified witness"),
    "table": ((), {"--inf": ("inf", int, 0, "summit infimum i")}, "length-1 class statistics row"),
    "rigid": (("word",), {"-k": ("k", int, 10, "longest prefix product shown (at most --max-trajectory)")},
              "rigidity verdict and prefix products"),
}

# the flags each scope reads; None is help
_HELP = {"-h": None, "--help": None}
_SCOPES = {None: {**_HELP, **_FLAGS}}
_SCOPES.update((name, {**_HELP, **_FLAGS, **spec[1]}) for name, spec in _COMMANDS.items())
# argparse's negative number; compiled on first use, not at import
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"


def _parse_args(argv):
    """Read argv against the flag and command tables by argparse's rules
    (tests/oracles.py keeps an argparse tree to check them against): global
    flags on either side of the command (the last occurrence wins),
    `--flag value`, `--flag=value`, `-k3`, long flags abbreviated to a
    unique prefix, `--` ending the options after the command, and values
    such as `-1` that look like negative numbers.  -h prints help and exits
    0; a usage error exits 2."""
    values = {spec[0]: spec[2] for spec in _FLAGS.values()}
    command, scope, rest, unknown = None, _SCOPES[None], [], []
    i = last = 0
    while i < len(argv):
        tok = argv[i]
        i += 1
        if tok == "--" and command is not None:
            if i == len(argv) and last != i - 1:
                # a `--` belongs to the positional next to it, and a last
                # one after a flag to none
                unknown.append(tok)
            rest += argv[i:]
            break
        flag, value = _option(scope, tok, command)
        if flag is None:
            if command is not None:
                rest.append(tok)
                last = i
                continue
            if tok not in _COMMANDS:
                _usage_error(None, f"argument command: invalid choice: {tok!r} "
                                   f"(choose from {', '.join(map(repr, _COMMANDS))})")
            command, scope = tok, _SCOPES[tok]
            values.update((spec[0], spec[2]) for spec in _COMMANDS[tok][1].values())
            continue
        if not flag:
            unknown.append(tok)
            continue
        spec = scope[flag]
        if spec is None:
            if value is not None:
                _usage_error(command, f"argument -h/--help: ignored explicit argument {value!r}")
            # an ambiguous flag before `--` is an error even after -h
            for word in argv[:argv.index("--") if "--" in argv else len(argv)]:
                _option(_SCOPES[None], word, None)
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        if value is None:
            if i == len(argv) or argv[i] == "--" or _option(scope, argv[i], command)[0] is not None:
                _usage_error(command, f"argument {flag}: expected one argument")
            value = argv[i]
            i += 1
        attr, kind, _, _ = spec
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(command, f"argument {flag}: invalid int value: {value!r}")
        elif value not in kind:
            _usage_error(command, f"argument {flag}: invalid choice: {value!r} "
                                  f"(choose from {', '.join(map(repr, kind))})")
        values[attr] = value
    if command is None:
        _usage_error(None, "the following arguments are required: command")
    names = _COMMANDS[command][0]
    if len(rest) < len(names):
        _usage_error(command, "the following arguments are required: "
                              + ", ".join(names[len(rest):]))
    if unknown or len(rest) > len(names):
        _usage_error(None, "unrecognized arguments: " + " ".join(unknown + rest[len(names):]))
    values.update(zip(names, rest))
    values["command"] = command
    return SimpleNamespace(**values)


def _option(scope, tok, command):
    """argparse's reading of one token: (flag, explicit value or None) for
    a flag of scope, ("", None) for an unknown flag and (None, None) for a
    positional.  An ambiguous prefix is a usage error."""
    if tok[:1] != "-" or len(tok) == 1 or tok == "--":
        return None, None
    if tok in scope:
        return tok, None
    flag, eq, value = tok.partition("=")
    if eq and flag in scope:
        return flag, value
    if tok[1] == "-":
        matches = [f for f in scope if f.startswith(flag)]
        value = value if eq else None
    else:
        # a short flag and its value in one token, as -k3
        matches = [tok[:2]] if tok[:2] in scope else []
        value = tok[2:]
    if len(matches) > 1:
        _usage_error(command, f"ambiguous option: {tok} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if re.match(_NEGATIVE, tok) or " " in tok:
        return None, None
    return "", None


def _usage(command) -> str:
    if command is None:
        return "usage: garside [options] <command> ...\n"
    return " ".join(("usage: garside", command, "[options]") + _COMMANDS[command][0]) + "\n"


def _help(command) -> str:
    lines = [_usage(command)]
    if command is None:
        lines += ["Braid and Garside group conjugacy via cyclic sliding.", "", "commands:"]
        lines += [f"  {name:<26}{spec[2]}" for name, spec in _COMMANDS.items()]
    else:
        lines.append(_COMMANDS[command][2])
    lines += ["", "options (the global ones also before the command):",
              f"  {'-h, --help':<26}show this help and exit"]
    for flag, spec in _SCOPES[command].items():
        if spec is not None:
            _, kind, default, text = spec
            name = f"{flag} {'N' if kind is int else '{' + ','.join(kind) + '}'}"
            lines.append(f"  {name:<26}{text} (default: {default})")
    return "\n".join(lines) + "\n"


def _usage_error(command, message: str):
    prog = "garside" if command is None else f"garside {command}"
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(EXIT_ERROR)


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


def _dumps(obj) -> str:
    import json  # only the --format json paths load it
    return json.dumps(obj)


def _emit_element(x, args) -> str:
    if args.format == "json":
        return _dumps(element_to_json(x)) + "\n"
    return render_element(x) + "\n"


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code, lines = _dispatch(args)
        _write(lines)
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
    return code


def _write(lines) -> None:
    """Write the lines of an answer, each rendered as it is written."""
    try:
        for line in lines:
            sys.stdout.write(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (`garside ... | head`): not a fault, and the answer's
        # exit code stands.  stdout now writes to devnull, so the flush at
        # interpreter exit has no pipe to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _dispatch(args) -> tuple:
    """The command's exit code and its stdout, an iterable of lines."""
    budgets = _budgets(args)
    st = _structure(args)

    if args.command == "nf":
        return EXIT_OK, [_emit_element(parse_word(st, args.word), args)]

    if args.command == "slide":
        x = parse_word(st, args.word)
        k = _slidings(args)
        traj = sliding_trajectory(x, budgets.max_trajectory_states)
        return EXIT_OK, [_emit_element(traj.state(k), args)]

    if args.command == "traj":
        x = parse_word(st, args.word)
        traj = sliding_trajectory(x, budgets.max_trajectory_states)
        if args.format == "json":
            return EXIT_OK, [_dumps({
                "states": [element_to_json(s) for s in traj.states],
                "prefixes": [list(p) for p in traj.prefixes],
                "entry_index": traj.entry_index,
                "period": traj.period,
            }) + "\n"]
        return EXIT_OK, itertools.chain(
            (f"{i}: {render_element(s)}  [prefix {render_simple(st, traj.prefixes[i])}]\n"
             for i, s in enumerate(traj.states)),
            [f"entry {traj.entry_index}, period {traj.period}\n"])

    if args.command == "sc":
        x = parse_word(st, args.word)
        vertices = compute_scg(x, budgets).vertices
        if args.format == "json":
            return EXIT_OK, [_dumps([element_to_json(v) for v in vertices]) + "\n"]
        return EXIT_OK, (render_element(v) + "\n" for v in vertices)

    if args.command == "scg":
        x = parse_word(st, args.word)
        graph = compute_scg(x, budgets)
        index = {v: i for i, v in enumerate(graph.vertices)}
        if args.format == "json":
            return EXIT_OK, [_dumps({
                "vertices": [element_to_json(v) for v in graph.vertices],
                "arrows": [
                    {"source": index[a], "conjugator": list(c), "target": index[b]}
                    for a, c, b in graph.arrows
                ],
            }) + "\n"]
        arrows = sorted(graph.arrows, key=lambda arrow: (index[arrow[0]], arrow[1]))
        return EXIT_OK, itertools.chain(
            (f"v{i}: {render_element(v)}\n" for i, v in enumerate(graph.vertices)),
            (f"v{index[a]} --[{render_simple(st, c)}]--> v{index[b]}\n" for a, c, b in arrows))

    if args.command == "conj":
        x = parse_word(st, args.word1)
        y = parse_word(st, args.word2)
        c = solve_csp(x, y, budgets)
        if c is None:
            no = _dumps({"conjugate": False}) if args.format == "json" else "NO"
            return EXIT_NOT_CONJUGATE, [no + "\n"]
        if args.format == "json":
            return EXIT_OK, [_dumps({"conjugate": True,
                                     "witness": element_to_json(c)}) + "\n"]
        return EXIT_OK, [f"YES {render_element(c)}\n"]

    if args.command == "table":
        if args.n < 3:
            raise WordError("table needs --n 3 or more: B_2 has no simple "
                            "strictly between 1 and Delta")
        classes = enumerate_length_one_classes(st, args.inf, budgets)
        row = statistics_row(args.structure, args.n, args.inf, classes)
        return EXIT_OK, [emit_json([row]) if args.format == "json" else emit_csv([row])]

    if args.command == "rigid":
        x = parse_word(st, args.word)
        k = _slidings(args)
        verdict = is_rigid(x)
        traj = sliding_trajectory(x, budgets.max_trajectory_states)
        chain = traj.prefix_products(k, budgets.max_set_size)
        if args.format == "json":
            # the array is written one product at a time, with json.dumps's
            # separators, so no JSON form of the whole chain is ever held
            return EXIT_OK, itertools.chain(
                [f'{{"rigid": {_dumps(verdict)}, "prefix_products": ['],
                ((", " if i else "") + _dumps(element_to_json(c)) for i, c in enumerate(chain)),
                ["]}\n"])
        return EXIT_OK, itertools.chain(
            ["rigid\n" if verdict else "not rigid\n"],
            (f"P_{i}: {render_element(c)}\n" for i, c in enumerate(chain)))

    raise RuntimeError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
