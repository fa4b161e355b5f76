"""Command-line entry point.

Subcommands cover the full pipeline: ``eval`` a circuit, ``reduce`` it to a
game graph, ``solve`` a graph file, ``verify`` the equivalence for one
assignment, ``gen`` a random circuit, ``fuzz`` many of them, and ``play`` a
match interactively against the optimal opponent.

Machine-readable output goes to standard out in the formats the library
defines; prompts and commentary go to standard error.  Exit codes: 0 on
success, 1 when a verified property fails to hold, 2 on usage or input
errors and when memory runs out.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from .circuits import (
    CircuitError,
    evaluate,
    generate_random,
    parse_circuit,
    serialize_circuit,
)
from .reduction import (
    BUILDERS,
    MODES,
    GraphError,
    export_graph,
    import_graph,
)
from .solver import (
    CAT,
    MOUSE,
    GameInstance,
    GameState,
    Outcome,
    SolverError,
    play_match,
    solve,
)
from .strategies import StrategyError
from .verify import fuzz_equivalence, verify_equivalence


class UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise UsageError(f"{path}: not UTF-8 text") from None


def _read_circuit(path: str):
    return parse_circuit(_read_text(path))


def _cmd_eval(args) -> int:
    circuit = _read_circuit(args.circuit)
    bit, _values = evaluate(circuit, args.bits)
    print(bit)
    return 0


def _cmd_reduce(args) -> int:
    circuit = _read_circuit(args.circuit)
    graph, cmap = BUILDERS[args.mode](circuit, args.bits)
    sys.stdout.write(export_graph(graph, cmap, fmt=args.format))
    return 0


def _parse_state(raw: str) -> GameState:
    parts = raw.split(",")
    if len(parts) != 3 or parts[2] not in (CAT, MOUSE):
        raise UsageError(
            f"--state wants cat,mouse,turn with turn Cat or Mouse, got {raw!r}"
        )
    return GameState(parts[0], parts[1], parts[2])


def _cmd_solve(args) -> int:
    graph, _cmap = import_graph(_read_text(args.graph))
    instance = GameInstance.from_game_graph(graph)
    state = _parse_state(args.state) if args.state is not None else instance.initial_state()
    solution = solve(instance)
    value = solution.value(state)
    print(f"outcome {value.value}")
    if value is Outcome.DRAW:
        return 0
    print(f"dist {solution.dist(state)}")
    policy = solution.policy()
    transcript = play_match(instance, policy, policy, start=state)
    sys.stdout.write(transcript.text())
    return 0


def _cmd_verify(args) -> int:
    circuit = _read_circuit(args.circuit)
    modes = MODES if args.mode == "both" else (args.mode,)
    report = verify_equivalence(circuit, args.bits, modes)
    print(f"bits {report.bits}")
    print(f"value {int(report.circuit_value)}")
    for mode in modes:
        scripted = report.scripted[mode]
        print(
            f"{mode} {report.outcomes[mode].value} "
            f"scripted {scripted.value if scripted else 'aborted'}"
        )
    for violation in report.violations:
        print(f"violation {violation}")
    print("ok" if report.ok else "mismatch")
    return 0 if report.ok else 1


def _cmd_gen(args) -> int:
    circuit = generate_random(
        layers=args.layers,
        width=args.width,
        num_inputs=args.inputs,
        p_or=args.p_or,
        seed=args.seed,
        fanout2=args.fanout2,
    )
    sys.stdout.write(serialize_circuit(circuit))
    return 0


def _cmd_fuzz(args) -> int:
    report = fuzz_equivalence(
        args.n,
        seed=args.seed,
        max_layers=args.layers,
        max_width=args.width,
        max_inputs=args.inputs,
    )
    print(f"{report.checked - len(report.failures)}/{report.checked} ok")
    for failure in report.failures:
        sys.stdout.write(failure.reproducer())
    return 0 if report.ok else 1


def _stdin_policy(graph):
    """The human player: prompt on standard error, read moves from stdin."""

    def choose(state: GameState) -> str:
        legal = sorted(graph.neighbors_out(state.position))
        while True:
            sys.stderr.write(
                f"{state.turn} at {state.position}; legal: {', '.join(legal)}\n> "
            )
            sys.stderr.flush()
            line = sys.stdin.readline()
            if not line:
                raise UsageError("input ended before the game did")
            move = line.strip()
            if move in legal:
                return move
            sys.stderr.write(f"not a legal move: {move}\n")

    return choose


def _announced(policy, plies):
    """``policy``, printing each move it makes as a ``ply`` line."""

    def choose(state: GameState) -> str | None:
        move = policy(state)
        print(f"ply {next(plies)} {state.turn} {state.position} -> {move}")
        return move

    return choose


def _cmd_play(args) -> int:
    circuit = _read_circuit(args.circuit)
    graph, _cmap = BUILDERS[args.mode](circuit, args.bits)
    instance = GameInstance.from_game_graph(graph)
    human = CAT if args.side == "cat" else MOUSE
    you, opponent = _stdin_policy(graph), solve(instance).policy()
    cat, mouse = (you, opponent) if human == CAT else (opponent, you)
    sys.stderr.write(
        f"You are the {human}.  "
        f"Cat starts at {instance.cat_start}, Mouse at {instance.mouse_start}, "
        f"hole is {instance.hole}.  Cat moves first.\n"
    )
    plies = itertools.count(1)
    transcript = play_match(instance, _announced(cat, plies),
                            _announced(mouse, plies))
    print(f"result {transcript.result.value} {transcript.reason}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catmouse",
        description="Circuits, pursuit games on their graphs, and the solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a circuit on an assignment")
    p.add_argument("circuit")
    p.add_argument("bits")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("reduce", help="build and print the game graph")
    p.add_argument("circuit")
    p.add_argument("bits")
    p.add_argument("--mode", choices=MODES, default="directed")
    p.add_argument("--format", choices=("structured", "dot"),
                   default="structured")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("solve", help="solve a game graph file")
    p.add_argument("graph")
    p.add_argument("--state", help="cat,mouse,turn (default: the start)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check game value against circuit value")
    p.add_argument("circuit")
    p.add_argument("bits")
    p.add_argument("--mode", choices=MODES + ("both",), default="both")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a random circuit")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--inputs", type=int, required=True)
    p.add_argument("--p-or", type=float, default=0.5, dest="p_or")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fanout2", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fuzz", help="verify many random circuits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--width", type=int, default=3)
    p.add_argument("--inputs", type=int, default=4)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("play", help="play a match against the optimal opponent")
    p.add_argument("circuit")
    p.add_argument("bits")
    p.add_argument("--mode", choices=MODES, default="directed")
    p.add_argument("--as", choices=("cat", "mouse"), required=True, dest="side")
    p.set_defaults(func=_cmd_play)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CircuitError, GraphError, SolverError,
            StrategyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""
    # Printed after the handler frees the traceback and a half-built board.
    print(f"error: out of memory{detail}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
