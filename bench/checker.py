"""Independent checks of the benchmark's outputs.

This module imports nothing from ``catmouse``.  It re-derives what it needs
from plain data: circuit values from gate tuples, board sizes from the census
formula of the reduction, board adjacency from the exported text format, and
the game rules (capture first, then the hole, a stuck mover loses) for a local
consistency check of solved states.

Outcomes are the strings ``CatWin``, ``MouseWin`` and ``Draw``; a state is a
``(cat, mouse, turn)`` tuple with turn ``Cat`` or ``Mouse``.  Every check
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

from dataclasses import dataclass

CAT_WIN, MOUSE_WIN, DRAW = "CatWin", "MouseWin", "Draw"
CAT, MOUSE = "Cat", "Mouse"


def is_input(ref: str) -> bool:
    return ref[:1] == "i" and ref[1:].isdecimal()


def circuit_value(gates, bits: str) -> bool:
    """Value of the last gate; ``gates`` are (id, kind, left, right) in order."""
    values = {f"i{k}": b == "1" for k, b in enumerate(bits)}
    for gid, kind, left, right in gates:
        a, b = values[left], values[right]
        values[gid] = (a and b) if kind == "AND" else (a or b)
    return values[gates[-1][0]]


def gate_layers(gates) -> dict[str, int]:
    """Layer of every gate: one above its children, inputs at layer 0."""
    layer: dict[str, int] = {}
    for gid, _kind, left, right in gates:
        below = [0 if is_input(r) else layer[r] for r in (left, right)]
        if below[0] != below[1]:
            raise ValueError(f"gate {gid} is not synchronous")
        layer[gid] = below[0] + 1
    return layer


def census_nodes(num_inputs: int, gates) -> int:
    """Board nodes: c, h, d, two copies of each input, two five-node gadgets
    and two escape chains of 3j-2 nodes per gate on layer j."""
    layers = gate_layers(gates)
    return (3 + 2 * num_inputs + 10 * len(gates)
            + sum(2 * (3 * j - 2) for j in layers.values()))


def optimal_win_plies(gates) -> int:
    """Plies of an optimal Mouse win: two per level of the Mouse start,
    which sits at level 3*depth+1."""
    return 2 * (3 * gate_layers(gates)[gates[-1][0]] + 1)


@dataclass
class Board:
    """A board read back from the structured text format."""

    nodes: list[str]
    succ: dict[str, list[str]]
    cat_start: str
    mouse_start: str
    hole: str

    def start(self) -> tuple[str, str, str]:
        return (self.cat_start, self.mouse_start, CAT)


def parse_board(text: str) -> Board:
    directed = None
    nodes: list[str] = []
    succ: dict[str, list[str]] = {}
    special: dict[str, str] = {}
    for line in text.splitlines():
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "game":
            directed = tok[1] == "directed"
        elif tok[0] == "node":
            nodes.append(tok[1])
            succ[tok[1]] = []
        elif tok[0] == "edge":
            succ[tok[1]].append(tok[2])
            if not directed:
                succ[tok[2]].append(tok[1])
        elif tok[0] == "special":
            special.update(kv.split("=", 1) for kv in tok[1:])
    return Board(nodes, succ, special["c"], special["m"], special["h"])


def check_state(board: Board, state, got, value, dist) -> list[str]:
    """Local consistency of one solved state.

    ``got`` is the solver's (value, dist) for ``state``; ``value(s)`` and
    ``dist(s)`` give its answers for the successors (``dist`` is None for
    draws).  A decided open state is won for the mover iff some successor is
    won for the mover, at 1 + the least distance among those successors; it
    is lost iff every successor is lost, at 1 + the greatest distance (0 with
    no successor at all); anything else is a draw.
    """
    cat, mouse, turn = state
    if cat == mouse:
        want = (CAT_WIN, 0)
    elif mouse == board.hole:
        want = (MOUSE_WIN, 0)
    else:
        win, loss = (CAT_WIN, MOUSE_WIN) if turn == CAT else (MOUSE_WIN, CAT_WIN)
        if turn == CAT:
            nexts = [(v, mouse, MOUSE) for v in board.succ[cat]]
        else:
            nexts = [(cat, v, CAT) for v in board.succ[mouse]]
        answers = [(value(s), dist(s)) for s in nexts]
        won = [d for v, d in answers if v == win]
        if won:
            want = (win, 1 + min(won))
        elif all(v == loss for v, _d in answers):
            want = (loss, 1 + max((d for _v, d in answers), default=-1))
        else:
            want = (DRAW, None)
    if tuple(got) != want:
        return [f"state {state}: solver says {got}, successors imply {want}"]
    return []


def check_playout(board: Board, start, value: str, dist: int, moves, result: str) -> list[str]:
    """An optimal playout from ``start``: legal alternating moves, exactly
    ``dist`` plies, ending in a terminal or stuck position won by ``value``.
    ``moves`` are (player, from, to) triples."""
    problems = []
    if result != value:
        problems.append(f"playout from {start} ends {result}, value is {value}")
    if len(moves) != dist:
        problems.append(f"playout from {start} takes {len(moves)} plies, dist is {dist}")
    cat, mouse, turn = start
    for player, frm, to in moves:
        here = cat if turn == CAT else mouse
        if player != turn or frm != here or to not in board.succ[frm]:
            return problems + [f"playout from {start}: illegal move {player} {frm}->{to}"]
        if turn == CAT:
            cat, turn = to, MOUSE
        else:
            mouse, turn = to, CAT
    if cat == mouse:
        end = CAT_WIN
    elif mouse == board.hole:
        end = MOUSE_WIN
    elif not board.succ[cat if turn == CAT else mouse]:
        end = MOUSE_WIN if turn == CAT else CAT_WIN
    else:
        end = None
    if end != result:
        problems.append(f"playout from {start} stops at {(cat, mouse, turn)}, not a {result} position")
    return problems
