"""Exact solving of cat-and-mouse pursuit games.

The game: Cat and Mouse stand on nodes of a shared graph and move alternately
along edges, Cat first, neither player may pass.  Cat wins the moment both
players occupy the same node (even the hole), Mouse wins the moment it stands
on the hole alone, and a repeated (cat, mouse, player-to-move) situation is a
draw.  A player whose node has no outgoing edge loses.

``solve`` runs retrograde analysis over all (cat, mouse, turn) states, the
classical attractor computation: terminal and stuck states are decided first,
and each ply then looks only at the predecessors of the states the previous
ply decided.  A predecessor is won for its mover as soon as one successor is
won for them; each successor won for the opponent lowers a per-state counter
of remaining options, and a predecessor whose counter reaches 0 is lost.  All
work is O(states + state edges), held in flat numpy arrays.  States never
decided are draws, matching the classical equivalence with the
repetition-draw rule.  The recorded distance is plies-to-termination under
optimal play: winners minimize it, losers maximize it.

``minimax_oracle`` independently evaluates small instances by plain
depth-limited minimax over the move tree, deep enough that any forced win
must already have appeared; it shares no machinery with ``solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

CAT = "Cat"
MOUSE = "Mouse"

CAT_TERMINAL = "CatTerminal"
MOUSE_TERMINAL = "MouseTerminal"
OPEN = "Open"


class Outcome(Enum):
    CAT_WIN = "CatWin"
    MOUSE_WIN = "MouseWin"
    DRAW = "Draw"


class SolverError(Exception):
    pass


class InvalidInstanceError(SolverError):
    pass


class TooLargeError(SolverError):
    pass


class PolicyIllegalMoveError(SolverError):
    pass


class GameState(NamedTuple):
    cat: str
    mouse: str
    turn: str


@dataclass(frozen=True, eq=False)
class Graph:
    """An arena graph: the nodes and the edges the players move along.

    Only the first two entries of an edge are read, so an edge may carry
    more (the reduction's game graphs add a tag).  Directed graphs restrict
    movement to edge direction; undirected graphs allow both ways.
    ``index`` (node to position in ``nodes``) and the adjacency behind
    ``neighbors_out`` are the board's only ones; the solver reads them too.
    """

    directed: bool
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        # Every graph is asked for positions and moves, so the index and the
        # adjacency are built here, in the pass that checks edge endpoints.
        index = dict(zip(self.nodes, range(len(self.nodes))))
        if len(index) != len(self.nodes):
            twice = next(v for i, v in enumerate(self.nodes) if index[v] != i)
            raise InvalidInstanceError(f"node {twice!r} listed twice")
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for edge in self.edges:
            a, b = edge[0], edge[1]
            if a not in index or b not in index:
                raise InvalidInstanceError(f"edge ({a!r}, {b!r}) uses unknown node")
            out[a].append(b)
            if not self.directed and a != b:
                out[b].append(a)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_adjacency", {n: tuple(vs) for n, vs in out.items()})

    def neighbors_out(self, node: str) -> tuple[str, ...]:
        """Nodes reachable from ``node`` in one move."""
        try:
            return self._adjacency[node]
        except KeyError:
            raise InvalidInstanceError(f"unknown node {node!r}") from None

    def has_node(self, node: str) -> bool:
        return node in self.index

    def has_edge(self, a: str, b: str) -> bool:
        """Whether a move leads from ``a`` to ``b``; False for unknown nodes."""
        return b in self._adjacency.get(a, ())


@dataclass(frozen=True, eq=False)
class GameInstance:
    """An arena plus starting placement and hole.

    The start must be live: the players begin on distinct nodes and the Mouse
    does not begin on the hole, so no win condition holds before the first
    move.
    """

    graph: Graph
    cat_start: str
    mouse_start: str
    hole: str

    def __post_init__(self):
        for node in (self.cat_start, self.mouse_start, self.hole):
            if not self.graph.has_node(node):
                raise InvalidInstanceError(f"unknown node {node!r}")
        if self.cat_start == self.mouse_start:
            raise InvalidInstanceError("players cannot start on the same node")
        if self.mouse_start == self.hole:
            raise InvalidInstanceError("the Mouse cannot start on the hole")

    @classmethod
    def from_game_graph(cls, graph) -> "GameInstance":
        return cls(graph, graph.c, graph.m, graph.h)

    def initial_state(self) -> GameState:
        return GameState(self.cat_start, self.mouse_start, CAT)


def classify(state: GameState, instance: GameInstance) -> str:
    """Terminal status of a state; capture takes precedence at the hole."""
    if state.cat == state.mouse:
        return CAT_TERMINAL
    if state.mouse == instance.hole:
        return MOUSE_TERMINAL
    return OPEN


_CATWIN = 1
_MOUSEWIN = 2


class Solution:
    """Value, optimal-play distance and best moves for every state; the
    tables are indexed [cat, mouse] by the graph's ``index``."""

    def __init__(self, instance, val_c, val_m, dist_c, dist_m):
        self.instance = instance
        self._val = {CAT: val_c, MOUSE: val_m}
        self._dist = {CAT: dist_c, MOUSE: dist_m}

    def _locate(self, state: GameState) -> tuple[np.ndarray, np.ndarray, int, int]:
        if state.turn not in (CAT, MOUSE):
            raise InvalidInstanceError(f"bad turn {state.turn!r}")
        index = self.instance.graph.index
        try:
            ci, mi = index[state.cat], index[state.mouse]
        except KeyError as missing:
            raise InvalidInstanceError(f"unknown node {missing}") from None
        return self._val[state.turn], self._dist[state.turn], ci, mi

    def value(self, state: GameState) -> Outcome:
        val, _dist, ci, mi = self._locate(state)
        code = val[ci, mi]
        if code == _CATWIN:
            return Outcome.CAT_WIN
        if code == _MOUSEWIN:
            return Outcome.MOUSE_WIN
        return Outcome.DRAW

    def dist(self, state: GameState) -> int | None:
        """Plies to termination under optimal play; None for draws."""
        _val, dist, ci, mi = self._locate(state)
        plies = int(dist[ci, mi])
        return None if plies < 0 else plies

    def outcome(self) -> Outcome:
        return self.value(self.instance.initial_state())

    def best_move(self, state: GameState) -> str | None:
        """The policy's move in a decided open state: the winner's soonest
        win or the loser's longest loss; None on terminal states, draws and
        stuck states."""
        if self.value(state) is Outcome.DRAW:
            return None
        return self._move(state)

    def _move(self, state: GameState) -> str | None:
        """The optimal move in an open state: the soonest win for the mover,
        else any draw, else the longest loss; ties go to the smaller node id."""
        if classify(state, self.instance) != OPEN:
            return None
        _val, _dist, ci, mi = self._locate(state)
        graph, cat_moves = self.instance.graph, state.turn == CAT
        after, wins = (MOUSE, _CATWIN) if cat_moves else (CAT, _MOUSEWIN)
        val, dist = self._val[after], self._dist[after]
        best = None
        for move in graph.neighbors_out(state.cat if cat_moves else state.mouse):
            cell = (graph.index[move], mi) if cat_moves else (ci, graph.index[move])
            code, plies = val.item(cell), dist.item(cell)
            # Every draw has distance -1, so draws tie on it.
            rank = 0 if code == wins else 1 if code == 0 else 2
            key = (rank, -plies if rank else plies, move)
            if best is None or key < best:
                best = key
        return None if best is None else best[2]

    def policy(self) -> Callable[[GameState], str | None]:
        """An optimal policy: follows best moves, preserves draws."""
        return self._move


# Bytes per (cat, mouse, turn) state: value (int8), distance (int32) and
# count of options left (int16, as an out-degree is below n).
_BYTES_PER_STATE = 1 + 4 + 2
# solve refuses a board whose state tables would exceed this (about 12,000
# nodes) with TooLargeError, instead of running the host out of memory.  It
# also keeps distances (below 2n^2) within int32 and n within int16.
_MAX_TABLE_BYTES = 2 * 2**30
# Predecessors gathered at once; bounds the buffers of a ply.
_SLICE = 1 << 16
# Values while solving, relative to the player to move.
_WON, _LOST = 1, 2


def solve(instance: GameInstance) -> Solution:
    """Retrograde analysis of the full (cat, mouse, turn) state space."""
    graph = instance.graph
    n = len(graph.nodes)
    need = 2 * n * n * _BYTES_PER_STATE
    if need > _MAX_TABLE_BYTES:
        raise TooLargeError(
            f"{n} nodes need {need / 2**30:.1f} GiB of state tables; "
            f"the solver allows {_MAX_TABLE_BYTES / 2**30:.0f} GiB"
        )
    arena = _Arena(graph)
    hole = graph.index[instance.hole]

    # State (t, a, b) sits at t*n^2 + a*n + b: block 0 is Cat to move stored
    # as [mouse, cat], block 1 Mouse to move stored as [cat, mouse].  Either
    # way b is the mover's node and a the other player's, so the moves of
    # (t, a, b) lead to (1 - t, b', a) for b' out of b, and its predecessors
    # are (1 - t, b, x) for x into a.
    vals = np.zeros((2, n, n), dtype=np.int8)
    dists = np.empty((2, n, n), dtype=np.int32)
    left = np.empty((2, n, n), dtype=np.int16)
    left[...] = arena.out_deg
    diag = np.arange(n)
    others = diag != hole
    vals[0, diag, diag] = _WON
    vals[1, diag, diag] = _LOST
    vals[0, hole, others] = _LOST
    vals[1, others, hole] = _WON
    # A player to move with no way out loses on the spot.
    vals[(vals == 0) & (arena.out_deg == 0)] = _LOST

    val, dist, left = vals.reshape(-1), dists.reshape(-1), left.reshape(-1)
    lost = np.flatnonzero(val == _LOST)
    frontier = np.concatenate((lost, np.flatnonzero(val == _WON)))
    n_lost = lost.size
    dist[frontier] = 0
    ply = 0
    while frontier.size:
        ply += 1
        frontier, n_lost = _ply(arena, frontier, n_lost, val, left, dist)
        dist[frontier] = ply

    # The working values were relative to the mover, who is the Cat in
    # block 0 and the Mouse in block 1.  Draws get distance -1 over the
    # stamps left on them.
    np.subtract(_CATWIN + _MOUSEWIN, vals[1], out=vals[1], where=vals[1] != 0)
    dist[val == 0] = -1
    return Solution(instance, vals[0].T, vals[1], dists[0].T, dists[1])


def _ply(arena, frontier, n_lost, val, left, stamp) -> tuple[np.ndarray, int]:
    """Decide every state whose fate follows from the frontier.

    ``frontier[:n_lost]`` were lost for their mover, the rest won.  Returns
    the states decided now, those lost for their mover first, and how many
    those are.  Repeats of a state among the predecessors are grouped with
    ``stamp``, which only touches undecided states; solve shares it with
    the distances, set on the states when they are decided.
    """
    won_parts: list[np.ndarray] = []
    lost_parts: list[np.ndarray] = []
    for pred, cut in arena.predecessors(frontier, n_lost):
        # A loss for the mover is a win for the mover of each predecessor.
        won = pred[:cut]
        won = won[val[won] == 0]
        if won.size:
            val[won] = _WON
            order = arena.order[:won.size]
            stamp[won] = order
            won_parts.append(won[stamp[won] == order])
        # A win for the mover takes one option from each predecessor; one
        # left with none is lost for its mover.
        hit = pred[cut:]
        hit = hit[val[hit] == 0]
        if hit.size:
            stamp[hit] = arena.order[:hit.size]
            times = np.bincount(stamp[hit], minlength=hit.size)
            kept = times.nonzero()[0]
            hit = hit[kept]
            rest = left[hit] - times[kept]
            left[hit] = rest
            hit = hit[rest == 0]
            if hit.size:
                val[hit] = _LOST
                lost_parts.append(hit)
    n_lost = sum(part.size for part in lost_parts)
    parts = lost_parts + won_parts
    return (np.concatenate(parts) if parts else frontier[:0]), n_lost


class _Arena:
    """The board's distinct edges as reverse CSR over the 2n state rows.

    Row r = t*n + a holds the states s = (t, a, b) = r*n + b.  Their
    predecessors (1 - t, b, x) are ``shift[r] + s*n + x`` for each
    in-neighbour ``x`` of a, ``src[row_end[r] - row_deg[r]:row_end[r]]``.
    Index arrays are intp, since numpy converts any other index type on
    every gather.
    """

    def __init__(self, graph: Graph):
        n = len(graph.nodes)
        index = graph.index
        codes = np.array(sorted({index[v] * n + ui for ui, u in enumerate(graph.nodes)
                                 for v in graph.neighbors_out(u)}), dtype=np.intp)
        self.n = n
        self.src = codes % n
        self.out_deg = np.bincount(self.src, minlength=n)
        in_deg = np.bincount(codes // n, minlength=n)
        self.row_deg = np.concatenate((in_deg, in_deg))
        ends = np.cumsum(in_deg)
        self.row_end = np.concatenate((ends, ends))
        self.shift = np.arange(0, -2 * n, -1, dtype=np.intp) * n * n
        self.shift[:n] += n * n
        # 0, 1, 2, ...: as long as the largest slice of predecessors, which
        # holds at most _SLICE of them or those of one state (fewer than n).
        longest = min(max(_SLICE, n), 2 * n * len(codes))
        self.order = np.arange(longest + 1, dtype=np.int32)

    def predecessors(self, states: np.ndarray, cut: int):
        """Yield (predecessors, k) slices over ``states``, repeats kept.

        The first k predecessors of a slice come from ``states[:cut]``.
        """
        rows = states // self.n
        ends = self.row_deg[rows].cumsum()
        total = int(ends[-1])
        split = int(ends[cut - 1]) if cut else 0
        lo = done = 0
        while lo < states.size:
            hi = states.size
            if total - done > _SLICE:
                hi = max(int(np.searchsorted(ends, done + _SLICE, "right")), lo + 1)
            upto = int(ends[hi - 1])
            r = rows[lo:hi]
            counts = self.row_deg[r]
            offset = self.row_end[r] - ends[lo:hi]
            if done:
                offset += done
            offset = offset.repeat(counts)
            offset += self.order[:upto - done]
            base = self.shift[r] + states[lo:hi] * self.n
            yield base.repeat(counts) + self.src[offset], min(max(split - done, 0), upto - done)
            lo, done = hi, upto


def outcome(instance: GameInstance) -> Outcome:
    """Value of the initial state (Cat to move from the starting placement)."""
    return solve(instance).outcome()


@dataclass(frozen=True)
class MatchTranscript:
    """A played-out game: the move list, how it ended, and why."""

    moves: tuple[tuple[int, str, str, str], ...]
    result: Outcome
    reason: str
    gave_up: bool = False

    def text(self) -> str:
        lines = [f"ply {n} {player} {frm} -> {to}"
                 for n, player, frm, to in self.moves]
        lines.append(f"result {self.result.value} {self.reason}")
        return "\n".join(lines) + "\n"

    def mouse_moves(self) -> int:
        return sum(1 for _n, player, _f, _t in self.moves if player == MOUSE)


def play_match(
    instance: GameInstance,
    cat_policy: Callable[[GameState], str | None],
    mouse_policy: Callable[[GameState], str | None],
    max_plies: int | None = None,
    start: GameState | None = None,
) -> MatchTranscript:
    """Play the two policies against each other and score the result.

    Policies return the destination node or None to resign the move; a policy
    with no legal move loses.  Repetition of a (cat, mouse, turn) situation is
    an immediate draw.  ``max_plies`` defaults high enough that repetition
    always fires first.
    """
    graph = instance.graph
    if max_plies is None:
        max_plies = 2 * len(graph.nodes) ** 2 + 2
    state = start if start is not None else instance.initial_state()
    seen: set[GameState] = set()
    moves: list[tuple[int, str, str, str]] = []
    ply = 0
    gave_up = False
    while True:
        status = classify(state, instance)
        if status == CAT_TERMINAL:
            result, reason = Outcome.CAT_WIN, "capture"
            break
        if status == MOUSE_TERMINAL:
            result, reason = Outcome.MOUSE_WIN, "hole"
            break
        if state in seen:
            result, reason = Outcome.DRAW, "repetition"
            break
        seen.add(state)
        if ply >= max_plies:
            result, reason = Outcome.DRAW, "ply-limit"
            break
        mover = state.turn
        position = state.cat if mover == CAT else state.mouse
        legal = graph.neighbors_out(position)
        policy = cat_policy if mover == CAT else mouse_policy
        move = policy(state) if legal else None
        if move is None:
            gave_up = bool(legal)
            result = Outcome.MOUSE_WIN if mover == CAT else Outcome.CAT_WIN
            reason = "stuck"
            break
        if move not in legal:
            raise PolicyIllegalMoveError(
                f"{mover} played {position!r} -> {move!r}, which is not an edge"
            )
        ply += 1
        moves.append((ply, mover, position, move))
        if mover == CAT:
            state = GameState(move, state.mouse, MOUSE)
        else:
            state = GameState(state.cat, move, CAT)
    return MatchTranscript(
        moves=tuple(moves),
        result=result,
        reason=reason,
        gave_up=gave_up,
    )


_ORACLE_LIMIT = 10


def minimax_oracle(instance: GameInstance) -> Outcome:
    """Game value of the initial state by depth-limited minimax.

    A player who can force a win can force one within 2|V|^2 plies, because
    backward induction decides at least one of the 2|V|^2 states per ply
    level; lines still undecided at that horizon are draws, exactly matching
    the repetition rule.  Memoized on (state, remaining plies).  Limited to
    graphs of at most 10 nodes.
    """
    graph = instance.graph
    ids = tuple(graph.nodes)
    if len(ids) > _ORACLE_LIMIT:
        raise TooLargeError(f"{len(ids)} nodes; the oracle allows {_ORACLE_LIMIT}")
    horizon = 2 * len(ids) * len(ids) + 1
    memo: dict[tuple[GameState, int], Outcome] = {}

    def search(state: GameState, plies_left: int) -> Outcome:
        status = classify(state, instance)
        if status == CAT_TERMINAL:
            return Outcome.CAT_WIN
        if status == MOUSE_TERMINAL:
            return Outcome.MOUSE_WIN
        mover = state.turn
        position = state.cat if mover == CAT else state.mouse
        legal = graph.neighbors_out(position)
        if not legal:
            return Outcome.MOUSE_WIN if mover == CAT else Outcome.CAT_WIN
        if plies_left == 0:
            return Outcome.DRAW
        key = (state, plies_left)
        if key in memo:
            return memo[key]
        mover_win = Outcome.CAT_WIN if mover == CAT else Outcome.MOUSE_WIN
        best = Outcome.MOUSE_WIN if mover == CAT else Outcome.CAT_WIN
        for move in sorted(set(legal)):
            if mover == CAT:
                nxt = GameState(move, state.mouse, MOUSE)
            else:
                nxt = GameState(state.cat, move, CAT)
            value = search(nxt, plies_left - 1)
            if value is mover_win:
                best = value
                break
            if value is Outcome.DRAW:
                best = value
        memo[key] = best
        return best

    return search(instance.initial_state(), horizon)
