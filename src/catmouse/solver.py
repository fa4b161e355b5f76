"""Exact solving of cat-and-mouse pursuit games.

The game: Cat and Mouse stand on nodes of a shared graph and move alternately
along edges, Cat first, neither player may pass.  Cat wins the moment both
players occupy the same node (even the hole), Mouse wins the moment it stands
on the hole alone, and a repeated (cat, mouse, player-to-move) situation is a
draw.  A player whose node has no outgoing edge loses.

``solve`` runs retrograde analysis over (cat, mouse, turn) states, the
classical attractor computation: terminal and stuck states are decided first,
and each ply then looks only at the predecessors of the states the previous
ply decided.  A predecessor is won for its mover as soon as one successor is
won for them; each successor won for the opponent lowers a per-state counter
of remaining options, and a predecessor whose counter reaches 0 is lost.  All
work is O(states + state edges), held in flat numpy arrays.  Every value is
recorded relative to the player to move, from the seeds to the ``Solution``
that answers queries: won, lost, or 0 for undecided.  States never decided
are draws, matching the classical equivalence with the repetition-draw rule.
The recorded distance is plies-to-termination under optimal play: winners
minimize it, losers maximize it.

No move changes ``level(cat) - level(mouse) - turn`` modulo the graph's
period (see ``_Classes``), so the states fall into classes closed under
moves both ways, and only the start's class comes up in play.  ``solve``
decides that class alone; the first query of a state in another class
decides all the others in one more run of the same plies.  The reduction's
directed boards have period 0, and the start's class holds 9.0% of the
states at 941 nodes and 7.5% at 2,881; undirected boards have period 2 and
two classes; a self-loop or an odd cycle makes the period 1, one class
holding every state.

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
    """Both players' nodes and whose move it is; equal to the plain tuple."""

    cat: str
    mouse: str
    turn: str

    @property
    def position(self) -> str:
        """The node of the player to move."""
        return self.cat if self.turn == CAT else self.mouse

    def after(self, move: str) -> GameState:
        """The state once the player to move has stepped to ``move``."""
        # tuple.__new__ skips the generated constructor and its extra call.
        if self.turn == CAT:
            return tuple.__new__(GameState, (move, self.mouse, MOUSE))
        return tuple.__new__(GameState, (self.cat, move, CAT))


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


def classify(state: GameState, instance: GameInstance) -> Outcome | None:
    """The winner if play has ended in ``state``, else None; capture takes
    precedence at the hole."""
    if state.cat == state.mouse:
        return Outcome.CAT_WIN
    if state.mouse == instance.hole:
        return Outcome.MOUSE_WIN
    return None


def _check_turn(state: GameState) -> None:
    if state.turn not in (CAT, MOUSE):
        raise InvalidInstanceError(f"bad turn {state.turn!r}")


class Solution:
    """Value and optimal-play distance of every state, and an optimal policy.

    The (2, n, n) tables hold a state at [t, a, b]: t is 0 with the Cat to
    move and 1 with the Mouse, b is the mover's node and a the other
    player's, both by the graph's ``index``.  A value is 1 (``_WON``) or 2
    (``_LOST``) for the player to move, or 0 for a draw or a state not yet
    decided; their distance is -1.

    ``solve`` leaves the states outside the start's class undecided; the
    first query of one of them decides them all (``_complete``), once.
    """

    def __init__(self, instance, vals, dists, rest=None):
        self.instance = instance
        self._val = vals
        self._dist = dists
        self._rest = rest

    def _locate(self, state: GameState) -> tuple[int, int, int]:
        """The state's cell (turn, other, mover) in the tables."""
        _check_turn(state)
        index = self.instance.graph.index
        try:
            ci, mi = index[state.cat], index[state.mouse]
        except KeyError as missing:
            raise InvalidInstanceError(f"unknown node {missing}") from None
        cell = (0, mi, ci) if state.turn == CAT else (1, ci, mi)
        rest = self._rest
        if rest is not None and not rest.classes.holds_start(*cell):
            self._complete()
        return cell

    def _complete(self) -> None:
        """Decide the states of every class but the start's.

        Classes are closed under moves both ways, so this pass neither reads
        nor changes a state of the start's class.
        """
        rest, self._rest = self._rest, None
        if rest is not None:
            _attract(_Arena(self.instance.graph), rest.seeds, self._val, self._dist)

    def value(self, state: GameState) -> Outcome:
        code = self._val.item(self._locate(state))
        if code == 0:
            return Outcome.DRAW
        if (code == _WON) == (state.turn == CAT):
            return Outcome.CAT_WIN
        return Outcome.MOUSE_WIN

    def dist(self, state: GameState) -> int | None:
        """Plies to termination under optimal play; None for draws."""
        plies = self._dist.item(self._locate(state))
        return None if plies < 0 else plies

    def outcome(self) -> Outcome:
        return self.value(self.instance.initial_state())

    def _move(self, state: GameState) -> str | None:
        """The optimal move in an open state: the soonest win for the mover,
        else any draw, else the longest loss; ties go to the smaller node id.
        None where play has ended or the mover is stuck."""
        if classify(state, self.instance) is not None:
            return None
        turn, other, _mover = self._locate(state)
        # Successors are read cell by cell: ``GameState.after`` and
        # ``_locate`` per move timed up to a third slower in playouts.
        graph, val, dist = self.instance.graph, self._val, self._dist
        best = None
        for move in graph.neighbors_out(state.position):
            cell = (1 - turn, graph.index[move], other)
            code, plies = val.item(cell), dist.item(cell)
            # A successor lost for the opponent, who moves there, is a win.
            # Every draw has distance -1, so draws tie on it.
            rank = 0 if code == _LOST else 1 if code == 0 else 2
            key = (rank, -plies if rank else plies, move)
            if best is None or key < best:
                best = key
        return None if best is None else best[2]

    def policy(self) -> Callable[[GameState], str | None]:
        """The optimal policy: the mover's soonest win, else a move that
        keeps the draw, else its longest loss."""
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
# State values, relative to the player to move; 0 is a draw or undecided.
_WON, _LOST = 1, 2


def solve(instance: GameInstance) -> Solution:
    """Retrograde analysis of the start's class of (cat, mouse, turn) states;
    the returned ``Solution`` decides the other classes when first asked."""
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

    # The tables are laid out as ``Solution`` reads them, [t, a, b] with b
    # the mover's node and a the other player's; flat, state (t, a, b) sits
    # at t*n^2 + a*n + b.  The moves of (t, a, b) lead to (1 - t, b', a) for
    # b' out of b, and its predecessors are (1 - t, b, x) for x into a.
    vals = np.zeros((2, n, n), dtype=np.int8)
    dists = np.empty((2, n, n), dtype=np.int32)
    diag = np.arange(n)
    others = diag != hole
    vals[0, diag, diag] = _WON
    vals[1, diag, diag] = _LOST
    vals[0, hole, others] = _LOST
    vals[1, others, hole] = _WON
    # A player to move with no way out loses on the spot.
    vals[(vals == 0) & (arena.out_deg == 0)] = _LOST

    seeds = np.flatnonzero(vals)
    classes = _Classes(arena, graph.index[instance.cat_start],
                       graph.index[instance.mouse_start])
    here = classes.holds_start(*np.unravel_index(seeds, vals.shape))
    # None when every seed is the start's, as at period 1: one class.
    rest = None if here.all() else _Rest(classes, seeds[~here])
    _attract(arena, seeds[here], vals, dists)
    return Solution(instance, vals, dists, rest)


def _attract(arena, seeds, vals, dists) -> None:
    """Decide every state whose fate follows from the decided states
    ``seeds``; states left undecided get distance -1, the draws' distance."""
    left = np.empty(vals.shape, dtype=np.int16)
    left[...] = arena.out_deg
    val, dist, left = vals.reshape(-1), dists.reshape(-1), left.reshape(-1)
    lost = val[seeds] == _LOST
    frontier = np.concatenate((seeds[lost], seeds[~lost]))
    n_lost = int(np.count_nonzero(lost))
    dist[frontier] = 0
    ply = 0
    while frontier.size:
        ply += 1
        frontier, n_lost = _ply(arena, frontier, n_lost, val, left, dist)
        dist[frontier] = ply
    # Over the stamps left on the undecided states.
    dist[val == 0] = -1


class _Classes:
    """The classes of states that moves never leave.

    Every move u -> v has ``level[v] = level[u] + 1`` modulo ``period``
    (exactly when it is 0), so ``level[cat] - level[mouse] - turn`` (turn 0
    for the Cat to move, 1 for the Mouse) stays the same modulo ``period``
    along any move.  The walk sets the levels along a spanning forest of the
    undirected graph underneath, and the period is the gcd of the amounts by
    which the other edges miss.
    """

    def __init__(self, arena, cat, mouse):
        n, src, dst = arena.n, arena.src, arena.dst
        # The undirected graph underneath as CSR: from either end of a move,
        # the other end and the step in level toward it.
        ends = np.concatenate((src, dst))
        order = np.argsort(ends, kind="stable")
        far = np.concatenate((dst, src))[order].tolist()
        step = np.where(order < src.size, 1, -1).tolist()
        first = np.concatenate(([0], np.bincount(ends, minlength=n).cumsum())).tolist()
        level: list = [None] * n
        for root in range(n):
            if level[root] is not None:
                continue
            level[root] = 0
            todo = [root]
            while todo:
                u = todo.pop()
                for k in range(first[u], first[u + 1]):
                    if level[far[k]] is None:
                        level[far[k]] = level[u] + step[k]
                        todo.append(far[k])
        self.level = np.array(level, dtype=np.intp)
        self.period = int(np.gcd.reduce(self.level[src] + 1 - self.level[dst]))
        self._start = level[cat] - level[mouse]

    def holds_start(self, turn, other, mover):
        """Whether state (turn, other, mover), laid out as in ``Solution``, is
        in the start's class; ints or arrays of them.  ``1 - 2 * turn`` turns
        the mover's lead in level into the Cat's."""
        level = self.level
        gap = (1 - 2 * turn) * (level[mover] - level[other]) - turn - self._start
        return gap % self.period == 0 if self.period else gap == 0


class _Rest(NamedTuple):
    """What deciding the other classes needs besides the graph and the
    tables: the classes and the other classes' seeds.  The arena is built
    again, as keeping it costs more memory than time."""

    classes: _Classes
    seeds: np.ndarray


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
        self.src, self.dst = codes % n, codes // n
        self.out_deg = np.bincount(self.src, minlength=n)
        in_deg = np.bincount(self.dst, minlength=n)
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
        # Lost and won states share one walk, split at ``cut``, so each slice
        # pays its gathers and index arithmetic once for both.  A walk each
        # is more code for no gain: on 941-node boards a two-walk ``_ply``
        # timed 8-10% slower in one measurement and within noise in another.
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

    def text(self) -> str:
        lines = [f"ply {n} {player} {frm} -> {to}"
                 for n, player, frm, to in self.moves]
        lines.append(f"result {self.result.value} {self.reason}")
        return "\n".join(lines) + "\n"


def play_match(
    instance: GameInstance,
    cat_policy: Callable[[GameState], str | None],
    mouse_policy: Callable[[GameState], str | None],
    start: GameState | None = None,
) -> MatchTranscript:
    """Play the two policies against each other and score the result.

    A policy returns the node its player moves to; anything but a legal
    move, None included, raises ``PolicyIllegalMoveError``.  A player with
    no legal move loses without its policy being asked.  Repetition of a
    (cat, mouse, turn) situation is an immediate draw, so every match ends
    by repetition at the latest: there are only 2n² such situations on an
    n-node board.  A start whose turn is neither ``CAT`` nor ``MOUSE``
    raises ``InvalidInstanceError``.
    """
    graph = instance.graph
    state = start if start is not None else instance.initial_state()
    _check_turn(state)
    seen: set[GameState] = set()
    moves: list[tuple[int, str, str, str]] = []
    while True:
        result = classify(state, instance)
        if result is not None:
            reason = "capture" if result is Outcome.CAT_WIN else "hole"
            break
        if state in seen:
            result, reason = Outcome.DRAW, "repetition"
            break
        seen.add(state)
        mover, position = state.turn, state.position
        legal = graph.neighbors_out(position)
        if not legal:
            result = Outcome.MOUSE_WIN if mover == CAT else Outcome.CAT_WIN
            reason = "stuck"
            break
        move = (cat_policy if mover == CAT else mouse_policy)(state)
        if move not in legal:
            raise PolicyIllegalMoveError(
                f"{mover} played {position!r} -> {move!r}, which is not an edge"
            )
        moves.append((len(moves) + 1, mover, position, move))
        state = state.after(move)
    return MatchTranscript(tuple(moves), result, reason)


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
        winner = classify(state, instance)
        if winner is not None:
            return winner
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
