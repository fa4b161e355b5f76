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
work is O(states + state edges), held in flat numpy arrays: one table of the
class's states, 2 bytes a state unless a node has 2^15 moves out or more than
2^15 in, and 4 then (see ``_Layout``), and working memory bounded by
``_SLICE`` and the frontier, kept as int32 runs and walked in parts of at
most ``_SLICE`` states.  An undecided state's cell counts its options left;
deciding it writes a stamp there, and its value, relative to the player to
move, is that of the frontier that decided it: won or lost.  States never
decided are draws, matching the classical equivalence with the
repetition-draw rule.  The recorded distance is plies-to-termination under
optimal play: winners minimize it, losers maximize it.  Each decided
state's value and distance end up in its cell as one code, which the
``Solution`` keeps and answers queries from.

No move changes ``level(cat) - level(mouse) - turn`` modulo the graph's
period (see ``_Classes``), so the states fall into classes closed under
moves both ways, and only the start's class comes up in play.  Each class
is solved on its own into tables sized to it, laid out as ``Solution``
describes, from the one ``_Classes`` the board has: ``solve`` decides the
start's class alone, and the first query of a state in another class
decides that class.  The reduction's directed boards have period 0 and a
class per level difference, keyed modulo twice the number of levels; the
start's class holds 9.0% of the states at 941 nodes, 7.5% at 2,881 and
5.0% at 13,865.
Undirected boards have period 2 and two classes of half the states each; a
self-loop or an odd cycle makes the period 1, one class holding every
state.

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


class ClassStats(NamedTuple):
    """What deciding one class of states took: the class's key (see
    ``Solution``), its number of states, and the plies that decided states,
    which is the longest distance in the class."""

    key: int
    states: int
    plies: int


class _Tables(NamedTuple):
    """A decided class: state (t, a, b), nodes by graph index, sits at
    ``rows[t][a] + slot[b]`` in ``code`` (see ``Solution``), a read-only
    view of the solver's array: indexing it gives a Python int in about half
    the time ``ndarray.item`` takes."""

    rows: tuple[list, list]
    code: memoryview


class Solution:
    """Value and optimal-play distance of every state, and an optimal policy.

    A state (t, a, b) has t = 0 with the Cat to move and 1 with the Mouse, b
    the mover's node and a the other player's.  Its value and distance are
    kept as one code: 2d + 1 if it is lost for the player to move in d
    plies, 2d if it is won in d, and -1 for a draw.  So ``code >> 1`` is the
    distance, -1 for a draw, and the low bit of a decided state's code says
    whether the mover loses.

    No move changes a state's key, ``level(cat) - level(mouse) - t`` taken
    modulo the board's ``modulus``: its period, or twice its number of
    levels at period 0, where the differences are exact and no two share a
    residue (see ``_Classes``).  So the states fall into classes by key,
    closed under moves both ways, and each class is solved into tables of
    its own size.  ``solve`` decides the start's class, a query of a state
    in another class decides that class first, and ``_complete`` decides
    them all, in key order.  ``stats`` lists the classes decided.

    The layout: the nodes are numbered by slot so that each residue group,
    the nodes of one level modulo the modulus, takes consecutive slots.  In
    the class of key k, row (t, a) holds only the movers of one group, that
    of ``level(a) + k`` with the Cat to move and ``level(a) - k - 1`` with
    the Mouse, in slot order, and the 2n rows follow one another by turn,
    then by a's slot; a row whose group holds no node is empty.  So state
    (t, a, b) sits at its row's start plus b's rank in its group, and its
    predecessors (1 - t, b, x), for x into a, all lie in row (1 - t, b),
    because every x into a has the same residue.  At period 1 there is one
    group and one class, and this is the dense [t, a, b] layout.
    """

    def __init__(self, instance):
        self.instance = instance
        self._index = instance.graph.index
        classes = self._classes = _Classes(instance.graph)
        self._level, self._modulus = classes.level, classes.modulus
        self._slot = classes.slot.tolist()
        self._tables: dict[int, _Tables] = {}
        self._stats: list[ClassStats] = []

    @property
    def stats(self) -> tuple[ClassStats, ...]:
        """Each class decided so far, in the order decided."""
        return tuple(self._stats)

    def _locate(self, state: GameState) -> tuple[_Tables, int, int, int]:
        """The tables of the state's class, deciding it if need be, the
        state's turn, the other player's node by graph index, and the state's
        index in the tables."""
        if state.turn != CAT:
            _check_turn(state)
        index = self._index
        try:
            ci, mi = index[state.cat], index[state.mouse]
        except KeyError as missing:
            raise InvalidInstanceError(f"unknown node {missing}") from None
        key = self._level[ci] - self._level[mi]
        if state.turn == CAT:
            turn, other, mover = 0, mi, ci
        else:
            turn, other, mover, key = 1, ci, mi, key - 1
        key %= self._modulus
        try:
            tables = self._tables[key]
        except KeyError:
            tables = self._decide(key)
        return tables, turn, other, tables[0][turn][other] + self._slot[mover]

    def _decide(self, key: int) -> _Tables:
        """Solve the class ``key`` and keep its tables."""
        classes = self._classes
        layout = classes.layout(key)
        code, plies = _attract(classes, layout, self._slot[self._index[self.instance.hole]])
        slot = classes.slot
        rows = layout.base[slot].tolist(), layout.base[slot + classes.n].tolist()
        tables = _Tables(rows, memoryview(code).toreadonly())
        self._tables[key] = tables
        self._stats.append(ClassStats(key, layout.states, plies))
        return tables

    def _complete(self) -> None:
        """Decide every class not yet decided."""
        for key in range(self._modulus):
            if key not in self._tables:
                self._decide(key)

    def _dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Every state's value (int8: 1 won for the mover, 2 lost, 0 a
        draw) and distance (int32) as (2, n, n) tables indexed [t, a, b] by
        graph index, for comparison with other solvers; the states of
        classes not decided read value -1."""
        classes = self._classes
        n = classes.n
        vals = np.full((2, n, n), -1, dtype=np.int8)
        dists = np.full((2, n, n), -1, dtype=np.int32)
        for key, tables in self._tables.items():
            layout = classes.layout(key)
            length = classes.size[layout.mover]
            row = np.arange(2 * n).repeat(length)
            cell = (row // n, row % n, np.arange(layout.states) - layout.base.repeat(length))
            code = np.asarray(tables.code)
            vals[cell] = np.where(code < 0, 0, np.where(code & 1, _LOST, _WON))
            dists[cell] = code >> 1
        slot = classes.slot
        return vals[:, slot][:, :, slot], dists[:, slot][:, :, slot]

    def value(self, state: GameState) -> Outcome:
        (_rows, codes), _turn, _other, at = self._locate(state)
        code = codes[at]
        if code < 0:
            return Outcome.DRAW
        # An even code is a win for the player to move.
        if (not code & 1) == (state.turn == CAT):
            return Outcome.CAT_WIN
        return Outcome.MOUSE_WIN

    def dist(self, state: GameState) -> int | None:
        """Plies to termination under optimal play; None for draws."""
        (_rows, codes), _turn, _other, at = self._locate(state)
        plies = codes[at] >> 1
        return None if plies < 0 else plies

    def outcome(self) -> Outcome:
        return self.value(self.instance.initial_state())

    def _move(self, state: GameState) -> str | None:
        """The optimal move in an open state: the soonest win for the mover,
        else any draw, else the longest loss; ties go to the smaller node id.
        None where play has ended or the mover is stuck."""
        if classify(state, self.instance) is not None:
            return None
        (rows, codes), turn, other, _at = self._locate(state)
        # The successors (1 - turn, move, other) are in the same class.  They
        # are read cell by cell: ``GameState.after`` and ``_locate`` per move
        # timed up to a third slower in playouts.
        graph, index = self.instance.graph, self._index
        rows, at_other = rows[1 - turn], self._slot[other]
        best = None
        for move in graph.neighbors_out(state.position):
            code = codes[rows[index[move]] + at_other]
            # A successor lost for the opponent, who moves there, is a win.
            # Every draw has code -1, so draws tie on the distance.
            rank = 1 if code < 0 else 0 if code & 1 else 2
            plies = code >> 1
            key = (rank, -plies if rank else plies, move)
            if best is None or key < best:
                best = key
        return None if best is None else best[2]

    def policy(self) -> Callable[[GameState], str | None]:
        """The optimal policy: the mover's soonest win, else a move that
        keeps the draw, else its longest loss."""
        return self._move


# A class whose table would exceed this is refused with TooLargeError
# instead of running the host out of memory; the working memory comes on
# top.  A cell is 2 bytes unless a node has 2^15 moves out or more than
# 2^15 in (see ``_Layout``), or the plies reach 2^14 (see ``_attract``).
# So it admits undirected ladders of up to 32,768 nodes, whose start's
# class is half of the 2n^2 states, and directed (35, 64), 190,367 nodes,
# whose start's class is 1.4% of them.  The traced peak of directed
# (18, 64), 40,325 nodes, is 221 MiB over 186 MiB of table, that of
# undirected (8, 32) 21.5 MiB over 15.8 MiB.  It keeps a class under 2^31
# states, and so its codes within int32 and its state indices within the
# frontier's int32 runs.
_MAX_TABLE_BYTES = 2 * 2**30
# States in one part of the frontier, and predecessors gathered at once;
# bounds the buffers of a ply.
_SLICE = 1 << 14
# State values in ``Solution._dense``, relative to the player to move; 0 is
# a draw.
_WON, _LOST = 1, 2


def solve(instance: GameInstance) -> Solution:
    """Retrograde analysis of the start's class of (cat, mouse, turn) states;
    the returned ``Solution`` decides the other classes when first asked."""
    solution = Solution(instance)
    solution._locate(instance.initial_state())
    return solution


def _attract(classes, layout, hole) -> tuple[np.ndarray, int]:
    """Decide the class laid out by ``layout``: the code of each state (see
    ``Solution``) and the plies that decided states.  ``hole`` is a slot.

    One array of the class's size, ``code``, does all the work.  An
    undecided state holds -1 minus its options left, so at most -2 while it
    has any.  Deciding a state writes its ``layout.order`` stamp, 0 or more,
    into its cell (see ``_ply``), and the next ply, walking the frontier
    that holds it, its code, which says whether it is lost or won.
    Terminal states start decided, at 0, in the lost or the won frontier;
    a stuck mover's state starts at -1 and in the lost frontier.  Each
    frontier is a list of runs of states (see ``_parts``).  A class whose
    table would exceed ``_MAX_TABLE_BYTES`` is refused with TooLargeError,
    before it is allocated or as it widens."""
    n, group, base = classes.n, classes.group, layout.base
    table = layout.order.dtype
    _check_budget(classes, layout, table.itemsize)
    # A row holds the movers of its group in slot order.
    options = (-1 - classes.out_deg).astype(table)
    first, size = classes.first.tolist(), classes.size.tolist()
    by_group = [options[f:f + k] for f, k in zip(first, size)]
    code = np.concatenate([by_group[g] for g in layout.mover.tolist()])

    # Capture on the diagonal and the Mouse home at the hole, in every
    # class: rows t*n + a, movers b, and whether the mover has lost.
    nodes = np.arange(n)
    away = np.flatnonzero(nodes != hole)
    at_hole = np.full(away.size, hole)
    rows = np.concatenate((nodes, n + nodes, at_hole, n + away))
    movers = np.concatenate((nodes, nodes, away, at_hole))
    has_lost = np.repeat([False, True, True, False], (n, n, away.size, away.size))
    here = layout.mover[rows] == group[movers]
    terminal = base[rows[here]] + movers[here]
    code[terminal] = 0
    is_lost = has_lost[here]
    lost, won = [terminal[is_lost]], [terminal[~is_lost]]
    # A player to move with no way out loses on the spot: the stuck movers'
    # cells that are not terminal, in the rows that hold their group.
    stuck = np.flatnonzero(classes.out_deg == 0)
    for g in np.flatnonzero(np.bincount(group[stuck])):
        rows = np.flatnonzero(layout.mover == g)[:, None]
        movers = stuck[group[stuck] == g]
        other = rows % n
        live = (other != movers) & np.where(rows < n, other != hole, movers != hole)
        lost.append((base[rows] + movers)[live])

    plies = 0
    while True:
        lost, won = _ply(classes, layout, lost, won, plies, code)
        if not (lost or won):
            break
        plies += 1
        if plies == 2**14 and code.dtype == np.int16:
            # The code 2 * plies + 1 would not fit int16.
            _check_budget(classes, layout, 4)
            code = code.astype(np.int32)
    # The undecided states, still below -1, become the draws' -1.
    np.maximum(code, -1, out=code)
    return code, plies


def _check_budget(classes, layout, per_state: int) -> None:
    """Refuse the class if its tables, ``per_state`` bytes a state, would
    exceed ``_MAX_TABLE_BYTES``."""
    need = layout.states * per_state
    if need > _MAX_TABLE_BYTES:
        raise TooLargeError(
            f"{classes.n} nodes: the class to solve has {layout.states} states, "
            f"which need {need / 2**30:.1f} GiB of state tables; "
            f"the solver allows {_MAX_TABLE_BYTES / 2**30:.0f} GiB"
        )


def _parts(runs):
    """Yield the states of the frontier ``runs``, in order, in intp parts
    of at most ``_SLICE``, the unit ``_ply`` walks: a long run is split and
    short ones are joined.

    ``_ply`` keeps each run it finds as int32, half of intp: a large
    frontier is most of a solve's working memory beyond its tables, and
    ``_MAX_TABLE_BYTES`` keeps every state index under 2^31.  Each part is
    made intp here, once: numpy converts other index types on every gather.
    """
    held, count = [], 0
    for run in runs:
        for lo in range(0, run.size, _SLICE):
            piece = run[lo:lo + _SLICE]
            if count + piece.size > _SLICE:
                yield np.concatenate(held, dtype=np.intp)
                held, count = [], 0
            held.append(piece)
            count += piece.size
    if held:
        yield np.concatenate(held, dtype=np.intp)


class _Classes:
    """The board's distinct edges, the classes of states that moves never
    leave, and the slots that lay each class out (see ``Solution``).

    Every move u -> v has ``level[v] = level[u] + 1`` modulo ``period``
    (exactly when it is 0), so a state's key stays the same along any move.
    The walk sets the levels along a spanning forest of the undirected graph
    underneath, and the period is the gcd of the amounts by which the other
    edges miss.  Keys and groups are taken modulo ``modulus``: the period,
    or at period 0 twice the number of levels, so that no two exact keys
    share a residue and a row whose movers would lie off the board lands on
    an empty group.  ``level`` and ``slot`` are by graph index; ``group`` is
    each slot's residue group, and ``first`` and ``size`` give each group's
    slots.

    The edges are kept as reverse CSR, nodes by slot: the in-neighbours of
    node a are the ``in_deg[a]`` entries of ``src`` that end where those of
    the nodes before a begin.  Index arrays are intp, since numpy converts
    any other index type on every gather.
    """

    def __init__(self, graph: Graph):
        n = len(graph.nodes)
        index = graph.index
        codes = np.array(sorted({index[v] * n + ui for ui, u in enumerate(graph.nodes)
                                 for v in graph.neighbors_out(u)}), dtype=np.intp)
        dst, src = np.divmod(codes, n)
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
        levels = np.array(level, dtype=np.intp)
        self.n, self.level = n, level
        self.period = int(np.gcd.reduce(levels[src] + 1 - levels[dst]))
        self.modulus = self.period or 2 * int(levels.max() - levels.min() + 1)
        group = levels % self.modulus
        by_slot = np.argsort(group, kind="stable")
        self.slot = np.empty(n, dtype=np.intp)
        self.slot[by_slot] = np.arange(n)
        self.group = group[by_slot]
        self.size = np.bincount(group, minlength=self.modulus)
        self.first = np.cumsum(self.size) - self.size
        # The reverse CSR, nodes by slot.
        src, dst = self.slot[src], self.slot[dst]
        self.src = src[np.argsort(dst, kind="stable")]
        self.out_deg = np.bincount(src, minlength=n)
        self.in_deg = np.bincount(dst, minlength=n)

    def layout(self, key: int) -> _Layout:
        """The rows of the class ``key``."""
        mover = np.concatenate((self.group + key, self.group - key - 1)) % self.modulus
        length = self.size[mover]
        end = np.cumsum(length)
        base = end - length - self.first[mover]
        back = base.copy()
        back[:self.n] -= self.n
        deg = np.concatenate((self.in_deg, self.in_deg))
        ends = np.cumsum(self.in_deg)
        # The largest slice of predecessors: at most _SLICE of them or those
        # of one state, and at most those of every state in the class.
        longest = min(max(_SLICE, int(self.in_deg.max())), int(deg @ length))
        narrow = max(longest, int(self.out_deg.max()) + 1) <= 2**15
        order = np.arange(longest, dtype=np.int16 if narrow else np.int32)
        return _Layout(end, base, back, mover, int(end[-1]), deg,
                       np.concatenate((ends, ends)), order)

    def predecessors(self, states: np.ndarray, layout: _Layout):
        """Yield the predecessors of ``states``, repeats kept, in slices of
        at most ``_SLICE`` or those of one state."""
        # ``_ply`` walks its lost parts and then its won ones, each slice
        # for one of them.  Against one walk over the whole frontier, split
        # at a cut, in slices of 2^16, solve timed the same or better on a
        # shared 2-vCPU host (best CPU time of 21 runs at 941 nodes, of 11
        # at 2,881): 10.6 ms against 11.5 directed and 44.9 against 47.0
        # undirected at 941 nodes; 77 ms against 81 and 493 against 501
        # at 2,881.
        # Row r holds the states from end[r - 1] up to end[r], so a state's
        # row is the number of row ends at or below it.
        rows = layout.end.searchsorted(states, "right")
        up = layout.base[states - layout.back[rows]]
        counts = layout.row_deg[rows]
        ends = counts.cumsum()
        total = int(ends[-1])
        lo = done = 0
        while lo < states.size:
            hi = states.size
            if total - done > _SLICE:
                hi = max(int(ends.searchsorted(done + _SLICE, "right")), lo + 1)
            upto = int(ends[hi - 1])
            count = counts[lo:hi]
            offset = layout.row_end[rows[lo:hi]] - ends[lo:hi]
            if done:
                offset += done
            offset = offset.repeat(count)
            offset += layout.order[:upto - done]
            yield up[lo:hi].repeat(count) + self.src[offset]
            lo, done = hi, upto


class _Layout(NamedTuple):
    """The rows r = t*n + a (a by slot) of one class: the index each row
    ends at; ``base``, such that state (t, a, b) sits at ``base[r] + b`` (b
    by slot); ``back``, such that the predecessors (1 - t, b, x) of state s
    of row r lie in row s - ``back[r]`` = (1 - t)*n + b; each row's group of
    movers, which may be empty; and the number of states.  Row r's states'
    predecessors' movers, the in-neighbours x of a, are
    ``src[row_end[r] - row_deg[r]:row_end[r]]`` in the board's reverse CSR.
    ``order`` is 0, 1, 2, ..., as long as the largest slice of predecessors
    the class can yield, the stamps ``_ply`` writes; it is built with the
    layout, so a kept board holds none.  Its dtype is the cells': int16
    while -1 minus a state's options and the stamps fit, else int32."""

    end: np.ndarray
    base: np.ndarray
    back: np.ndarray
    mover: np.ndarray
    states: int
    row_deg: np.ndarray
    row_end: np.ndarray
    order: np.ndarray


def _ply(classes, layout, lost, won, plies, code) -> tuple[list, list]:
    """Decide every state whose fate follows from the frontier.

    The frontier comes as two lists of runs of states, walked in the parts
    ``_parts`` makes: first ``lost``, whose states are lost for their mover,
    each undecided predecessor of theirs won, then ``won``, each undecided
    predecessor losing an option.  A state is undecided while its cell in
    ``code``, -1 minus its options left, is below -1.  Returns the states
    decided now, lost and won, as non-empty int32 runs, so a ply's buffers
    are sized to a part or a slice of predecessors, never to the whole
    frontier, and a ply that decides nothing returns two empty lists.
    ``np.add.at`` takes an option for each repeat of a state among the
    predecessors, in the table's own dtype, which keeps it on numpy's fast
    loop.  No cell passes -1, that of a state with no option left: each
    successor is walked once and takes at most one option from each
    predecessor, and decided cells are filtered out before the add.  A state
    decided now is kept once, one repeat of it found by stamping its cell
    with ``layout.order``, which also marks it decided.  The frontier's
    states are decided, so their cells are free: each takes its code as its
    part is walked, 2 * ``plies`` + 1 if lost and 2 * ``plies`` if won.
    """
    now_lost, now_won = [], []
    order = layout.order
    # A loss for the mover is a win for the mover of each predecessor.
    for part in _parts(lost):
        code[part] = 2 * plies + 1
        for pred in classes.predecessors(part, layout):
            pred = pred[code[pred] < -1]
            if pred.size:
                code[pred] = order[:pred.size]
                now_won.append(pred[code[pred] == order[:pred.size]].astype(np.int32))
    # A win for the mover takes one option from each predecessor; one left
    # with none, at -1, is lost for its mover.
    one = code.dtype.type(1)
    for part in _parts(won):
        code[part] = 2 * plies
        for hit in classes.predecessors(part, layout):
            hit = hit[code[hit] < -1]
            if hit.size:
                np.add.at(code, hit, one)
                hit = hit[code[hit] == -1]
                if hit.size:
                    code[hit] = order[:hit.size]
                    now_lost.append(hit[code[hit] == order[:hit.size]].astype(np.int32))
    return now_lost, now_won


def outcome(instance: GameInstance) -> Outcome:
    """Value of the initial state (Cat to move from the starting placement)."""
    return solve(instance).outcome()


class MatchTranscript(NamedTuple):
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
    n = len(graph.nodes)
    if n > _ORACLE_LIMIT:
        raise TooLargeError(f"{n} nodes; the oracle allows {_ORACLE_LIMIT}")
    horizon = 2 * n * n + 1
    memo: dict[tuple[GameState, int], Outcome] = {}

    def search(state: GameState, plies_left: int) -> Outcome:
        winner = classify(state, instance)
        if winner is not None:
            return winner
        mover = state.turn
        mover_loss = Outcome.MOUSE_WIN if mover == CAT else Outcome.CAT_WIN
        legal = graph.neighbors_out(state.position)
        if not legal:
            return mover_loss
        if plies_left == 0:
            return Outcome.DRAW
        key = (state, plies_left)
        if key in memo:
            return memo[key]
        mover_win = Outcome.CAT_WIN if mover == CAT else Outcome.MOUSE_WIN
        best = mover_loss
        for move in sorted(set(legal)):
            value = search(state.after(move), plies_left - 1)
            if value is mover_win:
                best = value
                break
            if value is Outcome.DRAW:
                best = value
        memo[key] = best
        return best

    return search(instance.initial_state(), horizon)
