"""Mechanical verification that game values track circuit values.

``verify_equivalence`` is the core harness.  In each requested mode it
builds the board of a circuit and assignment, audits its structure, solves
it exactly, and plays the scripted strategies against each other.  The
promise both lines of play must keep: on a true circuit the Mouse reaches
the hole in exactly 2·layer(m) plies; on a false one the Cat wins, the
scripted Cat by capture.  The solver's start value and distance and the
scripted match's result, reason and length are each compared once with it,
and a breach is one violation, ``<mode>: <optimal|scripted> play ended
<outcome>[ by <reason>][ in <n> plies], expected <the same>``.

``audit_board`` checks a built board against the census the circuit alone
predicts (the node count, the edges of each tag and in all, the escape
nodes, the stalk, the special nodes' roles and levels, the sinks, the copy
partners, the escape chains).  The layer geometry is not audited again: the
builder's ``validate_graph`` enforces it on every board.  That check also
puts each pair of partners on one layer; the audit checks that each
Mouse-copy node's partner is the Cat-copy node of its role.
``check_structure`` is build-then-audit, kept for the benchmark, which calls
it with a circuit, bits and a mode.

``certify_strategy`` checks, with no solver, that a fixed policy beats every
opposing line; the proof's two lemmas are such certificates, the mirror Cat
on false instances and the marching Mouse on true ones.

``fuzz_equivalence`` runs ``verify_equivalence`` in both modes over seeded
random circuits and returns serialized reproducers for any failure.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .circuits import (
    AND,
    Circuit,
    InvalidParamsError,
    evaluate,
    generate_random,
    input_ref,
    layer_widths,
    serialize_circuit,
    validate_layers,
)
from .reduction import (
    BUILDERS,
    CAT_SIDE,
    EDGE_TAGS,
    LEFT,
    MODES,
    MOUSE_SIDE,
    RIGHT,
    ROLE_CAT_START,
    ROLE_DEAD_END,
    ROLE_ESCAPE,
    ROLE_GADGET,
    ROLE_HOLE,
    ROLE_INPUT,
    TAG_ESCAPE,
    TAG_GADGET,
    TAG_GUARD,
    TAG_INTER,
    TAG_OPENING,
    TAG_THREAT,
    TAG_TO_DEAD_END,
    TAG_TO_HOLE,
    escape_node,
    gadget_node,
    input_node,
    node_count,
    stats,
)
from .solver import (
    CAT,
    MOUSE,
    GameInstance,
    GameState,
    Outcome,
    classify,
    play_match,
    solve,
)
from .strategies import (
    StrategyError,
    make_mirror_cat,
    make_true_path_mouse,
)

class VerificationReport(NamedTuple):
    """What one circuit-and-assignment check found."""

    bits: str
    circuit_value: bool
    outcomes: dict
    scripted: dict
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_equivalence(
    circuit: Circuit, bits, modes=MODES
) -> VerificationReport:
    # A string is one name, not a tuple of them.
    if isinstance(modes, str) or not modes or any(m not in MODES for m in modes):
        raise InvalidParamsError(f"modes must be one or more of {MODES}, got {modes!r}")
    out, values = evaluate(circuit, bits)
    value = bool(out)
    outcomes: dict = {}
    scripted: dict = {}
    violations: list[str] = []
    # One mode at a time: each board, its solution and its strategies are
    # freed before the next mode's board is built and solved.
    for mode in modes:
        outcomes[mode], scripted[mode] = _verify_mode(
            circuit, bits, mode, value, violations)
    return VerificationReport(
        bits="".join("1" if values[input_ref(i)] else "0"
                     for i in range(circuit.num_inputs)),
        circuit_value=value,
        outcomes=outcomes,
        scripted=scripted,
        violations=tuple(violations),
    )


def _verify_mode(circuit: Circuit, bits, mode: str, value: bool,
                 violations: list[str]) -> tuple[Outcome, Outcome | None]:
    """Check the ``mode`` board of a circuit whose value is ``value``,
    appending each problem to ``violations``; return the solver's outcome
    and the scripted match's result, None if the match aborted."""
    graph, cmap = BUILDERS[mode](circuit, bits)
    violations.extend(
        f"structure[{mode}]: {p}"
        for p in audit_board(graph, cmap, circuit, bits)
    )
    # The promised line of play: its outcome, how it ends and its plies.
    want = ((Outcome.MOUSE_WIN, "hole", 2 * cmap.layer[graph.m]) if value
            else (Outcome.CAT_WIN, "capture", None))
    inst = GameInstance.from_game_graph(graph)
    solution = solve(inst)
    outcome = solution.outcome()
    optimal = (outcome, None, solution.dist(inst.initial_state()) if value else None)
    promised = (want[0], None, want[2])  # optimal play is not asked how it ends
    if optimal != promised:
        violations.append(_breach(mode, "optimal", optimal, promised))
    cat = make_mirror_cat(inst, cmap, circuit, bits)
    mouse = make_true_path_mouse(inst, cmap, circuit, bits)
    try:
        transcript = play_match(inst, cat, mouse)
    except StrategyError as err:
        violations.append(f"{mode}: scripted match aborted: {err}")
        return outcome, None
    scripted = (transcript.result, transcript.reason,
                len(transcript.moves) if value else None)
    if scripted != want:
        violations.append(_breach(mode, "scripted", scripted, want))
    return outcome, transcript.result


def _breach(mode: str, play: str, got: tuple, want: tuple) -> str:
    """One violation line; a line of play is (outcome, reason, plies), and
    a reason or plies of None is left out."""
    def ended(result, reason, plies):
        return (result.value + (f" by {reason}" if reason else "")
                + ("" if plies is None else f" in {plies} plies"))
    return f"{mode}: {play} play ended {ended(*got)}, expected {ended(*want)}"


def check_structure(circuit: Circuit, bits, mode: str) -> list[str]:
    """Build the ``mode`` board and list every mismatch the audit finds."""
    return audit_board(*BUILDERS[mode](circuit, bits), circuit, bits)


def audit_board(graph, cmap, circuit: Circuit, bits) -> list[str]:
    """Compare a built board with the census the circuit alone predicts.

    The counts come first, each as ``"<name> <got>, expected <want>"``: the
    node count, the edges of each tag and in all, and the escape nodes.  The
    stalk, the mouse start, the roles of c, h and d, the levels of c, m and
    h, the sinks, the copy partners and the escape chains follow."""
    layers = validate_layers(circuit)
    depth = layers[circuit.output]
    _bit, values = evaluate(circuit, bits)
    gates = circuit.gates
    n_and = sum(1 for g in gates if g.kind == AND)
    n_true = sum(
        1 for i in range(circuit.num_inputs) if values[input_ref(i)]
    )
    # Edges per tag: six inside and two out of each gadget in both copies,
    # one hole edge per true input in each copy, one dead-end edge per false
    # Mouse input and per Cat input, a threat pair per AND gadget, two escape
    # chains per gadget on layer j of 3j edges each, entries included, and,
    # undirected, a guard per Mouse-copy edge of the two gadget tags.
    tag_edges = {
        TAG_OPENING: 1,
        TAG_GADGET: 12 * len(gates),
        TAG_INTER: 4 * len(gates),
        TAG_TO_HOLE: 2 * n_true,
        TAG_TO_DEAD_END: 2 * circuit.num_inputs - n_true,
        TAG_THREAT: 2 * n_and,
        TAG_ESCAPE: sum(6 * layers[g.id] for g in gates),
        TAG_GUARD: 0 if graph.directed else 8 * len(gates),
    }
    counts = stats(graph)
    census = [("node count", counts["node_count"], node_count(circuit, layers))]
    census += [(f"{tag} edges", counts["edge_tags"][tag], tag_edges[tag])
               for tag in EDGE_TAGS]
    census += [
        ("edge count", counts["edge_count"], sum(tag_edges.values())),
        ("escape nodes", counts["node_roles"].get(ROLE_ESCAPE, 0),
         sum(2 * (3 * layers[g.id] - 2) for g in gates)),
    ]
    problems = [f"{name} {got}, expected {want}"
                for name, got, want in census if got != want]

    if graph.neighbors_out(graph.c) != (gadget_node(circuit.output, CAT_SIDE, 1),):
        problems.append("cat start does not feed exactly the output gadget")
    mouse_start = gadget_node(circuit.output, MOUSE_SIDE, 1)
    if graph.m != mouse_start:
        problems.append(f"mouse start is {graph.m}, expected {mouse_start}")
    for name, node, kind in (("cat start", graph.c, ROLE_CAT_START),
                             ("hole", graph.h, ROLE_HOLE),
                             ("dead end", graph.d, ROLE_DEAD_END)):
        got = graph.role(node).kind
        if got != kind:
            problems.append(f"{name} has role {got}, expected {kind}")
    # validate_graph makes every directed edge drop one level, so on the
    # directed board the hole's level also puts each node its level away.
    for name, node, level in (("cat start", graph.c, 3 * depth + 2),
                              ("mouse start", graph.m, 3 * depth + 1),
                              ("hole", graph.h, 0)):
        if cmap.layer[node] != level:
            problems.append(f"{name} is on the wrong level")

    if graph.directed:
        for sink in (graph.h, graph.d):
            if graph.neighbors_out(sink):
                problems.append(f"{sink} has outgoing edges")

    paired = set(cmap.cat_of) | set(cmap.cat_of.values())
    for v in graph.nodes:
        role = graph.role(v)
        if role.kind not in (ROLE_GADGET, ROLE_INPUT):
            continue
        if v not in paired:
            problems.append(f"{v} has no partner in the other copy")
        elif role.side == MOUSE_SIDE:
            want = (gadget_node(role.gate, CAT_SIDE, role.position)
                    if role.kind == ROLE_GADGET else input_node(role.index, CAT_SIDE))
            got = cmap.cat_of.get(v)
            if got != want:
                problems.append(f"{v} is paired with {got}, expected {want}")

    for g in gates:
        j = layers[g.id]
        for branch in (LEFT, RIGHT):
            chain = [escape_node(g.id, branch, t) for t in range(1, 3 * j - 1)]
            for v in chain:
                if not graph.has_node(v):
                    problems.append(f"{g.id}/{branch}: missing chain node {v}")
                elif graph.role(v).kind != ROLE_ESCAPE:
                    problems.append(f"{g.id}/{branch}: {v} has the wrong role")
    return problems


class Certificate(NamedTuple):
    """The walk of one side's fixed policy against every opposing move:
    ``walk`` maps each (cat, mouse, turn) state reached from the start to
    the states its moves lead to.  ``shortest`` and ``longest`` count the
    plies from the start to an end of play; a move closing a cycle ends no
    line."""

    side: str
    walk: dict
    states: int
    shortest: int
    longest: int
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def certify_strategy(instance: GameInstance, side: str, policy) -> Certificate:
    """Check that ``policy`` wins for ``side`` against any opposition.

    Fix ``side``'s moves to ``policy``, let the other side play every legal
    move, and walk every state reachable from the start.  The policy wins
    iff it never raises or plays an illegal move, every end of play reached
    is ``side``'s win, and the walk has no cycle, through which the
    opponent could force a repetition draw.  Each breach is one problem.
    A ``side`` other than ``CAT`` or ``MOUSE`` raises ValueError.
    """
    if side not in (CAT, MOUSE):
        raise ValueError(f"side must be {CAT!r} or {MOUSE!r}, got {side!r}")
    graph, problems = instance.graph, []
    win = Outcome.CAT_WIN if side == CAT else Outcome.MOUSE_WIN

    def at(state) -> str:
        return "cat {}, mouse {}, {} to move".format(*state)

    def successors(state: GameState) -> tuple[GameState, ...]:
        winner = classify(state, instance)
        if winner is not None:
            if winner is not win:
                ended = "capture" if winner is Outcome.CAT_WIN else "hole"
                problems.append(f"{at(state)}: play ends by {ended}")
            return ()
        legal = graph.neighbors_out(state.position)
        if state.turn == side:
            if not legal:
                problems.append(f"{at(state)}: {side} is stuck")
                return ()
            try:
                move = policy(state)
            except Exception as err:
                problems.append(f"{at(state)}: policy raised {type(err).__name__}: {err}")
                return ()
            if move not in legal:
                problems.append(f"{at(state)}: policy played {state.position} -> {move}")
                return ()
            legal = (move,)
        return tuple([state.after(v) for v in legal])

    # Iterative depth-first walk.  A state gets its (fewest, most) plies to
    # an end of play once all its successors have theirs, so a successor
    # reached again before that is on the current line: a cycle.
    start = instance.initial_state()
    walk, span = {start: successors(start)}, {}
    stack = [(start, iter(walk[start]))]
    while stack:
        state, todo = stack[-1]
        for nxt in todo:
            if nxt not in walk:
                walk[nxt] = successors(nxt)
                stack.append((nxt, iter(walk[nxt])))
                break
            if nxt not in span:
                problems.append(f"{at(nxt)}: reached again, a cycle")
        else:
            stack.pop()
            ends = [span[s] for s in walk[state] if s in span] or [(-1, -1)]
            fewest, most = zip(*ends)
            span[state] = (1 + min(fewest), 1 + max(most))
    return Certificate(side, walk, len(walk), *span[start], tuple(problems))


class FuzzFailure(NamedTuple):
    trial: int
    circuit_text: str
    bits: str
    violations: tuple[str, ...]

    def reproducer(self) -> str:
        lines = [f"# trial {self.trial}, bits {self.bits}"]
        lines.extend(f"# {v}" for v in self.violations)
        return "\n".join(lines) + "\n" + self.circuit_text


class FuzzReport(NamedTuple):
    checked: int
    failures: tuple[FuzzFailure, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz_equivalence(
    n: int,
    seed: int,
    max_layers: int = 3,
    max_width: int = 3,
    max_inputs: int = 4,
) -> FuzzReport:
    """Run ``verify_equivalence`` in both modes over ``n`` seeded random
    circuit-and-assignment pairs.  Sizes out of range raise
    InvalidParamsError."""
    limits = (("n", n, 0), ("max_layers", max_layers, 1),
              ("max_width", max_width, 1), ("max_inputs", max_inputs, 2))
    for name, value, least in limits:
        if value < least:
            raise InvalidParamsError(f"{name} must be at least {least}, got {value}")
    # The largest circuit a trial may draw must be one generate_random makes.
    layer_widths(max_layers, max_width, max_inputs)
    rng = random.Random(seed)
    failures: list[FuzzFailure] = []
    for trial in range(n):
        depth = rng.randint(1, max_layers)
        width = rng.randint(1, max_width)
        num_inputs = rng.randint(2, max_inputs)
        # Strict fanout 2 is only satisfiable when the first gate layer can
        # absorb every input; fall back to free fanout otherwise.
        first_width = layer_widths(depth, width)[0]
        fanout2 = (
            rng.random() < 0.25
            and first_width <= num_inputs <= 2 * first_width
        )
        circuit = generate_random(
            layers=depth,
            width=width,
            num_inputs=num_inputs,
            p_or=rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)),
            seed=rng.randrange(2 ** 32),
            fanout2=fanout2,
        )
        bits = "".join(rng.choice("01") for _ in range(circuit.num_inputs))
        violations = verify_equivalence(circuit, bits).violations
        if violations:
            failures.append(
                FuzzFailure(
                    trial=trial,
                    circuit_text=serialize_circuit(circuit),
                    bits=bits,
                    violations=violations,
                )
            )
    return FuzzReport(checked=n, failures=tuple(failures))
