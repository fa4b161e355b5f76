"""Mechanical verification that game values track circuit values.

``verify_equivalence`` is the core harness: build the game for a circuit and
assignment, audit its structure, solve it exactly, and demand that the Mouse
wins if and only if the circuit evaluates to true, with no draws, in
whichever modes are requested.  It also plays the scripted strategies
against each other and checks the match ends the way the plans promise: on
a true circuit the Mouse reaches the hole in exactly two plies per level, on
a false one the Cat captures.

``audit_board`` checks a built board against the census the circuit alone
predicts (node, edge, threat and guard counts, the stalk, the levels of c, m
and h, the sinks, the copy partners, the escape chains).  The layer geometry
and the copy pairing are not audited again: the builder's ``validate_graph``
enforces them on every board.  ``check_structure`` is build-then-audit, kept
for the benchmark, which calls it with a circuit, bits and a mode.

``undirected_probes`` plays deviating strategies on the undirected graph:
three Mouse cheats (stepping backwards, crossing into the Cat copy over a
threat edge, crossing over a guard edge) that must each be punished by
capture on the very next ply, and a Cat tempo-waste (retreating to its
previous node) that must still lose on a true circuit.

``fuzz_equivalence`` runs ``verify_equivalence`` in both modes over seeded
random circuits and returns serialized reproducers for any failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .circuits import (
    AND,
    Circuit,
    evaluate,
    generate_random,
    input_ref,
    serialize_circuit,
    validate_layers,
)
from .reduction import (
    BUILDERS,
    CAT_SIDE,
    MODES,
    MOUSE_SIDE,
    ROLE_ESCAPE,
    ROLE_GADGET,
    ROLE_INPUT,
    TAG_GUARD,
    TAG_THREAT,
    build_undirected,
    escape_node,
    gadget_node,
    stats,
)
from .solver import (
    CAT,
    GameInstance,
    Outcome,
    play_match,
    solve,
)
from .strategies import (
    NoMoveError,
    StrategyError,
    make_mirror_cat,
    make_true_path_mouse,
)

@dataclass(frozen=True)
class VerificationReport:
    """What one circuit-and-assignment check found."""

    bits: str
    circuit_value: bool
    outcomes: dict
    scripted: dict
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _bits_text(bits) -> str:
    if isinstance(bits, str):
        return bits
    return "".join("1" if b else "0" for b in bits)


def verify_equivalence(
    circuit: Circuit, bits, modes=MODES
) -> VerificationReport:
    value = bool(evaluate(circuit, bits)[0])
    expected = Outcome.MOUSE_WIN if value else Outcome.CAT_WIN
    outcomes: dict = {}
    scripted: dict = {}
    violations: list[str] = []
    for mode in modes:
        graph, cmap = BUILDERS[mode](circuit, bits)
        violations.extend(
            f"structure[{mode}]: {p}"
            for p in audit_board(graph, cmap, circuit, bits)
        )
        inst = GameInstance.from_game_graph(graph)
        solution = solve(inst)
        outcomes[mode] = solution.outcome()
        if outcomes[mode] is not expected:
            violations.append(
                f"{mode}: solver says {outcomes[mode].value}, "
                f"circuit value is {value}"
            )
        level = cmap.layer[graph.m]
        if value and outcomes[mode] is expected:
            plies = solution.dist(inst.initial_state())
            if plies != 2 * level:
                violations.append(
                    f"{mode}: optimal win takes {plies} plies, "
                    f"expected {2 * level}"
                )
        cat = make_mirror_cat(inst, cmap, circuit, bits)
        mouse = make_true_path_mouse(inst, cmap, circuit, bits)
        try:
            transcript = play_match(inst, cat, mouse)
        except StrategyError as err:
            violations.append(f"{mode}: scripted match aborted: {err}")
            scripted[mode] = None
            continue
        scripted[mode] = transcript.result
        if transcript.result is not expected:
            violations.append(
                f"{mode}: scripted match ended {transcript.result.value} "
                f"({transcript.reason}), circuit value is {value}"
            )
        elif value:
            if transcript.reason != "hole":
                violations.append(
                    f"{mode}: scripted win by {transcript.reason}, not hole"
                )
            if len(transcript.moves) != 2 * level:
                violations.append(
                    f"{mode}: scripted win took {len(transcript.moves)} "
                    f"plies, expected {2 * level}"
                )
        elif transcript.reason != "capture":
            violations.append(
                f"{mode}: scripted loss by {transcript.reason}, not capture"
            )
    return VerificationReport(
        bits=_bits_text(bits),
        circuit_value=value,
        outcomes=outcomes,
        scripted=scripted,
        violations=tuple(violations),
    )


def check_structure(circuit: Circuit, bits, mode: str) -> list[str]:
    """Build the ``mode`` board and list every mismatch the audit finds."""
    return audit_board(*BUILDERS[mode](circuit, bits), circuit, bits)


def audit_board(graph, cmap, circuit: Circuit, bits) -> list[str]:
    """Compare a built board with the census the circuit alone predicts."""
    layers = validate_layers(circuit)
    depth = layers[circuit.output]
    _bit, values = evaluate(circuit, bits)
    gates = circuit.gates
    n_and = sum(1 for g in gates if g.kind == AND)
    n_true = sum(
        1 for i in range(circuit.num_inputs) if values[input_ref(i)]
    )
    problems: list[str] = []

    expected_nodes = (
        3
        + 2 * circuit.num_inputs
        + 10 * len(gates)
        + sum(2 * (3 * layers[g.id] - 2) for g in gates)
    )
    if len(graph.nodes) != expected_nodes:
        problems.append(
            f"node count {len(graph.nodes)}, expected {expected_nodes}"
        )

    expected_guards = 0 if graph.directed else 8 * len(gates)
    expected_edges = (
        1
        + 16 * len(gates)
        + 2 * n_and
        + sum(6 * layers[g.id] for g in gates)
        + 2 * circuit.num_inputs
        + n_true
        + expected_guards
    )
    if len(graph.edges) != expected_edges:
        problems.append(
            f"edge count {len(graph.edges)}, expected {expected_edges}"
        )

    counts = stats(graph)["edge_tags"]
    if counts[TAG_THREAT] != 2 * n_and:
        problems.append(
            f"threat edges {counts[TAG_THREAT]}, expected {2 * n_and}"
        )
    if counts[TAG_GUARD] != expected_guards:
        problems.append(
            f"guard edges {counts[TAG_GUARD]}, expected {expected_guards}"
        )

    if graph.neighbors_out(graph.c) != (gadget_node(circuit.output, CAT_SIDE, 1),):
        problems.append("cat start does not feed exactly the output gadget")
    if cmap.layer[graph.c] != 3 * depth + 2:
        problems.append("cat start is on the wrong level")
    if cmap.layer[graph.m] != 3 * depth + 1:
        problems.append("mouse start is on the wrong level")
    # validate_graph makes every directed edge drop one level, so on the
    # directed board this also puts each node its level away from the hole.
    if cmap.layer[graph.h] != 0:
        problems.append("hole is on the wrong level")

    if graph.directed:
        for sink in (graph.h, graph.d):
            if graph.neighbors_out(sink):
                problems.append(f"{sink} has outgoing edges")

    paired = set(cmap.cat_of) | set(cmap.cat_of.values())
    for v in graph.nodes:
        role = graph.role(v)
        if role.kind in (ROLE_GADGET, ROLE_INPUT) and v not in paired:
            problems.append(f"{v} has no partner in the other copy")

    for g in gates:
        j = layers[g.id]
        for branch in ("L", "R"):
            chain = [escape_node(g.id, branch, t) for t in range(1, 3 * j - 1)]
            for v in chain:
                if not graph.has_node(v):
                    problems.append(f"{g.id}/{branch}: missing chain node {v}")
                elif graph.role(v).kind != ROLE_ESCAPE:
                    problems.append(f"{g.id}/{branch}: {v} has the wrong role")
    escape_count = sum(
        1 for v in graph.nodes if graph.role(v).kind == ROLE_ESCAPE
    )
    expected_escape = sum(2 * (3 * layers[g.id] - 2) for g in gates)
    if escape_count != expected_escape:
        problems.append(
            f"escape nodes {escape_count}, expected {expected_escape}"
        )
    return problems


@dataclass(frozen=True)
class ProbeResult:
    """One deviating-strategy playout on the undirected graph."""

    name: str
    fired: bool
    ok: bool
    detail: str = ""


def _smallest_legal(graph, state):
    mover_at = state.cat if state.turn == CAT else state.mouse
    legal = sorted(graph.neighbors_out(mover_at))
    return legal[0] if legal else None


def _deviating_mouse(graph, base, trigger):
    """Play ``base`` until ``trigger`` offers a move; then keep playing
    whatever is legal.  Records the mouse-move number of the deviation."""
    memo = {"prev": None, "moves": 0, "fired_at": None}

    def policy(state):
        memo["moves"] += 1
        if memo["fired_at"] is None:
            deviation = trigger(state, memo["prev"], memo["moves"])
            if deviation is not None:
                memo["fired_at"] = memo["moves"]
                return deviation
            move = base(state)
        else:
            move = _smallest_legal(graph, state)
        memo["prev"] = state.mouse
        return move

    return policy, memo


def _probe_match(name, inst, cat, base, trigger):
    mouse, memo = _deviating_mouse(inst.graph, base, trigger)
    transcript = play_match(inst, cat, mouse)
    if memo["fired_at"] is None:
        return ProbeResult(name, fired=False, ok=True, detail="never fired")
    # Mouse move k is overall ply 2k; the capture must be the very next ply.
    expected_plies = 2 * memo["fired_at"] + 1
    ok = (
        transcript.result is Outcome.CAT_WIN
        and transcript.reason == "capture"
        and len(transcript.moves) == expected_plies
    )
    detail = (
        f"deviation on mouse move {memo['fired_at']}: "
        f"{transcript.result.value} by {transcript.reason} "
        f"after {len(transcript.moves)} plies (expected {expected_plies})"
    )
    return ProbeResult(name, fired=True, ok=ok, detail=detail)


def undirected_probes(circuit: Circuit, bits) -> list[ProbeResult]:
    graph, cmap = build_undirected(circuit, bits)
    inst = GameInstance.from_game_graph(graph)
    # Both scripted policies are stateless, so every probe shares them.
    base_cat = make_mirror_cat(inst, cmap, circuit, bits)
    base_mouse = make_true_path_mouse(inst, cmap, circuit, bits)
    results = []

    def backtrack(state, prev, moves):
        if moves >= 2 and prev is not None:
            return prev
        return None

    results.append(
        _probe_match("mouse-backtrack", inst, base_cat, base_mouse, backtrack)
    )

    def cross_threat(state, prev, moves):
        role = graph.role(state.mouse)
        if role.kind == ROLE_GADGET and role.position in (4, 5):
            other = 3 if role.position == 4 else 2
            target = gadget_node(role.gate, CAT_SIDE, other)
            if target in graph.neighbors_out(state.mouse):
                return target
        return None

    results.append(
        _probe_match("mouse-cross-threat", inst, base_cat, base_mouse, cross_threat)
    )

    def cross_guard(state, prev, moves):
        if moves < 2:
            return None
        role = graph.role(state.mouse)
        if role.kind == ROLE_GADGET and role.side == MOUSE_SIDE:
            for v in sorted(graph.neighbors_out(state.mouse)):
                if v in cmap.mouse_of and cmap.layer[v] == cmap.layer[state.mouse] - 1:
                    # A Cat-copy node one level down: only guard edges go there.
                    return v
        return None

    results.append(
        _probe_match("mouse-cross-guard", inst, base_cat, base_mouse, cross_guard)
    )

    # Cat tempo-waste: retreat on move 3, then resume shadowing if possible.
    memo = {"moves": 0, "prev": None}

    def wasting_cat(state):
        memo["moves"] += 1
        if memo["moves"] == 3 and memo["prev"] is not None:
            move = memo["prev"]
        else:
            try:
                move = base_cat(state)
            except NoMoveError:
                move = _smallest_legal(graph, state)
        memo["prev"] = state.cat
        return move

    best_mouse = solve(inst).policy()
    transcript = play_match(inst, wasting_cat, best_mouse)
    value = bool(evaluate(circuit, bits)[0])
    ok = transcript.result is Outcome.MOUSE_WIN if value else True
    results.append(
        ProbeResult(
            "cat-backtrack",
            fired=value and memo["moves"] >= 3,
            ok=ok,
            detail=f"{transcript.result.value} by {transcript.reason}",
        )
    )
    return results


@dataclass(frozen=True)
class FuzzFailure:
    trial: int
    circuit_text: str
    bits: str
    violations: tuple[str, ...]

    def reproducer(self) -> str:
        lines = [f"# trial {self.trial}, bits {self.bits}"]
        lines.extend(f"# {v}" for v in self.violations)
        return "\n".join(lines) + "\n" + self.circuit_text


@dataclass(frozen=True)
class FuzzReport:
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
    circuit-and-assignment pairs."""
    rng = random.Random(seed)
    failures: list[FuzzFailure] = []
    for trial in range(n):
        depth = rng.randint(1, max_layers)
        width = rng.randint(1, max_width)
        num_inputs = rng.randint(2, max_inputs)
        # Strict fanout 2 is only satisfiable when the first gate layer can
        # absorb every input; fall back to free fanout otherwise.
        first_width = min(width, 2 ** (depth - 1))
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
