"""Acceptance sweep: the full equivalence story at desk scale.

One seeded 200-circuit corpus drives most criteria.  Every circuit is
played on every input assignment in both graph modes; each instance is
built, solved exactly, structure-checked, round-tripped through the text
format, and contested by the scripted strategies against solver-optimal
opposition.  The sweep runs once (module fixture) and the criterion
tests assert over the pooled results, so the report shows one pass/fail
line per criterion.

Ply-count note for criterion 4: the cat moves first, so the mouse's
k-th move lands on ply 2k.  A winning mouse on a true circuit therefore
needs exactly 2*layer(m) plies (layer(m) mouse moves), and that is the
figure asserted here.
"""

import random
import time
from dataclasses import dataclass, field

import pytest

from catmouse.circuits import (
    AND,
    evaluate,
    generate_random,
    parse_circuit,
    serialize_circuit,
    validate_layers,
)
from catmouse.reduction import (
    BUILDERS,
    MODES,
    export_graph,
    import_graph,
)
from catmouse.solver import (
    GameInstance,
    Outcome,
    minimax_oracle,
    play_match,
    solve,
)
from catmouse.strategies import StrategyError, make_mirror_cat, make_true_path_mouse
from catmouse.verify import audit_board, fuzz_equivalence, undirected_probes

from conftest import random_arena, random_placement

CORPUS_SEED = 20260823
CORPUS_SIZE = 200
TIME_BUDGET_SECONDS = 300.0


def _make_corpus():
    """200 circuits, layers <= 4, width <= 6, inputs <= 6, mixed gate bias."""
    rng = random.Random(CORPUS_SEED)
    corpus = []
    while len(corpus) < CORPUS_SIZE:
        layers = rng.choices((1, 2, 3, 4), weights=(30, 35, 25, 10))[0]
        width = rng.choices((1, 2, 3, 4, 5, 6), weights=(15, 30, 25, 15, 10, 5))[0]
        num_inputs = rng.choices((2, 3, 4, 5, 6), weights=(40, 30, 18, 8, 4))[0]
        p_or = rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))
        first_width = min(width, 2 ** (layers - 1))
        fanout2 = rng.random() < 0.2 and first_width <= num_inputs <= 2 * first_width
        corpus.append(
            generate_random(
                layers=layers,
                width=width,
                num_inputs=num_inputs,
                p_or=p_or,
                seed=rng.randrange(2**32),
                fanout2=fanout2,
            )
        )
    return corpus


@dataclass
class SweepResults:
    circuits: int = 0
    instances: int = 0
    draws: int = 0
    elapsed: float = 0.0
    equivalence_violations: list = field(default_factory=list)
    structure_violations: list = field(default_factory=list)
    strategy_violations: list = field(default_factory=list)
    strategy_aborts: list = field(default_factory=list)
    roundtrip_violations: list = field(default_factory=list)
    scripted_true_wins: int = 0
    scripted_false_wins: int = 0


def _assignments(num_inputs):
    for k in range(2**num_inputs):
        yield format(k, f"0{num_inputs}b")


def _sweep_instance(results, tag, circuit, bits, mode, value):
    graph, cmap = BUILDERS[mode](circuit, bits)
    inst = GameInstance.from_game_graph(graph)
    sol = solve(inst)
    out = sol.outcome()
    results.instances += 1

    # Criterion 1: exact equivalence, no draws from the start state.
    expected = Outcome.MOUSE_WIN if value else Outcome.CAT_WIN
    if out is Outcome.DRAW:
        results.draws += 1
    if out is not expected:
        results.equivalence_violations.append(f"{tag}: solver says {out.value}, circuit value {value}")

    # Criterion 3: structural invariants on this built instance.
    for problem in audit_board(graph, cmap, circuit, bits):
        results.structure_violations.append(f"{tag}: {problem}")

    # Criterion 4: scripted strategies against optimal opposition, then
    # against each other.  Policies are stateless, so one of each suffices.
    level = cmap.layer[graph.m]
    try:
        cat_script = make_mirror_cat(inst, cmap, circuit, bits)
        mouse_script = make_true_path_mouse(inst, cmap, circuit, bits)
        if value:
            vs_optimal = play_match(inst, sol.policy(), mouse_script)
            if vs_optimal.result is not Outcome.MOUSE_WIN:
                results.strategy_violations.append(
                    f"{tag}: scripted mouse lost to optimal cat ({vs_optimal.reason})"
                )
        else:
            vs_optimal = play_match(inst, cat_script, sol.policy())
            if vs_optimal.result is not Outcome.CAT_WIN:
                results.strategy_violations.append(
                    f"{tag}: scripted cat lost to optimal mouse ({vs_optimal.reason})"
                )
        head_to_head = play_match(inst, cat_script, mouse_script)
        if head_to_head.result is not expected:
            results.strategy_violations.append(
                f"{tag}: head-to-head gave {head_to_head.result.value}, circuit value {value}"
            )
        elif value:
            if len(head_to_head.moves) != 2 * level or head_to_head.mouse_moves() != level:
                results.strategy_violations.append(
                    f"{tag}: true-instance win took {len(head_to_head.moves)} plies, "
                    f"expected {2 * level}"
                )
            results.scripted_true_wins += 1
        else:
            results.scripted_false_wins += 1
    except StrategyError as exc:
        results.strategy_aborts.append(f"{tag}: {type(exc).__name__}: {exc}")

    # Criterion 6: text format round-trips losslessly.
    text = export_graph(graph, cmap)
    graph2, cmap2 = import_graph(text)
    if export_graph(graph2, cmap2) != text:
        results.roundtrip_violations.append(f"{tag}: graph export changed after re-import")


@pytest.fixture(scope="module")
def sweep():
    corpus = _make_corpus()
    results = SweepResults(circuits=len(corpus))
    start = time.perf_counter()
    for ci, circuit in enumerate(corpus):
        validate_layers(circuit)
        text = serialize_circuit(circuit)
        if serialize_circuit(parse_circuit(text)) != text:
            results.roundtrip_violations.append(f"circuit {ci}: text format not stable")
        for bits in _assignments(circuit.num_inputs):
            value, _ = evaluate(circuit, bits)
            for mode in MODES:
                tag = f"circuit {ci} bits {bits} {mode}"
                _sweep_instance(results, tag, circuit, bits, mode, value)
    results.elapsed = time.perf_counter() - start
    return results


@pytest.fixture(scope="module")
def corpus():
    return _make_corpus()


def test_criterion_1_equivalence_at_desk_scale(sweep):
    """Circuit true iff Mouse wins, false iff Cat wins, never a draw."""
    assert sweep.circuits >= 200
    assert sweep.instances >= 2 * sweep.circuits * 4  # both modes, >= 4 assignments each
    assert sweep.draws == 0, f"{sweep.draws} initial-state draws"
    assert sweep.equivalence_violations == [], "\n".join(sweep.equivalence_violations[:20])
    assert sweep.elapsed < TIME_BUDGET_SECONDS, f"sweep took {sweep.elapsed:.1f}s"


def test_criterion_2_solver_matches_exhaustive_oracle():
    """Retrograde solve agrees with plain minimax on 100+ small arenas."""
    checked = 0
    reachable_holes = 0
    unreachable_holes = 0
    for s in range(120):
        graph = random_arena(9000 + s)
        cat, mouse, hole = random_placement(graph, 12000 + s)
        inst = GameInstance(graph, cat, mouse, hole)
        got = solve(inst).outcome()
        want = minimax_oracle(inst)
        assert got == want, f"seed {s}: solve {got.value}, oracle {want.value}"
        seen = {mouse}
        frontier = [mouse]
        while frontier:
            nxt = []
            for node in frontier:
                for succ in graph.neighbors_out(node):
                    if succ not in seen:
                        seen.add(succ)
                        nxt.append(succ)
            frontier = nxt
        if hole in seen:
            reachable_holes += 1
        else:
            unreachable_holes += 1
        checked += 1
    assert checked >= 100
    assert reachable_holes >= 10 and unreachable_holes >= 10

    # Hand-built corners: forced suicide vs capture precedence, the stuck
    # rule, and a clean four-cycle draw.
    from catmouse.solver import Graph

    suicide = Graph(True, ("x", "y", "h"), (("x", "h"), ("y", "h")))
    inst = GameInstance(suicide, "x", "y", "h")
    assert solve(inst).outcome() is Outcome.CAT_WIN
    assert minimax_oracle(inst) is Outcome.CAT_WIN

    stuck = Graph(True, ("a", "b", "h"), (("b", "a"),))
    inst = GameInstance(stuck, "a", "b", "h")  # cat to move, no cat edges
    assert solve(inst).outcome() is Outcome.MOUSE_WIN
    assert minimax_oracle(inst) is Outcome.MOUSE_WIN

    ring = Graph(
        False,
        ("a", "b", "c", "d", "h"),
        (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")),
    )
    inst = GameInstance(ring, "a", "c", "h")
    assert solve(inst).outcome() is Outcome.DRAW
    assert minimax_oracle(inst) is Outcome.DRAW


def test_criterion_3_structural_invariants_hold_corpus_wide(sweep):
    """Layer geometry, census formulas, guards, threats, escapes, stalk."""
    assert sweep.structure_violations == [], "\n".join(sweep.structure_violations[:20])


def test_criterion_4_scripted_strategies_realize_the_proof(sweep):
    """Mirror cat wins every false instance, marching mouse every true one."""
    assert sweep.strategy_aborts == [], "\n".join(sweep.strategy_aborts[:20])
    assert sweep.strategy_violations == [], "\n".join(sweep.strategy_violations[:20])
    assert sweep.scripted_true_wins >= 100
    assert sweep.scripted_false_wins >= 100


def test_criterion_5_undirected_deviations_are_punished(corpus):
    """Each probe fires on 10+ instances; every firing ends as predicted."""
    fired = {}
    failures = []
    used = 0
    pool = [c for c in corpus if c.gates[-1].kind == AND]
    extra = 0
    while len(pool) < 14:
        pool.append(
            generate_random(layers=2, width=2, num_inputs=2, p_or=0.0, seed=7000 + extra)
        )
        extra += 1
    for circuit in pool:
        bits = "1" * circuit.num_inputs  # monotone, so every gate is true
        for probe in undirected_probes(circuit, bits):
            if probe.fired:
                fired[probe.name] = fired.get(probe.name, 0) + 1
            if not probe.ok:
                failures.append(f"{probe.name}: {probe.detail}")
        used += 1
        if used >= 10 and fired and min(fired.values()) >= 10 and len(fired) == 4:
            break
    assert used >= 10
    assert failures == [], "\n".join(failures[:20])
    assert len(fired) == 4, f"probes seen: {sorted(fired)}"
    assert min(fired.values()) >= 10, f"firing counts: {fired}"


def test_criterion_6_determinism_and_lossless_round_trips(sweep, corpus):
    """Same seeds, same bytes; both text formats are stable round trips."""
    assert sweep.roundtrip_violations == [], "\n".join(sweep.roundtrip_violations[:20])

    # Repeating a build from the same circuit and bits reproduces the
    # exported bytes and the solved value.
    for circuit in corpus[:3]:
        bits = "1" * circuit.num_inputs
        for mode in MODES:
            g1, c1 = BUILDERS[mode](circuit, bits)
            g2, c2 = BUILDERS[mode](circuit, bits)
            assert export_graph(g1, c1) == export_graph(g2, c2)
            i1 = GameInstance.from_game_graph(g1)
            i2 = GameInstance.from_game_graph(g2)
            s1 = solve(i1)
            s2 = solve(i2)
            assert s1.outcome() == s2.outcome()
            assert s1.dist(i1.initial_state()) == s2.dist(i2.initial_state())

    # The corpus itself is a fixed-seed artifact.
    again = _make_corpus()
    assert [serialize_circuit(c) for c in again] == [
        serialize_circuit(c) for c in corpus
    ]

    # Seeded fuzzing is replayable end to end.
    assert fuzz_equivalence(5, seed=77) == fuzz_equivalence(5, seed=77)
