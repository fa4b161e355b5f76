import itertools

import pytest

from catmouse.circuits import evaluate, generate_random, parse_circuit
from catmouse.reduction import build_directed, build_undirected
from catmouse.solver import (
    CAT,
    MOUSE,
    GameInstance,
    GameState,
    Outcome,
    play_match,
    solve,
)
from catmouse.strategies import (
    NoMoveError,
    NoSafeMoveError,
    make_mirror_cat,
    make_true_path_mouse,
)

ONE_AND = "inputs 2\ngate g0 AND i0 i1\noutput g0\n"
ONE_OR = "inputs 2\ngate g0 OR i0 i1\noutput g0\n"
THREE_GATE = (
    "inputs 3\n"
    "gate a OR i0 i1\n"
    "gate b AND i1 i2\n"
    "gate c AND a b\n"
    "output c\n"
)


def build(source, bits, directed):
    circuit = parse_circuit(source)
    builder = build_directed if directed else build_undirected
    graph, cmap = builder(circuit, bits)
    return circuit, graph, cmap


def all_bits(num_inputs):
    return ["".join(p) for p in itertools.product("01", repeat=num_inputs)]


def scripted_pair(circuit, graph, cmap, bits):
    inst = GameInstance.from_game_graph(graph)
    cat = make_mirror_cat(inst, cmap, circuit, bits)
    mouse = make_true_path_mouse(inst, cmap, circuit, bits)
    return inst, cat, mouse


class TestScriptedVersusScripted:
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("source", [ONE_AND, ONE_OR, THREE_GATE])
    def test_match_result_tracks_circuit_value(self, source, directed):
        circuit = parse_circuit(source)
        for bits in all_bits(circuit.num_inputs):
            circuit, graph, cmap = build(source, bits, directed)
            inst, cat, mouse = scripted_pair(circuit, graph, cmap, bits)
            transcript = play_match(inst, cat, mouse)
            if evaluate(circuit, bits)[0]:
                assert transcript.result is Outcome.MOUSE_WIN, bits
                assert transcript.reason == "hole"
            else:
                assert transcript.result is Outcome.CAT_WIN, bits
                assert transcript.reason == "capture"

    @pytest.mark.parametrize("directed", [True, False])
    def test_true_runs_take_two_plies_per_level(self, directed):
        # The Mouse starts layer(m) levels above the hole and descends one
        # level per move, with the Cat moving once before each Mouse move.
        for source, bits in [(ONE_AND, "11"), (ONE_OR, "01"), (THREE_GATE, "011")]:
            circuit, graph, cmap = build(source, bits, directed)
            inst, cat, mouse = scripted_pair(circuit, graph, cmap, bits)
            transcript = play_match(inst, cat, mouse)
            level = cmap.layer[graph.m]
            assert transcript.result is Outcome.MOUSE_WIN
            assert len(transcript.moves) == 2 * level
            assert [move[1] for move in transcript.moves].count(MOUSE) == level

    def test_matches_are_deterministic(self):
        circuit, graph, cmap = build(THREE_GATE, "111", False)
        inst, cat, mouse = scripted_pair(circuit, graph, cmap, "111")
        first = play_match(inst, cat, mouse).text()
        inst2, cat2, mouse2 = scripted_pair(circuit, graph, cmap, "111")
        assert play_match(inst2, cat2, mouse2).text() == first

    @pytest.mark.parametrize("directed", [True, False])
    def test_generated_circuits_round_trip(self, directed):
        for seed in range(10):
            circuit = generate_random(
                layers=2, width=2, num_inputs=3, p_or=0.5, seed=seed
            )
            for bits in all_bits(circuit.num_inputs):
                builder = build_directed if directed else build_undirected
                graph, cmap = builder(circuit, bits)
                inst, cat, mouse = scripted_pair(circuit, graph, cmap, bits)
                transcript = play_match(inst, cat, mouse)
                expected = (
                    Outcome.MOUSE_WIN if evaluate(circuit, bits)[0]
                    else Outcome.CAT_WIN
                )
                assert transcript.result is expected, (seed, bits)


class TestAgainstOptimalOpponents:
    @pytest.mark.parametrize("directed", [True, False])
    def test_mirror_cat_beats_optimal_mouse_when_false(self, directed):
        for source, bits in [(ONE_AND, "01"), (ONE_OR, "00"), (THREE_GATE, "100")]:
            circuit, graph, cmap = build(source, bits, directed)
            inst = GameInstance.from_game_graph(graph)
            cat = make_mirror_cat(inst, cmap, circuit, bits)
            best_mouse = solve(inst).policy()
            transcript = play_match(inst, cat, best_mouse)
            assert transcript.result is Outcome.CAT_WIN, (source, bits)
            assert transcript.reason == "capture"

    @pytest.mark.parametrize("directed", [True, False])
    def test_marching_mouse_beats_optimal_cat_when_true(self, directed):
        for source, bits in [(ONE_AND, "11"), (ONE_OR, "10"), (THREE_GATE, "011")]:
            circuit, graph, cmap = build(source, bits, directed)
            inst = GameInstance.from_game_graph(graph)
            mouse = make_true_path_mouse(inst, cmap, circuit, bits)
            best_cat = solve(inst).policy()
            transcript = play_match(inst, best_cat, mouse)
            assert transcript.result is Outcome.MOUSE_WIN, (source, bits)
            assert transcript.reason == "hole"


class TestStrategyDomains:
    def test_displaced_cat_raises(self):
        circuit, graph, cmap = build(THREE_GATE, "011", True)
        inst = GameInstance.from_game_graph(graph)
        cat = make_mirror_cat(inst, cmap, circuit, "011")
        # Cat still on its start node while the mouse is deep in the graph:
        # no capture, no threat reachable, no shadow edge.
        with pytest.raises(NoMoveError):
            cat(GameState(graph.c, "i1.M", CAT))

    def test_mouse_with_no_forward_move_raises(self):
        circuit, graph, cmap = build(ONE_AND, "00", True)
        inst = GameInstance.from_game_graph(graph)
        mouse = make_true_path_mouse(inst, cmap, circuit, "00")
        with pytest.raises(NoSafeMoveError):
            mouse(GameState(graph.c, graph.d, "Mouse"))
