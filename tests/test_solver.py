import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from catmouse import solver
from catmouse.circuits import generate_random, parse_circuit
from catmouse.reduction import build_directed, build_undirected
from catmouse.solver import (
    CAT,
    MOUSE,
    GameInstance,
    GameState,
    Graph,
    InvalidInstanceError,
    Outcome,
    PolicyIllegalMoveError,
    TooLargeError,
    classify,
    minimax_oracle,
    outcome,
    play_match,
    solve,
)
from catmouse.verify import certify_strategy

from conftest import fan_edges, fan_levels, random_arena, random_placement


def line_graph(directed, *edges):
    nodes = []
    for a, b in edges:
        for v in (a, b):
            if v not in nodes:
                nodes.append(v)
    return Graph(directed=directed, nodes=tuple(nodes), edges=tuple(edges))


# Cat at x, mouse at y, both forced through the hole: the mouse must step
# onto the cat there, and capture outranks the hole.
SUICIDE = GameInstance(
    line_graph(True, ("x", "h"), ("y", "h")), "x", "y", "h"
)

# Undirected 4-cycle plus an unreachable hole: opposite corners never meet.
RING = Graph(
    directed=False,
    nodes=("a", "b", "c", "d", "x"),
    edges=(("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")),
)


class TestClassify:
    def test_shared_node_is_capture(self):
        inst = SUICIDE
        assert classify(GameState("y", "y", CAT), inst) is Outcome.CAT_WIN

    def test_capture_outranks_hole(self):
        assert classify(GameState("h", "h", MOUSE), SUICIDE) is Outcome.CAT_WIN

    def test_mouse_alone_on_hole(self):
        assert classify(GameState("x", "h", CAT), SUICIDE) is Outcome.MOUSE_WIN

    def test_open_state(self):
        assert classify(GameState("x", "y", CAT), SUICIDE) is None


def test_the_mover_steps_and_the_turn_passes():
    cat_to_move = GameState("a", "b", CAT)
    assert cat_to_move.position == "a"
    assert cat_to_move.after("c") == GameState("c", "b", MOUSE)
    mouse_to_move = GameState("a", "b", MOUSE)
    assert mouse_to_move.position == "b"
    # Equal and hash-equal to the plain tuple, as certificate walks rely on.
    assert {("a", "c", CAT): 1}[mouse_to_move.after("c")] == 1


class TestInstanceValidation:
    def test_same_start_rejected(self):
        g = line_graph(True, ("a", "b"))
        with pytest.raises(InvalidInstanceError):
            GameInstance(g, "a", "a", "b")

    def test_mouse_on_hole_rejected(self):
        g = line_graph(True, ("a", "b"))
        with pytest.raises(InvalidInstanceError):
            GameInstance(g, "a", "b", "b")

    def test_unknown_node_rejected(self):
        g = line_graph(True, ("a", "b"))
        with pytest.raises(InvalidInstanceError):
            GameInstance(g, "a", "zz", "b")

    def test_edge_with_unknown_node_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Graph(directed=True, nodes=("a",), edges=(("a", "b"),))

    def test_repeated_node_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Graph(True, ("a", "b", "a", "h"), (("a", "b"), ("b", "h")))

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("edge", [("a", "zz"), ("zz", "a")])
    def test_an_edge_end_that_is_no_node_is_named(self, directed, edge):
        with pytest.raises(InvalidInstanceError) as raised:
            Graph(directed, ("a", "b"), (("a", "b"), edge))
        assert str(raised.value) == f"edge {edge!r} uses unknown node"

    def test_the_earliest_node_listed_twice_is_named(self):
        with pytest.raises(InvalidInstanceError) as raised:
            Graph(True, ("a", "b", "c", "b", "a"), (("a", "b"),))
        assert str(raised.value) == "node 'a' listed twice"


class TestHasEdge:
    def test_undirected_edge_answers_both_ways(self):
        g = Graph(False, ("a", "b", "c"), (("a", "b"),))
        assert g.has_edge("a", "b") and g.has_edge("b", "a")
        assert not g.has_edge("a", "c") and not g.has_edge("c", "b")

    def test_directed_edge_answers_its_direction_only(self):
        g = Graph(True, ("a", "b"), (("a", "b"),))
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")

    @pytest.mark.parametrize("directed", [True, False])
    def test_unknown_node_has_no_edge(self, directed):
        g = Graph(directed, ("a", "b"), (("a", "b"),))
        assert not g.has_edge("a", "zz")
        assert not g.has_edge("zz", "b")
        assert not g.has_edge("zz", "yy")


class TestSolveSmall:
    def test_adjacent_cat_captures_in_one_ply(self):
        g = line_graph(True, ("a", "b"), ("b", "h"))
        inst = GameInstance(g, "a", "b", "h")
        sol = solve(inst)
        assert sol.outcome() is Outcome.CAT_WIN
        assert sol.dist(inst.initial_state()) == 1
        assert sol.policy()(inst.initial_state()) == "b"

    def test_separated_mouse_walks_home_in_two_plies(self):
        g = Graph(
            directed=False,
            nodes=("c1", "c2", "m1", "h"),
            edges=(("c1", "c2"), ("m1", "h")),
        )
        inst = GameInstance(g, "c1", "m1", "h")
        sol = solve(inst)
        assert sol.outcome() is Outcome.MOUSE_WIN
        assert sol.dist(inst.initial_state()) == 2

    def test_opposite_corners_of_a_ring_draw(self):
        inst = GameInstance(RING, "a", "c", "x")
        sol = solve(inst)
        assert sol.outcome() is Outcome.DRAW
        assert sol.dist(inst.initial_state()) is None
        start = inst.initial_state()
        assert sol.value(start.after(sol.policy()(start))) is Outcome.DRAW

    def test_adjacent_on_the_ring_is_capture(self):
        inst = GameInstance(RING, "a", "b", "x")
        assert outcome(inst) is Outcome.CAT_WIN

    def test_forced_suicide_is_capture_not_hole(self):
        sol = solve(SUICIDE)
        assert sol.outcome() is Outcome.CAT_WIN
        assert sol.dist(SUICIDE.initial_state()) == 2

    def test_stuck_cat_loses_immediately(self):
        g = Graph(
            directed=True,
            nodes=("a", "m1", "h"),
            edges=(("m1", "h"),),
        )
        inst = GameInstance(g, "a", "m1", "h")
        sol = solve(inst)
        assert sol.value(GameState("a", "m1", CAT)) is Outcome.MOUSE_WIN
        assert sol.dist(GameState("a", "m1", CAT)) == 0

    def test_stuck_mouse_loses_on_its_turn(self):
        g = Graph(
            directed=True,
            nodes=("p", "q", "s", "h"),
            edges=(("p", "q"), ("q", "p")),
        )
        inst = GameInstance(g, "p", "s", "h")
        sol = solve(inst)
        assert sol.value(GameState("p", "s", MOUSE)) is Outcome.CAT_WIN
        assert sol.dist(GameState("p", "s", MOUSE)) == 0
        assert sol.value(GameState("p", "s", CAT)) is Outcome.CAT_WIN
        assert sol.dist(GameState("p", "s", CAT)) == 1

    def test_every_star_placement_is_a_cat_win(self):
        # On an undirected star the mouse is herded through the hub:
        # whoever it is next to, capture follows within two plies.
        star = Graph(
            directed=False,
            nodes=("s", "l1", "l2", "l3"),
            edges=(("s", "l1"), ("s", "l2"), ("s", "l3")),
        )
        for cat, mouse in itertools.permutations(star.nodes, 2):
            if mouse == "l3":
                continue
            inst = GameInstance(star, cat, mouse, "l3")
            assert solve(inst).outcome() is Outcome.CAT_WIN
            assert minimax_oracle(inst) is Outcome.CAT_WIN


class TestLocalConsistency:
    """Solved values must satisfy the one-step optimality equations."""

    @staticmethod
    def successors(graph, state):
        if state.turn == CAT:
            return [GameState(v, state.mouse, MOUSE)
                    for v in graph.neighbors_out(state.cat)]
        return [GameState(state.cat, v, CAT)
                for v in graph.neighbors_out(state.mouse)]

    def test_values_and_distances_are_locally_consistent(self):
        for seed in range(25):
            graph = random_arena(seed)
            cat, mouse, hole = random_placement(graph, seed + 1000)
            inst = GameInstance(graph, cat, mouse, hole)
            sol = solve(inst)
            for c in graph.nodes:
                for m in graph.nodes:
                    for turn in (CAT, MOUSE):
                        state = GameState(c, m, turn)
                        if classify(state, inst) is not None:
                            continue
                        succ = self.successors(graph, state)
                        value = sol.value(state)
                        mover_win = (
                            Outcome.CAT_WIN if turn == CAT else Outcome.MOUSE_WIN
                        )
                        if not succ:
                            assert value is not mover_win
                            assert sol.dist(state) == 0
                            continue
                        child_values = [sol.value(s) for s in succ]
                        if value is mover_win:
                            dists = [sol.dist(s) for s, v in zip(succ, child_values)
                                     if v is mover_win]
                            assert dists
                            assert sol.dist(state) == 1 + min(dists)
                        elif value is Outcome.DRAW:
                            assert mover_win not in child_values
                            assert Outcome.DRAW in child_values
                        else:
                            assert all(v is value for v in child_values)
                            assert sol.dist(state) == 1 + max(
                                sol.dist(s) for s in succ
                            )

    def test_policy_follows_the_move_rule(self):
        """A won state moves to a win one ply nearer, a drawn one to a draw,
        a lost one to a loss one ply nearer, each to the smallest such
        node."""
        for seed in range(25):
            graph = random_arena(seed)
            cat, mouse, hole = random_placement(graph, seed + 1000)
            inst = GameInstance(graph, cat, mouse, hole)
            sol = solve(inst)
            policy = sol.policy()
            for c, m, turn in itertools.product(graph.nodes, graph.nodes, (CAT, MOUSE)):
                state = GameState(c, m, turn)
                value, move = sol.value(state), policy(state)
                succ = self.successors(graph, state)
                if classify(state, inst) is not None or not succ:
                    continue
                moves = graph.neighbors_out(c if turn == CAT else m)
                nearer = None if value is Outcome.DRAW else sol.dist(state) - 1
                good = [v for v, s in zip(moves, succ)
                        if sol.value(s) is value and sol.dist(s) == nearer]
                assert good
                assert move == min(good)


class TestAgainstOracle:
    def test_matches_exhaustive_search_on_random_arenas(self):
        for seed in range(120):
            graph = random_arena(seed)
            cat, mouse, hole = random_placement(graph, seed + 5000)
            inst = GameInstance(graph, cat, mouse, hole)
            assert solve(inst).outcome() is minimax_oracle(inst), (
                f"seed {seed}: {graph.directed=} {cat=} {mouse=} {hole=}"
            )

    def test_matches_exhaustive_search_on_all_placements(self):
        for seed in (3, 11, 27, 42, 63):
            graph = random_arena(seed, n_max=5)
            sol_cache = {}
            for cat, mouse in itertools.permutations(graph.nodes, 2):
                for hole in graph.nodes:
                    if hole == mouse:
                        continue
                    inst = GameInstance(graph, cat, mouse, hole)
                    key = hole
                    if key not in sol_cache:
                        sol_cache[key] = solve(inst)
                    got = sol_cache[key].value(inst.initial_state())
                    assert got is minimax_oracle(inst)

    def test_oracle_rejects_large_graphs(self):
        nodes = tuple(f"n{i}" for i in range(11))
        edges = tuple((f"n{i}", f"n{i+1}") for i in range(10))
        g = Graph(directed=True, nodes=nodes, edges=edges)
        inst = GameInstance(g, "n0", "n1", "n10")
        with pytest.raises(TooLargeError):
            minimax_oracle(inst)


class TestMemoryBudget:
    def test_oversized_board_is_refused_before_allocating(self):
        nodes = tuple(f"n{i}" for i in range(50_000))
        inst = GameInstance(Graph(directed=True, nodes=nodes, edges=()),
                            "n0", "n1", "n2")
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError):
                solve(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_solve_needs_little_beyond_the_class_tables(self):
        # 941 nodes, 885,481 states in the start's class: 5.9 MiB of tables.
        # Frontier-wide buffers took 6.3 MiB more; parts and slices of at
        # most _SLICE states take 2.5 MiB.
        circuit = generate_random(6, 16, 16, 0.5, seed=1)
        graph, _cmap = build_undirected(circuit, "1" * circuit.num_inputs)
        instance = GameInstance.from_game_graph(graph)
        tracemalloc.start()
        try:
            solution = solve(instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = solution.stats[0].states * solver._BYTES_PER_STATE
        assert peak - tables < 4 * 2**20

    def test_a_solution_keeps_2_bytes_a_state(self):
        # One int16 code a state of the start's class, beside the board's
        # edges and levels, which the solution keeps.
        states, kept, _peak = traced_solve_of_the_undirected_6_16_ladder()
        assert kept < 2.5 * states

    def test_solve_peaks_under_4_bytes_a_state_over_the_working_memory(self):
        # Value, option count and distance take 1, 1 and 2 bytes while the
        # class is solved: the hole's 126 moves are the most on this board.
        states, _kept, peak = traced_solve_of_the_undirected_6_16_ladder()
        assert peak < 4 * states + 4 * 2**20

    def test_solve_peaks_under_3_bytes_a_state_over_the_working_memory(self):
        # Option count and distance take 1 and 2 bytes while the class is
        # solved, and no table holds the values; the frontier's full parts
        # are int32.  With a value table and intp parts, the peak was 3.1
        # MiB over 3 bytes a state.
        states, _kept, peak = traced_solve_of_the_undirected_6_16_ladder()
        assert peak < 3 * states + 2.5 * 2**20


def traced_solve_of_the_undirected_6_16_ladder():
    """The states of the start's class, and the traced memory that solving
    them leaves held and takes at its peak."""
    circuit = generate_random(6, 16, 16, 0.5, seed=1)
    graph, _cmap = build_undirected(circuit, "1" * circuit.num_inputs)
    instance = GameInstance.from_game_graph(graph)
    tracemalloc.start()
    try:
        solution = solve(instance)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return solution.stats[0].states, kept, peak


class TestTableWidths:
    """Distances are int16 until a class's plies reach 2^14, when the codes
    2d + 1 would no longer fit, and int32 from then on."""

    @staticmethod
    def two_paths(mouse_edges):
        # Each player on a path of its own, the Mouse's ending at the hole;
        # the Cat's is longer, so the Cat is never stuck and the Mouse wins
        # in 2 * mouse_edges plies.
        mouse = [f"m{k}" for k in range(mouse_edges)] + ["h"]
        cat = [f"c{k}" for k in range(mouse_edges + 2)]
        edges = list(zip(mouse, mouse[1:])) + list(zip(cat, cat[1:]))
        graph = Graph(directed=True, nodes=tuple(mouse + cat), edges=tuple(edges))
        return GameInstance(graph, "c0", "m0", "h")

    @pytest.mark.parametrize("mouse_edges,width", [(8_100, 2), (8_200, 4)])
    def test_the_codes_widen_once_the_plies_reach_2_14(self, mouse_edges, width):
        inst = self.two_paths(mouse_edges)
        sol = solve(inst)
        start = sol.stats[0]
        assert start.plies == 2 * mouse_edges
        assert sol.value(inst.initial_state()) is Outcome.MOUSE_WIN
        assert sol.dist(inst.initial_state()) == 2 * mouse_edges
        assert sol._tables[start.key].code.nbytes == width * start.states

    def test_widening_past_the_budget_is_refused(self, monkeypatch):
        # The budget admits the class's narrow tables, not their widening.
        inst = self.two_paths(8_200)
        states = solve(inst).stats[0].states
        monkeypatch.setattr(solver, "_MAX_TABLE_BYTES", states * solver._BYTES_PER_STATE)
        with pytest.raises(TooLargeError, match="the class to solve has"):
            solve(inst)


class TestPlayMatch:
    def test_optimal_play_lasts_exactly_dist_plies(self):
        for seed in range(40):
            graph = random_arena(seed + 300)
            cat, mouse, hole = random_placement(graph, seed + 7000)
            inst = GameInstance(graph, cat, mouse, hole)
            sol = solve(inst)
            policy = sol.policy()
            transcript = play_match(inst, policy, policy)
            assert transcript.result is sol.outcome()
            if sol.outcome() is Outcome.DRAW:
                assert transcript.reason == "repetition"
            else:
                assert len(transcript.moves) == sol.dist(inst.initial_state())

    def test_transcript_text_format(self):
        g = line_graph(True, ("a", "b"), ("b", "h"))
        inst = GameInstance(g, "a", "b", "h")
        sol = solve(inst)
        transcript = play_match(inst, sol.policy(), sol.policy())
        assert transcript.text() == "ply 1 Cat a -> b\nresult CatWin capture\n"

    def test_mouse_reaches_hole_reason(self):
        g = Graph(
            directed=False,
            nodes=("c1", "c2", "m1", "h"),
            edges=(("c1", "c2"), ("m1", "h")),
        )
        inst = GameInstance(g, "c1", "m1", "h")
        sol = solve(inst)
        transcript = play_match(inst, sol.policy(), sol.policy())
        assert transcript.result is Outcome.MOUSE_WIN
        assert transcript.reason == "hole"
        assert transcript.moves == ((1, CAT, "c1", "c2"), (2, MOUSE, "m1", "h"))

    def test_none_move_is_illegal(self):
        inst = GameInstance(RING, "a", "c", "x")

        def give_up(_state):
            return None

        with pytest.raises(PolicyIllegalMoveError, match="-> None"):
            play_match(inst, give_up, solve(inst).policy())
        problems = certify_strategy(inst, CAT, give_up).problems
        assert problems == ("cat a, mouse c, Cat to move: policy played a -> None",)

    def test_truly_stuck_player_loses_without_policy_call(self):
        g = Graph(directed=True, nodes=("a", "m1", "h"), edges=(("m1", "h"),))
        inst = GameInstance(g, "a", "m1", "h")

        def explode(_state):
            raise AssertionError("policy must not be consulted when stuck")

        transcript = play_match(inst, explode, lambda s: "h")
        assert transcript.result is Outcome.MOUSE_WIN
        assert transcript.reason == "stuck"

    def test_illegal_move_raises(self):
        g = line_graph(True, ("a", "b"), ("b", "h"))
        inst = GameInstance(g, "a", "b", "h")
        with pytest.raises(PolicyIllegalMoveError):
            play_match(inst, lambda s: "h", lambda s: "h")

    def test_start_override(self):
        g = line_graph(True, ("a", "b"), ("b", "h"))
        inst = GameInstance(g, "a", "b", "h")
        sol = solve(inst)
        transcript = play_match(
            inst, sol.policy(), sol.policy(),
            start=GameState("a", "h", CAT),
        )
        assert transcript.result is Outcome.MOUSE_WIN
        assert transcript.moves == ()

    def test_unknown_start_node_is_an_invalid_instance(self):
        g = line_graph(True, ("a", "b"), ("b", "h"))
        inst = GameInstance(g, "a", "b", "h")
        policy = solve(inst).policy()
        with pytest.raises(InvalidInstanceError):
            play_match(inst, policy, policy, start=GameState("zz", "b", CAT))
        circuit = parse_circuit("inputs 2\ngate g0 AND i0 i1\noutput g0\n")
        assert isinstance(build_directed(circuit, "11")[0], Graph)

    def test_unknown_turn_is_an_invalid_instance(self):
        inst = GameInstance(line_graph(True, ("a", "b"), ("b", "h")), "a", "b", "h")
        sol = solve(inst)
        for query in (sol.value, sol.dist, sol.policy()):
            with pytest.raises(InvalidInstanceError, match="bad turn"):
                query(GameState("a", "b", "Dog"))
        first_move = lambda state: inst.graph.neighbors_out(state.position)[0]
        with pytest.raises(InvalidInstanceError, match="bad turn 'Dog'"):
            play_match(inst, first_move, first_move, start=GameState("a", "b", "Dog"))


class TestDeterminism:
    def test_repeat_solves_agree_everywhere(self):
        graph = random_arena(77)
        cat, mouse, hole = random_placement(graph, 78)
        inst = GameInstance(graph, cat, mouse, hole)
        first, second = solve(inst), solve(inst)
        for c in graph.nodes:
            for m in graph.nodes:
                for turn in (CAT, MOUSE):
                    state = GameState(c, m, turn)
                    assert first.value(state) is second.value(state)
                    assert first.dist(state) == second.dist(state)
                    assert first.policy()(state) == second.policy()(state)


class TestStartClass:
    """solve decides the start's class of states; the first query of a state
    outside it decides that state's class."""

    @pytest.mark.parametrize("builder", [build_directed, build_undirected])
    def test_query_order_gives_the_same_tables(self, builder):
        graph, _cmap = builder(generate_random(3, 4, 4, 0.5, seed=1), "1010")
        inst = GameInstance.from_game_graph(graph)
        start = inst.initial_state()
        # One ply's parity off the start, so outside its class on both boards.
        off = GameState(start.cat, start.mouse, MOUSE)
        early, late = solve(inst), solve(inst)
        early.value(off)
        assert len(early.stats) == 2
        late.value(start)
        assert len(late.stats) == 1
        late.value(off)
        assert len(late.stats) == 2
        early._complete()
        late._complete()
        for got, want in zip(early._dense(), late._dense()):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_an_off_class_query_decides_that_class_alone(self):
        graph, cmap = build_directed(generate_random(3, 4, 4, 0.5, seed=1), "1010")
        inst = GameInstance.from_game_graph(graph)
        start = inst.initial_state()
        off = GameState(start.cat, start.mouse, MOUSE)
        # Every move drops one layer, so layer(mouse) - layer(cat) - turn
        # names a state's class; count each class's states from it.
        layer = cmap.layer

        def key(cat, mouse, turn):
            return layer[mouse] - layer[cat] - (turn == MOUSE)

        sizes = Counter(key(c, m, t) for c in graph.nodes for m in graph.nodes
                        for t in (CAT, MOUSE))
        sol = solve(inst)
        sol.value(off)
        assert [s.states for s in sol.stats] == [sizes[key(*start)], sizes[key(*off)]]
        # The states play reaches from ``off`` are in its class.
        play_match(inst, sol.policy(), sol.policy(), start=off)
        assert len(sol.stats) == 2

    @pytest.mark.parametrize("builder", [build_directed, build_undirected])
    def test_stats_count_every_state_once(self, builder):
        graph, _cmap = builder(generate_random(3, 4, 4, 0.5, seed=1), "1010")
        inst = GameInstance.from_game_graph(graph)
        sol = solve(inst)
        sol._complete()
        keys = [s.key for s in sol.stats]
        assert len(set(keys)) == len(keys) > 1
        assert sum(s.states for s in sol.stats) == 2 * len(graph.nodes) ** 2
        assert max(s.plies for s in sol.stats) > 0
        again = solve(inst)
        again._complete()
        assert again.stats == sol.stats


class TestClassBudget:
    """The memory budget counts the states of the class about to be solved."""

    def test_an_off_class_query_over_the_budget_is_refused(self, monkeypatch):
        levels = fan_levels()
        graph = Graph(directed=True, nodes=tuple(v for level in levels for v in level),
                      edges=tuple(fan_edges(levels)))
        inst = GameInstance(graph, "c", "u0", "h")
        start = solve(inst).stats[0]
        monkeypatch.setattr(solver, "_MAX_TABLE_BYTES", start.states * solver._BYTES_PER_STATE)
        sol = solve(inst)
        assert sol.outcome() is Outcome.MOUSE_WIN
        with pytest.raises(TooLargeError, match="the class to solve has"):
            sol.value(GameState("w0", "w1", CAT))
        assert sol.stats == (start,)

    def test_a_node_with_2_15_moves_is_refused(self):
        # The hub's 2^15 moves would overflow the int16 option counts.  The
        # start's class is small: the Mouse, one move from the hole, is one
        # level behind the Cat, and no Mouse node shares a level with a leaf.
        leaves = tuple(f"v{k}" for k in range(2**15))
        graph = Graph(directed=True, nodes=("hub", "h", "q", "p") + leaves,
                      edges=tuple(("hub", v) for v in leaves) + (("p", "q"), ("q", "h")))
        with pytest.raises(TooLargeError, match="a node has 32768 moves"):
            solve(GameInstance(graph, "hub", "q", "h"))


class TestOnReductionGraphs:
    """End-to-end smoke: solved game value tracks the circuit value."""

    ONE_AND = "inputs 2\ngate g0 AND i0 i1\noutput g0\n"

    def test_true_circuit_directed_mouse_wins(self):
        circuit = parse_circuit(self.ONE_AND)
        graph, cmap = build_directed(circuit, "11")
        inst = GameInstance.from_game_graph(graph)
        sol = solve(inst)
        assert sol.outcome() is Outcome.MOUSE_WIN
        assert sol.dist(inst.initial_state()) == 2 * cmap.layer[graph.m]

    def test_false_circuit_directed_cat_wins(self):
        circuit = parse_circuit(self.ONE_AND)
        graph, _cmap = build_directed(circuit, "10")
        assert outcome(GameInstance.from_game_graph(graph)) is Outcome.CAT_WIN

    def test_true_circuit_undirected_mouse_wins(self):
        circuit = parse_circuit(self.ONE_AND)
        graph, _cmap = build_undirected(circuit, "11")
        assert outcome(GameInstance.from_game_graph(graph)) is Outcome.MOUSE_WIN

    def test_false_circuit_undirected_cat_wins(self):
        circuit = parse_circuit(self.ONE_AND)
        graph, _cmap = build_undirected(circuit, "00")
        assert outcome(GameInstance.from_game_graph(graph)) is Outcome.CAT_WIN
