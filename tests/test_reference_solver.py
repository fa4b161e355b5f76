"""The frontier solver against the sparse-matrix solver it replaced.

Both must produce the same value and distance tables, state for state, on
ladder boards, on rough random arenas and on arenas whose moves keep the
states in several classes, once the solution has decided every class.
"""

import random

import numpy as np
import pytest

from catmouse.circuits import generate_random
from catmouse import solver
from catmouse.reduction import build_directed, build_undirected
from catmouse.solver import (CAT, MOUSE, GameInstance, GameState, Graph, Outcome,
                             TooLargeError, solve)

from conftest import random_placement
from reference_solver import solve as reference_solve


def assert_same_tables(instance):
    got = solve(instance)
    got._complete()
    for name, table, expected in zip(("value", "dist"), got._dense(),
                                     reference_solve(instance)):
        assert table.dtype == expected.dtype, name
        assert np.array_equal(table, expected), name


@pytest.mark.parametrize("bit", ["1", "0"])
@pytest.mark.parametrize("builder", [build_directed, build_undirected])
@pytest.mark.parametrize("layers,width", [(3, 4), (4, 8), (5, 16)])
def test_ladder_boards(layers, width, builder, bit):
    circuit = generate_random(layers, width, width, 0.5, seed=1)
    graph, _cmap = builder(circuit, bit * circuit.num_inputs)
    assert_same_tables(GameInstance.from_game_graph(graph))


@pytest.mark.parametrize("builder", [build_directed, build_undirected])
def test_small_slices(builder, monkeypatch):
    circuit = generate_random(3, 4, 4, 0.5, seed=1)
    # At 1 every part of the frontier is one state and a slice holds the
    # predecessors of one state, however many.
    for size in (1, 5):
        monkeypatch.setattr(solver, "_SLICE", size)
        for bits in ("1111", "0000", "1010"):
            graph, _cmap = builder(circuit, bits)
            assert_same_tables(GameInstance.from_game_graph(graph))


def rough_arena(seed):
    """An arena with self-loops, repeated edges, sinks and isolated nodes."""
    rng = random.Random(seed)
    n = rng.randint(3, 14)
    nodes = tuple(f"v{i}" for i in range(n))
    isolated = set(rng.sample(nodes, rng.randint(0, n // 4)))
    linked = [v for v in nodes if v not in isolated]
    sources = [v for v in linked if rng.random() < 0.8] or linked[:1]
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        roll = rng.random()
        if edges and roll < 0.15:
            edges.append(rng.choice(edges))
        elif roll < 0.25:
            v = rng.choice(sources)
            edges.append((v, v))
        else:
            edges.append((rng.choice(sources), rng.choice(linked)))
    return Graph(directed=seed % 2 == 0, nodes=nodes, edges=tuple(edges))


def test_rough_random_arenas():
    seen = {"directed": 0, "undirected": 0, "self-loop": 0, "repeat": 0,
            "sink": 0, "isolated": 0}
    for seed in range(300):
        graph = rough_arena(seed)
        touched = {v for edge in graph.edges for v in edge}
        seen["directed" if graph.directed else "undirected"] += 1
        looped = any(a == b for a, b in graph.edges)
        seen["self-loop"] += looped
        seen["repeat"] += len(set(graph.edges)) < len(graph.edges)
        seen["sink"] += any(v in touched and not graph.neighbors_out(v)
                            for v in graph.nodes)
        seen["isolated"] += len(touched) < len(graph.nodes)
        instance = GameInstance(graph, *random_placement(graph, seed))
        if looped:
            # A self-loop makes the period 1: one class, all of it solved.
            assert solve(instance).stats[0].states == 2 * len(graph.nodes) ** 2
        assert_same_tables(instance)
    assert min(seen.values()) >= 30, seen


def layered_arena(seed, period):
    """An arena on which every move goes one level up, counted modulo
    ``period``: a graded DAG (0), a bipartite undirected graph (2) or a
    directed graph around a 3-cycle (3)."""
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    nodes = tuple(f"v{i}" for i in range(n))
    span = {0: 4, 2: 2, 3: 3}[period]
    level = [k % span for k in range(span)] + [rng.randrange(span) for _ in range(n - span)]
    edges = [(a, b) for a, la in zip(nodes, level) for b, lb in zip(nodes, level)
             if (lb == la + 1 or period and lb == (la + 1) % period)
             and rng.random() < 0.4]
    # The first nodes hold one level each; chain them so no period is lost.
    edges += [(nodes[k], nodes[k + 1]) for k in range(span - 1)]
    if period == 3:
        edges.append((nodes[2], nodes[0]))
    return Graph(directed=period != 2, nodes=nodes, edges=tuple(edges))


def assert_one_class_numbering(instance):
    """Every class is numbered modulo the board's modulus, each number names
    a class of some states, and each class's plies are its longest
    distance."""
    solution = solve(instance)
    solution._complete()
    modulus = solution._classes.modulus
    assert all(s.key in range(modulus) for s in solution.stats)
    assert len(solution.stats) == modulus
    assert all(s.states > 0 for s in solution.stats)
    assert sum(s.states for s in solution.stats) == 2 * len(instance.graph.nodes) ** 2
    for s in solution.stats:
        dists = np.asarray(solution._tables[s.key].code) >> 1
        assert s.plies == max(dists.max(), 0), s


@pytest.mark.parametrize("period", [0, 2, 3])
def test_arenas_of_several_classes(period):
    for seed in range(60):
        graph = layered_arena(seed, period)
        instance = GameInstance(graph, *random_placement(graph, seed))
        assert solve(instance)._classes.period == period
        assert_same_tables(instance)
        assert_one_class_numbering(instance)


def test_a_graded_dag_of_two_components_and_an_edgeless_board():
    # The walk sets r, q, p to levels -2, -1, 0 and x, y to 0, 1: four levels,
    # so the modulus is 8.  With no edge there is one level, and modulus 2.
    dag = Graph(directed=True, nodes=("p", "q", "r", "x", "y"),
                edges=(("q", "p"), ("r", "q"), ("x", "y")))
    edgeless = Graph(directed=True, nodes=("a", "b", "c"), edges=())
    for graph, modulus in ((dag, 8), (edgeless, 2)):
        for cat, mouse, hole in ((graph.nodes[0], graph.nodes[1], graph.nodes[2]),
                                 (graph.nodes[-1], graph.nodes[0], graph.nodes[1])):
            instance = GameInstance(graph, cat, mouse, hole)
            assert solve(instance)._classes.modulus == modulus
            assert_one_class_numbering(instance)
            assert_same_tables(instance)


def test_stuck_terminal_states_are_decided_once_with_the_terminal_value(monkeypatch):
    # The hole h and the node s are sinks.  Mouse to move on the hole is a
    # Mouse win and capture on s with the Cat to move a Cat win, though the
    # mover is stuck in both; the Mouse at x can only step onto the Cat at
    # s, so seeding that capture as a stuck loss too would hand it a win.
    graph = Graph(directed=True, nodes=("c", "m", "x", "s", "h"),
                  edges=(("c", "s"), ("m", "x"), ("m", "h"), ("x", "s")))
    instance = GameInstance(graph, "c", "m", "h")
    seeds = []
    ply = solver._ply

    def noting_the_seeds(arena, layout, lost, won, plies, *rest):
        if plies == 0:
            seeds.append(np.concatenate(list(lost) + list(won)))
        return ply(arena, layout, lost, won, plies, *rest)

    monkeypatch.setattr(solver, "_ply", noting_the_seeds)
    assert_same_tables(instance)
    # No class seeds a state twice.
    assert seeds
    for states in seeds:
        assert np.unique(states).size == states.size
    sol = solve(instance)
    for state, value, dist in [
        (GameState("c", "h", MOUSE), Outcome.MOUSE_WIN, 0),
        (GameState("s", "h", MOUSE), Outcome.MOUSE_WIN, 0),
        (GameState("s", "s", CAT), Outcome.CAT_WIN, 0),
        (GameState("s", "s", MOUSE), Outcome.CAT_WIN, 0),
        (GameState("s", "x", MOUSE), Outcome.CAT_WIN, 1),
        (GameState("s", "x", CAT), Outcome.MOUSE_WIN, 0),
    ]:
        assert (sol.value(state), sol.dist(state)) == (value, dist), state


@pytest.mark.parametrize("moves", [127, 128])
def test_a_hub_of_many_moves(moves, monkeypatch):
    # The Mouse at the hub loses only once every one of its moves, each to
    # a sink, is won for the Cat, which loops on its node.  The self-loop
    # makes one class of every state.
    leaves = tuple(f"v{k}" for k in range(moves))
    graph = Graph(directed=True, nodes=("c", "hub", "h") + leaves,
                  edges=(("c", "c"),) + tuple(("hub", v) for v in leaves))
    instance = GameInstance(graph, "c", "hub", "h")
    assert_same_tables(instance)
    assert solve(instance).value(GameState("c", "hub", MOUSE)) is Outcome.CAT_WIN
    # The option counts share the codes' int16 cells at any number of moves
    # below 2^15: the one class solves under a budget of exactly 2 bytes a
    # state and is refused one byte under it.
    states = 2 * len(graph.nodes) ** 2
    monkeypatch.setattr(solver, "_MAX_TABLE_BYTES", states * 2)
    solution = solve(instance)
    assert solution.outcome() is Outcome.CAT_WIN
    assert solution._tables[solution.stats[0].key].code.nbytes == 2 * states
    monkeypatch.setattr(solver, "_MAX_TABLE_BYTES", states * 2 - 1)
    with pytest.raises(TooLargeError, match="the class to solve has"):
        solve(instance)


def test_a_start_class_under_the_budget_solves_on_a_board_over_it(monkeypatch):
    circuit = generate_random(4, 8, 8, 0.5, seed=1)
    graph, _cmap = build_directed(circuit, "1" * circuit.num_inputs)
    instance = GameInstance.from_game_graph(graph)
    start = solve(instance).stats[0]
    budget = start.states * 2
    assert budget < 2 * len(graph.nodes) ** 2 * 2
    monkeypatch.setattr(solver, "_MAX_TABLE_BYTES", budget)
    got = solve(instance)._dense()
    want = reference_solve(instance)
    decided = got[0] != -1
    assert np.count_nonzero(decided) == start.states
    for table, expected in zip(got, want):
        assert np.array_equal(table[decided], expected[decided])


@pytest.mark.parametrize("period", [0, 2, 3])
def test_any_query_order_gives_the_reference_tables(period):
    for seed in range(20):
        graph = layered_arena(seed, period)
        instance = GameInstance(graph, *random_placement(graph, seed))
        solution = solve(instance)
        rng = random.Random(seed)
        for _ in range(rng.randrange(8)):
            state = GameState(rng.choice(graph.nodes), rng.choice(graph.nodes),
                              rng.choice((CAT, MOUSE)))
            rng.choice((solution.value, solution.dist, solution.policy()))(state)
        solution._complete()
        for table, expected in zip(solution._dense(), reference_solve(instance)):
            assert table.dtype == expected.dtype
            assert np.array_equal(table, expected)
