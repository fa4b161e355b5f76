import dataclasses
import itertools
import tracemalloc

import pytest

from catmouse import reduction, solver, verify
from catmouse.circuits import InvalidParamsError, evaluate, generate_random, parse_circuit
from catmouse.cli import main
from catmouse.solver import CAT, MOUSE, GameInstance, Graph, Outcome
from catmouse.strategies import make_mirror_cat, make_true_path_mouse
from catmouse.verify import (
    FuzzFailure,
    audit_board,
    certify_strategy,
    check_structure,
    fuzz_equivalence,
    verify_equivalence,
)

from conftest import off_plan_replies, random_arena, random_placement

ONE_AND = "inputs 2\ngate g0 AND i0 i1\noutput g0\n"
ONE_OR = "inputs 2\ngate g0 OR i0 i1\noutput g0\n"
THREE_GATE = (
    "inputs 3\n"
    "gate a OR i0 i1\n"
    "gate b AND i1 i2\n"
    "gate c AND a b\n"
    "output c\n"
)


def all_bits(num_inputs):
    return ["".join(p) for p in itertools.product("01", repeat=num_inputs)]


def count_builds(monkeypatch):
    """Wrap every ``reduction.BUILDERS`` value; return the list of modes built."""
    calls = []
    for mode, build in list(reduction.BUILDERS.items()):
        def counted(circuit, bits, mode=mode, build=build):
            calls.append(mode)
            return build(circuit, bits)
        monkeypatch.setitem(reduction.BUILDERS, mode, counted)
    return calls


class TestVerifyEquivalence:
    def test_every_assignment_of_the_nested_circuit_checks_out(self):
        circuit = parse_circuit(THREE_GATE)
        for bits in all_bits(3):
            report = verify_equivalence(circuit, bits)
            assert report.ok, (bits, report.violations)
            assert report.bits == bits

    def test_single_gate_circuits_check_out(self):
        for source in (ONE_AND, ONE_OR):
            circuit = parse_circuit(source)
            for bits in all_bits(2):
                report = verify_equivalence(circuit, bits)
                assert report.ok, (source, bits, report.violations)

    def test_report_carries_outcomes_per_mode(self):
        circuit = parse_circuit(ONE_AND)
        report = verify_equivalence(circuit, "11")
        assert report.circuit_value is True
        assert set(report.outcomes) == {"directed", "undirected"}
        assert set(report.scripted) == {"directed", "undirected"}

    def test_single_mode_request(self):
        circuit = parse_circuit(ONE_AND)
        report = verify_equivalence(circuit, "01", modes=("directed",))
        assert report.ok
        assert set(report.outcomes) == {"directed"}

    @pytest.mark.parametrize("modes", [
        ("diag",), "directed", (), ("directed", "diag"),
    ], ids=["unknown", "string", "empty", "one-unknown"])
    def test_bad_modes_are_refused_before_any_build(self, monkeypatch, modes):
        # A string would be walked letter by letter, and no modes would
        # report ok with no board checked.
        calls = count_builds(monkeypatch)
        with pytest.raises(InvalidParamsError) as err:
            verify_equivalence(parse_circuit(ONE_AND), "11", modes)
        assert str(err.value) == (
            f"modes must be one or more of ('directed', 'undirected'), got {modes!r}")
        assert calls == []

    def test_bits_that_are_not_zero_or_one_are_refused(self):
        # Read by truth, ["0", "0"] would check the true board of 11.
        with pytest.raises(InvalidParamsError, match="assignment bit 0 is '0'"):
            verify_equivalence(parse_circuit(ONE_AND), ["0", "0"])

    def test_each_mode_is_freed_before_the_next(self):
        # The directed board and its solution, kept alive through the
        # undirected solve, added 1.3 MiB to the peak of both modes.
        circuit = generate_random(6, 16, 16, 0.5, seed=1)
        bits = "1" * circuit.num_inputs
        # Once first, so that neither peak holds what the first call sets up.
        verify_equivalence(parse_circuit(ONE_AND), "11")

        def peak(modes):
            tracemalloc.start()
            try:
                assert verify_equivalence(circuit, bits, modes).ok
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(reduction.MODES) - peak(("undirected",)) < 2**19


class TestCheckStructure:
    def test_no_problems_on_reference_circuits(self):
        for source in (ONE_AND, ONE_OR, THREE_GATE):
            circuit = parse_circuit(source)
            for bits in all_bits(circuit.num_inputs):
                for mode in ("directed", "undirected"):
                    assert check_structure(circuit, bits, mode) == []

    def test_a_board_missing_an_escape_edge_is_reported(
        self, monkeypatch, tmp_path, capsys
    ):
        def broken(circuit, bits):
            graph, cmap = reduction.build_directed(circuit, bits)
            escape = next(e for e in graph.edges
                          if e[2] == reduction.TAG_ESCAPE)
            edges = tuple(e for e in graph.edges if e != escape)
            return dataclasses.replace(graph, edges=edges), cmap

        monkeypatch.setitem(reduction.BUILDERS, "directed", broken)
        circuit = parse_circuit(ONE_AND)
        problems = check_structure(circuit, "11", "directed")
        assert any(p.startswith("edge count ") for p in problems), problems
        report = verify_equivalence(circuit, "11", modes=("directed",))
        assert any(v.startswith("structure[directed]: edge count ")
                   for v in report.violations), report.violations
        path = tmp_path / "and.circuit"
        path.write_text(ONE_AND)
        assert main(["verify", str(path), "11", "--mode", "directed"]) == 1
        assert "violation structure[directed]: " in capsys.readouterr().out
        graph, cmap = broken(circuit, "11")
        problems = audit_board(graph, cmap, circuit, "11")
        assert any(p.startswith("edge count ") for p in problems), problems


@pytest.mark.parametrize("tag", reduction.EDGE_TAGS)
def test_a_missing_edge_is_counted_under_its_tag(tag):
    # The true undirected one-AND board has edges of every tag.
    circuit = parse_circuit(ONE_AND)
    graph, cmap = reduction.build_undirected(circuit, "11")
    tagged = graph.edges_tagged(tag)
    edges = [e for e in graph.edges if e[:2] != tagged[0]]
    broken = dataclasses.replace(graph, edges=tuple(edges))
    problems = audit_board(broken, cmap, circuit, "11")
    assert f"{tag} edges {len(tagged) - 1}, expected {len(tagged)}" in problems
    assert any(p.startswith("edge count ") for p in problems), problems


def renamed(graph, old, new):
    """``graph`` with node ``old`` called ``new``."""
    name = {old: new}.get
    return dataclasses.replace(
        graph,
        nodes=tuple(name(v, v) for v in graph.nodes),
        edges=tuple((name(a, a), name(b, b), tag) for a, b, tag in graph.edges),
        roles={name(v, v): role for v, role in graph.roles.items()},
    )


@pytest.mark.parametrize("edit, expected", [
    (lambda g, m: (g, dataclasses.replace(m, layer={**m.layer, g.h: 1})),
     ["hole is on the wrong level"]),
    (lambda g, m: (dataclasses.replace(g, edges=g.edges + ((g.h, g.d, "x"),)), m),
     ["h has outgoing edges"]),
    (lambda g, m: (g, dataclasses.replace(
        m, cat_of={k: v for k, v in m.cat_of.items() if k != "g0.M.3"})),
     ["g0.M.3 has no partner in the other copy",
      "g0.C.3 has no partner in the other copy"]),
    (lambda g, m: (renamed(g, "g0.esc.L.1", "g0.esc.L.x"), m),
     ["g0/L: missing chain node g0.esc.L.1"]),
    (lambda g, m: (dataclasses.replace(g, roles={
        **g.roles, "g0.esc.R.1": reduction.NodeRole(reduction.ROLE_GADGET, gate="g0", position=1, side="M")}), m),
     ["g0/R: g0.esc.R.1 has the wrong role"]),
    (lambda g, m: (dataclasses.replace(g, h=g.d, d=g.h), m),
     ["hole has role dead-end, expected hole", "dead end has role hole, expected dead-end"]),
    (lambda g, m: (dataclasses.replace(g, m="g0.C.1"), m),
     ["mouse start is g0.C.1, expected g0.M.1"]),
    (lambda g, m: (g, dataclasses.replace(
        m, cat_of={**m.cat_of, "g0.M.2": "g0.C.3", "g0.M.3": "g0.C.2"})),
     ["g0.M.2 is paired with g0.C.3, expected g0.C.2",
      "g0.M.3 is paired with g0.C.2, expected g0.C.3"]),
    (lambda g, m: (g, dataclasses.replace(
        m, cat_of={**m.cat_of, "i0.M": "i1.C", "i1.M": "i0.C"})),
     ["i0.M is paired with i1.C, expected i0.C", "i1.M is paired with i0.C, expected i1.C"]),
], ids=["hole-level", "edge-out-of-h", "unpaired", "renamed-escape", "escape-role",
        "hole-dead-end-swapped", "mouse-start-in-cat-copy", "gadget-partners-swapped",
        "input-partners-swapped"])
def test_each_edited_field_is_a_problem(edit, expected):
    # The true directed one-AND board audits clean; each edit of one of its
    # fields raises its own problem line.
    circuit = parse_circuit(ONE_AND)
    graph, cmap = reduction.build_directed(circuit, "11")
    assert audit_board(graph, cmap, circuit, "11") == []
    problems = audit_board(*edit(graph, cmap), circuit, "11")
    assert [p for p in problems if p in expected] == expected, problems


class TestBuildsPerCall:
    def test_verify_builds_each_mode_once(self, monkeypatch):
        calls = count_builds(monkeypatch)
        assert verify_equivalence(parse_circuit(THREE_GATE), "011").ok
        assert sorted(calls) == ["directed", "undirected"]

    def test_check_structure_builds_once(self, monkeypatch):
        calls = count_builds(monkeypatch)
        assert check_structure(parse_circuit(THREE_GATE), "011", "undirected") == []
        assert calls == ["undirected"]

    def test_audit_board_builds_nothing(self, monkeypatch):
        circuit = parse_circuit(THREE_GATE)
        graph, cmap = reduction.build_directed(circuit, "011")
        calls = count_builds(monkeypatch)
        assert audit_board(graph, cmap, circuit, "011") == []
        assert calls == []


def scripted_walks(circuit, bits, mode, cat=None):
    """Build the ``mode`` board through ``reduction.BUILDERS``; return it,
    its correspondence map, the certificate of the scripted side that should
    win, and the walk of the Cat (the mirror Cat unless ``cat`` makes one)
    against a free Mouse."""
    graph, cmap = reduction.BUILDERS[mode](circuit, bits)
    inst = GameInstance.from_game_graph(graph)
    cat_policy = (cat or make_mirror_cat)(inst, cmap, circuit, bits)
    cat_walk = certify_strategy(inst, CAT, cat_policy)
    if evaluate(circuit, bits)[0]:
        mouse = make_true_path_mouse(inst, cmap, circuit, bits)
        return graph, cmap, certify_strategy(inst, MOUSE, mouse), cat_walk
    return graph, cmap, cat_walk, cat_walk


def drop_edges(monkeypatch, tag):
    """Rebind both builders to drop every edge tagged ``tag``."""
    for mode, build in list(reduction.BUILDERS.items()):
        def broken(circuit, bits, build=build):
            graph, cmap = build(circuit, bits)
            edges = tuple(e for e in graph.edges if e[2] != tag)
            return dataclasses.replace(graph, edges=edges), cmap
        monkeypatch.setitem(reduction.BUILDERS, mode, broken)


# False assignments where a false AND gadget has a true child, which only the
# Cat's sealing move, over a threat edge, keeps the Mouse from.
SEALED = ((ONE_AND, ("01", "10")), (THREE_GATE, ("001", "010", "100", "101", "110")))


def shadowing_cat(instance, cmap, circuit, bits):
    """A mirror Cat without the sealing move: capture, else shadow."""
    graph = instance.graph

    def policy(state):
        if state.mouse in graph.neighbors_out(state.cat):
            return state.mouse
        return cmap.cat_of.get(state.mouse)

    return policy


class TestCertifyStrategy:
    def test_scripted_sides_win_against_any_opposition(self):
        for source in (ONE_AND, ONE_OR, THREE_GATE):
            circuit = parse_circuit(source)
            for bits in all_bits(circuit.num_inputs):
                true = evaluate(circuit, bits)[0]
                for mode in reduction.MODES:
                    graph, cmap, cert, cat_walk = scripted_walks(circuit, bits, mode)
                    assert cert.ok, (source, bits, mode, cert.problems)
                    assert cert.side == (MOUSE if true else CAT)
                    if true:
                        # The mirror Cat cannot win a true instance, and
                        # every line of the marching Mouse has one length.
                        assert not cat_walk.ok
                        level = cmap.layer[graph.m]
                        assert (cert.shortest, cert.longest) == (2 * level, 2 * level)

    def test_off_plan_mouse_moves_are_captured_next_ply(self):
        for source in (ONE_AND, ONE_OR, THREE_GATE):
            circuit = parse_circuit(source)
            for bits in all_bits(circuit.num_inputs):
                if not evaluate(circuit, bits)[0]:
                    continue
                _graph, cmap, _cert, cat_walk = scripted_walks(
                    circuit, bits, "undirected")
                seen, missed = off_plan_replies(cmap, cat_walk)
                assert missed == [], (source, bits, missed)
                assert min(seen.values()) > 0, (source, bits, seen)

    def test_each_kind_of_problem_is_reported(self):
        graph = Graph(True, ("c", "m", "x", "y", "h"),
                      (("c", "x"), ("m", "h"), ("m", "x"), ("m", "y")))
        inst = GameInstance(graph, "c", "m", "h")
        to_hole = certify_strategy(inst, MOUSE, lambda state: "h")
        assert to_hole.ok
        assert (to_hole.states, to_hole.shortest, to_hole.longest) == (3, 2, 2)
        for policy, problem in (
            (lambda state: "x", "play ends by capture"),
            (lambda state: "c", "policy played m -> c"),
            (lambda state: None, "policy played m -> None"),
            (lambda state: {}[state], "policy raised KeyError"),
        ):
            problems = certify_strategy(inst, MOUSE, policy).problems
            assert len(problems) == 1
            assert problems[0].split(": ", 1)[1].startswith(problem), problems
        # The Cat must step to x, where it has no move left.
        problems = certify_strategy(inst, CAT, lambda state: "x").problems
        assert sorted(p.split(": ", 1)[1] for p in problems) == [
            "Cat is stuck", "play ends by hole"]
        ring = Graph(False, ("a", "b", "c", "d", "h"),
                     (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")))
        chase = certify_strategy(GameInstance(ring, "a", "c", "h"), CAT,
                                 lambda state: min(ring.neighbors_out(state.cat)))
        assert chase.problems
        assert all(p.endswith("reached again, a cycle") for p in chase.problems)

    @pytest.mark.parametrize("side", ["mouse", "cat"])
    def test_unknown_side_is_refused(self, side):
        graph, _cmap = reduction.build_directed(parse_circuit(ONE_AND), "11")
        inst = GameInstance.from_game_graph(graph)
        with pytest.raises(ValueError, match="'Cat' or 'Mouse'"):
            certify_strategy(inst, side, lambda state: None)

    def test_certificates_agree_with_the_solver(self):
        won = {Outcome.CAT_WIN: CAT, Outcome.MOUSE_WIN: MOUSE}
        certified = []
        for seed in range(80):
            graph = random_arena(seed)
            inst = GameInstance(graph, *random_placement(graph, 1000 + seed))
            solution = solver.solve(inst)
            winner = won.get(solution.outcome())
            for side in (CAT, MOUSE):
                cert = certify_strategy(inst, side, solution.policy())
                assert cert.ok == (side == winner), (seed, side, cert.problems)
                if cert.ok:
                    certified.append(side)
                    assert cert.longest == solution.dist(inst.initial_state())
        assert certified.count(CAT) >= 10 and certified.count(MOUSE) >= 10

    def test_dropped_guard_edges_are_reported(self, monkeypatch):
        drop_edges(monkeypatch, reduction.TAG_GUARD)
        for source in (ONE_AND, THREE_GATE):
            circuit = parse_circuit(source)
            for bits in all_bits(circuit.num_inputs):
                _graph, cmap, cert, cat_walk = scripted_walks(
                    circuit, bits, "undirected")
                if evaluate(circuit, bits)[0]:
                    assert off_plan_replies(cmap, cat_walk)[1], (source, bits)
                else:
                    assert not cert.ok, (source, bits)

    def test_dropped_threat_edges_are_reported(self, monkeypatch):
        drop_edges(monkeypatch, reduction.TAG_THREAT)
        for source, sealed in SEALED:
            circuit = parse_circuit(source)
            for mode in reduction.MODES:
                for bits in sealed:
                    *_board, cert, _walk = scripted_walks(circuit, bits, mode)
                    assert cert.side == CAT and not cert.ok, (source, bits, mode)

    def test_a_cat_that_skips_the_sealing_move_is_reported(self):
        for source, sealed in SEALED:
            circuit = parse_circuit(source)
            for mode in reduction.MODES:
                for bits in sealed:
                    *_board, cert, _walk = scripted_walks(
                        circuit, bits, mode, cat=shadowing_cat)
                    assert cert.side == CAT and not cert.ok, (source, bits, mode)


class TestFuzz:
    def test_small_fuzz_run_is_clean(self):
        report = fuzz_equivalence(20, seed=1)
        assert report.checked == 20
        assert report.ok, [f.reproducer() for f in report.failures]

    @pytest.mark.parametrize("name,value", [
        ("n", -1), ("max_layers", 0), ("max_width", 0), ("max_inputs", 1),
    ])
    def test_out_of_range_sizes_are_invalid_params(self, name, value):
        with pytest.raises(InvalidParamsError, match=f"^{name} must be at least"):
            fuzz_equivalence(**{"n": 1, "seed": 0, name: value})

    def test_fuzz_is_deterministic(self):
        assert fuzz_equivalence(8, seed=9) == fuzz_equivalence(8, seed=9)

    def test_reproducer_format(self):
        failure = FuzzFailure(
            trial=3,
            circuit_text="inputs 2\ngate g0 AND i0 i1\noutput g0\n",
            bits="10",
            violations=("directed: solver says CatWin, circuit value is True",),
        )
        text = failure.reproducer()
        assert text.startswith("# trial 3, bits 10\n")
        assert "# directed: solver says" in text
        assert text.endswith("output g0\n")


def skew_solver(monkeypatch, flip=False, longer=0):
    """Rebind ``verify.solve`` to a solver that reports the start's winner
    swapped if ``flip``, and every distance ``longer`` plies more."""
    swapped = {Outcome.CAT_WIN: Outcome.MOUSE_WIN, Outcome.MOUSE_WIN: Outcome.CAT_WIN}

    class Skewed:
        def __init__(self, instance):
            self.solution = solver.solve(instance)

        def outcome(self):
            won = self.solution.outcome()
            return swapped[won] if flip else won

        def dist(self, state):
            return self.solution.dist(state) + longer

    monkeypatch.setattr(verify, "solve", Skewed)


def verify_directed(tmp_path, capsys, bits):
    """Run ``catmouse verify`` on the one-AND circuit in directed mode;
    return its exit code and the lines it printed."""
    path = tmp_path / "and.circuit"
    path.write_text(ONE_AND)
    code = main(["verify", str(path), bits, "--mode", "directed"])
    return code, capsys.readouterr().out.splitlines()


class TestBreaches:
    """Each way optimal or scripted play can break the promise is reported,
    and ``catmouse verify`` exits 1 on it."""

    @pytest.mark.parametrize("bits, breach", [
        ("11", "optimal play ended CatWin in 8 plies, expected MouseWin in 8 plies"),
        ("01", "optimal play ended MouseWin, expected CatWin"),
    ])
    def test_a_wrong_optimal_winner(self, monkeypatch, tmp_path, capsys, bits, breach):
        skew_solver(monkeypatch, flip=True)
        code, out = verify_directed(tmp_path, capsys, bits)
        assert (code, out[-2:]) == (1, [f"violation directed: {breach}", "mismatch"])

    def test_a_wrong_optimal_win_length(self, monkeypatch, tmp_path, capsys):
        skew_solver(monkeypatch, longer=2)
        code, out = verify_directed(tmp_path, capsys, "11")
        assert (code, out[-2:]) == (1, [
            "violation directed: optimal play ended MouseWin in 10 plies, "
            "expected MouseWin in 8 plies",
            "mismatch",
        ])
        # Only a win's length is promised.
        assert verify_directed(tmp_path, capsys, "01") == (0, [
            "bits 01", "value 0", "directed CatWin scripted CatWin", "ok"])

    def test_an_aborted_scripted_match(self, monkeypatch, tmp_path, capsys):
        # On a sealed assignment the mirror Cat must step from its gadget's
        # entry to the node that seals the true child; without that edge it
        # has no prescribed move, and the Mouse wins.
        seal = (reduction.gadget_node("g0", reduction.CAT_SIDE, 1),
                reduction.gadget_node("g0", reduction.CAT_SIDE, 2))

        def broken(circuit, bits):
            graph, cmap = reduction.build_directed(circuit, bits)
            edges = tuple(e for e in graph.edges if e[:2] != seal)
            return dataclasses.replace(graph, edges=edges), cmap

        monkeypatch.setitem(reduction.BUILDERS, "directed", broken)
        assert "01" in SEALED[0][1]
        assert verify_directed(tmp_path, capsys, "01") == (1, [
            "bits 01",
            "value 0",
            "directed MouseWin scripted aborted",
            "violation structure[directed]: gadget-internal edges 11, expected 12",
            "violation structure[directed]: edge count 29, expected 30",
            "violation directed: optimal play ended MouseWin, expected CatWin",
            "violation directed: scripted match aborted: "
            "cat at g0.C.1 cannot reach threat node g0.C.2",
            "mismatch",
        ])

    def test_a_wrong_scripted_line(self, monkeypatch, tmp_path, capsys):
        def first_neighbour_mouse(instance, cmap, circuit, bits):
            graph = instance.graph
            return lambda state: min(graph.neighbors_out(state.mouse))

        monkeypatch.setattr(verify, "make_true_path_mouse", first_neighbour_mouse)
        assert verify_directed(tmp_path, capsys, "11") == (1, [
            "bits 11",
            "value 1",
            "directed MouseWin scripted CatWin",
            "violation directed: scripted play ended CatWin by capture in 5 plies, "
            "expected MouseWin by hole in 8 plies",
            "mismatch",
        ])

    def test_fuzz_prints_the_reproducer(self, monkeypatch, capsys):
        skew_solver(monkeypatch, flip=True)
        assert main(["fuzz", "--n", "1"]) == 1
        out = capsys.readouterr().out
        failure = fuzz_equivalence(1, seed=0).failures[0]
        assert out == "0/1 ok\n" + failure.reproducer()
        assert out.startswith(f"0/1 ok\n# trial 0, bits {failure.bits}\n"
                              "# directed: optimal play ended ")

    def test_bits_given_as_booleans(self):
        report = verify_equivalence(parse_circuit(ONE_AND), [True, False])
        assert (report.bits, report.circuit_value, report.ok) == ("10", False, True)


def test_verify_decides_only_the_start_class(monkeypatch):
    # verify reads only states that play from the start can reach, so none of
    # its solutions decides the other classes.
    solutions = []

    def recorded(instance):
        solutions.append(solver.solve(instance))
        return solutions[-1]

    monkeypatch.setattr(verify, "solve", recorded)
    circuit = parse_circuit(THREE_GATE)
    for bits in all_bits(3):
        assert verify_equivalence(circuit, bits).ok
    assert len(solutions) == 16
    for solution in solutions:
        assert len(solution.stats) == 1
        # Each board had other classes to leave undecided.
        assert solution.stats[0].states < 2 * len(solution.instance.graph.nodes) ** 2
