"""The three workloads: seeded inputs, a set-up, rounds of operations, and
the checks applied to every operation's outputs.

A workload's ``setup()`` is the program work a user waits for before the
first operation (input generation and, for ``queries``, solving the boards).
``prepare_checks()`` is the checker's own preparation and is not timed.
``round(k)`` returns the k-th round of operations; a run attempts whole
rounds, so every run attempts the same mix of operations.  Each operation
is a ``(run, check)`` pair: ``run()`` calls into catmouse and returns its
outputs, ``check(outputs)`` lists what the independent checker finds wrong.

Every call into catmouse goes through an attribute of the ``catmouse``
package at call time, so the tracer's rebinding sees it.
"""

from __future__ import annotations

import random

import catmouse as cm

import checker

MODES = ("directed", "undirected")


def build(mode, circuit, bits):
    builder = cm.build_directed if mode == "directed" else cm.build_undirected
    return builder(circuit, bits)


def gate_tuples(circuit):
    return [(g.id, g.kind, g.left, g.right) for g in circuit.gates]


def expected_outcome(circuit, bits) -> str:
    value = checker.circuit_value(gate_tuples(circuit), bits)
    return checker.MOUSE_WIN if value else checker.CAT_WIN


def answers(solution):
    """The solver's value and dist as functions of (cat, mouse, turn) tuples."""
    def value(state):
        return solution.value(cm.GameState(*state)).value

    def dist(state):
        return solution.dist(cm.GameState(*state))

    return value, dist


def move_triples(transcript):
    return [(player, frm, to) for _ply, player, frm, to in transcript.moves]


def check_solved(board, solution, state, got) -> list[str]:
    """Local consistency of ``state`` and an optimal playout from it."""
    value, dist = answers(solution)
    problems = checker.check_state(board, state, got, value, dist)
    if got[0] != checker.DRAW and not problems:
        policy = solution.policy()
        transcript = cm.play_match(solution.instance, policy, policy,
                                   start=cm.GameState(*state))
        problems += checker.check_playout(board, state, got[0], got[1],
                                          move_triples(transcript),
                                          transcript.result.value)
    return problems


class Deep:
    """``catmouse verify`` on ladder circuits of one size class (941 nodes)."""

    name = "deep"
    LAYERS, WIDTH = 6, 16
    POOL = 16  # distinct circuits; round k uses circuit k mod POOL
    instances_per_op = 2
    setup_instances = 0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        rng = random.Random(self.seed)
        self.pool = []
        while len(self.pool) < self.POOL:
            circuit = cm.generate_random(self.LAYERS, self.WIDTH, self.WIDTH,
                                         0.5, seed=rng.randrange(2**32))
            gates = gate_tuples(circuit)
            pair = []
            for want in (True, False):
                # Monotone: all ones is always true and all zeros false.
                bits = ("1" if want else "0") * self.WIDTH
                for _ in range(64):
                    draw = "".join(rng.choice("01") for _ in range(self.WIDTH))
                    if checker.circuit_value(gates, draw) == want:
                        bits = draw
                        break
                pair.append(bits)
            self.pool.append((circuit, pair))

    def prepare_checks(self):
        pass

    def round(self, k):
        circuit, pair = self.pool[k % self.POOL]
        return [self._op(circuit, bits) for bits in pair]

    @staticmethod
    def _op(circuit, bits):
        def run():
            return cm.verify_equivalence(circuit, bits)

        def check(report):
            want = expected_outcome(circuit, bits)
            problems = [f"violation: {v}" for v in report.violations]
            if report.circuit_value != (want == checker.MOUSE_WIN):
                problems.append(f"circuit value {report.circuit_value}, expected {want}")
            for mode in MODES:
                for kind, got in (("solver", report.outcomes.get(mode)),
                                  ("scripted", report.scripted.get(mode))):
                    if got is None or got.value != want:
                        problems.append(f"{mode} {kind}: {got}, expected {want}")
            return problems

        return run, check


def acceptance_corpus():
    """The 200-circuit corpus of the acceptance tests, by the same recipe."""
    rng = random.Random(20260823)
    corpus = []
    while len(corpus) < 200:
        layers = rng.choices((1, 2, 3, 4), weights=(30, 35, 25, 10))[0]
        width = rng.choices((1, 2, 3, 4, 5, 6), weights=(15, 30, 25, 15, 10, 5))[0]
        num_inputs = rng.choices((2, 3, 4, 5, 6), weights=(40, 30, 18, 8, 4))[0]
        p_or = rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))
        first_width = min(width, 2 ** (layers - 1))
        fanout2 = rng.random() < 0.2 and first_width <= num_inputs <= 2 * first_width
        corpus.append(cm.generate_random(layers=layers, width=width,
                                         num_inputs=num_inputs, p_or=p_or,
                                         seed=rng.randrange(2**32), fanout2=fanout2))
    return corpus


class Sweep:
    """The acceptance sweep, one instance per operation, in seeded order."""

    name = "sweep"
    instances_per_op = 1
    setup_instances = 0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        self.pairs = [(circuit, format(k, f"0{circuit.num_inputs}b"))
                      for circuit in acceptance_corpus()
                      for k in range(2 ** circuit.num_inputs)]
        random.Random(self.seed).shuffle(self.pairs)

    def prepare_checks(self):
        pass

    def round(self, k):
        circuit, bits = self.pairs[k % len(self.pairs)]
        return [self._op(circuit, bits, mode) for mode in MODES]

    @staticmethod
    def _op(circuit, bits, mode):
        def run():
            value = bool(cm.evaluate(circuit, bits)[0])
            graph, cmap = build(mode, circuit, bits)
            instance = cm.GameInstance.from_game_graph(graph)
            solution = cm.solve(instance)
            out = {"solution": solution, "outcome": solution.outcome(),
                   "structure": cm.check_structure(circuit, bits, mode)}
            cat = cm.make_mirror_cat(instance, cmap, circuit, bits)
            mouse = cm.make_true_path_mouse(instance, cmap, circuit, bits)
            if value:
                out["vs_optimal"] = cm.play_match(instance, solution.policy(), mouse)
            else:
                out["vs_optimal"] = cm.play_match(instance, cat, solution.policy())
            out["head_to_head"] = cm.play_match(instance, cat, mouse)
            out["text"] = cm.export_graph(graph, cmap)
            out["again"] = cm.export_graph(*cm.import_graph(out["text"]))
            return out

        def check(out):
            gates = gate_tuples(circuit)
            want = expected_outcome(circuit, bits)
            win_plies = checker.optimal_win_plies(gates)
            problems = [f"structure: {p}" for p in out["structure"]]
            if out["outcome"].value != want:
                problems.append(f"solver says {out['outcome'].value}, expected {want}")
            if out["vs_optimal"].result.value != want:
                problems.append(f"scripted side lost to optimal play "
                                f"({out['vs_optimal'].reason})")
            head = out["head_to_head"]
            if head.result.value != want:
                problems.append(f"head-to-head ends {head.result.value}, expected {want}")
            elif want == checker.MOUSE_WIN:
                if head.reason != "hole" or len(head.moves) != win_plies:
                    problems.append(f"scripted win by {head.reason} in {len(head.moves)} plies")
            elif head.reason != "capture":
                problems.append(f"scripted loss by {head.reason}, not capture")
            if out["again"] != out["text"]:
                problems.append("export changed after import")
            board = checker.parse_board(out["text"])
            census = checker.census_nodes(circuit.num_inputs, gates)
            if len(board.nodes) != census:
                problems.append(f"{len(board.nodes)} board nodes, census gives {census}")
            solution = out["solution"]
            start = board.start()
            got = (out["outcome"].value, solution.dist(cm.GameState(*start)))
            if want == checker.MOUSE_WIN and got[1] != win_plies:
                problems.append(f"optimal win in {got[1]} plies, expected {win_plies}")
            return problems + check_solved(board, solution, start, got)

        return run, check


class Queries:
    """``catmouse solve --state`` answers on two solved mid-size boards."""

    name = "queries"
    LAYERS, WIDTH = 5, 16
    instances_per_op = 0
    setup_instances = 2

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        rng = random.Random(self.seed)
        circuit = cm.generate_random(self.LAYERS, self.WIDTH, self.WIDTH, 0.5,
                                     seed=rng.randrange(2**32))
        bits = "".join(rng.choice("01") for _ in range(self.WIDTH))
        self.boards = []
        for mode in MODES:
            text = cm.export_graph(*build(mode, circuit, bits))
            graph, _cmap = cm.import_graph(text)
            instance = cm.GameInstance.from_game_graph(graph)
            self.boards.append((text, cm.solve(instance)))

    def prepare_checks(self):
        self.parsed = [checker.parse_board(text) for text, _solution in self.boards]

    def round(self, k):
        draws = random.Random(f"{self.seed}/{k}")
        ops = []
        for (_text, solution), board in zip(self.boards, self.parsed):
            state = (draws.choice(board.nodes), draws.choice(board.nodes),
                     draws.choice((checker.CAT, checker.MOUSE)))
            ops.append(self._op(board, solution, state))
        return ops

    @staticmethod
    def _op(board, solution, state):
        def run():
            at = cm.GameState(*state)
            value = solution.value(at)
            if value is cm.Outcome.DRAW:
                return value, None, None
            policy = solution.policy()
            return value, solution.dist(at), cm.play_match(
                solution.instance, policy, policy, start=at)

        def check(out):
            value, dist, transcript = out
            problems = checker.check_state(board, state, (value.value, dist),
                                           *answers(solution))
            if transcript is not None:
                problems += checker.check_playout(board, state, value.value, dist,
                                                  move_triples(transcript),
                                                  transcript.result.value)
            return problems

        return run, check


WORKLOADS = {w.name: w for w in (Deep, Sweep, Queries)}
