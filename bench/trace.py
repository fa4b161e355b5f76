"""Spans around calls into catmouse's public functions, from outside src/.

``Tracer.install()`` rebinds each traced function, wherever a ``catmouse``
module holds it (as a module attribute or as a value of a module-level dict
such as a mode-to-builder table), to a wrapper that records a span: a name,
a start, an end and the enclosing span.  Policies returned by the strategy
factories and by ``Solution.policy`` are wrapped too, so match time can be
split from the time the players spend choosing.  ``uninstall()`` restores the
originals, so untraced code runs exactly as without the tracer.

Spans are aggregated as they close (calls, total and self time per name, in
the current phase), and the first ``SPAN_CAP`` are kept whole for the dump.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SPAN_CAP = 100_000

# (module, attribute, span name).  Names absent from the module are skipped.
TRACED = (
    ("circuits", "parse_circuit", "circuits.parse_circuit"),
    ("circuits", "serialize_circuit", "circuits.serialize_circuit"),
    ("circuits", "validate_layers", "circuits.validate_layers"),
    ("circuits", "evaluate", "circuits.evaluate"),
    ("circuits", "generate_random", "circuits.generate_random"),
    ("reduction", "build_directed", "reduction.build"),
    ("reduction", "build_undirected", "reduction.build"),
    ("reduction", "export_graph", "reduction.export"),
    ("reduction", "import_graph", "reduction.import"),
    ("reduction", "validate_graph", "reduction.validate_graph"),
    ("reduction", "stats", "reduction.stats"),
    ("solver", "solve", "solver.solve"),
    ("solver", "outcome", "solver.outcome"),
    ("solver", "play_match", "solver.play_match"),
    ("solver", "minimax_oracle", "solver.minimax_oracle"),
    ("strategies", "make_mirror_cat", "strategies.make"),
    ("strategies", "make_true_path_mouse", "strategies.make"),
    ("verify", "verify_equivalence", "verify.verify_equivalence"),
    ("verify", "check_structure", "verify.check_structure"),
    ("verify", "undirected_probes", "verify.undirected_probes"),
    ("verify", "fuzz_equivalence", "verify.fuzz_equivalence"),
)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.recording = False
        self.stats: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.largest_solve = None  # (nodes, instance)
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` when recording."""
        if not self.recording:
            return fn(*args, **kwargs)
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span_id, _name, start, child = frame
            duration = end - start
            stat = self.stats[(self.phase, name)]
            stat.calls += 1
            stat.total += duration
            stat.self_time += duration - child
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[3] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, parent[0] if parent else None,
                                   name, self.phase, start, end))
            else:
                self.dropped += 1

    def count(self, name: str, amount: float = 1.0):
        if self.recording:
            self.counters[(self.phase, name)] += amount

    # -- wrappers ------------------------------------------------------
    def _policy(self, name, policy):
        return lambda state: self.span(name, policy, state)

    def _wrap(self, fn, name):
        tracer = self
        if name == "strategies.make":
            def make(*args, **kwargs):
                return tracer._policy("strategies.policy",
                                      tracer.span(name, fn, *args, **kwargs))
            return make

        def wrapped(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if tracer.recording:
                tracer._observe(name, args, result)
            return result
        return wrapped

    def _observe(self, name, args, result):
        if name == "solver.solve":
            instance = args[0]
            n = len(tuple(instance.graph.nodes))
            self.count("solver.solve.states", 2 * n * n)
            if self.largest_solve is None or n > self.largest_solve[0]:
                self.largest_solve = (n, instance)
        elif name == "reduction.build":
            self.count("reduction.board_nodes", len(tuple(result[0].nodes)))
        elif name == "solver.play_match":
            self.count("solver.play_match.plies", len(result.moves))

    def install(self):
        """Rebind every traced function in every loaded catmouse module."""
        if self._patches:
            return
        mods = {k.rpartition(".")[2]: m for k, m in sys.modules.items()
                if k == "catmouse" or k.startswith("catmouse.")}
        wrappers = {}
        for mod, attr, name in TRACED:
            fn = getattr(mods.get(mod), attr, None)
            if fn is not None:
                wrappers[id(fn)] = self._wrap(fn, name)
        for module in mods.values():
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, key, value, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._patch(value, k, v, wrappers[id(v)])
        solution = getattr(mods.get("solver"), "Solution", None)
        if solution is not None:
            original = solution.policy
            tracer = self
            self._patch(solution, "policy", original,
                        lambda sol: tracer._policy("solver.policy", original(sol)))

    def _patch(self, container, key, original, replacement):
        if isinstance(container, dict):
            container[key] = replacement
        else:
            setattr(container, key, replacement)
        self._patches.append((container, key, original))

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------
    def dump(self) -> dict:
        return {
            "fields": ["id", "parent", "name", "phase", "start", "end"],
            "spans": self.spans,
            "dropped": self.dropped,
            "aggregate": [
                {"phase": phase, "name": name, "calls": s.calls,
                 "total_s": s.total, "self_s": s.self_time}
                for (phase, name), s in sorted(self.stats.items())
            ],
        }
