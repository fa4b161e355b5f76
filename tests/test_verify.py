import dataclasses
import itertools

from catmouse import reduction
from catmouse.circuits import parse_circuit
from catmouse.cli import main
from catmouse.verify import (
    FuzzFailure,
    audit_board,
    check_structure,
    fuzz_equivalence,
    undirected_probes,
    verify_equivalence,
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


class TestUndirectedProbes:
    def test_every_probe_fires_and_is_punished_on_an_and_circuit(self):
        circuit = parse_circuit(ONE_AND)
        results = {p.name: p for p in undirected_probes(circuit, "11")}
        assert set(results) == {
            "mouse-backtrack",
            "mouse-cross-threat",
            "mouse-cross-guard",
            "cat-backtrack",
        }
        for probe in results.values():
            assert probe.fired, probe
            assert probe.ok, probe

    def test_probes_fire_on_the_nested_circuit(self):
        circuit = parse_circuit(THREE_GATE)
        for probe in undirected_probes(circuit, "011"):
            assert probe.ok, probe
            assert probe.fired, probe

    def test_threat_probe_cannot_fire_without_and_gates(self):
        circuit = parse_circuit(ONE_OR)
        results = {p.name: p for p in undirected_probes(circuit, "10")}
        assert not results["mouse-cross-threat"].fired
        assert results["mouse-cross-threat"].ok
        assert results["mouse-backtrack"].fired
        assert results["mouse-backtrack"].ok


class TestFuzz:
    def test_small_fuzz_run_is_clean(self):
        report = fuzz_equivalence(20, seed=1)
        assert report.checked == 20
        assert report.ok, [f.reproducer() for f in report.failures]

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
