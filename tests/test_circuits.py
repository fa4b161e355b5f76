"""Circuit parsing, validation, evaluation and generation."""

import itertools

import numpy as np
import pytest

from catmouse.circuits import (
    AND,
    MAX_SIZE,
    OR,
    Circuit,
    CircuitError,
    CircuitSyntaxError,
    DuplicateIdError,
    Gate,
    InvalidParamsError,
    LengthMismatchError,
    NotSynchronousError,
    NotTopologicalError,
    OutputIsInputError,
    UnknownRefError,
    UnreachableGateError,
    evaluate,
    generate_random,
    input_index,
    input_ref,
    layer_widths,
    parse_circuit,
    serialize_circuit,
    validate_layers,
)

from conftest import and_chain_text

SMALLEST = "inputs 2\ngate g0 AND i0 i1\noutput g0\n"

THREE_GATE = """\
inputs 3
gate a OR i0 i1
gate b AND i1 i2
gate c AND a b
output c
"""


def all_paths_to_inputs(circuit, ref):
    """Oracle: enumerate the lengths of all paths from ref down to inputs."""
    if ref.startswith("i") and all(g.id != ref for g in circuit.gates):
        return [0]
    gate = circuit.gate(ref)
    lengths = []
    for child in (gate.left, gate.right):
        lengths.extend(n + 1 for n in all_paths_to_inputs(circuit, child))
    return lengths


class TestParse:
    def test_smallest_legal_circuit(self):
        c = parse_circuit(SMALLEST)
        assert c.num_inputs == 2
        assert c.gates == (Gate("g0", AND, "i0", "i1"),)
        assert c.output == "g0"

    def test_comments_and_blank_lines_ignored(self):
        c = parse_circuit("# header\n\ninputs 2\n\n# mid\ngate g0 OR i0 i1\noutput g0\n")
        assert c.gates[0].kind == OR

    def test_three_gate_circuit(self):
        c = parse_circuit(THREE_GATE)
        assert [g.id for g in c.gates] == ["a", "b", "c"]
        assert validate_layers(c) == {
            "i0": 0, "i1": 0, "i2": 0, "a": 1, "b": 1, "c": 2,
        }

    def test_output_naming_input_rejected(self):
        with pytest.raises(OutputIsInputError):
            parse_circuit("inputs 1\ngate g0 AND i0 i0\noutput i0\n")

    def test_duplicate_gate_id(self):
        with pytest.raises(DuplicateIdError):
            parse_circuit("inputs 2\ngate a AND i0 i1\ngate a OR i0 i1\noutput a\n")

    def test_unknown_child(self):
        with pytest.raises(UnknownRefError):
            parse_circuit("inputs 2\ngate a AND i0 nope\noutput a\n")

    def test_forward_reference_is_not_topological(self):
        with pytest.raises(NotTopologicalError):
            parse_circuit(
                "inputs 2\ngate a AND b i0\ngate b OR i0 i1\noutput a\n"
            )

    def test_input_out_of_range(self):
        with pytest.raises(UnknownRefError):
            parse_circuit("inputs 2\ngate a AND i0 i2\noutput a\n")

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit("inputs 2\ngate a AND i0\noutput a\n")
        assert err.value.line == 2

    def test_gate_id_may_not_look_like_an_input(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("inputs 2\ngate i5 AND i0 i1\noutput i5\n")

    @pytest.mark.parametrize("count", ["²", "٣", "+2", "2.0"])
    def test_input_count_must_be_ascii_digits(self, count):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit(f"inputs {count}\ngate a AND i0 i1\noutput a\n")
        assert err.value.line == 1

    def test_misordered_sections_rejected(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("gate a AND i0 i1\ninputs 2\noutput a\n")
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("inputs 2\noutput a\ngate a AND i0 i1\n")


class TestLayers:
    def test_single_gate_layers(self):
        c = parse_circuit(SMALLEST)
        assert validate_layers(c) == {"i0": 0, "i1": 0, "g0": 1}

    def test_unbalanced_children_not_synchronous(self):
        c = parse_circuit(
            "inputs 3\ngate a AND i0 i1\ngate b AND a i2\noutput b\n"
        )
        with pytest.raises(NotSynchronousError) as err:
            validate_layers(c)
        assert err.value.gate_id == "b"

    def test_dangling_gate_unreachable(self):
        c = parse_circuit(
            "inputs 2\ngate a AND i0 i1\ngate b OR i0 i1\noutput a\n"
        )
        with pytest.raises(UnreachableGateError) as err:
            validate_layers(c)
        assert err.value.gate_id == "b"

    def test_unused_inputs_are_allowed(self):
        c = parse_circuit("inputs 4\ngate g0 OR i0 i3\noutput g0\n")
        layers = validate_layers(c)
        assert "i1" not in layers and "i2" not in layers

    def test_deep_chain_without_recursion(self):
        c = parse_circuit(and_chain_text(3000))
        assert validate_layers(c)[c.output] == 3000

    def test_unsynchronous_gate_outside_the_cone_is_unreachable(self):
        c = parse_circuit(
            "inputs 3\ngate a AND i0 i1\ngate b AND a i2\n"
            "gate o OR i0 i2\noutput o\n"
        )
        with pytest.raises(UnreachableGateError) as err:
            validate_layers(c)
        assert err.value.gate_id == "a"


class TestEvaluate:
    def test_and_gate(self):
        c = parse_circuit(SMALLEST)
        assert evaluate(c, "11")[0] == 1
        assert evaluate(c, "10")[0] == 0

    def test_node_values_on_nested_circuit(self):
        c = parse_circuit(THREE_GATE)
        bit, values = evaluate(c, "011")
        assert bit == 1
        assert values["a"] is True and values["b"] is True and values["c"] is True
        assert values["i0"] is False

    def test_length_mismatch(self):
        c = parse_circuit(SMALLEST)
        with pytest.raises(LengthMismatchError):
            evaluate(c, "101")

    def test_non_binary_assignment_rejected(self):
        c = parse_circuit(SMALLEST)
        with pytest.raises(InvalidParamsError):
            evaluate(c, "1x")

    def test_bool_sequence_accepted(self):
        c = parse_circuit(SMALLEST)
        assert evaluate(c, [True, True])[0] == 1

    @pytest.mark.parametrize("bits", [
        [1, 0], (True, False), [np.int64(1), np.int8(0)], np.array([True, False]),
        [1.0, 0.0],
    ], ids=["ints", "bools", "numpy-ints", "numpy-bools", "floats"])
    def test_a_sequence_of_zeros_and_ones_is_read_as_bits(self, bits):
        c = parse_circuit(SMALLEST)
        assert evaluate(c, bits) == evaluate(c, "10")

    @pytest.mark.parametrize("bits, message", [
        (["0", "0"], "assignment bit 0 is '0', not 0 or 1"),
        ([1, "1"], "assignment bit 1 is '1', not 0 or 1"),
        ([2, 0], "assignment bit 0 is 2, not 0 or 1"),
        ([0, -1], "assignment bit 1 is -1, not 0 or 1"),
        (b"00", "assignment bit 0 is 48, not 0 or 1"),
        ([b"1", 0], "assignment bit 0 is b'1', not 0 or 1"),
        ([0, None], "assignment bit 1 is None, not 0 or 1"),
    ], ids=["strings", "a-string", "two", "minus-one", "bytes", "a-byte-string", "none"])
    def test_an_item_other_than_zero_or_one_is_refused(self, bits, message):
        # Read by truth, "0" and 2 would each be a 1, and ["0", "0"] true.
        with pytest.raises(InvalidParamsError) as err:
            evaluate(parse_circuit(SMALLEST), bits)
        assert str(err.value) == message


class TestSerialize:
    def test_round_trip_from_canonical_text(self):
        for text in (SMALLEST, THREE_GATE):
            assert serialize_circuit(parse_circuit(text)) == text

    def test_parse_of_serialization_is_identity(self):
        c = generate_random(2, 3, 3, 0.5, seed=9)
        assert parse_circuit(serialize_circuit(c)) == c


class TestGenerate:
    def test_single_and_gate(self):
        c = generate_random(1, 1, 2, 0.0, seed=7)
        assert len(c.gates) == 1
        assert c.gates[0].kind == AND
        assert validate_layers(c)[c.output] == 1

    def test_depth_matches_layer_count(self):
        c = generate_random(3, 4, 4, 0.5, seed=1)
        assert validate_layers(c)[c.output] == 3

    def test_same_seed_is_byte_identical(self):
        a = serialize_circuit(generate_random(3, 4, 4, 0.5, seed=42))
        b = serialize_circuit(generate_random(3, 4, 4, 0.5, seed=42))
        assert a == b

    def test_generated_circuits_are_valid(self):
        for seed in range(25):
            layers = 1 + seed % 4
            width = 1 + seed % 5
            k = 1 + (seed * 7) % 6
            c = generate_random(layers, width, k, (seed % 5) / 4.0, seed=seed)
            layer_map = validate_layers(c)
            assert layer_map[c.output] == layers
            text = serialize_circuit(c)
            assert parse_circuit(text) == c

    def test_all_paths_share_the_depth(self):
        for seed in (0, 3, 11):
            c = generate_random(3, 2, 3, 0.5, seed=seed)
            lengths = set(all_paths_to_inputs(c, c.output))
            assert lengths == {3}

    def test_monotone_under_bit_raises(self):
        for seed in (1, 5):
            c = generate_random(2, 3, 4, 0.5, seed=seed)
            for bits in itertools.product("01", repeat=4):
                x = "".join(bits)
                base = evaluate(c, x)[0]
                for i, b in enumerate(x):
                    if b == "0":
                        raised = x[:i] + "1" + x[i + 1:]
                        assert evaluate(c, raised)[0] >= base

    def test_fanout2_bounds_fanout(self):
        c = generate_random(3, 2, 3, 0.5, seed=4, fanout2=True)
        uses = {}
        for g in c.gates:
            for child in (g.left, g.right):
                uses[child] = uses.get(child, 0) + 1
        for i in range(c.num_inputs):
            assert 1 <= uses.get(input_ref(i), 0) <= 2
        for g in c.gates:
            if g.id != c.output:
                assert 1 <= uses.get(g.id, 0) <= 2

    def test_fanout2_infeasible_params(self):
        with pytest.raises(InvalidParamsError):
            generate_random(1, 1, 5, 0.0, seed=0, fanout2=True)

    def test_bad_params(self):
        with pytest.raises(InvalidParamsError):
            generate_random(0, 1, 1, 0.5, seed=0)
        with pytest.raises(InvalidParamsError):
            generate_random(1, 1, 1, 1.5, seed=0)

    def test_layer_widths_taper_to_one_output(self):
        for layers in range(1, 12):
            for width in range(1, 40):
                want = [min(width, 2 ** (layers - j)) for j in range(1, layers + 1)]
                assert layer_widths(layers, width) == want

    def test_size_limit_counts_inputs_and_gates(self):
        assert layer_widths(2, 3, MAX_SIZE - 3) == [2, 1]
        with pytest.raises(InvalidParamsError):
            layer_widths(2, 3, MAX_SIZE - 2)
        with pytest.raises(InvalidParamsError):
            generate_random(40, 10**8, 2, 0.5, seed=0)


def test_programmatic_construction_checks_structure():
    with pytest.raises(NotTopologicalError):
        Circuit(2, (Gate("a", AND, "b", "i0"), Gate("b", OR, "i0", "i1")), "a")
    with pytest.raises(UnknownRefError):
        Circuit(2, (Gate("a", AND, "i0", "zz"),), "a")


def test_input_ref_with_a_trailing_newline_is_rejected():
    with pytest.raises(CircuitError):
        Circuit(2, (Gate("g0", AND, "i0\n", "i1"),), "g0")


@pytest.mark.parametrize("call, error, message", [
    (lambda: input_index("g0"), UnknownRefError, "'g0' is not an input reference"),
    (lambda: Circuit(0, (), "g0"), InvalidParamsError, "a circuit needs at least one input"),
    (lambda: Circuit(2, (Gate("g0", "XOR", "i0", "i1"),), "g0"),
     InvalidParamsError, "gate g0: bad kind 'XOR'"),
    (lambda: Circuit(2, (Gate("i5", AND, "i0", "i1"),), "i5"),
     DuplicateIdError, "gate id 'i5' shadows input syntax"),
    (lambda: parse_circuit(SMALLEST).gate("zz"), UnknownRefError, "unknown gate 'zz'"),
    (lambda: parse_circuit("inputs 0\n"), CircuitSyntaxError,
     "line 1: need at least one input"),
    (lambda: parse_circuit("inputs 2\ngate g0 XOR i0 i1\noutput g0\n"), CircuitSyntaxError,
     "line 2: unknown gate kind 'XOR'"),
    (lambda: parse_circuit("inputs 2\ngate g0 AND i0 i1\noutput\n"), CircuitSyntaxError,
     "line 3: expected: output <id>"),
], ids=["input-index", "no-inputs", "bad-kind", "shadowing-id", "unknown-gate", "zero-inputs",
        "unknown-gate-kind-line", "bare-output"])
def test_each_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
