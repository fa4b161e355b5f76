"""Property tests for the text formats: arbitrary input fails with the
format's own error, and serialized circuits parse back to themselves."""

from hypothesis import given, settings
from hypothesis import strategies as st

from catmouse.circuits import (
    CircuitError,
    generate_random,
    parse_circuit,
    serialize_circuit,
)
from catmouse.reduction import GraphError, build_undirected, export_graph, import_graph

CIRCUIT_TEXT = "inputs 3\ngate g0 OR i0 i1\ngate g1 AND i1 i2\ngate g2 AND g0 g1\noutput g2\n"
GRAPH_TEXT = export_graph(*build_undirected(parse_circuit(CIRCUIT_TEXT), "011"), "structured")
WORDS = ("inputs", "gate", "output", "AND", "OR", "i0", "i7", "g0", "g2",
         "game", "directed", "undirected", "node", "edge", "special", "pair",
         "layer", "c", "h", "cat-start", "hole", "gadget", "input", "escape",
         "opening", "threat", "m=c", "h=h", "0", "1", "6", "-1", "L", "M", "²")
# An explicit alphabet: st.text()'s default one costs seconds to set up.
CHARS = st.characters()


@st.composite
def near_valid(draw, lines):
    """A valid text with a few lines dropped, repeated or rewritten."""
    token = st.one_of(st.sampled_from(WORDS), st.text(CHARS, max_size=4))
    out = list(lines)
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(out) - 1))
        how = draw(st.sampled_from(("drop", "repeat", "word", "line")))
        if how == "drop":
            del out[k]
        elif how == "repeat":
            out.insert(k, out[k])
        elif how == "word":
            tokens = out[k].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(token)
            out[k] = " ".join(tokens)
        else:
            out[k] = " ".join(draw(st.lists(token, min_size=1, max_size=5)))
    return "\n".join(out)


def texts(lines):
    return st.one_of(st.text(CHARS), near_valid(lines))


@settings(max_examples=150, deadline=None)
@given(texts(CIRCUIT_TEXT.splitlines()))
def test_parse_circuit_raises_only_circuit_errors(text):
    try:
        parse_circuit(text)
    except CircuitError:
        pass


@settings(max_examples=150, deadline=None)
@given(texts(GRAPH_TEXT.splitlines()))
def test_import_graph_raises_only_graph_errors(text):
    try:
        import_graph(text)
    except GraphError:
        pass


@settings(max_examples=40, deadline=None)
@given(
    layers=st.integers(1, 4),
    width=st.integers(1, 5),
    num_inputs=st.integers(1, 6),
    p_or=st.sampled_from((0.0, 0.3, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_serialized_circuits_round_trip(layers, width, num_inputs, p_or, seed):
    text = serialize_circuit(generate_random(layers, width, num_inputs, p_or, seed))
    assert serialize_circuit(parse_circuit(text)) == text
