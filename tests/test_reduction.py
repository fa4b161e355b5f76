"""Game-graph construction: gadgets, layers, threat/guard/escape edges."""

import hashlib
import re
from collections import deque

import pytest

from catmouse import reduction
from catmouse.circuits import parse_circuit, validate_layers
from catmouse.reduction import (
    ROLE_ESCAPE,
    ROLE_GADGET,
    ROLE_INPUT,
    TAG_GADGET,
    TAG_GUARD,
    TAG_INTER,
    TAG_THREAT,
    GraphSyntaxError,
    InconsistentGraphError,
    UnknownNodeError,
    build_directed,
    build_undirected,
    export_graph,
    import_graph,
    node_count,
    stats,
)
from catmouse.solver import TooLargeError

ONE_AND = "inputs 2\ngate g0 AND i0 i1\noutput g0\n"
ONE_OR = "inputs 2\ngate g0 OR i0 i1\noutput g0\n"
THREE_GATE = (
    "inputs 3\n"
    "gate a OR i0 i1\n"
    "gate b AND i1 i2\n"
    "gate c AND a b\n"
    "output c\n"
)


_DOT_ID = r'"((?:[^"\\]|\\.)*)"'
_DOT_NODE = re.compile(rf"  {_DOT_ID} \[label={_DOT_ID}\];")
_DOT_EDGE = re.compile(rf"  {_DOT_ID} -> {_DOT_ID}( \[[^\]]*\])?;")


def dot_unquote(text):
    return re.sub(r"\\(.)", r"\1", text)


def bfs_dist_to_hole(graph):
    """Oracle: forward edge-distance to h, via BFS on reversed edges."""
    rev = {n: [] for n in graph.nodes}
    for a, b, _tag in graph.edges:
        rev[b].append(a)
    dist = {graph.h: 0}
    queue = deque([graph.h])
    while queue:
        node = queue.popleft()
        for prev in rev[node]:
            if prev not in dist:
                dist[prev] = dist[node] + 1
                queue.append(prev)
    return dist


@pytest.fixture(scope="module")
def one_and_true():
    return build_directed(parse_circuit(ONE_AND), "11")


class TestDirectedShape:
    def test_single_and_gate_node_and_edge_counts(self):
        graph, _ = build_directed(parse_circuit(ONE_AND), "11")
        assert len(graph.nodes) == 19
        assert len(graph.edges) == 31

    def test_node_count_formula(self):
        circuit = parse_circuit(THREE_GATE)
        graph, _ = build_directed(circuit, "011")
        # 10 per gate + 2 per input + c/h/d + 2*(3j-2) escape nodes per gadget
        escape = 2 * 1 + 2 * 1 + 2 * 4
        assert escape == 12
        assert len(graph.nodes) == 10 * 3 + 2 * 3 + 3 + escape
        assert node_count(circuit, validate_layers(circuit)) == len(graph.nodes)

    @pytest.mark.parametrize("build", [build_directed, build_undirected])
    def test_boards_over_the_node_limit_are_refused(self, build, monkeypatch):
        circuit = parse_circuit(THREE_GATE)
        monkeypatch.setattr(reduction, "MAX_NODES", 51)
        assert len(build(circuit, "011")[0].nodes) == 51
        monkeypatch.setattr(reduction, "MAX_NODES", 50)
        with pytest.raises(TooLargeError, match="51 nodes"):
            build(circuit, "011")

    def test_ten_billion_declared_inputs_are_refused_at_once(self):
        # The layers come from the output's cone, so neither they nor the
        # refusal walk the inputs the circuit declares and never uses.
        circuit = parse_circuit(f"inputs {10**10}\ngate g0 AND i1 i0\noutput g0\n")
        layers = validate_layers(circuit)
        assert layers == {"i0": 0, "i1": 0, "g0": 1}
        assert list(layers) == ["i0", "i1", "g0"]
        with pytest.raises(TooLargeError, match="over the limit"):
            build_directed(circuit, "11")

    def test_special_nodes_and_start_layers(self, one_and_true):
        graph, cmap = one_and_true
        assert graph.m == "g0.M.1"
        assert cmap.layer[graph.m] == 4
        assert cmap.layer[graph.c] == 5
        assert cmap.layer[graph.h] == 0
        assert cmap.layer[graph.d] == 0
        assert cmap.layer["i0.M"] == 1

    def test_role_of_unknown_node(self, one_and_true):
        graph, _ = one_and_true
        with pytest.raises(UnknownNodeError):
            graph.role("nope")

    def test_every_edge_drops_exactly_one_layer(self):
        circuit = parse_circuit(THREE_GATE)
        for bits in ("000", "011", "111"):
            graph, cmap = build_directed(circuit, bits)
            for a, b, _tag in graph.edges:
                assert cmap.layer[a] == cmap.layer[b] + 1

    def test_layers_agree_with_bfs_distance_to_hole(self):
        graph, cmap = build_directed(parse_circuit(THREE_GATE), "011")
        dist = bfs_dist_to_hole(graph)
        for node in graph.nodes:
            if node in dist:
                assert dist[node] == cmap.layer[node], node
        # Only the dead end and false inputs cannot reach the hole.
        unreachable = set(graph.nodes) - set(dist)
        assert unreachable == {"d", "i0.M", "i0.C"}

    def test_hole_and_dead_end_are_sinks(self, one_and_true):
        graph, _ = one_and_true
        assert graph.neighbors_out(graph.h) == ()
        assert graph.neighbors_out(graph.d) == ()

    def test_cat_stalk_single_edge(self, one_and_true):
        graph, _ = one_and_true
        assert graph.neighbors_out(graph.c) == ("g0.C.1",)

    def test_cat_inputs_always_feed_dead_end(self, one_and_true):
        graph, _ = one_and_true
        assert graph.has_edge("i0.C", "d") and graph.has_edge("i1.C", "d")
        assert graph.has_edge("i0.C", "h") and graph.has_edge("i0.M", "h")

    def test_false_input_feeds_dead_end_not_hole(self):
        graph, _ = build_directed(parse_circuit(ONE_AND), "10")
        assert graph.has_edge("i1.M", "d")
        assert not graph.has_edge("i1.M", "h")
        assert not graph.has_edge("i1.C", "h")

    def test_threat_edges_only_at_and_gadgets(self):
        graph, _ = build_directed(parse_circuit(ONE_OR), "11")
        assert graph.edges_tagged(TAG_THREAT) == []
        graph, _ = build_directed(parse_circuit(ONE_AND), "11")
        assert sorted(graph.edges_tagged(TAG_THREAT)) == [
            ("g0.C.2", "g0.M.5"),
            ("g0.C.3", "g0.M.4"),
        ]

    def test_threat_count_is_twice_the_and_count(self):
        graph, _ = build_directed(parse_circuit(THREE_GATE), "101")
        assert len(graph.edges_tagged(TAG_THREAT)) == 4

    def test_escape_chains_disjoint_and_length_matched(self):
        circuit = parse_circuit(THREE_GATE)
        graph, cmap = build_directed(circuit, "111")
        chains = {}
        for node in graph.nodes:
            role = graph.role(node)
            if role.kind == ROLE_ESCAPE:
                chains.setdefault((role.gate, role.branch), []).append(node)
        assert len(chains) == 6
        seen = set()
        for (gate, branch), members in chains.items():
            assert not (set(members) & seen)
            seen.update(members)
            j = cmap.layer[f"{gate}.M.1"] // 3
            assert len(members) == 3 * j - 2
            entry = f"{gate}.esc.{branch}.1"
            low = f"{gate}.esc.{branch}.{3 * j - 2}"
            bottom = 4 if branch == "L" else 5
            assert graph.has_edge(f"{gate}.C.{bottom}", entry)
            assert graph.has_edge(f"{gate}.M.{bottom}", entry)
            assert graph.has_edge(low, "h")

    def test_duplicate_children_gate_builds(self):
        graph, cmap = build_directed(
            parse_circuit("inputs 1\ngate g0 AND i0 i0\noutput g0\n"), "1"
        )
        assert graph.has_edge("g0.M.4", "i0.M")
        assert graph.has_edge("g0.M.5", "i0.M")

    def test_gate_id_clashing_with_special_names_is_fine(self):
        graph, _ = build_directed(
            parse_circuit("inputs 1\ngate c OR i0 i0\noutput c\n"), "1"
        )
        assert graph.has_node("c") and graph.has_node("c.M.1")
        assert graph.m == "c.M.1"


class TestUndirected:
    def test_same_nodes_as_directed(self):
        circuit = parse_circuit(THREE_GATE)
        directed, _ = build_directed(circuit, "011")
        undirected, _ = build_undirected(circuit, "011")
        assert directed.nodes == undirected.nodes

    def test_guard_edge_count_matches_mouse_copy_edges(self):
        graph, _ = build_undirected(parse_circuit(ONE_AND), "11")
        guards = graph.edges_tagged(TAG_GUARD)
        assert len(guards) == 8  # 6 gadget-internal + 2 gadget-to-input
        assert len(graph.edges) == 31 + 8

    def test_guard_edges_pair_mouse_source_with_cat_target(self):
        graph, cmap = build_undirected(parse_circuit(THREE_GATE), "011")
        mouse_edges = set()
        for a, b, tag in graph.edges:
            if tag in (TAG_GADGET, TAG_INTER) and a in cmap.cat_of and b in cmap.cat_of:
                mouse_edges.add((a, b))
        expected = {(a, cmap.cat_of[b]) for a, b in mouse_edges}
        assert set(graph.edges_tagged(TAG_GUARD)) == expected
        assert len(expected) == len(mouse_edges)

    def test_backward_guard_example(self):
        graph, _ = build_undirected(parse_circuit(ONE_AND), "11")
        assert graph.has_edge("g0.M.1", "g0.C.2")

    def test_undirected_adjacency_is_symmetric(self):
        graph, _ = build_undirected(parse_circuit(ONE_AND), "10")
        assert "g0.M.1" in graph.neighbors_out("g0.M.2")
        assert "c" in graph.neighbors_out("g0.C.1")

    def test_edge_endpoints_on_adjacent_layers(self):
        graph, cmap = build_undirected(parse_circuit(THREE_GATE), "110")
        for a, b, _tag in graph.edges:
            assert abs(cmap.layer[a] - cmap.layer[b]) == 1


class TestCopiesIsomorphic:
    def test_mouse_copy_maps_onto_cat_copy(self):
        graph, cmap = build_directed(parse_circuit(THREE_GATE), "011")
        mouse_edges = set()
        cat_edges = set()
        for a, b, tag in graph.edges:
            if tag not in (TAG_GADGET, TAG_INTER):
                continue
            if a in cmap.cat_of and b in cmap.cat_of:
                mouse_edges.add((cmap.cat_of[a], cmap.cat_of[b]))
            elif {a, b} <= set(cmap.cat_of.values()):
                cat_edges.add((a, b))
        assert mouse_edges == cat_edges
        for mouse, cat in cmap.cat_of.items():
            assert cmap.layer[mouse] == cmap.layer[cat]


class TestStats:
    def test_counts(self):
        graph, _ = build_undirected(parse_circuit(THREE_GATE), "011")
        s = stats(graph)
        assert s["node_count"] == len(graph.nodes)
        assert s["edge_count"] == len(graph.edges)
        assert s["edge_tags"][TAG_THREAT] == 4
        assert s["edge_tags"][TAG_GUARD] == 24
        assert s["node_roles"][ROLE_ESCAPE] == 12
        assert s["node_roles"][ROLE_GADGET] == 30
        assert s["node_roles"][ROLE_INPUT] == 6


class TestExportImport:
    @pytest.mark.parametrize("mode", ["directed", "undirected"])
    def test_structured_round_trip(self, mode):
        circuit = parse_circuit(THREE_GATE)
        build = build_directed if mode == "directed" else build_undirected
        graph, cmap = build(circuit, "011")
        text = export_graph(graph, cmap, "structured")
        graph2, cmap2 = import_graph(text)
        assert graph2.directed == graph.directed
        assert graph2.nodes == graph.nodes
        assert graph2.edges == graph.edges
        assert graph2.roles == graph.roles
        assert (graph2.c, graph2.m, graph2.h, graph2.d) == \
            (graph.c, graph.m, graph.h, graph.d)
        assert cmap2.cat_of == cmap.cat_of
        assert cmap2.layer == cmap.layer
        assert export_graph(graph2, cmap2, "structured") == text

    def test_dot_export_shape(self):
        circuit = parse_circuit(ONE_AND)
        graph, cmap = build_directed(circuit, "11")
        dot = export_graph(graph, cmap, "dot")
        assert dot.startswith("digraph game {")
        assert '"g0.C.2" -> "g0.M.5" [style=dashed];' in dot
        ugraph, ucmap = build_undirected(circuit, "11")
        udot = export_graph(ugraph, ucmap, "dot")
        assert udot.startswith("graph game {")
        assert "[style=dotted]" in udot

    def test_dot_escapes_quotes_and_backslashes(self):
        gate = 'a"b\\'
        circuit = parse_circuit(f"inputs 2\ngate {gate} AND i0 i1\noutput {gate}\n")
        graph, cmap = build_directed(circuit, "11")
        lines = export_graph(graph, cmap, "dot").splitlines()[1:-1]
        nodes = [_DOT_NODE.fullmatch(line) for line in lines[:len(graph.nodes)]]
        edges = [_DOT_EDGE.fullmatch(line) for line in lines[len(graph.nodes):]]
        assert all(nodes) and all(edges)
        assert [dot_unquote(m[1]) for m in nodes] == list(graph.nodes)
        labels = {dot_unquote(m[1]): dot_unquote(m[2]) for m in nodes}
        assert labels[graph.m] == f"gadget {gate} 1 M"
        assert [(dot_unquote(m[1]), dot_unquote(m[2])) for m in edges] == \
            [(a, b) for a, b, _tag in graph.edges]

    def test_self_loop_rejected(self):
        text = (
            "game directed\n"
            "node a hole\n"
            "node b cat-start\n"
            "edge b b opening\n"
            "special c=b m=a h=a d=a\n"
            "layer a 0\nlayer b 1\n"
        )
        with pytest.raises(InconsistentGraphError):
            import_graph(text)

    def test_layer_skipping_edge_rejected(self):
        text = (
            "game directed\n"
            "node a hole\n"
            "node b cat-start\n"
            "node e dead-end\n"
            "edge b a opening\n"
            "special c=b m=e h=a d=e\n"
            "layer a 0\nlayer b 3\nlayer e 0\n"
        )
        with pytest.raises(InconsistentGraphError):
            import_graph(text)

    def test_bad_syntax_carries_line(self):
        with pytest.raises(GraphSyntaxError) as err:
            import_graph("game directed\nnode a\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("first, repeat, named", [
        ("layer g0.M.1 7", "layer g0.M.1 4", "'g0.M.1'"),
        ("special m=g0.M.2", "special c=c", "special 'm'"),
    ])
    def test_repeated_line_is_rejected(self, one_and_true, first, repeat, named):
        # The exported line that follows names the same thing again.
        lines = export_graph(*one_and_true).splitlines()
        at = next(k for k, line in enumerate(lines) if line.startswith(repeat))
        lines.insert(at, first)
        with pytest.raises(GraphSyntaxError, match=f"{named} given twice") as err:
            import_graph("\n".join(lines))
        assert err.value.line == at + 2

    @pytest.mark.parametrize("repeat", ["mouse", "cat"])
    def test_pairing_must_be_a_bijection(self, one_and_true, repeat):
        # A second pair line that reuses the first pair's Mouse or its Cat.
        lines = export_graph(*one_and_true).splitlines()
        at = next(k for k, line in enumerate(lines) if line.startswith("pair "))
        (mouse, cat), (next_mouse, next_cat) = (lines[k].split()[1:] for k in (at, at + 1))
        lines.insert(at + 1, f"pair {mouse} {next_cat}" if repeat == "mouse"
                     else f"pair {next_mouse} {cat}")
        with pytest.raises(InconsistentGraphError, match="pairing is not a bijection"):
            import_graph("\n".join(lines))

    @pytest.mark.parametrize("line", [
        "node g0.M.1 gadget g0 1 M", "node i0.M input 0 M",
        "node g0.esc.L.1 escape g0 L 1", "node h hole",
    ])
    def test_a_role_with_a_trailing_token_is_refused(self, line):
        # Kept, the board would no longer export as the text it was read from.
        text = export_graph(*build_undirected(parse_circuit(ONE_AND), "11"))
        assert f"\n{line}\n" in text
        edited = text.replace(f"\n{line}\n", f"\n{line} junk\n")
        at = edited.splitlines().index(f"{line} junk") + 1
        with pytest.raises(GraphSyntaxError, match="bad role declaration") as err:
            import_graph(edited)
        assert err.value.line == at

    @pytest.mark.parametrize("line, at, message", [
        ("node g0.M.1 gadget g0 1 M", 4, "bad role declaration"),
        ("node i0.M input 0 M", 3, "bad role declaration"),
        ("node g0.esc.L.1 escape g0 L 1", 5, "bad role declaration"),
        ("layer g0.M.1 4", 2, "layer must be an integer"),
    ], ids=["position", "index", "chain", "layer"])
    @pytest.mark.parametrize("respell", [
        "+{}".format, "0{}".format, "0_{}".format,
        lambda digits: digits.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    ], ids=["plus", "leading-zero", "underscore", "arabic-indic"])
    def test_an_integer_spelled_otherwise_is_refused(self, line, at, message, respell):
        # int() reads each spelling, but the board would export it as digits.
        text = export_graph(*build_undirected(parse_circuit(ONE_AND), "11"))
        tokens = line.split()
        tokens[at] = respell(tokens[at])
        bad = " ".join(tokens)
        assert bad != line and text.count(f"\n{line}\n") == 1
        edited = text.replace(f"\n{line}\n", f"\n{bad}\n")
        with pytest.raises(GraphSyntaxError, match=message) as err:
            import_graph(edited)
        assert err.value.line == edited.splitlines().index(bad) + 1

    @pytest.mark.parametrize("old, new, error, message", [
        ("edge g0.M.1 g0.M.2 gadget-internal", "edge g0.M.1 g0.M.4 gadget-internal",
         InconsistentGraphError, "edge 'g0.M.1' -- 'g0.M.4' spans layers 4 -- 2"),
        ("edge c g0.C.1 opening", "edge c g0.C.1 opening\nedge c g0.M.1 opening",
         InconsistentGraphError, "the Cat stalk c must have exactly one edge"),
        ("pair g0.M.3 g0.C.3\npair g0.M.4 g0.C.4", "pair g0.M.3 g0.C.4\npair g0.M.4 g0.C.3",
         InconsistentGraphError, "paired nodes 'g0.M.3'/'g0.C.4' on different layers"),
        ("special c=c m=g0.M.1 h=h d=d", "special c=c m=g0.M.1 h=h d",
         GraphSyntaxError, "bad special 'd'"),
        ("special c=c m=g0.M.1 h=h d=d", "special c=c m=g0.M.1 h=h x=d",
         GraphSyntaxError, "bad special 'x=d'"),
        ("special c=c m=g0.M.1 h=h d=d", "special c=c m=g0.M.1 h=h d=zz",
         GraphSyntaxError, "bad special 'd=zz'"),
        ("pair g0.M.5 g0.C.5", "pair g0.M.5 zz",
         InconsistentGraphError, "pair references unknown node 'zz'"),
        ("layer g0.M.1 4", "layer g0.M.1 4\nlayer zz 0",
         InconsistentGraphError, "layer for unknown node 'zz'"),
        ("special c=c m=g0.M.1 h=h d=d", "special c=c m=g0.M.1 h=h",
         InconsistentGraphError, "missing special node 'd'"),
        ("layer g0.M.1 4\n", "",
         InconsistentGraphError, "missing layer for 'g0.M.1'"),
        ("node g0.M.1 gadget g0 1 M\n", "node g0.M.1 gadget g0 6 M\n",
         GraphSyntaxError, "bad role declaration: gadget g0 6 M"),
        ("node g0.M.1 gadget g0 1 M\n", "node g0.M.1 gadget g0 1 X\n",
         GraphSyntaxError, "bad role declaration: gadget g0 1 X"),
        ("node i0.M input 0 M\n", "node i0.M input 0 X\n",
         GraphSyntaxError, "bad role declaration: input 0 X"),
        ("node g0.esc.L.1 escape g0 L 1\n", "node g0.esc.L.1 escape g0 Q 1\n",
         GraphSyntaxError, "bad role declaration: escape g0 Q 1"),
        ("pair g0.M.5 g0.C.5\n", "pair g0.M.5 g0.C.5 zz\n",
         GraphSyntaxError, "expected: pair <mouse> <cat>"),
        ("edge c g0.C.1 opening", "edge c g0.C.1 nosuch",
         GraphSyntaxError, "line 21: unknown edge tag 'nosuch'"),
        ("layer g0.M.1 4", "layer g0.M.1",
         GraphSyntaxError, "line 75: expected: layer <id> <n>"),
        ("edge g0.M.1 g0.M.2 gadget-internal",
         "edge g0.M.1 g0.M.2 gadget-internal\nedge g0.M.2 g0.M.1 gadget-internal",
         InconsistentGraphError, "parallel edge 'g0.M.1' -> 'g0.M.2'"),
        ("edge c g0.C.1 opening", "edge c g0.C.1 opening extra",
         GraphSyntaxError, "line 21: expected: edge <a> <b> <tag>"),
    ])
    def test_an_edited_board_is_refused(self, old, new, error, message):
        text = export_graph(*build_undirected(parse_circuit(ONE_AND), "11"))
        assert text.count(old) == 1
        with pytest.raises(error, match=re.escape(message)):
            import_graph(text.replace(old, new))

    def test_blank_lines_and_comments_are_skipped(self):
        text = export_graph(*build_undirected(parse_circuit(ONE_AND), "11"))
        lines = text.splitlines(keepends=True)
        middle = len(lines) // 2
        edited = "".join(["# a board\n", "\n"] + lines[:middle]
                         + ["   \n", "  # halfway\n"] + lines[middle:])
        assert export_graph(*import_graph(edited)) == text

    def test_an_unknown_format_is_refused(self):
        with pytest.raises(ValueError, match="unknown format 'svg'"):
            export_graph(*build_directed(parse_circuit(ONE_AND), "11"), fmt="svg")

    def test_export_is_deterministic(self):
        circuit = parse_circuit(THREE_GATE)
        texts = {
            export_graph(*build_undirected(circuit, "011"), "structured")
            for _ in range(3)
        }
        assert len(texts) == 1


@pytest.mark.parametrize("build", [build_directed, build_undirected])
def test_escape_nodes_have_one_forward_move(build):
    # The marching Mouse relies on this: on an escape node its generic
    # forward rule has a single choice, the next chain node or the hole.
    circuit = parse_circuit(THREE_GATE)
    for k in range(2 ** circuit.num_inputs):
        graph, cmap = build(circuit, format(k, "03b"))
        for node in graph.nodes:
            role = graph.role(node)
            if role.kind != ROLE_ESCAPE:
                continue
            forward = [v for v in graph.neighbors_out(node)
                       if cmap.layer[v] == cmap.layer[node] - 1]
            nxt = f"{role.gate}.esc.{role.branch}.{role.chain + 1}"
            assert forward == [nxt if graph.has_node(nxt) else graph.h], node


def test_board_text_is_pinned():
    # `catmouse reduce` and bench/checker.py read this text, so its bytes
    # are fixed: structured and dot exports of THREE_GATE under all eight
    # assignments in both modes, hashed in that order.
    circuit = parse_circuit(THREE_GATE)
    digest = hashlib.sha256()
    for k in range(2 ** circuit.num_inputs):
        for build in (build_directed, build_undirected):
            graph, cmap = build(circuit, format(k, "03b"))
            for fmt in ("structured", "dot"):
                digest.update(export_graph(graph, cmap, fmt).encode())
    assert digest.hexdigest() == (
        "6d259a327513b5a27391eb78160419d823148d6e5b124c92c725dc99503df101"
    )
