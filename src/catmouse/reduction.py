"""Reduction from a synchronous monotone circuit plus assignment to a
cat-and-mouse pursuit game graph.

The circuit DAG is copied twice, once for each player (the Cat copy ``G_C``
and the Mouse copy ``G_M``), with every gate replaced by a five-node gadget:
node 1 is the gate's output, nodes 4 and 5 lead to the left and right child,
and nodes 2 and 3 sit in between with the crossed wiring 1-2, 1-3, 2-4, 2-5,
3-4, 3-5.  True inputs feed a hole node ``h``, false Mouse-side inputs and
all Cat-side inputs feed a dead end ``d``, and the Cat starts on a stalk node
``c`` above its copy of the output gadget.  AND gadgets carry two threat
edges from the Cat copy into the Mouse copy (C2 to M5 and C3 to M4), and each
gadget carries two escape chains to ``h``, one per branch, shared by both
copies.  Every edge drops exactly one layer, so all forward routes from a
node to ``h`` have the same length; the layer of a node is that length.

The undirected variant symmetrizes every edge and adds one guard edge per
Mouse-copy edge: for a Mouse edge from ``m1`` down to ``m2`` the guard edge
joins ``m1`` with the Cat counterpart of ``m2``, which lets a mirroring Cat
punish any backward step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .circuits import AND, Circuit, evaluate, input_ref, is_input_ref, validate_layers
from .solver import Graph, TooLargeError

CAT_SIDE = "C"
MOUSE_SIDE = "M"
LEFT = "L"
RIGHT = "R"

ROLE_CAT_START = "cat-start"
ROLE_HOLE = "hole"
ROLE_DEAD_END = "dead-end"
ROLE_GADGET = "gadget"
ROLE_INPUT = "input"
ROLE_ESCAPE = "escape"

TAG_OPENING = "opening"
TAG_GADGET = "gadget-internal"
TAG_INTER = "inter-gadget"
TAG_TO_HOLE = "input-to-hole"
TAG_TO_DEAD_END = "input-to-dead-end"
TAG_THREAT = "threat"
TAG_ESCAPE = "escape"
TAG_GUARD = "guard"

EDGE_TAGS = (
    TAG_OPENING,
    TAG_GADGET,
    TAG_INTER,
    TAG_TO_HOLE,
    TAG_TO_DEAD_END,
    TAG_THREAT,
    TAG_ESCAPE,
    TAG_GUARD,
)

# The builder refuses a circuit whose board would have more nodes than this
# with TooLargeError, before building anything: a width-1 chain of L layers
# has about 3L^2 nodes, and 483,607 nodes (400 layers) took 5.7 s and
# 363 MiB to build on a 2-vCPU host.
MAX_NODES = 500_000

# Gadget wiring: both middle nodes reach both bottom nodes, so the Mouse can
# dodge to either branch from either middle node.
_GADGET_EDGES = ((1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5))


class GraphError(Exception):
    """Base class for game-graph format and consistency errors."""


class GraphSyntaxError(GraphError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InconsistentGraphError(GraphError):
    pass


class UnknownNodeError(GraphError):
    pass


class NodeRole(NamedTuple):
    """What a game-graph node stands for.

    ``kind`` is one of the ROLE_* constants; the remaining fields are filled
    according to the kind (gate/position/side for gadget nodes, index/side for
    input nodes, gate/branch/chain for escape-chain nodes).  The fields come
    in the order a board file writes them, so a role's tokens are its fields
    that are not None.
    """

    kind: str
    gate: str | None = None
    position: int | None = None
    index: int | None = None
    side: str | None = None
    branch: str | None = None
    chain: int | None = None


def gadget_node(gate: str, side: str, position: int) -> str:
    return f"{gate}.{side}.{position}"


def input_node(index: int, side: str) -> str:
    return f"{input_ref(index)}.{side}"


def escape_node(gate: str, branch: str, chain: int) -> str:
    return f"{gate}.esc.{branch}.{chain}"


def child_node(ref: str, side: str) -> str:
    """The node a gadget's bottom edge enters for child ``ref``."""
    if is_input_ref(ref):
        return f"{ref}.{side}"
    return gadget_node(ref, side, 1)


@dataclass(frozen=True, eq=False)
class GameGraph(Graph):
    """A pursuit game arena: a :class:`Graph` whose edges are tagged
    ``(a, b, tag)``, with role-labelled nodes and the four special nodes
    (Cat start ``c``, Mouse start ``m``, hole ``h``, dead end ``d``).
    """

    roles: dict[str, NodeRole]
    c: str
    m: str
    h: str
    d: str

    def role(self, node: str) -> NodeRole:
        try:
            return self.roles[node]
        except KeyError:
            raise UnknownNodeError(node) from None

    def edges_tagged(self, tag: str) -> list[tuple[str, str]]:
        return [(a, b) for a, b, t in self.edges if t == tag]


@dataclass(frozen=True, eq=False)
class CorrespondenceMap:
    """Mouse-copy to Cat-copy node bijection plus the layer labelling."""

    cat_of: dict[str, str]
    layer: dict[str, int]


def node_count(circuit: Circuit, layers: dict[str, int]) -> int:
    """Nodes of either board of ``circuit``, whose layers ``validate_layers``
    gave: c, h and d, two per input, five per gate in each copy, and two
    escape chains of 3j - 2 nodes per gate on layer j."""
    gates = circuit.gates
    return (3 + 2 * circuit.num_inputs + 10 * len(gates)
            + sum(2 * (3 * layers[g.id] - 2) for g in gates))


def _build(circuit: Circuit, bits, directed: bool) -> tuple[GameGraph, CorrespondenceMap]:
    layers = validate_layers(circuit)
    size = node_count(circuit, layers)
    if size > MAX_NODES:
        raise TooLargeError(
            f"the board would have {size} nodes, over the limit of {MAX_NODES}"
        )
    depth = layers[circuit.output]
    _bit, values = evaluate(circuit, bits)

    roles: dict[str, NodeRole] = {}
    layer: dict[str, int] = {}
    cat_of: dict[str, str] = {}
    edges: list[tuple[str, str, str]] = [
        ("c", gadget_node(circuit.output, CAT_SIDE, 1), TAG_OPENING)]
    # Input edges follow the gates' edges; top[ref, side] names the node an
    # edge into child ``ref`` enters, so no name is formatted twice.
    input_edges: list[tuple[str, str, str]] = []
    top: dict[tuple[str, str], str] = {}

    def add(node: str, role: NodeRole, lvl: int):
        roles[node] = role
        layer[node] = lvl

    add("c", NodeRole(ROLE_CAT_START), 3 * depth + 2)
    add("h", NodeRole(ROLE_HOLE), 0)
    add("d", NodeRole(ROLE_DEAD_END), 0)
    for i in range(circuit.num_inputs):
        ref = input_ref(i)
        for side in (MOUSE_SIDE, CAT_SIDE):
            top[ref, side] = input_node(i, side)
            add(top[ref, side], NodeRole(ROLE_INPUT, index=i, side=side), 1)
        mouse, cat = top[ref, MOUSE_SIDE], top[ref, CAT_SIDE]
        cat_of[mouse] = cat
        if values[ref]:
            input_edges += [(mouse, "h", TAG_TO_HOLE), (cat, "h", TAG_TO_HOLE)]
        else:
            input_edges.append((mouse, "d", TAG_TO_DEAD_END))
        input_edges.append((cat, "d", TAG_TO_DEAD_END))

    # Node layers inside a depth-j gadget: 3j+1 / 3j / 3j-1 top to bottom.
    pos_layer = {1: 1, 2: 0, 3: 0, 4: -1, 5: -1}
    for gate in circuit.gates:
        j = layers[gate.id]
        gadget = {}
        for side in (MOUSE_SIDE, CAT_SIDE):
            names = gadget[side] = {pos: gadget_node(gate.id, side, pos)
                                    for pos in range(1, 6)}
            for pos, node in names.items():
                add(node, NodeRole(ROLE_GADGET, gate=gate.id, position=pos, side=side),
                    3 * j + pos_layer[pos])
            top[gate.id, side] = names[1]
            edges += [(names[a], names[b], TAG_GADGET) for a, b in _GADGET_EDGES]
            edges.append((names[4], top[gate.left, side], TAG_INTER))
            edges.append((names[5], top[gate.right, side], TAG_INTER))
        mouse, cat = gadget[MOUSE_SIDE], gadget[CAT_SIDE]
        cat_of.update((mouse[pos], cat[pos]) for pos in range(1, 6))
        if gate.kind == AND:
            edges.append((cat[2], mouse[5], TAG_THREAT))
            edges.append((cat[3], mouse[4], TAG_THREAT))
        # Escape chains: the route from the bottom of the gadget to h has as
        # many edges as a forward route (3j-1), so the chain has 3j-2 nodes.
        for branch, pos in ((LEFT, 4), (RIGHT, 5)):
            chain = [escape_node(gate.id, branch, t) for t in range(1, 3 * j - 1)]
            for t, node in enumerate(chain, start=1):
                add(node, NodeRole(ROLE_ESCAPE, gate=gate.id, branch=branch, chain=t),
                    3 * j - 1 - t)
            edges.append((cat[pos], chain[0], TAG_ESCAPE))
            edges.append((mouse[pos], chain[0], TAG_ESCAPE))
            edges += [(a, b, TAG_ESCAPE) for a, b in zip(chain, chain[1:] + ["h"])]
    edges += input_edges

    if not directed:
        # One guard edge per Mouse-copy edge m1 -> m2: connect m1 to the Cat
        # counterpart of m2.  Edges touching h, d or escape chains get none.
        for a, b, tag in list(edges):
            if tag in (TAG_GADGET, TAG_INTER) and a in cat_of and b in cat_of:
                edges.append((a, cat_of[b], TAG_GUARD))

    special = {"c": "c", "m": top[circuit.output, MOUSE_SIDE], "h": "h", "d": "d"}
    return _board(directed, roles, edges, special, cat_of, layer)


def _board(directed: bool, roles, edges, special: dict[str, str], cat_of: dict[str, str],
           layer: dict[str, int]) -> tuple[GameGraph, CorrespondenceMap]:
    """The graph and map of a built or imported board, once validated;
    the nodes come in the order ``roles`` holds them, and ``special`` names
    the nodes c, m, h and d."""
    graph = GameGraph(directed=directed, nodes=tuple(roles), roles=roles,
                      edges=tuple(edges), **special)
    cmap = CorrespondenceMap(cat_of=cat_of, layer=layer)
    validate_graph(graph, cmap)
    return graph, cmap


def build_directed(circuit: Circuit, bits) -> tuple[GameGraph, CorrespondenceMap]:
    """Build the directed game graph for ``circuit`` under ``bits``."""
    return _build(circuit, bits, directed=True)


def build_undirected(circuit: Circuit, bits) -> tuple[GameGraph, CorrespondenceMap]:
    """Build the undirected game graph (symmetrized edges plus guard edges)."""
    return _build(circuit, bits, directed=False)


# The graph modes and their builders.  The values are the public builder
# functions themselves, so a wrapper rebound into this dict (as the
# benchmark's tracer does) sees every build made through it.
BUILDERS = {"directed": build_directed, "undirected": build_undirected}
MODES = tuple(BUILDERS)


def stats(graph: GameGraph) -> dict:
    """Node and edge counts broken down by role kind and edge tag."""
    tag_counts = Counter(tag for _a, _b, tag in graph.edges)
    role_counts = Counter(role.kind for role in graph.roles.values())
    return {
        "node_count": len(graph.nodes),
        "edge_count": len(graph.edges),
        "edge_tags": {tag: tag_counts.get(tag, 0) for tag in EDGE_TAGS},
        "node_roles": dict(role_counts),
    }


def _role_tokens(role: NodeRole) -> list[str]:
    return [str(field) for field in role if field is not None]


def _integer(token: str) -> int:
    """``token`` as an int, if export would write that int as ``token``;
    else ValueError.  ``int`` alone also reads ``+1``, ``01``, ``0_4`` and
    non-ASCII digits, which would not export as they were read."""
    value = int(token)
    if str(value) != token:
        raise ValueError(token)
    return value


def _role_from_tokens(tokens: list[str], lineno: int) -> NodeRole:
    kind = tokens[0]
    # Each unpacking refuses a missing or extra token with ValueError; a
    # kind without fields takes no token after it.
    try:
        if kind == ROLE_GADGET:
            _, gate, pos, side = tokens
            pos = _integer(pos)
            if pos not in range(1, 6) or side not in (CAT_SIDE, MOUSE_SIDE):
                raise ValueError
            return NodeRole(ROLE_GADGET, gate=gate, position=pos, side=side)
        if kind == ROLE_INPUT:
            _, index, side = tokens
            if side not in (CAT_SIDE, MOUSE_SIDE):
                raise ValueError
            return NodeRole(ROLE_INPUT, index=_integer(index), side=side)
        if kind == ROLE_ESCAPE:
            _, gate, branch, chain = tokens
            if branch not in (LEFT, RIGHT):
                raise ValueError
            return NodeRole(ROLE_ESCAPE, gate=gate, branch=branch, chain=_integer(chain))
        if kind in (ROLE_CAT_START, ROLE_HOLE, ROLE_DEAD_END) and len(tokens) == 1:
            return NodeRole(kind)
    except ValueError:
        pass
    raise GraphSyntaxError(lineno, f"bad role declaration: {' '.join(tokens)}")


def export_graph(graph: GameGraph, cmap: CorrespondenceMap, fmt: str = "structured") -> str:
    """Serialize a game graph; ``fmt`` is ``structured`` (lossless, machine
    readable) or ``dot`` (Graphviz, for inspection)."""
    if fmt == "structured":
        return _export_structured(graph, cmap)
    if fmt == "dot":
        return _export_dot(graph)
    raise ValueError(f"unknown format {fmt!r}")


def _export_structured(graph: GameGraph, cmap: CorrespondenceMap) -> str:
    lines = [f"game {'directed' if graph.directed else 'undirected'}"]
    for node in graph.nodes:
        lines.append("node " + " ".join([node] + _role_tokens(graph.roles[node])))
    for a, b, tag in graph.edges:
        lines.append(f"edge {a} {b} {tag}")
    lines.append(f"special c={graph.c} m={graph.m} h={graph.h} d={graph.d}")
    for mouse, cat in cmap.cat_of.items():
        lines.append(f"pair {mouse} {cat}")
    for node in graph.nodes:
        lines.append(f"layer {node} {cmap.layer[node]}")
    return "\n".join(lines) + "\n"


_DOT_STYLE = {
    TAG_THREAT: ' [style=dashed]',
    TAG_GUARD: ' [style=dotted]',
    TAG_ESCAPE: ' [color=gray]',
}


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _export_dot(graph: GameGraph) -> str:
    kind = "digraph" if graph.directed else "graph"
    arrow = "->" if graph.directed else "--"
    lines = [f"{kind} game {{"]
    for node in graph.nodes:
        label = " ".join(_role_tokens(graph.roles[node]))
        lines.append(f"  {_dot_quote(node)} [label={_dot_quote(label)}];")
    for a, b, tag in graph.edges:
        lines.append(f"  {_dot_quote(a)} {arrow} {_dot_quote(b)}"
                     f"{_DOT_STYLE.get(tag, '')};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def import_graph(text: str) -> tuple[GameGraph, CorrespondenceMap]:
    """Parse the structured format back into a graph and its map.

    Raises :class:`GraphSyntaxError` for malformed lines and for a node's
    layer or a special node given twice, and :class:`InconsistentGraphError`
    for structural violations (parallel edges, edges that do not join
    adjacent layers, self-loops included, a branched Cat stalk, or a broken
    Mouse/Cat pairing).
    """
    directed: bool | None = None
    roles: dict[str, NodeRole] = {}
    edges: list[tuple[str, str, str]] = []
    specials: dict[str, str] = {}
    cat_of: dict[str, str] = {}
    paired_cats: set[str] = set()
    layer: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "game":
            if directed is not None or len(tokens) != 2 or \
                    tokens[1] not in ("directed", "undirected"):
                raise GraphSyntaxError(lineno, "expected one: game directed|undirected")
            directed = tokens[1] == "directed"
        elif keyword == "node":
            if len(tokens) < 3:
                raise GraphSyntaxError(lineno, "expected: node <id> <role> [params]")
            node = tokens[1]
            if node in roles:
                raise InconsistentGraphError(f"node {node!r} declared twice")
            roles[node] = _role_from_tokens(tokens[2:], lineno)
        elif keyword == "edge":
            if len(tokens) != 4:
                raise GraphSyntaxError(lineno, "expected: edge <a> <b> <tag>")
            a, b, tag = tokens[1], tokens[2], tokens[3]
            if tag not in EDGE_TAGS:
                raise GraphSyntaxError(lineno, f"unknown edge tag {tag!r}")
            for n in (a, b):
                if n not in roles:
                    raise InconsistentGraphError(f"edge references unknown node {n!r}")
            edges.append((a, b, tag))
        elif keyword == "special":
            for tok in tokens[1:]:
                if "=" not in tok:
                    raise GraphSyntaxError(lineno, f"bad special {tok!r}")
                key, value = tok.split("=", 1)
                if key not in ("c", "m", "h", "d") or value not in roles:
                    raise GraphSyntaxError(lineno, f"bad special {tok!r}")
                if key in specials:
                    raise GraphSyntaxError(lineno, f"special {key!r} given twice")
                specials[key] = value
        elif keyword == "pair":
            if len(tokens) != 3:
                raise GraphSyntaxError(lineno, "expected: pair <mouse> <cat>")
            mouse, cat = tokens[1], tokens[2]
            for n in (mouse, cat):
                if n not in roles:
                    raise InconsistentGraphError(f"pair references unknown node {n!r}")
            if mouse in cat_of or cat in paired_cats:
                raise InconsistentGraphError("pairing is not a bijection")
            cat_of[mouse] = cat
            paired_cats.add(cat)
        elif keyword == "layer":
            if len(tokens) != 3:
                raise GraphSyntaxError(lineno, "expected: layer <id> <n>")
            node = tokens[1]
            if node not in roles:
                raise InconsistentGraphError(f"layer for unknown node {node!r}")
            if node in layer:
                raise GraphSyntaxError(lineno, f"layer for {node!r} given twice")
            try:
                layer[node] = _integer(tokens[2])
            except ValueError:
                raise GraphSyntaxError(lineno, "layer must be an integer") from None
        else:
            raise GraphSyntaxError(lineno, f"unknown keyword {keyword!r}")
    if directed is None:
        raise GraphSyntaxError(0, "missing game declaration")
    for key in ("c", "m", "h", "d"):
        if key not in specials:
            raise InconsistentGraphError(f"missing special node {key!r}")
    missing_layer = [n for n in roles if n not in layer]
    if missing_layer:
        raise InconsistentGraphError(f"missing layer for {missing_layer[0]!r}")
    return _board(directed, roles, edges, specials, cat_of, layer)


def validate_graph(graph: GameGraph, cmap: CorrespondenceMap):
    """Check the structural invariants every built game graph satisfies.

    The layer rule also rejects self-loops; parallel edges are found on the
    adjacency the :class:`Graph` built.  Every node has a layer: the builder
    gives each one, and ``import_graph`` refuses a board that lacks one.
    """
    layer, c = cmap.layer, graph.c
    at_c = 0
    for a, b, _tag in graph.edges:
        la, lb = layer[a], layer[b]
        if graph.directed:
            if la != lb + 1:
                raise InconsistentGraphError(
                    f"edge {a!r} -> {b!r} spans layers {la} -> {lb}"
                )
        elif abs(la - lb) != 1:
            raise InconsistentGraphError(
                f"edge {a!r} -- {b!r} spans layers {la} -- {lb}"
            )
        at_c += c in (a, b)
    for a in graph.nodes:
        moves = graph.neighbors_out(a)
        if len(set(moves)) != len(moves):
            b = next(v for i, v in enumerate(moves) if v in moves[:i])
            raise InconsistentGraphError(f"parallel edge {a!r} -> {b!r}")
    if at_c != 1 or len(graph.neighbors_out(c)) != 1:
        raise InconsistentGraphError("the Cat stalk c must have exactly one edge")
    for mouse, cat in cmap.cat_of.items():
        if layer[mouse] != layer[cat]:
            raise InconsistentGraphError(
                f"paired nodes {mouse!r}/{cat!r} on different layers"
            )
