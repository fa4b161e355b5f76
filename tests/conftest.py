"""Shared helpers for building test inputs: random arenas, deep circuits."""

import random

from catmouse.solver import MOUSE, Graph


def random_arena(seed, n_max=7, directed=None):
    """A seeded arena graph with 2..n_max nodes and random edge density."""
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    if directed is None:
        directed = rng.random() < 0.5
    density = rng.uniform(0.2, 0.8)
    nodes = tuple(f"n{i}" for i in range(n))
    edges = []
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if i == j:
                continue
            if not directed and i > j:
                continue
            if rng.random() < density:
                edges.append((a, b))
    return Graph(directed=directed, nodes=nodes, edges=tuple(edges))


def random_placement(graph, seed):
    """A valid (cat, mouse, hole) triple: distinct players, mouse off hole."""
    rng = random.Random(seed)
    nodes = list(graph.nodes)
    cat = rng.choice(nodes)
    mouse = rng.choice([v for v in nodes if v != cat])
    hole = rng.choice([v for v in nodes if v != mouse])
    return cat, mouse, hole


def fan_levels():
    """The levels 0 to 4 of a small directed arena, c, x, eight w, eight u
    and h, whose edges lead from every node of a level to every node of the
    next.  With the Cat on c and the Mouse on a u, the start's class of
    states is far smaller than the class with both players on one level."""
    return [["c"], ["x"], [f"w{k}" for k in range(8)], [f"u{k}" for k in range(8)], ["h"]]


def fan_edges(levels):
    return [(a, b) for here, up in zip(levels, levels[1:]) for a in here for b in up]


def and_chain_text(depth):
    """A circuit of ``depth`` AND gates, each fed twice by the one below."""
    lines = ["inputs 2", "gate g0 AND i0 i1"]
    lines += [f"gate g{k} AND g{k - 1} g{k - 1}" for k in range(1, depth)]
    lines.append(f"output g{depth - 1}")
    return "\n".join(lines) + "\n"


def off_plan_replies(cmap, certificate):
    """Read the mirror Cat's walk for off-plan Mouse moves: a step up a level
    or into the Cat copy.  Returns how many of each kind the walk holds and
    the ones the Cat does not answer by capture on the very next ply."""
    seen = {"up": 0, "cat copy": 0}
    missed = []
    walk = certificate.walk
    for (cat, mouse, turn), nexts in walk.items():
        if turn != MOUSE:
            continue
        for after in nexts:
            to = after[1]
            if cmap.layer[to] > cmap.layer[mouse]:
                kind = "up"
            elif to in cmap.cat_of.values():
                kind = "cat copy"
            else:
                continue
            seen[kind] += 1
            # Stepping onto the Cat is a capture already.
            if cat != to and walk[after] != ((to, to, MOUSE),):
                missed.append(f"mouse {mouse} -> {to}, cat on {cat}")
    return seen, missed
