"""Scripted strategies that realize the winning plans on reduction graphs.

These are not searches: each is a constant-time rule set read off the
circuit, and each wins exactly when its side is supposed to win.

``make_mirror_cat`` shadows the Mouse from the Cat's copy of the circuit.
While the Mouse sits on the copy of node v, the Cat sits on the
corresponding Cat-side node, so every Mouse deviation (stepping backwards
over a guard rail, crossing into the Cat's copy, or ducking into a bolt
hole) lands next to the Cat and is captured on the following ply.  At a
false AND gadget the Cat steps to the side node whose cross edge seals off
the true child, steering the Mouse into the false one; on a false circuit
the Mouse is herded into the dead end and taken there.

``make_true_path_mouse`` marches the Mouse one level down per move along
nodes whose circuit value is true, preferring the plain route and falling
back to a bolt-hole corridor when the Cat blocks the way.  A move is safe
when the Cat cannot be on the target now or reach it on the very next ply;
on a true circuit some safe forward move always exists, because no single
Cat position covers two forward options and the Cat can never get below
the Mouse's level.  All forward routes lose exactly one level per move, so
the Mouse reaches the hole in exactly as many moves as its starting level.
"""

from __future__ import annotations

from .circuits import AND, OR, Circuit, evaluate, input_ref
from .reduction import (
    CAT_SIDE,
    MOUSE_SIDE,
    LEFT,
    RIGHT,
    ROLE_GADGET,
    ROLE_INPUT,
    child_node,
    escape_node,
    gadget_node,
)
from .solver import GameInstance, GameState


class StrategyError(Exception):
    pass


class NoMoveError(StrategyError):
    """The shadowing Cat has no prescribed move; its invariant was broken."""


class NoSafeMoveError(StrategyError):
    """The marching Mouse has no forward move at all."""


def make_mirror_cat(instance: GameInstance, cmap, circuit: Circuit, bits):
    """Cat policy: capture if possible, steer false AND gadgets, else shadow."""
    graph = instance.graph
    _out, values = evaluate(circuit, bits)

    def policy(state: GameState) -> str:
        neighbors = graph.neighbors_out(state.cat)
        if state.mouse in neighbors:
            return state.mouse
        role = graph.role(state.mouse)
        if (
            role.kind == ROLE_GADGET
            and role.side == MOUSE_SIDE
            and role.position in (2, 3)
            and (gate := circuit.gate(role.gate)).kind == AND
        ):
            # Cross edges: Cat-side 2 covers Mouse-side 5, 3 covers 4.  Sit
            # on the one that seals the true child so the Mouse must take
            # the false one.
            position = 3 if values[gate.left] else 2
            target = gadget_node(role.gate, CAT_SIDE, position)
            if target in neighbors:
                return target
            raise NoMoveError(
                f"cat at {state.cat} cannot reach threat node {target}"
            )
        partner = cmap.cat_of.get(state.mouse)
        if partner is not None and partner in neighbors:
            return partner
        raise NoMoveError(
            f"cat at {state.cat} has no prescribed reply to mouse at {state.mouse}"
        )

    return policy


def make_true_path_mouse(instance: GameInstance, cmap, circuit: Circuit, bits):
    """Mouse policy: safest preferred forward move, one level down per ply."""
    graph = instance.graph
    _out, values = evaluate(circuit, bits)
    routes: dict[str, list[str]] = {}  # Mouse node: forward moves, preferred first

    def preferred(mouse: str) -> list[str]:
        role = graph.role(mouse)
        if role.kind == ROLE_GADGET:
            gate = circuit.gate(role.gate)
            if role.position == 1:
                return [gadget_node(role.gate, MOUSE_SIDE, 2),
                        gadget_node(role.gate, MOUSE_SIDE, 3)]
            if role.position in (2, 3):
                down = [gadget_node(role.gate, MOUSE_SIDE, 4),
                        gadget_node(role.gate, MOUSE_SIDE, 5)]
                if gate.kind == OR and not values[gate.left]:
                    down.reverse()
                return down
            child = gate.left if role.position == 4 else gate.right
            branch = LEFT if role.position == 4 else RIGHT
            return [child_node(child, MOUSE_SIDE), escape_node(role.gate, branch, 1)]
        if role.kind == ROLE_INPUT:
            return [graph.h if values[input_ref(role.index)] else graph.d]
        return []

    def safe(target: str, cat: str) -> bool:
        if target == graph.h:
            return cat != graph.h
        return target != cat and target not in graph.neighbors_out(cat)

    def policy(state: GameState) -> str:
        mouse = state.mouse
        order = routes.get(mouse)
        if order is None:
            level = cmap.layer[mouse]
            forward = [v for v in sorted(graph.neighbors_out(mouse))
                       if cmap.layer[v] == level - 1]
            order = [v for v in preferred(mouse) if v in forward]
            order += [v for v in forward if v not in order]
            routes[mouse] = order
        if not order:
            raise NoSafeMoveError(f"mouse at {mouse} has no forward move")
        for target in order:
            if safe(target, state.cat):
                return target
        # Every forward move is covered: doomed, so walk the plan anyway.
        return order[0]

    return policy
