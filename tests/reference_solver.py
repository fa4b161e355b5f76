"""The sparse-matrix retrograde solver that ``catmouse.solver.solve`` replaced.

Test-only: it recomputes every undecided state on every ply with four
sparse-times-dense products over all n^2 node pairs, and serves as the
reference that the frontier solver must match value for value and distance
for distance.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from catmouse.solver import (
    GameInstance,
    SolverError,
)

# Values by winner; 0 is a draw.
CATWIN = 1
MOUSEWIN = 2


def solve(instance: GameInstance) -> tuple[np.ndarray, np.ndarray]:
    """Retrograde analysis of the full (cat, mouse, turn) state space: the
    value and distance tables of every state."""
    graph = instance.graph
    ids = tuple(graph.nodes)
    index = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    rows: list[int] = []
    cols: list[int] = []
    for u in ids:
        ui = index[u]
        for v in graph.neighbors_out(u):
            rows.append(ui)
            cols.append(index[v])
    adj = csr_matrix(
        (np.ones(len(rows), dtype=np.float32), (rows, cols)), shape=(n, n)
    )
    out_deg = np.diff(adj.indptr)
    hole = index[instance.hole]

    val_c = np.zeros((n, n), dtype=np.int8)
    val_m = np.zeros((n, n), dtype=np.int8)
    dist_c = np.full((n, n), -1, dtype=np.int32)
    dist_m = np.full((n, n), -1, dtype=np.int32)

    diag = np.eye(n, dtype=bool)
    at_hole = np.zeros((n, n), dtype=bool)
    at_hole[:, hole] = True
    at_hole &= ~diag
    for val, dist in ((val_c, dist_c), (val_m, dist_m)):
        val[diag] = CATWIN
        val[at_hole] = MOUSEWIN
        dist[diag | at_hole] = 0
    # A player to move with no way out loses on the spot.
    cat_stuck = (out_deg == 0)[:, None] & (val_c == 0)
    val_c[cat_stuck] = MOUSEWIN
    dist_c[cat_stuck] = 0
    mouse_stuck = (out_deg == 0)[None, :] & (val_m == 0)
    val_m[mouse_stuck] = CATWIN
    dist_m[mouse_stuck] = 0

    cw_m = (val_m == CATWIN).astype(np.float32)
    mw_m = (val_m == MOUSEWIN).astype(np.float32)
    cw_c = (val_c == CATWIN).astype(np.float32)
    mw_c = (val_c == MOUSEWIN).astype(np.float32)

    plies = 0
    limit = 2 * n * n + 4
    while True:
        plies += 1
        if plies > limit:
            raise SolverError("attractor failed to converge")
        undecided_c = val_c == 0
        undecided_m = val_m == 0
        # Cat to move: wins by reaching a Cat-winning mouse-turn state, loses
        # once every move lands in a Mouse-winning one.
        new_cw_c = ((adj @ cw_m) > 0) & undecided_c
        new_mw_c = ((adj @ (1.0 - mw_m)) == 0) & undecided_c
        # Mouse to move: symmetric, walking the mouse coordinate.
        new_mw_m = ((adj @ mw_c.T).T > 0) & undecided_m
        new_cw_m = ((adj @ (1.0 - cw_c).T).T == 0) & undecided_m
        if not (new_cw_c.any() or new_mw_c.any()
                or new_cw_m.any() or new_mw_m.any()):
            break
        val_c[new_cw_c] = CATWIN
        val_c[new_mw_c] = MOUSEWIN
        val_m[new_cw_m] = CATWIN
        val_m[new_mw_m] = MOUSEWIN
        dist_c[new_cw_c | new_mw_c] = plies
        dist_m[new_cw_m | new_mw_m] = plies
        cw_c[new_cw_c] = 1.0
        mw_c[new_mw_c] = 1.0
        cw_m[new_cw_m] = 1.0
        mw_m[new_mw_m] = 1.0

    # Returned as ``Solution._dense`` gives them: values relative to the
    # player to move, 1 won and 2 lost, so the Cat-to-move table already
    # reads so and in the Mouse-to-move table the two wins trade places; and
    # indexed [turn, other player's node, mover's node], so the Cat-to-move
    # tables are transposed.
    val_m = np.where(val_m == 0, val_m, CATWIN + MOUSEWIN - val_m)
    return np.stack((val_c.T, val_m)), np.stack((dist_c.T, dist_m))
