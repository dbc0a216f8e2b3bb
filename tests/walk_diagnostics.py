"""Walk and sweep diagnostics: references the tests check the cut player against.

The game itself only tracks a projection estimate of its potential; these
evaluate the exact potential and the explicit mixing matrix at small k,
check a sweep cut's properties, and sweep by a stable argsort, the order
``sweep_cut`` must reproduce with one value sort.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from treecut import ArgumentError, InternalError, OversizeError
from treecut.cutmatch import POTENTIAL_UNIT_CAP, _apply_walk, _unit_array

#: size cap of the explicit k x k mixing matrix
DENSE_UNIT_CAP = 256


def _as_mask(active, k: int) -> np.ndarray:
    if isinstance(active, np.ndarray) and active.dtype == bool:
        return active
    mask = np.zeros(k, dtype=bool)
    mask[list(active)] = True
    return mask


def pair_permutation(pairs: Iterable[tuple[int, int]], k: int) -> np.ndarray:
    """The walk permutation of a matching on k units, swapped pair by pair."""
    perm = np.arange(k)
    for i, j in pairs:
        perm[i], perm[j] = j, i
    return perm


def dense_flow_matrix(perms: Sequence[np.ndarray], slowdown: int, k: int) -> np.ndarray:
    """Explicit mixing matrix after the matchings with the given walk
    permutations (``game.perms``); doubly stochastic."""
    if k > DENSE_UNIT_CAP:
        raise OversizeError(f"dense matrix limited to {DENSE_UNIT_CAP} units")
    share = 1.0 / slowdown
    keep = 1.0 - share
    f = np.eye(k)
    for perm in perms:
        f = keep * f + share * f[perm, :]
        f = keep * f + share * f[:, perm]
    return f


def potential(perms: Sequence[np.ndarray], active: Iterable[int], slowdown: int,
              k: int) -> float:
    """Convergence potential after the matchings with the given walk
    permutations, on the active units, via matrix-free column walks."""
    if k > POTENTIAL_UNIT_CAP:
        raise OversizeError(f"potential evaluation limited to {POTENTIAL_UNIT_CAP} units")
    mask = _as_mask(active, k)
    if not mask.any():
        return 0.0
    cols = _apply_walk(np.eye(k)[:, mask], perms, mask, slowdown)
    return float((cols * cols).sum())


def stable_sort_sweep_cut(active, values):
    """``sweep_cut`` with a stable argsort of the active values in place of
    one value sort: the order (value, unit index) is explicit, and each side
    is a slice of it.  The sweep must equal it bit for bit."""
    vals = np.asarray(values, dtype=float)
    act = _unit_array(active, len(vals))
    a = len(act)
    if a < 2:
        raise ArgumentError("sweep cut needs at least two active units")
    vals = vals[act]
    # act is sorted, so a stable sort breaks value ties by unit index
    order = np.argsort(vals, kind="stable")
    svals = vals[order]
    squares = svals ** 2
    total = float(squares.sum())
    if not math.isfinite(total):
        raise ArgumentError("sweep values must be finite")
    median = svals[(a - 1) // 2]
    mass_low = float(squares[svals < median].sum())
    mass_high = float(squares[svals > median].sum())

    half = -(-a // 2)       # ceil(a/2) response units
    cap_small = -(-a // 8)  # ceil(a/8) proposal units
    first = "low" if mass_low >= mass_high else "high"
    for side in (first, "high" if first == "low" else "low"):
        if side == "low":
            pool_pos, resp_pos = order[: a - half], order[a - half:]
            level = float(svals[a - half])
        else:
            pool_pos, resp_pos = order[half:], order[:half]
            level = float(svals[half - 1])
        pool = vals[pool_pos]
        gap = pool - level
        is_far = gap * gap >= pool * pool / 9.0
        far = pool_pos[is_far]
        top = far[np.lexsort((act[far], -np.abs(gap[is_far])))[:cap_small]]
        picked = float(np.cumsum(np.float_power(vals[top], 2))[-1]) if len(top) else 0.0
        if picked + 1e-12 * total < total / 80.0:
            continue
        return act[np.sort(top)], act[np.sort(resp_pos)], level
    if svals[0] == svals[-1]:
        return act[a - cap_small:], act[:a - cap_small], float(svals[0])
    raise InternalError("sweep cut failed in both orientations")


def sweep_cut_violations(active, values, left, right, level) -> list[int]:
    """Check the sweep-cut properties; returns the indices that fail.

    1 separation, 2 side sizes, 3 per-unit distance from the level,
    4 mass captured by the proposal side, 5 disjointness.
    """
    act = [int(i) for i in sorted(active)]
    vals = np.asarray(values, dtype=float)
    a = len(act)
    bad = []
    lv = [float(vals[i]) for i in sorted(left)]
    rv = [float(vals[i]) for i in sorted(right)]
    tol = 1e-9 * max(1.0, float(np.abs(vals[act]).max(initial=0.0)))
    if lv and rv:
        ordered = (max(lv) <= level + tol <= min(rv) + 2 * tol) or \
                  (min(lv) >= level - tol >= max(rv) - 2 * tol)
        if not ordered:
            bad.append(1)
    if not (len(right) >= a / 2 and len(left) <= -(-a // 8)):
        bad.append(2)
    if any((x - level) ** 2 + tol ** 2 < x ** 2 / 9.0 for x in lv):
        bad.append(3)
    total = float((vals[act] ** 2).sum())
    if sum(x * x for x in lv) + 1e-9 * total < total / 80.0:
        bad.append(4)
    if set(left) & set(right):
        bad.append(5)
    return bad
