"""Dense walk diagnostics: references the tests check the game's walk against.

The game itself only tracks a projection estimate of its potential; these
evaluate the exact potential and the explicit mixing matrix at small k.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from treecut import ArgumentError, Matching, OversizeError
from treecut.cutmatch import POTENTIAL_UNIT_CAP, _apply_walk

#: size cap of the explicit k x k mixing matrix
DENSE_UNIT_CAP = 256


def _as_mask(active, k: int) -> np.ndarray:
    if isinstance(active, np.ndarray) and active.dtype == bool:
        return active
    mask = np.zeros(k, dtype=bool)
    mask[list(active)] = True
    return mask


def _infer_k(matchings, active_sets, k):
    if k is not None:
        return k
    if active_sets:
        return len(active_sets[0])
    raise ArgumentError("cannot infer the unit count; pass k explicitly")


def dense_flow_matrix(matchings: Sequence[Matching],
                      active_sets: Sequence[Iterable[int]] | None = None,
                      slowdown: int = 2, k: int | None = None) -> np.ndarray:
    """Explicit mixing matrix after the given matchings; doubly stochastic."""
    k = _infer_k(matchings, active_sets, k)
    if k > DENSE_UNIT_CAP:
        raise OversizeError(f"dense matrix limited to {DENSE_UNIT_CAP} units")
    share = 1.0 / slowdown
    keep = 1.0 - share
    f = np.eye(k)
    for matching in matchings:
        perm = matching.permutation(k)
        f = keep * f + share * f[perm, :]
        f = keep * f + share * f[:, perm]
    return f


def potential(matchings: Sequence[Matching], active_sets: Sequence[Iterable[int]],
              slowdown: int, k: int | None = None) -> float:
    """Convergence potential of the game state, via matrix-free column walks."""
    k = _infer_k(matchings, active_sets, k)
    if k > POTENTIAL_UNIT_CAP:
        raise OversizeError(f"potential evaluation limited to {POTENTIAL_UNIT_CAP} units")
    mask = _as_mask(active_sets[-1] if active_sets else range(k), k)
    if not mask.any():
        return 0.0
    perms = [m.permutation(k) for m in matchings]
    cols = _apply_walk(np.eye(k)[:, mask], perms, mask, slowdown)
    return float((cols * cols).sum())
