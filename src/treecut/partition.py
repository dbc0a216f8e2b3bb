"""Cluster partitioning: border-routable trimming and the bad-child routine.

partition_cluster refines a cluster's sub-partition until either the cluster
expands well with respect to it, or a bad child is split off whose cut is
cheap to route to the cluster's outer border.  All threshold comparisons are
exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .cutmatch import ceil_log2, oracle_params, sparsest_cut_apx
from .errors import ArgumentError, InternalError
from .flow import _run_max_flow, fair_cut
from .graphs import (Graph, Partition, boundary_capacity, boundary_degree_map, fuse,
                     incident_capacity)


@dataclass(frozen=True)
class TrimResult:
    """Three-way split of a cluster produced by two fair-cut trims.

    ``kept`` is the large expanding side, ``buffer`` absorbs the seed cut,
    and ``routable`` is the slice whose cut edges route to the outer border.
    """

    kept: frozenset[int]
    buffer: frozenset[int]
    routable: frozenset[int]


@dataclass(frozen=True)
class PartitionClusterResult:
    bad_child: frozenset[int]
    partition: Partition


def two_way_trim(graph: Graph, cluster: Iterable[int], seed: Iterable[int],
                 pi: Mapping[int, int], phi, trim_factor) -> TrimResult:
    """Shift a sparse seed cut into a border-routable three-way split.

    The first fair cut grows the seed into a low-weight region whose removal
    leaves an expanding remainder; the second fair cut carves off the part of
    that region whose cut edges can be routed to the cluster's outer border
    with congestion 2.
    """
    phi = Fraction(phi)
    trim_factor = Fraction(trim_factor)
    if not 0 < trim_factor <= 1:
        raise ArgumentError("trim factor must lie in (0, 1]")
    c_set = frozenset(cluster)
    r_set = frozenset(seed)
    if not r_set < c_set:
        raise ArgumentError("seed must be a proper subset of the cluster")
    rest = c_set - r_set
    seed_cut = boundary_capacity(graph, r_set, c_set)
    seed_weight = sum(int(pi.get(v, 0)) for v in r_set)
    if seed_cut > phi * seed_weight:
        raise ArgumentError("seed cut is not sparse enough for trimming")

    absorb_rate = trim_factor * phi / 5
    sources1 = incident_capacity(graph, rest, r_set)
    targets1 = {v: absorb_rate * int(pi.get(v, 0)) for v in rest}
    grown = fair_cut(graph, sources1, targets1, within=rest).cut | r_set
    buffer = _border_trim(graph, c_set, grown, phi)
    return TrimResult(c_set - grown, buffer, grown - buffer)


def _border_trim(graph: Graph, c_set: frozenset[int], side: frozenset[int],
                 phi) -> frozenset[int]:
    """Fair cut inside ``side`` from its capacity into the rest of the cluster
    to phi/2 times its capacity outside; the rest of ``side`` routes to the border."""
    sources = incident_capacity(graph, side, c_set - side)
    targets = {v: phi / 2 * c for v, c in
               incident_capacity(graph, side, graph._all_vertices - c_set).items()}
    return fair_cut(graph, sources, targets, within=side).cut


def check_border_routable(graph: Graph, cluster: Iterable[int], side: Iterable[int],
                          gamma, congestion) -> bool:
    """Exact feasibility check of border routability through ``side``.

    The worst admissible source (full capacity on the cut toward the rest of
    the cluster) must route inside G[side] to sinks bounded by the outer
    border capacities divided by gamma, at the stated congestion.  A single
    max flow decides this; smaller sources follow by dropping paths.  Only
    tests call it so far; it stays in the package as the border certificate
    that ``treecut certify`` is to run for every bad child.
    """
    gamma = Fraction(gamma)
    congestion = Fraction(congestion)
    if gamma <= 0 or congestion <= 0:
        raise ArgumentError("gamma and congestion must be positive")
    u_set = frozenset(side)
    c_set = frozenset(cluster)
    if not u_set <= c_set:
        raise ArgumentError("side must be contained in the cluster")
    supplies = incident_capacity(graph, u_set, c_set - u_set)
    if not supplies:
        return True
    outside = graph._all_vertices - c_set
    sinks = {v: c / gamma for v, c in incident_capacity(graph, u_set, outside).items()}
    return _run_max_flow(graph, supplies, sinks, within=u_set,
                         cap_scale=congestion).saturated


def partition_cluster(graph: Graph, cluster: Iterable[int], parts: Partition,
                      phi, rng) -> PartitionClusterResult:
    """Refine a cluster's partition, possibly splitting off a bad child.

    Returns (U, Y) where Y partitions the cluster, U is empty or a member of
    Y with at most half the vertices, and U's cut is (1/phi)-border-routable
    through U with congestion 2.  Either the split is balanced in boundary
    weight, or the remainder expands well against Y.  The oracle is the game
    at phi/20 with the paper's fixed constants; a border-heavy candidate is
    trimmed like ``two_way_trim``'s second cut.
    """
    phi = Fraction(phi)
    if not 0 < phi <= Fraction(1, 4):
        raise ArgumentError("phi must lie in (0, 1/4]")
    c_set = frozenset(cluster)
    if parts.ground != c_set:
        raise ArgumentError("partition must cover exactly the cluster")
    if len(c_set) == 1:
        return PartitionClusterResult(frozenset(), parts)

    current = parts
    iteration_cap = None
    iterations = 0
    previous: tuple[int, Fraction] | None = None
    while True:
        pi = boundary_degree_map(graph, current)
        total = pi.total()
        if previous is not None:
            # every repeat iteration must shed a fixed fraction of the weight
            prev_total, prev_progress = previous
            if total > (1 - prev_progress / 4) * prev_total:
                raise InternalError("fuse step failed to reduce the boundary weight")
        if total <= 1:
            # nothing left to weigh; the trivial answer is exact
            return PartitionClusterResult(frozenset(), current)
        quality, _balance, progress = oracle_params(total)
        if iteration_cap is None:
            iteration_cap = 4 * ceil_log2(total) / progress + 4
        iterations += 1
        if iterations > iteration_cap:
            raise InternalError("partition refinement exceeded its iteration budget")

        sparse = sparsest_cut_apx(graph, pi, phi / 20, rng, within=c_set)
        if pi.total(sparse) == 0:
            return PartitionClusterResult(frozenset(), current)

        if pi.total(sparse) <= progress * total:
            trim = two_way_trim(graph, c_set, sparse, pi, phi,
                                Fraction(1, 20 * quality))
            if 2 * len(trim.kept) >= len(c_set):
                refined = current
                if trim.buffer:
                    refined = fuse(refined, trim.buffer, graph)
                if trim.routable:
                    refined = fuse(refined, trim.routable, graph)
                return PartitionClusterResult(frozenset(trim.routable), refined)
            candidate = trim.kept
        else:
            rest = c_set - sparse
            if len(sparse) < len(rest):
                candidate = sparse
            elif len(rest) < len(sparse):
                candidate = rest
            else:
                candidate = sparse if min(sparse) < min(rest) else rest

        inner_cut = _assert_candidate(graph, c_set, candidate, pi, total, progress, phi)
        # the candidate's capacity out of the cluster, from its own edges
        border = boundary_capacity(graph, candidate, graph._all_vertices) - inner_cut
        if 2 * border <= pi.total(candidate):
            current = fuse(current, candidate, graph)
            previous = (total, progress)
            continue

        # trim the candidate against the outer border and return it
        bad_child = candidate - _border_trim(graph, c_set, candidate, phi)
        if not bad_child:
            raise InternalError("border trim consumed the whole candidate")
        refined = fuse(current, bad_child, graph)
        return PartitionClusterResult(bad_child, refined)


def _assert_candidate(graph, c_set, candidate, pi, total, progress, phi) -> int:
    """The processing-stage invariants; violations indicate an engine bug.
    Returns the candidate's cut inside the cluster."""
    if 2 * len(candidate) > len(c_set):
        raise InternalError("candidate spans more than half the cluster")
    weight = pi.total(candidate)
    if weight < progress * total:
        raise InternalError("candidate carries too little boundary weight")
    cut = boundary_capacity(graph, candidate, c_set)
    if cut > phi / 10 * weight:
        raise InternalError("candidate cut is not sparse enough")
    return cut
