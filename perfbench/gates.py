"""Correctness gates: compare one pass's outputs with independent oracles.

Every gate takes plain Python data (collected from Spark outside the timed
section) and returns a list of failure messages; an empty list is a pass.
Keeping them Spark-free lets the benchmark's self-tests feed them tampered
outputs directly.
"""
import math
from collections import defaultdict, deque

import numpy as np

#: PageRank tolerance relative to the largest rank. Spark and numpy sum the
#: contributions in different orders, which moves the last few bits only.
PAGERANK_RTOL = 1e-9


def adjacency(edges: list[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = defaultdict(list)
    for s, d in edges:
        adj[s].append(d)
        adj[d].append(s)
    return adj


def quality_py(rows: list[tuple[int, int, int]]) -> tuple[float, float]:
    """(RF, EB) of (src, dst, part) rows, by the definitions in core.metrics."""
    edges_per_part: dict[int, int] = defaultdict(int)
    replicas: set[tuple[int, int]] = set()
    for s, d, p in rows:
        edges_per_part[p] += 1
        replicas.add((s, p))
        replicas.add((d, p))
    n_vertices = len({v for v, _ in replicas})
    sizes = list(edges_per_part.values())
    return len(replicas) / n_vertices, max(sizes) / (sum(sizes) / len(sizes))


def check_quality(rows, rf: float, eb: float) -> list[str]:
    want_rf, want_eb = quality_py(rows)
    out = []
    if not math.isclose(rf, want_rf, rel_tol=1e-12):
        out.append(f"rf {rf} != {want_rf} recomputed from the assignment")
    if not math.isclose(eb, want_eb, rel_tol=1e-12):
        out.append(f"eb {eb} != {want_eb} recomputed from the assignment")
    return out


def check_dne(got: dict[int, int], rounds: int, fallback: int,
              want: dict[int, int], want_stats: dict) -> list[str]:
    """Bit-for-bit equality with ``parallel_ne_reference`` (eid -> part)."""
    out = []
    if got != want:
        diff = sum(1 for e in want.keys() | got.keys() if got.get(e) != want.get(e))
        out.append(f"{diff} edges differ from the lock-step reference")
    if rounds != want_stats["iterations"]:
        out.append(f"rounds {rounds} != reference {want_stats['iterations']}")
    if fallback != want_stats["fallback_edges"]:
        out.append(f"fallback {fallback} != reference {want_stats['fallback_edges']}")
    return out


def bfs_levels(adj: dict[int, list[int]], source: int) -> dict[int, int]:
    level = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in level:
                level[w] = level[u] + 1
                q.append(w)
    return level


def check_sssp(got: dict[int, int], adj, source: int, steps: int) -> list[str]:
    want = bfs_levels(adj, source)
    out = []
    if got != want:
        out.append(f"SSSP differs from BFS on {len(got.items() ^ want.items())} entries")
    # The loop runs one extra step that discovers nothing.
    if steps != max(want.values()) + 1:
        out.append(f"SSSP took {steps} supersteps, BFS depth is {max(want.values())}")
    return out


def component_min_labels(adj: dict[int, list[int]]) -> dict[int, int]:
    """Union-find over the edges; each vertex labelled by its component's min id."""
    parent = {v: v for v in adj}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, nbrs in adj.items():
        for w in nbrs:
            a, b = find(u), find(w)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return {v: find(v) for v in adj}


def check_wcc(got: dict[int, int], adj) -> list[str]:
    want = component_min_labels(adj)
    if got != want:
        return [f"WCC differs from union-find on {len(got.items() ^ want.items())} entries"]
    return []


def pagerank_np(edges: list[tuple[int, int]], n_iters: int,
                damping: float = 0.85) -> dict[int, float]:
    """Power iteration with the same update as ``repro.apps.pagerank_trace``."""
    e = np.asarray(edges, dtype=np.int64)
    verts, idx = np.unique(e, return_inverse=True)
    idx = idx.reshape(e.shape)
    n = len(verts)
    src = np.concatenate([idx[:, 0], idx[:, 1]])
    dst = np.concatenate([idx[:, 1], idx[:, 0]])
    deg = np.bincount(src, minlength=n).astype(np.float64)
    rank = np.full(n, 1.0 / n)
    for _ in range(n_iters):
        rank = (1.0 - damping) / n + damping * np.bincount(
            dst, weights=rank[src] / deg[src], minlength=n
        )
    return dict(zip(verts.tolist(), rank.tolist()))


def check_pagerank(got: dict[int, float], want: dict[int, float]) -> list[str]:
    if got.keys() != want.keys():
        return [f"PageRank vertex sets differ by {len(got.keys() ^ want.keys())}"]
    tol = PAGERANK_RTOL * max(want.values())
    worst = max(abs(got[v] - want[v]) for v in want)
    if worst > tol:
        return [f"PageRank differs from numpy by {worst:.3g} (> {tol:.3g})"]
    return []
