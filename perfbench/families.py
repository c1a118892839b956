"""Deterministic graph families and the harness-side oracles that check them.

Everything here is independent of raagnorm: graphs are plain
``(vertices, edges)`` lists, and the expected answers come from how each
graph was built (block counts, planted cycles, k-tree clique counts) or
from a short breadth-first search, never from the library's own code.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# Sparse inputs keep every degree at or below 12 (caterpillar legs at most 8,
# at most four blocks per cut vertex), far under the 64-vertex link cap.
CATERPILLAR_MAX_DEGREE = 8
MAX_BLOCKS_PER_VERTEX = 4
# Character values are drawn from [-VALUE_BOUND, VALUE_BOUND].
VALUE_BOUND = 5


def adjacency(vertices, edges):
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


class Graph:
    """A generated input: vertex list in declaration order, edge pairs, and
    what the construction guarantees about it."""

    def __init__(self, family, vertices, edges, blocks=None, k=None, hole=None):
        self.family = family
        self.vertices = vertices
        self.edges = edges
        self.blocks = blocks  # vertex -> number of blocks (2-connected pieces) containing it
        self.k = k  # k-tree width (clique number k + 1)
        self.hole = hole  # vertex set of the planted induced cycle, or None

    def adjacency(self):
        return adjacency(self.vertices, self.edges)

    def max_degree(self):
        return max(len(ns) for ns in self.adjacency().values())


def _shuffled_edges(rng, edges):
    edges = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]
    rng.shuffle(edges)
    return edges


def _from_cliques(family, rng, n, cliques, k=None):
    """Graph whose edges are those of the given cliques over integer ids.

    Unless ``k`` is given, the cliques are the blocks of a tree of blocks,
    so each vertex's block count is the number of cliques containing it.
    Names are assigned to ids at random, so two draws of one shape (a path,
    say) differ in content; the declaration order is shuffled.
    """
    names = [f"v{i}" for i in rng.sample(range(n), n)]
    pairs = set()
    for c in cliques:
        for i, a in enumerate(c):
            for b in c[i + 1:]:
                pairs.add((min(a, b), max(a, b)))
    edges = _shuffled_edges(rng, [(names[a], names[b]) for a, b in sorted(pairs)])
    blocks = None
    if k is None:
        count = [0] * n
        for c in cliques:
            for a in c:
                count[a] += 1
        blocks = {names[i]: count[i] for i in range(n)}
    vertices = list(names)
    rng.shuffle(vertices)
    return Graph(family, vertices, edges, blocks, k)


def path(rng, n):
    return _from_cliques("path", rng, n, [(i, i + 1) for i in range(n - 1)])


def caterpillar(rng, n):
    """Spine plus leaves; every vertex has degree at most CATERPILLAR_MAX_DEGREE."""
    spine = max(2, n // 3)
    edges = [(i, i + 1) for i in range(spine - 1)]
    degree = [2] * spine
    degree[0] = degree[-1] = 1
    for leaf in range(spine, n):
        while True:
            at = rng.randrange(spine)
            if degree[at] < CATERPILLAR_MAX_DEGREE:
                break
        degree[at] += 1
        edges.append((at, leaf))
    return _from_cliques("caterpillar", rng, n, edges)


def block_tree(rng, n):
    """Cliques of 2-4 vertices glued at cut vertices into a tree of blocks."""
    first = min(n, rng.randint(2, 4))
    cliques = [tuple(range(first))]
    count = [1] * first
    size = first
    while size < n:
        extra = min(n - size, rng.randint(1, 3))
        while True:
            at = rng.randrange(size)
            if count[at] < MAX_BLOCKS_PER_VERTEX:
                break
        clique = (at,) + tuple(range(size, size + extra))
        cliques.append(clique)
        count[at] += 1
        count.extend([1] * extra)
        size += extra
    return _from_cliques("block_tree", rng, n, cliques)


def path_power(rng, n, k):
    """k-th power of the path P_n: i ~ j when |i - j| <= k (a k-tree)."""
    cliques = [tuple(range(i, min(n, i + k + 1))) for i in range(max(1, n - k))]
    g = _from_cliques(f"path_power{k}", rng, n, cliques, k=k)
    g.blocks = {v: 1 for v in g.vertices}  # no cut vertex once k >= 2
    return g


def ktree(rng, n, k):
    """Random k-tree: K_{k+1}, then each new vertex joins a random k-clique."""
    cliques = [tuple(range(k + 1))]
    for v in range(k + 1, n):
        base = list(rng.choice(cliques))
        base.pop(rng.randrange(k + 1))
        cliques.append(tuple(base) + (v,))
    return _from_cliques(f"ktree{k}", rng, n, cliques, k=k)


def plant_hole(rng, g, length):
    """Attach an induced cycle of ``length`` vertices by one edge."""
    cycle = [f"h{i}" for i in range(length)]
    edges = list(g.edges) + [(cycle[i], cycle[(i + 1) % length]) for i in range(length)]
    edges.append((rng.choice(g.vertices), cycle[0]))
    return Graph(g.family + "+hole", list(g.vertices) + cycle, edges, k=g.k,
                 hole=frozenset(cycle))


def primitive_values(rng, vertices):
    """Integral values with gcd 1, as a plain dict."""
    while True:
        values = {v: rng.randint(-VALUE_BOUND, VALUE_BOUND) for v in vertices}
        g = 0
        for x in values.values():
            g = math.gcd(g, x)
        if g:
            return {v: x // g for v, x in values.items()}


# -- oracles -------------------------------------------------------------------


def components_without(adj, gone):
    """Number of connected components of the graph minus the vertices ``gone``."""
    seen = set(gone)
    count = 0
    for s in adj:
        if s in seen:
            continue
        count += 1
        seen.add(s)
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def cut_ranks_by_search(vertices, edges):
    """Cut rank of every vertex by deleting it and counting components."""
    adj = adjacency(vertices, edges)
    return {v: components_without(adj, {v}) - 1 for v in vertices}


def block_norm(blocks, values):
    """The semi-norm of a connected chordal graph from its block structure:
    sum over vertices of (blocks containing v - 1) * |phi(v)|."""
    return sum((Fraction((blocks[v] - 1) * abs(x)) for v, x in values.items()), Fraction(0))


def link_betti1_sum(g, values):
    """sum |phi(v)| * (components of the link of v - 1).

    For a chordal graph with at most a planted cycle hanging off it every
    link is a disjoint union of contractible pieces, so this is the kernel's
    only nonzero L2-Betti number (degree one).
    """
    adj = g.adjacency()
    total = Fraction(0)
    for v, x in values.items():
        link = {u: adj[u] & adj[v] for u in adj[v]}
        total += abs(x) * (components_without(link, ()) - 1)
    return total


def expected_betti(g):
    """Reduced Betti vector (dims -1 .. k) of a k-tree, plus a planted hole."""
    betti = [0] * (g.k + 2)
    if g.hole:
        betti[2] = 1
    return tuple(betti)


def new_rng(seed, *salt):
    return random.Random(f"{seed}:" + ":".join(map(str, salt)))
