"""Finite simplicial graphs with their implicit flag completion.

A :class:`FlagComplex` is a finite simple graph; its simplices are exactly
the cliques of the edge graph, so the flag completion is never materialized.
Vertex identifiers are opaque strings and the declaration order is the one
total order used everywhere: simplex orientation, tie-breaking, component
order, witness normalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    CliqueCapError,
    DisconnectedError,
    InvalidInput,
    NoCliqueSeparatorError,
    NotChordalError,
    ParseError,
    UnknownVertexError,
)

DEFAULT_CLIQUE_CAP = 64


class FlagComplex:
    """A finite simplicial graph; simplices are the cliques of the graph.

    Instances are immutable and hashable. Equality compares the vertex
    sequence (order matters) and the edge set. These invariants are
    computed on first use and kept on the instance: the chordality witness,
    the component vertex sets, the cut ranks, the f-vector (simplex count
    per dimension) and the reduced Betti numbers
    (:func:`raagnorm.homology.reduced_betti`). Only results are kept, never
    the simplex lists. The cache takes no part in equality, hashing or
    ``repr``.
    """

    __slots__ = ("vertices", "_index", "_adj", "_edges", "_cache")

    def __init__(self, vertices, edges=()):
        verts = tuple(vertices)
        index = {}
        for i, v in enumerate(verts):
            if not isinstance(v, str):
                raise ParseError(f"vertices[{i}]: identifiers must be strings")
            if v in index:
                raise ParseError(f"vertices[{i}]: duplicate vertex {v!r}")
            index[v] = i
        adj = {v: set() for v in verts}
        edgeset = set()
        for pos, e in enumerate(edges):
            try:
                a, b = e
            except (TypeError, ValueError):
                raise ParseError(f"edges[{pos}]: expected a pair of vertices")
            for x in (a, b):
                if x not in index:
                    raise ParseError(f"edges[{pos}]: undeclared endpoint {x!r}")
            if a == b:
                raise ParseError(f"edges[{pos}]: self-loop at {a!r}")
            key = (a, b) if index[a] < index[b] else (b, a)
            if key in edgeset:
                raise ParseError(f"edges[{pos}]: duplicate edge {a!r}-{b!r}")
            edgeset.add(key)
            adj[a].add(b)
            adj[b].add(a)
        self.vertices = verts
        self._index = index
        self._adj = adj
        self._edges = frozenset(edgeset)
        self._cache = None

    def _memo(self):
        """The per-instance memo of derived invariants; the slot stays None
        until the first invariant is stored."""
        cache = self._cache
        if cache is None:
            cache = self._cache = {}
        return cache

    def _cached(self, key, compute):
        """Memoised ``compute(self)`` under ``key``."""
        cache = self._memo()
        if key not in cache:
            cache[key] = compute(self)
        return cache[key]

    # -- basic queries ----------------------------------------------------

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return v in self._index

    def __eq__(self, other):
        if not isinstance(other, FlagComplex):
            return NotImplemented
        return self.vertices == other.vertices and self._edges == other._edges

    def __hash__(self):
        return hash((self.vertices, self._edges))

    def __repr__(self):
        return f"FlagComplex({list(self.vertices)!r}, {self.edges()!r})"

    def index(self, v):
        """Position of ``v`` in the declaration order."""
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def sorted(self, vs):
        """Vertices of ``vs`` in declaration order (validates membership)."""
        return tuple(sorted(vs, key=self.index))

    def has_edge(self, a, b):
        self.index(a)
        return b in self._adj[a]

    def neighbors(self, v):
        self.index(v)
        return self.sorted(self._adj[v])

    def edges(self):
        """All edges as index-ordered pairs, lexicographically sorted."""
        return sorted(self._edges, key=lambda e: (self._index[e[0]], self._index[e[1]]))

    def to_json_doc(self):
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges()]}

    # -- subcomplexes ------------------------------------------------------

    def induced(self, vs):
        """Induced subcomplex on ``vs``; vertex order is inherited.

        Built from the adjacency of the kept vertices, in time proportional
        to the result (plus sorting it).
        """
        keep = set()
        for v in vs:
            self.index(v)
            keep.add(v)
        idx = self._index
        adj = self._adj
        verts = sorted(keep, key=idx.__getitem__)
        return FlagComplex(
            verts, [(v, w) for v in verts for w in adj[v] & keep if idx[v] < idx[w]]
        )

    def link(self, v):
        """Induced subcomplex on the neighbors of ``v``."""
        self.index(v)
        return self.induced(self._adj[v])

    def one_neighborhood(self, vs):
        """Vertices at distance at most one from ``vs``, in order."""
        out = set()
        for v in vs:
            self.index(v)
            out.add(v)
            out.update(self._adj[v])
        return self.sorted(out)

    # -- connectivity ------------------------------------------------------

    def _component_sets(self):
        return self._cached("components", _component_vertex_sets)

    def components(self):
        """Connected components as induced subcomplexes, by minimal vertex;
        a connected complex is its own single component."""
        sets = self._component_sets()
        if len(sets) == 1:
            return [self]
        return [self.induced(c) for c in sets]

    def component_count(self):
        return len(self._component_sets())

    def is_connected(self):
        """True for exactly one component; the empty complex is not connected."""
        return self.component_count() == 1

    def cut_rank(self, v):
        """Number of components after deleting ``v``, minus one."""
        self.index(v)
        if len(self.vertices) < 2:
            raise InvalidInput("cut rank needs at least two vertices")
        return self._cached("cut_ranks", _cut_ranks)[v]

    # -- cliques -----------------------------------------------------------

    def _check_cap(self, cap):
        cap = DEFAULT_CLIQUE_CAP if cap is None else cap
        if len(self.vertices) > cap:
            raise CliqueCapError(
                f"{len(self.vertices)} vertices exceed the clique cap {cap}"
            )

    def maximal_cliques(self, cap=None):
        """Every maximal clique as an index-sorted tuple, lexicographically.

        Bron-Kerbosch with a deterministic pivot (largest candidate coverage,
        ties by vertex order).
        """
        self._check_cap(cap)
        if not self.vertices:
            return []
        adj = self._adj
        idx = self._index
        out = []

        def expand(r, p, x):
            if not p and not x:
                out.append(tuple(sorted(r, key=idx.__getitem__)))
                return
            pivot = max(p | x, key=lambda u: (len(p & adj[u]), -idx[u]))
            for v in sorted(p - adj[pivot], key=idx.__getitem__):
                expand(r | {v}, p & adj[v], x & adj[v])
                p = p - {v}
                x = x | {v}

        expand(set(), set(self.vertices), set())
        return sorted(out, key=lambda c: tuple(idx[v] for v in c))

    def simplices_by_dim(self, cap=None):
        """All simplices, grouped by dimension, each lexicographically sorted.

        Level ``d`` holds the (d+1)-cliques as index-sorted tuples; the empty
        complex yields an empty list. Each simplex grows along with its
        candidates, the common later neighbours of its vertices in
        declaration order (Chiba-Nishizeki): the child ``s + (w,)`` keeps
        the candidates after ``w`` that are adjacent to ``w``. Every run
        records the f-vector (see :meth:`f_vector`); the levels themselves
        are not kept.
        """
        self._check_cap(cap)
        adj = self._adj
        idx = self._index
        # Later neighbours of each vertex, appended in declaration order.
        later = {v: [] for v in self.vertices}
        for u in self.vertices:
            for w in adj[u]:
                if idx[w] < idx[u]:
                    later[w].append(u)
        levels = []
        cur = [(v,) for v in self.vertices]
        cands = [later[v] for v in self.vertices]
        while cur:
            levels.append(cur)
            nxt = []
            nxt_cands = []
            for s, cand in zip(cur, cands):
                for i, w in enumerate(cand):
                    near = adj[w]
                    nxt.append(s + (w,))
                    nxt_cands.append([x for x in cand[i + 1 :] if x in near])
            cur = nxt
            cands = nxt_cands
        self._memo()["f_vector"] = tuple(len(level) for level in levels)
        return levels

    def f_vector(self, cap=None):
        """Number of simplices in each dimension, from dimension 0 up.

        Recorded by every :meth:`simplices_by_dim` run; enumerates only when
        none has run yet. The cap is checked on every call.
        """
        self._check_cap(cap)
        if "f_vector" not in self._memo():
            self.simplices_by_dim(cap)
        return self._cache["f_vector"]


# -- cached structure ---------------------------------------------------------


def _component_vertex_sets(L):
    """Vertex tuples of the components, each in declaration order, ordered by
    minimal vertex."""
    adj = L._adj
    label = {}
    groups = []
    for v in L.vertices:
        if v in label:
            continue
        c = len(groups)
        groups.append([])
        label[v] = c
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in label:
                    label[w] = c
                    stack.append(w)
    for v in L.vertices:
        groups[label[v]].append(v)
    return tuple(tuple(g) for g in groups)


def _cut_ranks(L):
    """Cut rank of every vertex from one Hopcroft-Tarjan pass.

    Deleting ``v`` leaves the other components and splits its own into one
    piece per block (biconnected component) through ``v``; an isolated
    vertex lies in no block. So the count after deletion is
    ``components - 1 + blocks(v)``. The depth-first search keeps an explicit
    stack, so long paths do not hit the recursion limit.
    """
    adj = L._adj
    disc = {}
    low = {}
    blocks = dict.fromkeys(L.vertices, 0)
    components = 0
    for root in L.vertices:
        if root in disc:
            continue
        components += 1
        disc[root] = low[root] = len(disc)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            u, parent, todo = stack[-1]
            for w in todo:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    stack.append((w, u, iter(adj[w])))
                    break
                if w != parent and disc[w] < low[u]:
                    low[u] = disc[w]
            else:
                stack.pop()
                if parent is not None:
                    blocks[u] += 1  # the block holding the edge to parent
                    # That block is new at parent unless a back edge from
                    # u's subtree climbs above parent.
                    if low[u] >= disc[parent]:
                        blocks[parent] += 1
                    if low[u] < low[parent]:
                        low[parent] = low[u]
    return {v: components + b - 2 for v, b in blocks.items()}


# -- parsing ----------------------------------------------------------------


def parse_complex(text: str) -> FlagComplex:
    """Parse the JSON schema or a whitespace-separated edge list.

    JSON: ``{"vertices": [str...], "edges": [[str, str]...]}``.
    Edge list: one edge per line (two tokens); an isolated vertex is a line
    with a single token. Vertex order is declaration order (JSON) or first
    appearance (edge list).
    """
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        return _parse_json(text)
    return _parse_edge_list(text)


def load_json(text, where=""):
    """``json.loads`` whose every failure is a :class:`ParseError`.

    Besides syntax errors this covers integer literals beyond the
    interpreter's digit limit (``ValueError``) and nesting deep enough to
    exhaust the parser's stack (``RecursionError``). ``where`` prefixes the
    message.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{where}invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc
    except ValueError as exc:
        raise ParseError(f"{where}invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{where}invalid JSON: nested too deeply") from None


def _parse_json(text):
    return complex_from_json_doc(load_json(text))


def complex_from_json_doc(doc) -> FlagComplex:
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    extra = set(doc) - {"vertices", "edges"}
    if extra:
        raise ParseError(f"top level: unexpected keys {sorted(extra)}")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list):
        raise ParseError('top level: "vertices" must be a list')
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise ParseError('top level: "edges" must be a list')
    return FlagComplex(vertices, edges)


def _parse_edge_list(text):
    vertices = []
    seen = set()
    edges = []
    pairs = set()

    def declare(v):
        if v not in seen:
            seen.add(v)
            vertices.append(v)

    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) == 1:
            declare(tokens[0])
        elif len(tokens) == 2:
            a, b = tokens
            if a == b:
                raise ParseError(f"line {lineno}: self-loop at {a!r}")
            declare(a)
            declare(b)
            pair = frozenset((a, b))
            if pair in pairs:
                raise ParseError(f"line {lineno}: duplicate edge {a!r}-{b!r}")
            pairs.add(pair)
            edges.append((a, b))
        else:
            raise ParseError(f"line {lineno}: expected one or two tokens")
    return FlagComplex(vertices, edges)


# -- chordality --------------------------------------------------------------


@dataclass(frozen=True)
class ChordalityWitness:
    """Verdict plus checkable evidence.

    ``peo`` (chordal case) lists the vertices so that each one's later
    neighbors form a clique; ``bad_cycle`` (non-chordal case) is an induced
    cycle of length at least four.
    """

    chordal: bool
    peo: tuple | None = None
    bad_cycle: tuple | None = None

    def to_json_doc(self):
        if self.chordal:
            return {"chordal": True, "peo": list(self.peo)}
        return {"chordal": False, "bad_cycle": list(self.bad_cycle)}


def lex_bfs(L: FlagComplex) -> tuple:
    """Lexicographic BFS visit order; ties broken by declaration order.

    Partition refinement (Rose-Tarjan-Lueker): the unvisited vertices form
    a list of classes of equal label, largest label first, each kept in
    declaration order. Visiting ``v`` moves its unvisited neighbors of each
    class into a new class just ahead of it. Every vertex and every edge is
    handled a bounded number of times.
    """
    verts = L.vertices
    adj = L._adj
    # Neighbor lists in declaration order, so each new class is born sorted.
    ordered = {v: [] for v in verts}
    for u in verts:
        for w in adj[u]:
            ordered[w].append(u)
    # Class c: members[c] (declaration order, with stale entries of vertices
    # that left), start[c] (first possibly live entry), size[c] (live count),
    # prev[c]/nxt[c] (neighbors in the class list). where[v] is v's class,
    # or -1 once visited.
    members = [list(verts)]
    start = [0]
    size = [len(verts)]
    prev = [-1]
    nxt = [-1]
    head = 0 if verts else -1
    where = dict.fromkeys(verts, 0)

    def unlink(c):
        nonlocal head
        p, q = prev[c], nxt[c]
        if p < 0:
            head = q
        else:
            nxt[p] = q
        if q >= 0:
            prev[q] = p

    order = []
    while head >= 0:
        c = head
        row = members[c]
        i = start[c]
        while where[row[i]] != c:
            i += 1
        v = row[i]
        start[c] = i + 1
        where[v] = -1
        order.append(v)
        size[c] -= 1
        if not size[c]:
            unlink(c)
        split = {}
        for w in ordered[v]:
            x = where[w]
            if x < 0:
                continue
            y = split.get(x)
            if y is None:
                y = split[x] = len(members)
                members.append([])
                start.append(0)
                size.append(0)
                p = prev[x]
                prev.append(p)
                nxt.append(x)
                prev[x] = y
                if p < 0:
                    head = y
                else:
                    nxt[p] = y
            members[y].append(w)
            size[y] += 1
            where[w] = y
            size[x] -= 1
            if not size[x]:
                unlink(x)
    return tuple(order)


def _peo_violation(L, peo):
    """None if ``peo`` is a perfect elimination ordering, else a triple
    (center, u, w) with u, w non-adjacent later neighbors of center."""
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = sorted(
            (w for w in L._adj[v] if pos[w] > pos[v]), key=pos.__getitem__
        )
        if len(later) < 2:
            continue
        u = later[0]
        for w in later[1:]:
            if w not in L._adj[u]:
                return (v, u, w)
    return None


def _canonical_cycle(L, cycle):
    """Rotate to the minimal vertex and orient toward the smaller neighbor."""
    k = len(cycle)
    start = min(range(k), key=lambda i: L.index(cycle[i]))
    fwd = [cycle[(start + i) % k] for i in range(k)]
    bwd = [cycle[(start - i) % k] for i in range(k)]
    return tuple(fwd if L.index(fwd[1]) <= L.index(bwd[1]) else bwd)


def _shortest_avoiding_path(L, a, b, forbidden):
    """BFS shortest a-b path avoiding ``forbidden``; None if disconnected."""
    if a in forbidden or b in forbidden:
        return None
    parent = {a: None}
    queue = [a]
    while queue:
        nxt = []
        for u in queue:
            for w in L.sorted(L._adj[u]):
                if w in forbidden or w in parent:
                    continue
                parent[w] = u
                if w == b:
                    path = [b]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                nxt.append(w)
        queue = nxt
    return None


def _hole_from_triple(L, center, a, b):
    """Induced cycle through a-center-b, or None.

    A shortest a-b path outside N[center] (except at its ends) is chordless,
    so closing it through the center gives a hole.
    """
    forbidden = (set(L._adj[center]) | {center}) - {a, b}
    path = _shortest_avoiding_path(L, a, b, forbidden)
    if path is None:
        return None
    return _canonical_cycle(L, [center] + path)


def _find_hole(L, hint=None):
    if hint is not None:
        center, a, b = hint
        cycle = _hole_from_triple(L, center, a, b)
        if cycle is not None:
            return cycle
    for center in L.vertices:
        nbrs = L.neighbors(center)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if b in L._adj[a]:
                    continue
                cycle = _hole_from_triple(L, center, a, b)
                if cycle is not None:
                    return cycle
    raise AssertionError("no induced cycle found despite failed elimination order")


def is_chordal(L: FlagComplex) -> ChordalityWitness:
    """Chordality verdict with a verified witness.

    The candidate ordering comes from lex-BFS (reversed visit order); the
    elimination check, not the search, is what decides. On failure the
    failing triple is walked to an induced cycle of length >= 4. The
    witness is computed once per complex and then reused.
    """
    return L._cached("chordality", _chordality)


def _chordality(L):
    peo = tuple(reversed(lex_bfs(L)))
    bad = _peo_violation(L, peo)
    if bad is None:
        return ChordalityWitness(True, peo=peo)
    return ChordalityWitness(False, bad_cycle=_find_hole(L, hint=bad))


def require_chordal(L: FlagComplex) -> ChordalityWitness:
    w = is_chordal(L)
    if not w.chordal:
        raise NotChordalError(
            "complex contains an induced cycle of length >= 4",
            cycle=list(w.bad_cycle),
        )
    return w


# -- separators ---------------------------------------------------------------


def _separates(L, blocked, k0, k1):
    """True if no path joins k0 to k1 outside ``blocked``."""
    seen = set(k0)
    stack = [v for v in k0]
    while stack:
        u = stack.pop()
        for w in L._adj[u]:
            if w in blocked or w in seen:
                continue
            if w in k1:
                return False
            seen.add(w)
            stack.append(w)
    return True


def find_separating_clique(L: FlagComplex, k0, k1) -> tuple:
    """A clique whose removal puts ``k0`` and ``k1`` in different components.

    Deterministic and inclusion-minimal: shrink N(k0) toward each side
    (neighborhood of the reaching components), then drop vertices greedily in
    declaration order. In a connected chordal complex the result is a clique
    whenever ``k0`` and ``k1`` are connected subcomplexes.
    """
    k0 = set(L.sorted(k0))
    k1 = set(L.sorted(k1))
    if not k0 or not k1:
        raise InvalidInput("separator endpoints must be nonempty")
    if k0 & k1:
        raise InvalidInput("separator endpoints intersect")
    for a in k0:
        for b in L._adj[a]:
            if b in k1:
                raise InvalidInput(f"endpoints are adjacent via {a!r}-{b!r}")
    if not L.is_connected():
        raise DisconnectedError("separator search requires a connected complex")
    require_chordal(L)

    sep = set()
    for v in k0:
        sep.update(L._adj[v])
    sep -= k0

    def shrink_toward(target):
        reach = set(target)
        stack = list(target)
        while stack:
            u = stack.pop()
            for w in L._adj[u]:
                if w in sep or w in reach:
                    continue
                reach.add(w)
                stack.append(w)
        return {s for s in sep if any(w in reach for w in L._adj[s])}

    sep = shrink_toward(k1)
    sep = shrink_toward(k0)
    for s in L.sorted(sep):
        smaller = sep - {s}
        if _separates(L, smaller, k0, k1):
            sep = smaller
    result = L.sorted(sep)
    for i, a in enumerate(result):
        for b in result[i + 1 :]:
            if b not in L._adj[a]:
                raise NoCliqueSeparatorError(
                    "minimal separator is not a clique (disconnected endpoints?)",
                    separator=list(result),
                )
    return result


# -- clique trees --------------------------------------------------------------


def clique_tree(L: FlagComplex, cap=None):
    """Maximal cliques and a junction tree over them.

    Returns ``(cliques, tree_edges)`` where ``tree_edges`` are pairs of
    clique indices. The tree is a maximum-weight spanning tree of the clique
    intersection graph (Kruskal, deterministic tie-breaking), which gives the
    running-intersection property; all separators are nonempty because the
    complex is connected.
    """
    if not L.is_connected():
        raise DisconnectedError("clique tree requires a connected complex")
    require_chordal(L)
    cliques = L.maximal_cliques(cap)
    sets = [set(c) for c in cliques]
    candidates = []
    for i in range(len(cliques)):
        for j in range(i + 1, len(cliques)):
            w = len(sets[i] & sets[j])
            if w:
                candidates.append((-w, i, j))
    candidates.sort()
    parent = list(range(len(cliques)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree_edges = []
    for _, i, j in candidates:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree_edges.append((i, j))
    if len(tree_edges) != len(cliques) - 1:
        raise AssertionError("clique intersection graph of a connected complex is connected")
    return cliques, tree_edges
