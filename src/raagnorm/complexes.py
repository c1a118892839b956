"""Finite simplicial graphs with their implicit flag completion.

A :class:`FlagComplex` is a finite simple graph; its simplices are exactly
the cliques of the edge graph, so the flag completion is never materialized.
Vertex identifiers are opaque strings and the declaration order is the one
total order used everywhere: simplex orientation, tie-breaking, component
order, witness normalization.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain

from ._record import Record
from .errors import (
    CliqueCapError,
    DisconnectedError,
    InvalidInput,
    NotChordalError,
    ParseError,
    UnknownVertexError,
)

# Most simplices one clique enumeration may reach. The complete graph on 20
# vertices has 2**20 - 1 and is the costliest complex this admits.
SIMPLEX_BUDGET = 2**20


def _check_budget(count):
    """Raise :class:`CliqueCapError` once ``count`` simplices pass the budget,
    read at call time."""
    if count > SIMPLEX_BUDGET:
        raise CliqueCapError(
            f"clique enumeration passes the simplex budget {SIMPLEX_BUDGET}",
            budget=SIMPLEX_BUDGET,
        )


class FlagComplex:
    """A finite simplicial graph; simplices are the cliques of the graph.

    Instances are immutable and hashable. The graph is kept once, as the
    vertex sequence with each vertex's position and its set of neighbours;
    :meth:`edges` and the hash are derived from that adjacency. Equality
    compares the vertex sequence (order matters) and the adjacency, that
    is, the edge set. Only the public constructor checks its input; an
    induced subcomplex, a link, a component or a core (see
    :mod:`raagnorm.homology`) is read off the already checked adjacency of
    its parent, and :func:`raagnorm.verify.random_chordal` builds its
    adjacency as it attaches vertices. These invariants are computed on
    first use and kept on the instance: the chordality witness, the
    component vertex sets, the cut ranks, the maximal cliques with a clique
    tree, the f-vector (simplex count per dimension), the star pass
    (:func:`_stars`: each vertex link's Euler characteristic and the largest
    clique through each vertex), the reduced Betti numbers from the core
    (:func:`raagnorm.homology.reduced_betti`) and those of every vertex link
    (:func:`raagnorm.homology.link_betti`). One walk of the simplices that
    builds none of them (:func:`_clique_walk`) serves the star pass and
    :meth:`simplices_by_dim`, and records the f-vector whenever it runs. A
    link built by :func:`raagnorm.l2.l2_euler_kernel` keeps the f-vector
    that path counts for it. Only results are kept, never the simplex lists
    or the cores.
    The cache takes no part in equality, hashing or ``repr``.
    """

    __slots__ = ("vertices", "_index", "_adj", "_cache")

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
        for pos, e in enumerate(edges):
            if not isinstance(e, (tuple, list)) or len(e) != 2:
                raise ParseError(f"edges[{pos}]: expected a pair of vertices")
            a, b = e
            # Membership raises TypeError for an unhashable endpoint. The
            # type check runs only after a failed test, so a valid edge
            # costs one membership test per endpoint.
            try:
                declared = a in index and b in index
            except TypeError:
                declared = False
            if not declared:
                for x in (a, b):
                    if not isinstance(x, str):
                        raise ParseError(f"edges[{pos}]: endpoints must be strings")
                    if x not in index:
                        raise ParseError(f"edges[{pos}]: undeclared endpoint {x!r}")
            if a == b:
                raise ParseError(f"edges[{pos}]: self-loop at {a!r}")
            if b in adj[a]:
                raise ParseError(f"edges[{pos}]: duplicate edge {a!r}-{b!r}")
            adj[a].add(b)
            adj[b].add(a)
        self.vertices = verts
        self._index = index
        self._adj = adj
        self._cache = None

    @classmethod
    def _from_adjacency(cls, verts, adj):
        """A complex on the distinct vertex strings ``verts`` whose
        adjacency ``adj`` is already symmetric, loop-free and closed over
        ``verts``: the parse checks are not repeated."""
        K = cls.__new__(cls)
        K.vertices = verts
        K._index = dict(zip(verts, range(len(verts))))
        K._adj = adj
        K._cache = None
        return K

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
        return self.vertices == other.vertices and self._adj == other._adj

    def __hash__(self):
        return hash((self.vertices, frozenset(self._later_pairs())))

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

    def _later_pairs(self):
        """Each edge once, as the index-ordered pair ``(v, w)``."""
        idx = self._index
        for v, near in self._adj.items():
            i = idx[v]
            for w in near:
                if idx[w] > i:
                    yield v, w

    def edges(self):
        """All edges as index-ordered pairs, lexicographically sorted."""
        idx = self._index
        return sorted(self._later_pairs(), key=lambda e: (idx[e[0]], idx[e[1]]))

    def to_json_doc(self):
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges()]}

    # -- subcomplexes ------------------------------------------------------

    def induced(self, vs):
        """Induced subcomplex on ``vs``; vertex order is inherited.

        Read off this complex's adjacency, ``adj[v] & keep`` per kept
        vertex, in time proportional to the result (plus sorting it); the
        parse checks are not repeated.
        """
        if iter(vs) is vs:
            vs = tuple(vs)  # an iterator; the error below reads it again
        keep = set(vs)
        if not self._index.keys() >= keep:
            for v in vs:
                self.index(v)  # raises for the first unknown vertex
        adj = self._adj
        verts = tuple(sorted(keep, key=self._index.__getitem__))
        return FlagComplex._from_adjacency(verts, {v: adj[v] & keep for v in verts})

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

    def maximal_cliques(self):
        """Every maximal clique as an index-sorted tuple, lexicographically;
        chordal complexes only (see :func:`clique_tree`)."""
        return list(self._cached("clique_tree", _clique_tree)[0])

    def simplices_by_dim(self):
        """All simplices, grouped by dimension, each lexicographically sorted.

        Level ``d`` holds the (d+1)-cliques as index-sorted tuples; the empty
        complex yields an empty list. Each level above the vertices is built
        from one yield of :func:`_clique_walk`, after the walk has charged
        it to :data:`SIMPLEX_BUDGET`: the tuple of each node that has
        children is its parent's plus its last vertex, and its children
        extend it by each of its candidates. The walk records the f-vector
        (see :meth:`f_vector`); the levels themselves are not kept.
        """
        levels = []
        nodes = [()]  # the yield before the first holds the empty simplex
        for lasts, parents, cands in _clique_walk(self):
            nodes = [nodes[p] + (w,) for w, p in zip(lasts, parents)]
            levels.append([s + (w,) for s, cand in zip(nodes, cands) for w in cand])
        if self.vertices:  # built last, so after the walk charged it
            levels.insert(0, [(v,) for v in self.vertices])
        return levels

    def f_vector(self):
        """Number of simplices in each dimension, from dimension 0 up.

        Recorded by every walk of the simplices (:func:`_clique_walk`). When
        none has run yet, the star pass (:func:`_stars`) runs one, which
        counts each level from the candidate lists and builds no simplex.
        """
        memo = self._memo()
        if "f_vector" not in memo:
            _stars(self)
        return memo["f_vector"]


# -- cached structure ---------------------------------------------------------


def _later_neighbours(adj, order, pos):
    """Each vertex's neighbours that come after it in ``order``, in that
    order; ``pos`` maps each vertex to its place in ``order``."""
    later = {v: [] for v in order}
    for u in order:
        p = pos[u]
        for w in adj[u]:
            if pos[w] < p:
                later[w].append(u)
    return later


def _clique_walk(K):
    """Walk the simplices of ``K`` level by level, building none of them.

    Each simplex is a node of the Chiba-Nishizeki tree: its children extend
    it by each of its candidates, the common later neighbours of its
    vertices in declaration order, and the child ending in ``w`` keeps the
    candidates after ``w`` that are adjacent to ``w``. For each level from
    dimension 0 up, the walk yields the nodes that have children as three
    lists: each node's last vertex, its parent's place in the previous
    yield (0, the empty simplex, for a vertex) and its candidates. The
    running simplex count is charged to :data:`SIMPLEX_BUDGET`, the vertex
    count first and then each level before it is built, so a walk over
    budget stops early; the f-vector is recorded on ``K`` only when the
    walk finishes.
    """
    adj = K._adj
    verts = K.vertices
    total = len(verts)
    _check_budget(total)
    counts = [total] if verts else []
    later = _later_neighbours(adj, verts, K._index)
    lasts = [v for v in verts if later[v]]
    parents = [0] * len(lasts)
    cands = [later[v] for v in lasts]
    while cands:
        size = sum(map(len, cands))
        total += size
        _check_budget(total)
        counts.append(size)
        yield lasts, parents, cands
        lasts, parents, nxt = [], [], []
        add_last, add_parent, add_cand = lasts.append, parents.append, nxt.append
        for j, cand in enumerate(cands):
            # The last candidate has no later candidates, so no children.
            for i in range(len(cand) - 1):
                w = cand[i]
                near = adj[w]
                child = [x for x in cand[i + 1 :] if x in near]
                if child:
                    add_last(w)
                    add_parent(j)
                    add_cand(child)
        cands = nxt
    K._memo()["f_vector"] = tuple(counts)


def _stars(K):
    """Two dicts, kept on ``K``: each vertex's star count, which is the group
    Euler characteristic of its link, and the size of the largest clique
    through it.

    The (d-1)-simplices of the link of ``v`` are the d-simplices through
    ``v``, and a simplex holds ``v`` exactly when a node on its path from
    the root of the walk's tree (:func:`_clique_walk`) ends in ``v``, so
    both are read off the subtrees of the nodes ending in ``v``.
    """
    return K._cached("stars", _star_pass)


def _star_pass(K):
    """Drain the walk of ``K`` once (it records the f-vector). Each node's
    own sign and size go to its last vertex, tallied per level; a node with
    children is kept with its last vertex, its parent's place and its
    children's signed count, and :func:`_fold` adds the rest."""
    chi = dict.fromkeys(K.vertices, 1)
    size = dict.fromkeys(K.vertices, 1)
    levels = []
    sign = 1
    for k, (lasts, parents, cands) in enumerate(_clique_walk(K), 2):
        sign = -sign
        levels.append((lasts, parents, [sign * len(c) for c in cands]))
        for w, n in Counter(chain.from_iterable(cands)).items():
            chi[w] += sign * n
            size[w] = k  # the levels grow, so this is the largest yet
    _fold(levels, chi, size)
    return chi, size


def _fold(levels, chi, size):
    """From the top level down, add the signed count of each node kept in
    ``levels`` to its last vertex and to its parent's count, and raise the
    size kept for its last vertex and for its parent to the largest clique
    in its subtree. A node of ``levels[k]`` has children of size k + 2."""
    if not levels:
        return
    deep = [len(levels) + 1] * len(levels[-1][0])
    for k in range(len(levels) - 1, -1, -1):
        lasts, parents, below = levels[k]
        for v, b, d in zip(lasts, below, deep):
            chi[v] += b
            if size[v] < d:
                size[v] = d
        if k:
            up = levels[k - 1][2]
            high = [k + 1] * len(up)
            for p, b, d in zip(parents, below, deep):
                up[p] += b
                if high[p] < d:
                    high[p] = d
            deep = high


def _component_vertex_sets(L, vs=None):
    """Vertex tuples of the components of ``L``, or of the subcomplex of
    ``L`` induced on the vertices ``vs`` (not checked), each in declaration
    order, ordered by minimal vertex. No subcomplex is built."""
    adj = L._adj
    if vs is None:
        order = L.vertices
        inside = adj  # every vertex of L
    else:
        inside = set(vs)
        order = sorted(inside, key=L._index.__getitem__)
    label = {}
    groups = []
    for v in order:
        if v in label:
            continue
        c = len(groups)
        groups.append([])
        label[v] = c
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in label and w in inside:
                    label[w] = c
                    stack.append(w)
    for v in order:
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
        return complex_from_json_doc(load_json(text))
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


class ChordalityWitness(Record):
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
    for v, later in _later_neighbours(L._adj, peo, pos).items():
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


def _find_hole(L, triple):
    """Induced cycle through a-center-b, for the triple (center, a, b) that
    failed the elimination check.

    A shortest a-b path outside N[center] (except at its ends), found by
    breadth-first search, is chordless, so closing it through the center
    gives a hole.
    """
    center, a, b = triple
    forbidden = (L._adj[center] | {center}) - {a, b}
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
                    cycle = [center]
                    while w is not None:
                        cycle.append(w)
                        w = parent[w]
                    return _canonical_cycle(L, cycle)
                nxt.append(w)
        queue = nxt
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
    return ChordalityWitness(False, bad_cycle=_find_hole(L, bad))


def require_chordal(L: FlagComplex) -> ChordalityWitness:
    w = is_chordal(L)
    if not w.chordal:
        raise NotChordalError(
            "complex contains an induced cycle of length >= 4",
            cycle=list(w.bad_cycle),
        )
    return w


# -- cliques ------------------------------------------------------------------


def _is_clique(L, vertices) -> bool:
    """Whether every two positions of ``vertices`` hold adjacent vertices of
    ``L``, after checking that each one is a vertex of ``L``. A repeated
    vertex is not adjacent to itself, so a tuple with one is no clique."""
    vertices = tuple(vertices)
    for v in vertices:
        L.index(v)
    return all(
        L.has_edge(v, w) for i, v in enumerate(vertices) for w in vertices[i + 1 :]
    )


# -- spanning forests ----------------------------------------------------------


def spanning_forest(n, pairs, parent=None) -> int:
    """Number of the ``pairs`` over ``range(n)`` that join two different
    classes (union-find), taken in order: each pair not counted closes a
    cycle. The pairs may stream in; none is kept.

    ``parent`` carries the union-find of an earlier call into this one,
    first grown by the points up to ``n``; by default it starts afresh.
    """
    if parent is None:
        parent = []
    parent.extend(range(len(parent), n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = 0
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            joined += 1
    return joined


# -- clique trees --------------------------------------------------------------


def _clique_tree(L):
    """Maximal cliques, index-sorted and in lexicographic order, and a clique
    forest over them as sorted pairs ``(i, j)``, ``i < j``, read off the kept
    perfect elimination ordering in linear time (Blair-Peyton).

    With C(v) = {v} + later(v), C(v) is a maximal clique unless some earlier
    ``u`` has later(u) == C(v); then ``v`` joins the clique of the first such
    ``u``. Each ``v`` whose first later neighbour ``p`` lies in another
    clique joins the two cliques by an edge with separator later(v).
    """
    peo = require_chordal(L).peo
    idx = L._index
    # Later neighbours in elimination order, so later[v][0] is v's parent.
    later = _later_neighbours(L._adj, peo, {v: i for i, v in enumerate(peo)})
    owner = {}  # vertex -> its clique, index-sorted
    for v in peo:
        if v not in owner:
            owner[v] = tuple(sorted([v] + later[v], key=idx.__getitem__))
        # later(v) lies in C(parent), so equal sizes mean equal sets.
        if later[v] and len(later[v]) == len(later[later[v][0]]) + 1:
            owner.setdefault(later[v][0], owner[v])
    cliques = sorted(set(owner.values()), key=lambda c: [idx[v] for v in c])
    number = {c: i for i, c in enumerate(cliques)}
    edges = []
    for v in peo:
        if later[v]:
            i, j = sorted((number[owner[v]], number[owner[later[v][0]]]))
            if i != j:
                edges.append((i, j))
    return tuple(cliques), tuple(sorted(edges))


def clique_tree(L: FlagComplex):
    """Maximal cliques and a clique tree over them, as lists.

    The tree (see :func:`_clique_tree`) has the running-intersection
    property and depends on the complex alone; all separators are nonempty
    because the complex is connected.
    """
    if not L.is_connected():
        raise DisconnectedError("clique tree requires a connected complex")
    cliques, tree_edges = L._cached("clique_tree", _clique_tree)
    return list(cliques), list(tree_edges)
