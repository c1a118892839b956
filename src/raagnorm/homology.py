"""Reduced rational homology of flag complexes, by exact boundary ranks.

``reduced_betti`` and ``link_betti`` reduce the core of a complex or of a
vertex link, not the complex itself. A vertex whose closed neighbourhood
lies inside a neighbour's is dominated, and deleting it is a strong
collapse, which changes no Betti number (Barmak-Minian, "Strong homotopy
types, nerves and collapses", 2012; Boissonnat-Pritam-Pareek, "Strong
collapse for persistence", 2018). Deleting dominated vertices until none is
left gives the core, unique up to isomorphism. A connected chordal complex
collapses to one vertex and a planted hole to about the hole; in 50
``dense_homology`` benchmark cases (seed 1801), 2210 of the 2450 cores are
a single vertex and none has more than 8 vertices. The top dimension,
which a core loses, comes from the f-vector for a complex and from the
largest clique through each vertex, found by the star pass, for its links.

Ranks are exact: boundary matrices are integer matrices, reduced by
echelon insertion on sparse integer rows (Edelsbrunner-Letscher-Zomorodian;
Zomorodian-Carlsson), kept integral by gcd-scaled row combinations and
division by each reduced row's content. The maps are reduced from the top
dimension down with clearing (Chen-Kerber, "Persistent homology
computation with a twist", 2011): a d-simplex that is the low (largest
column) of a reduced row one dimension up is the largest simplex of a
d-cycle, so its row is a combination of earlier rows and is never built.
Every other row is built: cores are small, so skipping more rows would
save little. Clearing holds for any order of the levels, as long as a
simplex has one index as a row and as a column, so the reduction does not
depend on the order in which the levels list their simplices.

Euler characteristics need counts alone. ``euler_raag`` reads the f-vector,
and ``link_euler`` reads every vertex link's off the star pass
(:func:`raagnorm.complexes._stars`), one walk of the complex's simplices
that builds no simplex tuple, records the f-vector and also gives each
link's top dimension for ``link_betti``. The L2-Euler path
(:func:`raagnorm.l2.l2_euler_kernel`) counts its links its own way.

Kept on each complex: the f-vector, the star pass, the reduced Betti
numbers and those of every vertex link; never a simplex list or a core.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from ._record import Record
from .complexes import FlagComplex, _stars


def rank_sparse_int(rows) -> int:
    """Rank over Q of an integer matrix given as sparse rows (dict col->int).

    Echelon insertion: one pivot row is kept per leading column, taken as
    a row's largest column index (its "low", as in the standard reduction
    of boundary matrices). Each incoming row is reduced against the pivot
    row of its leading column by the integer combination
    a*row - b*pivot_row, where a and b are the two leading entries divided
    by their gcd, and the result is divided by its content (the gcd of its
    entries). The row either empties (it was dependent) or reaches a free
    leading column and is kept there. The rank is the number of kept rows.
    Each step touches one incoming row and one pivot row.
    """
    return len(_pivots(rows))


def _pivots(rows):
    """Echelon insertion of ``rows``; maps each leading column ("low") to
    its pivot row. Rows are read, never written: a reduction builds a new
    dict."""
    nonzero = (r if all(r.values()) else {j: x for j, x in r.items() if x} for r in rows)
    return _echelon(filter(None, nonzero))


def _echelon(rows):
    """Echelon insertion of the nonzero ``rows``, in order; maps each low
    (largest column) of the reduced matrix to its pivot row.

    A row whose low is free is kept there. A row whose low is taken is
    reduced against that pivot row until it empties or reaches a free low.
    """
    pivots = {}
    for r in rows:
        col = max(r)
        while col in pivots:
            p = pivots[col]
            a, b = p[col], r[col]
            g = gcd(a, b) if a > 0 else -gcd(a, b)
            a, b = a // g, b // g
            if a == 1:
                r = dict(r)
                del r[col]
            else:
                r = {j: a * x for j, x in r.items() if j != col}
            for j, y in p.items():
                if j != col:
                    x = r.get(j, 0) - b * y
                    if x:
                        r[j] = x
                    else:
                        del r[j]
            if not r:
                break
            c = gcd(*r.values())
            if c > 1:
                r = {j: x // c for j, x in r.items()}
            col = max(r)
        else:
            pivots[col] = r
    return pivots


class ReducedBettiVector(Record):
    """Ranks of reduced homology over Q, indexed from dimension -1 upward.

    ``betti[0]`` is the rank in dimension -1 (1 exactly for the empty
    complex); ``betti[d+1]`` is the rank in dimension d. ``top_dim`` is the
    largest simplex dimension (-1 for the empty complex).
    """

    betti: tuple
    top_dim: int

    def rank(self, dim: int) -> int:
        i = dim + 1
        if 0 <= i < len(self.betti):
            return self.betti[i]
        return 0

    def reduced_euler(self) -> int:
        """Alternating sum over dimensions, i.e. euler characteristic - 1."""
        return sum(b if i % 2 else -b for i, b in enumerate(self.betti))

    def to_json_doc(self):
        return {str(i - 1): b for i, b in enumerate(self.betti)}


def _boundary_row(s, face_index):
    return {face_index[s[:i] + s[i + 1 :]]: -1 if i % 2 else 1 for i in range(len(s))}


def reduced_betti(L: FlagComplex) -> ReducedBettiVector:
    """Exact reduced Betti numbers, from the boundary matrices of the core
    of ``L`` (see :func:`_core`), padded with zeros up to the top dimension
    of ``L``.

    The top dimension comes from the f-vector, which charges the simplex
    budget before anything is built; ``L`` itself is not enumerated.
    Computed once per complex and kept on it.
    """
    return L._cached(
        "reduced_betti", lambda K: _core_betti(K, set(K.vertices), len(K.f_vector()) - 1)
    )


def _core_betti(L, vs, top):
    """Reduced Betti vector of the subcomplex of ``L`` induced on the set
    ``vs``, whose top dimension is ``top``: its core's, padded with zeros."""
    core = _core(L, vs)
    # Most cores are a single vertex, which is acyclic.
    betti = (0, 0) if len(core) == 1 else _reduced_betti(core.simplices_by_dim()).betti
    return ReducedBettiVector(betti + (0,) * (top + 2 - len(betti)), top)


def _reduced_betti(levels):
    if not levels:
        return ReducedBettiVector((1,), -1)
    top = len(levels) - 1
    # ranks[d] = rank of the boundary map leaving dimension d; the
    # augmentation sends every vertex to the empty simplex. From the top
    # down, the lows of one map are the rows the next one skips.
    ranks = [0] * (top + 2)
    ranks[0] = 1
    cleared = ()
    for d in range(top, 0, -1):
        face_index = {s: i for i, s in enumerate(levels[d - 1])}
        rows = (
            _boundary_row(s, face_index) for k, s in enumerate(levels[d]) if k not in cleared
        )
        cleared = _echelon(rows).keys()
        ranks[d] = len(cleared)
    betti = [0] * (top + 2)
    for d in range(top + 1):
        betti[d + 1] = len(levels[d]) - ranks[d] - ranks[d + 1]
    return ReducedBettiVector(tuple(betti), top)


def _core(L, vs):
    """The core of the subcomplex of ``L`` induced on the vertex set ``vs``
    (not checked), as a complex in declaration order: what is left once
    dominated vertices (see the module docstring) are deleted one at a time
    until none is left.

    Only deleting a neighbour of ``v`` can make ``v`` dominated, so each
    deletion queues the deleted vertex's neighbours alone. The queue pops
    the lowest degree first, ties in declaration order, so which vertices
    survive depends on the complex alone. A vertex waits in the queue at
    most once, under its degree when it was queued.
    """
    adj = L._adj
    idx = L._index
    verts = L.vertices
    n = len(verts)
    # Closed neighbourhoods, so that u dominates v when nbrs[v] <= nbrs[u].
    nbrs = {}
    for v in vs:
        nbrs[v] = near = adj[v] & vs
        near.add(v)
    # A key degree * n + position orders by degree, then declaration order.
    heap = [len(near) * n + idx[v] for v, near in nbrs.items()]
    heapify(heap)
    queued = set(nbrs)
    while heap:
        v = verts[heappop(heap) % n]
        queued.remove(v)
        if not _dominated(v, nbrs):
            continue
        near = nbrs.pop(v)
        near.remove(v)
        for w in near:
            rest = nbrs[w]
            rest.remove(v)
            if w not in queued:
                queued.add(w)
                heappush(heap, len(rest) * n + idx[w])
    for v, near in nbrs.items():
        near.remove(v)
    return FlagComplex._from_adjacency(tuple(sorted(nbrs, key=idx.__getitem__)), nbrs)


def _dominated(v, nbrs):
    """Whether another vertex's closed neighbourhood holds that of ``v``,
    in the graph ``nbrs`` (vertex -> closed neighbourhood)."""
    near = nbrs[v]
    for u in near:
        if u != v and near <= nbrs[u]:
            return True
    return False


def euler_raag(L: FlagComplex) -> int:
    """Euler characteristic of the group defined by ``L``.

    Equals 1 minus the alternating simplex count of ``L``; the empty complex
    gives 1 (trivial group), a single clique gives 0, an edgeless complex on
    n vertices gives 1 - n. Reads the f-vector kept on ``L``, enumerating
    the simplices only if no enumeration has run.
    """
    return 1 - sum((-1) ** d * f for d, f in enumerate(L.f_vector()))


def link_euler(L: FlagComplex) -> dict:
    """``{v: euler_raag(L.link(v))}`` for every vertex, from one walk of the
    simplices of ``L`` (a star count) instead of one count per link.

    The (d-1)-simplices of the link of ``v`` are exactly the d-simplices of
    ``L`` through ``v``, so the link's group Euler characteristic is the sum
    over simplices containing ``v`` of (-1)^dim (the vertex itself counts
    +1 for the empty simplex of the link). The star pass
    (:func:`raagnorm.complexes._stars`) counts them all at once, builds no
    simplex and charges the simplex budget. Kept on ``L``; the caller gets a
    copy.
    """
    return dict(_stars(L)[0])


def link_betti(L: FlagComplex) -> dict:
    """``{v: reduced_betti(L.link(v))}`` for every vertex, each from the
    core of its link.

    The star pass (:func:`raagnorm.complexes._stars`) charges the simplex
    budget first, so a complex over budget keeps nothing, as in
    :func:`reduced_betti`, and gives the largest clique through ``v``,
    whose size minus two is the link's top dimension. Each link is collapsed
    on ``L``'s adjacency restricted to the neighbours of ``v`` (:func:`_core`);
    no link is built, only its core. Kept on ``L``; the caller gets a copy.
    """
    return dict(L._cached("link_betti", _link_betti))


def _link_betti(L):
    size = _stars(L)[1]
    adj = L._adj
    return {v: _core_betti(L, adj[v], size[v] - 2) for v in L.vertices}
