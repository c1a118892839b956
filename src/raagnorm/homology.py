"""Reduced rational homology of flag complexes, by exact boundary ranks.

All linear algebra is exact: boundary matrices are integer matrices and
ranks come from echelon insertion on sparse integer rows, the standard
reduction of simplicial boundary matrices (Edelsbrunner-Letscher-Zomorodian;
Zomorodian-Carlsson), kept integral by gcd-scaled row combinations and
division by each reduced row's content. No floating point, no fractions
and no modular arithmetic anywhere.

``reduced_betti`` reduces the boundary maps from the top dimension down
and uses clearing (Chen-Kerber, "Persistent homology computation with a
twist", 2011): a d-simplex that is the low (largest column) of a reduced
row of the boundary map from dimension d+1 carries a d-cycle whose largest
simplex it is, so its own boundary is a combination of the boundaries of
earlier d-simplices. Its row is skipped and never built; the rank does not
change.

The rows that are not cleared are built lazily. A level lists its simplices
lexicographically, and the face of a simplex omitting an earlier position
comes later, so the low of a d-simplex's row is the face omitting its first
vertex (its first vertex other than the apex, in a star), found without
building the row. A simplex whose low is free when it arrives is placed
there unbuilt; its row is built only if a later row reduces against it. Only
a simplex whose low is taken has its row built to be reduced. The order of
the reduction and every pivot row are those of the eager reduction, so the
lows, ranks and Betti numbers are too. Ripser (Bauer, "Ripser: efficient
computation of Vietoris-Rips persistence barcodes", 2021) skips the same
work for its apparent and emergent pairs. On the ``dense_homology``
benchmark's complexes and their links, 92% of the uncleared rows land on a
free low at once, and 16% are ever built.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import gcd

from ._record import Record
from .complexes import FlagComplex


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
    pivots, placed = _echelon(filter(None, nonzero), max, _as_is)
    pivots.update(placed)
    return pivots


def _as_is(row):
    return row


def _echelon(items, low, build):
    """Echelon insertion of the rows ``build(item)``, in the order of
    ``items``, where ``low(item)`` is the leading column of that row.

    An item whose low is free is placed there unbuilt. Its row is built only
    when a later row reduces against it, and a row whose low is taken is
    built to be reduced. Returns ``(pivots, placed)``: the built pivot rows
    and the items still unbuilt, each keyed by its low. Their keys together
    are the lows of the reduced matrix.
    """
    pivots = {}
    placed = {}
    for item in items:
        col = low(item)
        if col not in pivots and col not in placed:
            placed[col] = item
            continue
        r = build(item)
        while True:
            p = pivots.get(col)
            if p is None:
                if col not in placed:
                    pivots[col] = r
                    break
                p = pivots[col] = build(placed.pop(col))
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
    return pivots, placed


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


def boundary_rows(levels, d, cleared=(), apex=None):
    """Columns of the d-th boundary map as sparse rows over (d-1)-simplices.

    Simplices are index-sorted tuples; the sign of the face omitting
    position i is (-1)^i. Rows at the positions in ``cleared`` are not
    built. With an ``apex``, the levels are the star of that vertex (see
    :func:`link_betti`) and the face omitting it is skipped.
    """
    face_index = {s: i for i, s in enumerate(levels[d - 1])}
    return [
        _boundary_row(s, face_index, apex)
        for k, s in enumerate(levels[d])
        if k not in cleared
    ]


def _boundary_row(s, face_index, apex):
    row = {}
    for i, w in enumerate(s):
        if w != apex:
            row[face_index[s[:i] + s[i + 1 :]]] = -1 if i % 2 else 1
    return row


def reduced_betti(L: FlagComplex) -> ReducedBettiVector:
    """Exact reduced Betti numbers from augmented boundary matrices.

    Computed once per complex and kept on it.
    """
    return L._cached("reduced_betti", lambda K: _reduced_betti(K.simplices_by_dim()))


def _reduced_betti(levels, apex=None):
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

        # The faces of a simplex omitting earlier positions come later in
        # the lexicographic level, so its low omits the first non-apex one.
        def low(s):
            return face_index[s[:1] + s[2:] if s[0] == apex else s[1:]]

        def build(s):
            return _boundary_row(s, face_index, apex)

        pivots, placed = _echelon(
            (s for k, s in enumerate(levels[d]) if k not in cleared), low, build
        )
        cleared = pivots.keys() | placed.keys()
        ranks[d] = len(cleared)
    betti = [0] * (top + 2)
    for d in range(top + 1):
        betti[d + 1] = len(levels[d]) - ranks[d] - ranks[d + 1]
    return ReducedBettiVector(tuple(betti), top)


def euler_raag(L: FlagComplex) -> int:
    """Euler characteristic of the group defined by ``L``.

    Equals 1 minus the alternating simplex count of ``L``; the empty complex
    gives 1 (trivial group), a single clique gives 0, an edgeless complex on
    n vertices gives 1 - n. Reads the f-vector kept on ``L``, enumerating
    the simplices only if no enumeration has run.
    """
    return 1 - sum((-1) ** d * f for d, f in enumerate(L.f_vector()))


def link_euler(L: FlagComplex) -> dict:
    """``{v: euler_raag(L.link(v))}`` for every vertex, from one enumeration
    of ``L`` (a star count) instead of one per link.

    The (d-1)-simplices of the link of ``v`` are exactly the d-simplices of
    ``L`` through ``v``, so the link's group Euler characteristic is the sum
    over simplices containing ``v`` of (-1)^dim (the vertex itself counts
    +1 for the empty simplex of the link). Each level adds its sign once per
    vertex of each of its simplices. Computed once per complex and kept on
    it; the caller gets a copy.
    """
    return dict(L._cached("link_euler", _link_euler))


def _link_euler(L):
    chi = dict.fromkeys(L.vertices, 0)
    sign = 1
    for level in L.simplices_by_dim():
        for v, count in Counter(chain.from_iterable(level)).items():
            chi[v] += sign * count
        sign = -sign
    return chi


def link_betti(L: FlagComplex) -> dict:
    """``{v: reduced_betti(L.link(v))}`` for every vertex, from one
    enumeration of ``L`` (a star read-off) instead of one per link.

    The (d-1)-simplices of the link of ``v`` are exactly the d-simplices of
    ``L`` through ``v``, so each simplex of ``L`` is filed, as a reference,
    under every vertex it holds. Each link is reduced from its star as
    :func:`reduced_betti` reduces a complex, skipping the face that omits
    ``v``. The other faces keep the signs of ``L``, which differ from the
    link's own by a sign per simplex, (-1)^(dimension + position of ``v``):
    a diagonal change of basis, so no rank changes. Computed once per
    complex and kept on it; the caller gets a copy.
    """
    return dict(L._cached("link_betti", _link_betti))


def _link_betti(L):
    star = {v: [] for v in L.vertices}
    for level in L.simplices_by_dim()[1:]:
        through = {}
        for s in level:
            for v in s:
                through.setdefault(v, []).append(s)
        # A vertex of a d-simplex lies in a (d-1)-simplex, so its star
        # already holds d-1 levels and this one lands at link dimension d-1.
        for v, simplices in through.items():
            star[v].append(simplices)
    # Popped, so each star is released once its link is reduced.
    return {v: _reduced_betti(star.pop(v), v) for v in L.vertices}
