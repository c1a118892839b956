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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .complexes import FlagComplex


def rank_sparse_int(rows, ncols=None) -> int:
    """Rank over Q of an integer matrix given as sparse rows (dict col->int).

    Echelon insertion: one pivot row is kept per leading column, taken as
    a row's largest column index (its "low", as in the standard reduction
    of boundary matrices). Each incoming row is reduced against the pivot
    row of its leading column by the integer combination
    a*row - b*pivot_row, where a and b are the two leading entries divided
    by their gcd, and the result is divided by its content (the gcd of its
    entries). The row either empties (it was dependent) or reaches a free
    leading column and is kept there. The rank is the number of kept rows.
    Each step touches one incoming row and one pivot row; ``ncols`` is
    accepted for symmetry and not needed.
    """
    return len(_pivots(rows))


def _pivots(rows):
    """Echelon insertion of ``rows``; maps each leading column ("low") to
    its pivot row. Rows are read, never written: a reduction builds a new
    dict."""
    pivots = {}
    for row in rows:
        r = row if all(row.values()) else {j: x for j, x in row.items() if x}
        while r:
            col = max(r)
            p = pivots.get(col)
            if p is None:
                pivots[col] = r
                break
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
            c = gcd(*r.values())
            if c > 1:
                r = {j: x // c for j, x in r.items()}
    return pivots


@dataclass(frozen=True)
class ReducedBettiVector:
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


def boundary_rows(levels, d, cleared=()):
    """Columns of the d-th boundary map as sparse rows over (d-1)-simplices.

    Simplices are index-sorted tuples; the sign of the face omitting
    position i is (-1)^i. Rows at the positions in ``cleared`` are not
    built.
    """
    face_index = {s: i for i, s in enumerate(levels[d - 1])}
    rows = []
    for k, s in enumerate(levels[d]):
        if k in cleared:
            continue
        row = {}
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            row[face_index[face]] = -1 if i % 2 else 1
        rows.append(row)
    return rows


def reduced_betti(L: FlagComplex, cap=None) -> ReducedBettiVector:
    """Exact reduced Betti numbers from augmented boundary matrices.

    Computed once per complex and kept on it; the cap is checked on every
    call.
    """
    L._check_cap(cap)
    return L._cached("reduced_betti", lambda K: _reduced_betti(K.simplices_by_dim(cap)))


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
        cleared = set(_pivots(boundary_rows(levels, d, cleared)))
        ranks[d] = len(cleared)
    betti = [0] * (top + 2)
    for d in range(top + 1):
        betti[d + 1] = len(levels[d]) - ranks[d] - ranks[d + 1]
    return ReducedBettiVector(tuple(betti), top)


def euler_raag(L: FlagComplex, cap=None) -> int:
    """Euler characteristic of the group defined by ``L``.

    Equals 1 minus the alternating simplex count of ``L``; the empty complex
    gives 1 (trivial group), a single clique gives 0, an edgeless complex on
    n vertices gives 1 - n. Reads the f-vector kept on ``L``, enumerating
    the simplices only if no enumeration has run.
    """
    return 1 - sum((-1) ** d * f for d, f in enumerate(L.f_vector(cap)))
