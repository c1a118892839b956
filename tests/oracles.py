"""Independent brute-force oracles.

Everything here recomputes results by exhaustive enumeration or dense exact
linear algebra, sharing no code path with the library internals it checks.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def is_clique(L, vs):
    vs = list(vs)
    return all(L.has_edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :])


def brute_maximal_cliques(L):
    """All maximal cliques by subset enumeration (small complexes only)."""
    verts = list(L.vertices)
    cliques = [
        set(c)
        for size in range(1, len(verts) + 1)
        for c in combinations(verts, size)
        if is_clique(L, c)
    ]
    maximal = [c for c in cliques if not any(c < other for other in cliques)]
    return sorted(
        (tuple(sorted(c, key=L.index)) for c in maximal),
        key=lambda t: tuple(L.index(v) for v in t),
    )


def brute_simplices_by_dim(L):
    """Cliques by subset enumeration, one level per size up to the first
    empty one; ``combinations`` of the declaration-ordered vertices lists
    each level in lexicographic order of positions."""
    levels = []
    for size in range(1, len(L.vertices) + 1):
        level = [c for c in combinations(L.vertices, size) if is_clique(L, c)]
        if not level:
            break
        levels.append(level)
    return levels


def clique_counts(L, vs):
    """Number of cliques of each size 1, 2, ... among the vertices ``vs``
    (the f-vector of the subcomplex they induce), by exhaustive search: a
    clique is its first vertex in the order of ``vs`` joined to a clique of
    that vertex's neighbours later in ``vs``. Each clique is visited once,
    so this suits sparse sets of any size."""
    near = {v: set(L.neighbors(v)) for v in vs}
    counts = [0] * (len(near) + 1)

    def count(rest, size):
        counts[size] += 1  # the clique taken so far
        while rest:
            v, rest = rest[0], rest[1:]
            count([w for w in rest if w in near[v]], size + 1)

    count(list(near), 0)
    return tuple(c for c in counts[1:] if c)


def parabolic_euler_and_b1(L, vs):
    """Euler characteristic and first L2-Betti number of the subgroup
    generated by ``vs`` (repeats ignored), from its induced subcomplex: one
    minus the alternating clique count, and the number of components minus
    one (none for the empty set). Small vertex sets only."""
    verts = sorted(set(vs), key=L.index)
    counts = [
        sum(1 for c in combinations(verts, size) if is_clique(L, c))
        for size in range(1, len(verts) + 1)
    ]
    chi = 1 - sum((-1) ** d * f for d, f in enumerate(counts))
    seen = set()
    components = 0
    for s in verts:
        if s in seen:
            continue
        components += 1
        seen.add(s)
        stack = [s]
        while stack:
            u = stack.pop()
            for w in verts:
                if w not in seen and L.has_edge(u, w):
                    seen.add(w)
                    stack.append(w)
    return Fraction(chi), Fraction(max(components - 1, 0))


def induces_cycle(L, vs):
    """True if the induced subgraph on vs is a single cycle of length >= 4."""
    vs = list(vs)
    if len(vs) < 4:
        return False
    degrees = {v: 0 for v in vs}
    edge_count = 0
    for i, a in enumerate(vs):
        for b in vs[i + 1 :]:
            if L.has_edge(a, b):
                degrees[a] += 1
                degrees[b] += 1
                edge_count += 1
    if edge_count != len(vs) or any(d != 2 for d in degrees.values()):
        return False
    # 2-regular with |E| = |V|: connected iff a single cycle
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        u = stack.pop()
        for w in vs:
            if w not in seen and L.has_edge(u, w):
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vs)


def brute_chordal(L):
    """No subset induces a cycle of length >= 4."""
    verts = list(L.vertices)
    for size in range(4, len(verts) + 1):
        for c in combinations(verts, size):
            if induces_cycle(L, c):
                return False
    return True


def recount_cut_rank(L, v):
    """Components left after deleting ``v``, minus one, by a fresh search."""
    seen = {v}
    count = 0
    for s in L.vertices:
        if s in seen:
            continue
        count += 1
        seen.add(s)
        stack = [s]
        while stack:
            u = stack.pop()
            for w in L.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count - 1


def dense_fraction_rank(rows, ncols):
    """Gaussian elimination over Fraction on a dense copy."""
    matrix = []
    for r in rows:
        row = [Fraction(0)] * ncols
        for j, x in r.items():
            row[j] = Fraction(x)
        matrix.append(row)
    rank = 0
    col = 0
    nrows = len(matrix)
    while rank < nrows and col < ncols:
        pivot = next((i for i in range(rank, nrows) if matrix[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        head = matrix[rank][col]
        for i in range(nrows):
            if i != rank and matrix[i][col] != 0:
                factor = matrix[i][col] / head
                matrix[i] = [x - factor * y for x, y in zip(matrix[i], matrix[rank])]
        rank += 1
        col += 1
    return rank


def boundary_rows(levels, d, cleared=()):
    """Columns of the d-th boundary map as sparse rows over (d-1)-simplices.

    Simplices are index-sorted tuples; the sign of the face omitting
    position i is (-1)^i. Rows at the positions in ``cleared`` are not
    built.
    """
    face_index = {s: i for i, s in enumerate(levels[d - 1])}
    return [
        {face_index[s[:i] + s[i + 1 :]]: (-1) ** i for i in range(len(s))}
        for k, s in enumerate(levels[d])
        if k not in cleared
    ]


def bareiss_rank(rows):
    """Rank by one-step fraction-free (Bareiss) elimination on sparse rows.

    Every surviving row is rebuilt as (pivot*row - row[c]*pivot_row) /
    previous_pivot, which stays integral (Sylvester identity).
    """
    rows = [dict(r) for r in rows if r]
    rank = 0
    prev = 1
    while rows:
        col = min(min(r) for r in rows)
        pick = next(i for i, r in enumerate(rows) if col in r)
        pivot_row = rows.pop(pick)
        pivot = pivot_row[col]
        rank += 1
        nxt = []
        for r in rows:
            factor = r.pop(col, 0)
            new = {}
            for j in set(r) | set(pivot_row):
                if j == col:
                    continue
                num = pivot * r.get(j, 0) - factor * pivot_row.get(j, 0)
                if num:
                    q, rem = divmod(num, prev)
                    if rem:
                        raise AssertionError("fraction-free step not integral")
                    new[j] = q
            if new:
                nxt.append(new)
        rows = nxt
        prev = pivot
    return rank


def separates(L, blocked, k0, k1):
    """No path from k0 to k1 outside ``blocked`` (exhaustive BFS)."""
    k0, k1, blocked = set(k0), set(k1), set(blocked)
    seen = set(k0)
    stack = list(k0)
    while stack:
        u = stack.pop()
        for w in L.neighbors(u):
            if w in blocked or w in seen:
                continue
            if w in k1:
                return False
            seen.add(w)
            stack.append(w)
    return True


def sorted_peo_violation(L, peo):
    """First ``(center, u, w)``, in ``peo`` order, with ``u`` and ``w``
    non-adjacent later neighbours of ``center``, each vertex's later
    neighbours sorted by their position in ``peo`` and ``u`` the first of
    them; None for a perfect elimination ordering."""
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = sorted((w for w in L.neighbors(v) if pos[w] > pos[v]), key=pos.__getitem__)
        for w in later[1:]:
            if not L.has_edge(later[0], w):
                return (v, later[0], w)
    return None


def reference_splitmix64(seed, count):
    """Straight transcription of the reference split-mix step function."""
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


# -- the dense zonotope group and norm ball ------------------------------------


def _canonical_direction(vec):
    """Primitive, sign-canonical direction and its multiplier; ``None`` for
    the zero vector (a point segment is a translation, hence neutral)."""
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    direction = tuple(x // g for x in vec)
    for x in direction:
        if x != 0:
            if x < 0:
                direction = tuple(-y for y in direction)
            break
    return direction, g


class DenseZonotope:
    """Formal difference of zonotopes kept as a dict from dense primitive
    sign-canonical direction tuples (length ``len(ambient)``, in sorted
    order) to nonzero coefficients, with the same interface as the
    library's ``ZonotopeElement``."""

    def __init__(self, ambient, generators=()):
        self.ambient = tuple(ambient)
        acc = {}
        for vec, coeff in generators:
            vec = tuple(int(x) for x in vec)
            if len(vec) != len(self.ambient):
                raise ValueError("direction length differs from the ambient rank")
            canon = _canonical_direction(vec)
            if canon is None:
                continue
            direction, mult = canon
            acc[direction] = acc.get(direction, 0) + mult * int(coeff)
        self.coeffs = {d: c for d, c in sorted(acc.items()) if c != 0}

    def __add__(self, other):
        assert self.ambient == other.ambient
        return DenseZonotope(
            self.ambient, list(self.coeffs.items()) + list(other.coeffs.items())
        )

    def __neg__(self):
        return DenseZonotope(self.ambient, [(d, -c) for d, c in self.coeffs.items()])

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return self.ambient == other.ambient and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ambient, tuple(sorted(self.coeffs.items()))))

    @property
    def is_neutral(self):
        return not self.coeffs

    @property
    def is_single(self):
        return all(c >= 0 for c in self.coeffs.values())

    def to_json_doc(self):
        return {
            "generators": [
                {"dir": list(d), "coeff": c} for d, c in sorted(self.coeffs.items())
            ]
        }


def dense_thickness(z, phi):
    """Sum of coeff * |phi(direction)|, pairing every coordinate."""
    values = [phi.value(v) for v in z.ambient]
    total = Fraction(0)
    for d, c in z.coeffs.items():
        total += c * abs(sum((x * values[i] for i, x in enumerate(d)), start=Fraction(0)))
    return total


def _dense_unit(n, i, value, zero):
    row = [zero] * n
    row[i] = value
    return tuple(row)


def dense_l2_polytope(L):
    """Cut-rank multiples of the coordinate segments, as dense vectors, with
    cut ranks recounted by :func:`recount_cut_rank`."""
    n = len(L.vertices)
    return DenseZonotope(
        L.vertices,
        [(_dense_unit(n, i, 1, 0), recount_cut_rank(L, v)) for i, v in enumerate(L.vertices)],
    )


def dense_norm_ball(L):
    """``(weights, bounded_vertices, lineality_basis, json document)`` of
    the cut-rank norm ball, every vertex and lineality vector built densely,
    with cut ranks recounted by :func:`recount_cut_rank`."""
    n = len(L.vertices)
    weights = {v: recount_cut_rank(L, v) for v in L.vertices}
    bounded, lineality = [], []
    for i, v in enumerate(L.vertices):
        w = weights[v]
        if w:
            for sign in (1, -1):
                bounded.append(_dense_unit(n, i, Fraction(sign, w), Fraction(0)))
        else:
            lineality.append(_dense_unit(n, i, 1, 0))
    doc = {
        "weights": dict(weights),
        "vertices": [[str(x) for x in p] for p in bounded],
        "lineality": [list(b) for b in lineality],
    }
    return weights, tuple(bounded), tuple(lineality), doc


# -- cyclic cover windows ----------------------------------------------------------


def streamed_window(steps, k):
    """Lift count per step and connectivity of the window on the points
    -k .. k with an edge i ~ i + m for every step m that fits, by streaming
    every lift through a union-find over all 2k + 1 points."""
    parent = list(range(2 * k + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    counts = [0] * len(steps)
    joined = 0
    for idx, m in enumerate(steps):
        for i in range(-k, k + 1):
            if -k <= i + m <= k:
                counts[idx] += 1
                ra, rb = find(i + k), find(i + m + k)
                if ra != rb:
                    parent[ra] = rb
                    joined += 1
    return counts, joined == 2 * k
