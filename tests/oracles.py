"""Independent brute-force oracles.

Everything here recomputes results by exhaustive enumeration or dense exact
linear algebra, sharing no code path with the library internals it checks.
"""

from fractions import Fraction
from itertools import combinations


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
