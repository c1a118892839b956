"""Planted faults and the checks that catch them.

Each fault replaces one private function on one path, through pytest's
``monkeypatch``, in every module that binds its name: a fault in a shared
primitive reaches each path that imports it. The catalogue records which
checks catch each fault: the failure count of every suite check under the
default ``verify --suite`` config, and the unit oracles (test functions, as
"module::name") that fail.
A fault that no suite check catches says why in ``blind``; it stays in the
catalogue as a known blind spot.
"""

from raagnorm import complexes, homology, l2


class Fault:
    def __init__(self, modules, attr, make, suite, oracles, blind=None):
        self.modules = modules  # the defining module first
        self.attr = attr
        self.make = make  # original function -> faulty replacement
        self.suite = suite
        self.oracles = oracles
        self.blind = blind

    def plant(self, monkeypatch):
        original = getattr(self.modules[0], self.attr)
        faulty = self.make(original)
        for module in self.modules:
            assert getattr(module, self.attr) is original, module.__name__
            monkeypatch.setattr(module, self.attr, faulty)


def open_neighbourhood_domination(original):
    """Deletes ``v`` when its open neighbourhood lies in the closed one of any
    other vertex, adjacent to ``v`` or not. Deleting a vertex dominated only
    that way is no retraction: it fills holes and merges link components."""

    def dominated(v, nbrs):
        near = nbrs[v] - {v}
        return any(u != v and near <= nbrs[u] for u in nbrs)

    return dominated


def link_top_dim_plus_one(original):
    """Every vertex's largest clique one larger, so every link's top
    dimension is one too high."""

    def largest_cliques(L):
        return {v: k + 1 for v, k in original(L).items()}

    return largest_cliques


def star_fold_drops_high_levels(original):
    """The star fold stops at level 4: the subtree counts of simplices of
    dimension 4 and up never reach the vertices of their proper faces."""

    def fold(levels, chi):
        original(levels[:4], chi)

    return fold


def link_counter_flips_high_dimensions(original):
    """The link counter negates its counts in dimensions 3 and up, so each
    of those levels enters the link's Euler characteristic with the wrong
    sign."""

    def link_f_vector(K):
        return tuple(-f if d >= 3 else f for d, f in enumerate(original(K)))

    return link_f_vector


def walk_drops_last_candidates(original):
    """From dimension 3 up, the clique walk loses the last candidate of each
    list, so every simplex ending there goes missing: from the recorded
    f-vector, from each simplex list and from each star count. A last
    candidate has no children, so no simplex above it is lost."""

    def clique_walk(K):
        counts = []
        for k, (lasts, parents, cands) in enumerate(original(K)):
            if k >= 2:  # these candidates end simplices of dimension k + 1
                cands = [cand[:-1] for cand in cands]
            counts.append(sum(map(len, cands)))
            yield lasts, parents, cands
        # A level that lost every simplex was the last one.
        K._cache["f_vector"] = K._cache["f_vector"][:1] + tuple(filter(None, counts))

    return clique_walk


def echelon_drops_taken_rows(original):
    """A row whose low is already taken is dropped instead of reduced, so
    every boundary rank counts only the rows with distinct lows."""

    def echelon(rows):
        pivots = {}
        for r in rows:
            pivots.setdefault(max(r), r)
        return pivots

    return echelon


FAULTS = {
    "open_neighbourhood_domination": Fault(
        (homology,),
        "_dominated",
        open_neighbourhood_domination,
        suite={"contractibility_and_cut_rank": 37},
        oracles=["test_homology::test_link_betti_matches_each_link"],
    ),
    "link_top_dim_plus_one": Fault(
        (homology,),
        "_largest_cliques",
        link_top_dim_plus_one,
        suite={"contractibility_and_cut_rank": 54},
        oracles=["test_homology::test_link_betti_matches_each_link"],
    ),
    "star_fold_drops_high_levels": Fault(
        (homology,),
        "_fold",
        star_fold_drops_high_levels,
        suite={"main_equality": 1},
        oracles=["test_homology::test_link_euler_matches_each_link"],
    ),
    "link_counter_flips_high_dimensions": Fault(
        (l2,),
        "_link_f_vector",
        link_counter_flips_high_dimensions,
        suite={"main_equality": 11},
        oracles=["test_l2::test_kernel_euler_two_code_paths_agree"],
    ),
    "walk_drops_last_candidates": Fault(
        (complexes, homology),
        "_clique_walk",
        walk_drops_last_candidates,
        suite={"main_equality": 24, "euler_bookkeeping": 9},
        oracles=[
            "test_complexes::test_simplices_by_dim_matches_bruteforce",
            "test_homology::test_link_euler_and_the_link_counter_match_brute_force",
        ],
    ),
    "echelon_drops_taken_rows": Fault(
        (homology,),
        "_echelon",
        echelon_drops_taken_rows,
        suite={},
        oracles=["test_homology::test_cleared_ranks_and_betti_match_bareiss_on_full_matrices"],
        blind="a chordal complex and each of its links collapse to one vertex per "
        "component, so the suite never reduces a boundary matrix",
    ),
}
