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

from raagnorm import complexes, homology, l2, splittings
from raagnorm.splittings import Amalgam, BlockKernel


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
    """The star pass gives every vertex's largest clique one larger, so
    every link's top dimension is one too high."""

    def star_pass(K):
        chi, size = original(K)
        return chi, {v: k + 1 for v, k in size.items()}

    return star_pass


def star_fold_drops_high_levels(original):
    """The star fold stops at level 4: the subtree counts and sizes of
    simplices of dimension 4 and up never reach the vertices of their proper
    faces."""

    def fold(levels, chi, size):
        original(levels[:4], chi, size)

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
    f-vector, from each simplex list and from the star pass. A last
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


def block_gcd_read_as_one(original):
    """Every block kernel of a dual splitting reads its k as 1, with its chi
    scaled by k to match: the loop groups equal the kernels in the vertex
    group, so they cancel in the Euler sum, and every contribution -k * chi
    is unchanged."""

    def connected_dual(L, phi):
        vertex, kernels, certificate = original(L, phi)
        wrong = {g: BlockKernel(g.block, 1, g.k * g.chi) for g in kernels}
        if isinstance(vertex, Amalgam):
            vertex = Amalgam(tuple(wrong.get(p, p) for p in vertex.parts), vertex.edge_groups)
        else:
            vertex = wrong[vertex]
        return vertex, [wrong[g] for g in kernels], certificate

    return connected_dual


FAULTS = {
    "open_neighbourhood_domination": Fault(
        (homology,),
        "_dominated",
        open_neighbourhood_domination,
        suite={"contractibility_and_cut_rank": 37, "sphere_homology": 15},
        oracles=["test_homology::test_link_betti_matches_each_link"],
    ),
    "link_top_dim_plus_one": Fault(
        (complexes,),
        "_star_pass",
        link_top_dim_plus_one,
        suite={"contractibility_and_cut_rank": 54},
        oracles=["test_homology::test_link_betti_matches_each_link"],
    ),
    "star_fold_drops_high_levels": Fault(
        (complexes,),
        "_fold",
        star_fold_drops_high_levels,
        suite={"main_equality": 1, "contractibility_and_cut_rank": 1, "euler_bookkeeping": 1},
        oracles=[
            "test_homology::test_link_euler_matches_each_link",
            "test_homology::test_link_betti_matches_each_link",
        ],
    ),
    "link_counter_flips_high_dimensions": Fault(
        (l2,),
        "_link_f_vector",
        link_counter_flips_high_dimensions,
        suite={"main_equality": 11, "euler_bookkeeping": 4},
        oracles=["test_l2::test_kernel_euler_two_code_paths_agree"],
    ),
    "walk_drops_last_candidates": Fault(
        (complexes,),
        "_clique_walk",
        walk_drops_last_candidates,
        suite={
            "main_equality": 24,
            "contractibility_and_cut_rank": 25,
            "euler_bookkeeping": 9,
            "sphere_homology": 7,
        },
        oracles=[
            "test_complexes::test_simplices_by_dim_matches_bruteforce",
            "test_homology::test_link_euler_and_the_link_counter_match_brute_force",
        ],
    ),
    "echelon_drops_taken_rows": Fault(
        (homology,),
        "_echelon",
        echelon_drops_taken_rows,
        suite={"sphere_homology": 15},
        oracles=["test_homology::test_cleared_ranks_and_betti_match_bareiss_on_full_matrices"],
    ),
    "block_gcd_read_as_one": Fault(
        (splittings,),
        "_connected_dual",
        block_gcd_read_as_one,
        suite={"euler_bookkeeping": 4},
        oracles=["test_splittings::test_dual_splitting_keeps_each_block_fact_once"],
    ),
}
