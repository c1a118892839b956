"""Planted faults and the checks that catch them.

Each fault replaces one private function on one path, through pytest's
``monkeypatch``. The catalogue records which checks catch each fault: the
failure count of every suite check under the default ``verify --suite``
config, and the unit oracles (test functions, as "module::name") that fail.
A fault that no suite check catches says why in ``blind``; it stays in the
catalogue as a known blind spot.
"""

from raagnorm import homology


class Fault:
    def __init__(self, module, attr, make, suite, oracles, blind=None):
        self.module = module
        self.attr = attr
        self.make = make  # original function -> faulty replacement
        self.suite = suite
        self.oracles = oracles
        self.blind = blind

    def plant(self, monkeypatch):
        monkeypatch.setattr(self.module, self.attr, self.make(getattr(self.module, self.attr)))


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


FAULTS = {
    "open_neighbourhood_domination": Fault(
        homology,
        "_dominated",
        open_neighbourhood_domination,
        suite={"contractibility_and_cut_rank": 37},
        oracles=["test_homology::test_link_betti_matches_each_link"],
    ),
    "link_top_dim_plus_one": Fault(
        homology,
        "_largest_cliques",
        link_top_dim_plus_one,
        suite={},
        oracles=["test_homology::test_link_betti_matches_each_link"],
        blind="no suite check reads a link's top dimension: the cut-rank check "
        "reads rank 0 only, and in l2_betti_kernel the top dimension sets only "
        "how many trailing zeros the default length holds",
    ),
}
