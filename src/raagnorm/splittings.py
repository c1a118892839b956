"""Graph-of-groups splittings: clique trees, duals to a character, and the
complexity/Euler/cover bookkeeping they support.

Group elements are never represented as words. Vertex and edge groups are
symbolic descriptors carrying exactly what the formulas consume: a vertex
set (parabolic subgroup), or a living block with the index of its character
image and the kernel's Euler characteristic. Stable letters exist only
through their character values.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .characters import Character, check_domain, require_integral, require_nonzero
from .complexes import (
    FlagComplex,
    _component_vertex_sets,
    _is_clique,
    clique_tree,
    require_chordal,
    spanning_forest,
)
from .errors import ParseError, SplittingError
from .homology import euler_raag, link_euler
from .rationals import format_rational, parse_rational

# -- group descriptors ---------------------------------------------------------


class Parabolic(Record):
    """Subgroup generated by a set of standard generators."""

    vertices: tuple


class BlockKernel(Record):
    """Kernel of the character restricted to a living block's neighborhood
    group; ``k`` is the index of the image, ``chi`` the kernel's Euler
    characteristic."""

    block: tuple
    k: int
    chi: Fraction


class Trivial(Record):
    """The trivial group (free-product hub and hub edges)."""


class Amalgam(Record):
    """Fundamental group of a tree of groups, kept as a formal combination;
    its Euler characteristic is the alternating sum over parts and tree
    edges. Used for the vertex left after collapsing non-loop edges."""

    parts: tuple
    edge_groups: tuple


def euler_of(descriptor, L: FlagComplex) -> Fraction:
    """Euler characteristic of the described group.

    A parabolic subgroup on a clique is free abelian, Z^k, whose Euler
    characteristic is 0 for k >= 1 and 1 for the trivial group (k = 0).
    That closed form is read off |S|(|S|-1)/2 adjacency lookups; any other
    vertex set is counted on its induced subcomplex.
    """
    if isinstance(descriptor, Parabolic):
        vertices = descriptor.vertices
        if _is_clique(L, vertices):
            return Fraction(0 if vertices else 1)
        return Fraction(euler_raag(L.induced(vertices)))
    if isinstance(descriptor, BlockKernel):
        return descriptor.chi
    if isinstance(descriptor, Trivial):
        return Fraction(1)
    if isinstance(descriptor, Amalgam):
        total = sum((euler_of(p, L) for p in descriptor.parts), start=Fraction(0))
        total -= sum((euler_of(e, L) for e in descriptor.edge_groups), start=Fraction(0))
        return total
    raise SplittingError(f"unknown descriptor {descriptor!r}")


def b1_of(descriptor, L: FlagComplex) -> Fraction:
    """First L2-Betti number of the described group.

    Every descriptor here names a finitely generated subgroup of a chordal
    complex's group, whose L2-homology is concentrated in degree one unless
    the group is trivial (Euler characteristic one); parabolic subgroups
    contribute the reduced count of their components, which is 0 on a
    clique.
    """
    if isinstance(descriptor, Parabolic):
        if _is_clique(L, descriptor.vertices):
            return Fraction(0)
        components = _component_vertex_sets(L, descriptor.vertices)
        return Fraction(max(len(components) - 1, 0))
    if isinstance(descriptor, Trivial):
        return Fraction(0)
    e = euler_of(descriptor, L)
    return -e if e <= 0 else Fraction(0)


def descriptor_to_json(descriptor):
    if isinstance(descriptor, Parabolic):
        return {"kind": "parabolic", "vertices": list(descriptor.vertices)}
    if isinstance(descriptor, BlockKernel):
        return {
            "kind": "block_kernel",
            "block": list(descriptor.block),
            "k": descriptor.k,
            "chi": format_rational(descriptor.chi),
        }
    if isinstance(descriptor, Trivial):
        return {"kind": "trivial"}
    if isinstance(descriptor, Amalgam):
        return {
            "kind": "amalgam",
            "parts": [descriptor_to_json(p) for p in descriptor.parts],
            "edge_groups": [descriptor_to_json(e) for e in descriptor.edge_groups],
        }
    raise SplittingError(f"unknown descriptor {descriptor!r}")


def _int_field(doc, key):
    """``doc[key]``, which must be an int and not a bool."""
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f'"{key}" must be an integer')
    return value


def _vertex_list(doc, key):
    """``doc[key]``, which must be a list of vertex strings, as a tuple."""
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f'"{key}" must be a list of vertex strings')
    return tuple(value)


def _known_keys(doc, keys, where):
    """A :class:`ParseError` unless ``doc`` is an object with only ``keys``."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    extra = set(doc) - set(keys)
    if extra:
        raise ParseError(f"{where}: unexpected keys {sorted(extra)}")


_DESCRIPTOR_KEYS = {
    "parabolic": ("vertices",),
    "block_kernel": ("block", "k", "chi"),
    "trivial": (),
    "amalgam": ("parts", "edge_groups"),
}


def descriptor_from_json(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("descriptor must be an object with a kind")
    kind = doc["kind"]
    if kind not in _DESCRIPTOR_KEYS:
        raise ParseError(f"unknown descriptor kind {kind!r}")
    _known_keys(doc, ("kind",) + _DESCRIPTOR_KEYS[kind], f"{kind} descriptor")
    if kind == "parabolic":
        return Parabolic(_vertex_list(doc, "vertices"))
    if kind == "block_kernel":
        chi = parse_rational(doc["chi"], "chi")
        return BlockKernel(_vertex_list(doc, "block"), _int_field(doc, "k"), chi)
    if kind == "trivial":
        return Trivial()
    return Amalgam(
        tuple(descriptor_from_json(p) for p in doc["parts"]),
        tuple(descriptor_from_json(e) for e in doc["edge_groups"]),
    )


# -- graphs of groups ------------------------------------------------------------


class GogEdge(Record):
    """Positive representative of an edge pair; the reverse orientation is
    implicit, so the involution is fixed-point free by construction.

    ``inclusion`` annotates how the edge group sits in the endpoint groups:
    "parabolic" (vertex-set containment), "kernel" (both inclusions onto the
    HNN base), or "trivial".
    """

    source: int
    target: int
    group: object
    inclusion: str


_INCLUSIONS = ("parabolic", "kernel", "trivial")
_EDGE_KEYS = ("source", "target", "group", "inclusion", "tree", "phi_t")


class GraphOfGroups(Record):
    """Finite graph with group descriptors on vertices and edges.

    ``tree_edges`` index a spanning tree; every positive edge outside it
    carries the character value of its stable letter in ``stable_letters``.
    ``character`` records the character a dual splitting was built against
    (None for clique trees). The fields are normalised and validated; the
    record is unhashable, since ``stable_letters`` is a dict.
    """

    complex: FlagComplex
    vertex_groups: tuple
    edges: tuple
    tree_edges: frozenset
    stable_letters: dict
    character: Character | None

    def __init__(
        self,
        complex: FlagComplex,
        vertex_groups,
        edges,
        tree_edges=(),
        stable_letters=None,
        character=None,
    ):
        super().__init__(
            complex,
            tuple(vertex_groups),
            tuple(edges),
            frozenset(tree_edges),
            dict(stable_letters or {}),
            character,
        )
        self._validate()

    def _validate(self):
        nv = len(self.vertex_groups)
        for e in self.edges:
            if not (0 <= e.source < nv and 0 <= e.target < nv):
                raise SplittingError("edge endpoint out of range")
        for i in self.tree_edges:
            if not (0 <= i < len(self.edges)):
                raise SplittingError("tree edge index out of range")
            e = self.edges[i]
            if e.source == e.target:
                raise SplittingError("a loop cannot belong to the spanning tree")
        tree = [self.edges[i] for i in sorted(self.tree_edges)]
        if spanning_forest(nv, [(e.source, e.target) for e in tree]) != len(tree):
            raise SplittingError("tree edges contain a cycle")
        if nv and len(self.tree_edges) != nv - 1:
            raise SplittingError("tree edges do not span the vertex set")
        non_tree = set(range(len(self.edges))) - self.tree_edges
        extra = set(self.stable_letters) - non_tree
        if extra:
            raise SplittingError("stable letters on tree edges")

    @property
    def single_vertex(self) -> bool:
        return len(self.vertex_groups) == 1

    def to_json_doc(self):
        edges = []
        for i, e in enumerate(self.edges):
            doc = {
                "source": e.source,
                "target": e.target,
                "group": descriptor_to_json(e.group),
                "inclusion": e.inclusion,
                "tree": i in self.tree_edges,
            }
            if i in self.stable_letters:
                doc["phi_t"] = format_rational(self.stable_letters[i])
            edges.append(doc)
        out = {
            "complex": self.complex.to_json_doc(),
            "vertices": [descriptor_to_json(g) for g in self.vertex_groups],
            "edges": edges,
        }
        if self.character is not None:
            out["character"] = self.character.to_json_doc()
        return out

    @classmethod
    def from_json_doc(cls, doc):
        from .characters import character_from_json_doc
        from .complexes import complex_from_json_doc

        if not isinstance(doc, dict):
            raise ParseError("graph-of-groups document must be an object")
        try:
            _known_keys(doc, ("complex", "vertices", "edges", "character"), "top level")
            L = complex_from_json_doc(doc["complex"])
            vertex_groups = [descriptor_from_json(g) for g in doc["vertices"]]
            edges = []
            tree = set()
            letters = {}
            for i, e in enumerate(doc["edges"]):
                _known_keys(e, _EDGE_KEYS, f"edges[{i}]")
                if e["inclusion"] not in _INCLUSIONS:
                    raise ParseError(f"edges[{i}].inclusion must be one of {_INCLUSIONS}")
                if not isinstance(e.get("tree", False), bool):
                    raise ParseError(f"edges[{i}].tree must be true or false")
                edges.append(
                    GogEdge(
                        _int_field(e, "source"),
                        _int_field(e, "target"),
                        descriptor_from_json(e["group"]),
                        e["inclusion"],
                    )
                )
                if e.get("tree"):
                    tree.add(i)
                if "phi_t" in e:
                    letters[i] = parse_rational(e["phi_t"], f"edges[{i}].phi_t")
            character = None
            if "character" in doc:
                character = character_from_json_doc(doc["character"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(
                f"malformed graph-of-groups document ({type(exc).__name__}: {exc})"
            ) from exc
        return cls(L, vertex_groups, edges, tree, letters, character)


def euler_check(gog: GraphOfGroups) -> Fraction:
    """Alternating Euler sum: vertices minus positive edges."""
    edge_groups = tuple(e.group for e in gog.edges)
    return euler_of(Amalgam(gog.vertex_groups, edge_groups), gog.complex)


# -- clique-tree splittings --------------------------------------------------------


def clique_tree_splitting(L: FlagComplex) -> GraphOfGroups:
    """Tree of free abelian parabolics over the maximal cliques, with the
    clique-tree separators as edge groups."""
    cliques, tree_pairs = clique_tree(L)
    vertex_groups = [Parabolic(c) for c in cliques]
    edges = []
    for i, j in tree_pairs:
        sep = L.sorted(set(cliques[i]) & set(cliques[j]))
        edges.append(GogEdge(i, j, Parabolic(sep), "parabolic"))
    return GraphOfGroups(L, vertex_groups, edges, tree_edges=range(len(edges)))


# -- dual splittings -----------------------------------------------------------------


class BlockRow(Record):
    """Per-block accounting: image index, kernel Euler characteristic, and
    the block's contribution to the complexity."""

    block: tuple
    k: int
    chi: Fraction
    contribution: Fraction

    def to_json_doc(self):
        return {
            "block": list(self.block),
            "k": self.k,
            "chi": format_rational(self.chi),
            "contribution": format_rational(self.contribution),
        }


class SplittingReport(Record):
    """Complexity of a dual splitting, its per-block rows and the tree
    certificate document; unhashable, since the certificate is a dict."""

    complexity: Fraction
    blocks: tuple
    tree_certificate: dict

    def to_json_doc(self):
        return {
            "complexity": format_rational(self.complexity),
            "blocks": [b.to_json_doc() for b in self.blocks],
            "tree_certificate": self.tree_certificate,
        }


def living_blocks(L: FlagComplex, phi: Character) -> list:
    """Connected components of the living subcomplex, as vertex tuples,
    read off ``L`` without building the subcomplex."""
    check_domain(phi, L)
    require_nonzero(phi)
    return list(
        _component_vertex_sets(L, [v for v in L.vertices if phi.value(v) != 0])
    )


def _connected_dual(L, phi):
    """One connected component's construction, for a character that is
    nonzero somewhere on it.

    Returns (vertex descriptor, block kernels, tree certificate): one
    :class:`BlockKernel` per living block, in block order, which is both a
    part of the vertex descriptor and the edge group of the block's loop.
    """
    blocks = living_blocks(L, phi)
    living = {v for b in blocks for v in b}
    dead = [v for v in L.vertices if v not in living]
    complements = _component_vertex_sets(L, dead)
    hoods = [L.one_neighborhood(b) for b in blocks]

    node_labels = [
        {"role": "block_neighborhood", "block": list(b), "vertices": list(h)}
        for b, h in zip(blocks, hoods)
    ]
    node_labels += [{"role": "complement", "vertices": list(c)} for c in complements]
    # The pieces of a hood are the components of its dead part. No edge
    # joins two complements, so each piece lies in the complement that its
    # first vertex names; a stable sort by that label keeps each
    # complement's pieces in the order of their first vertices.
    label = {v: j for j, c in enumerate(complements) for v in c}
    bip_edges = []
    for i, hood in enumerate(hoods):
        pieces = _component_vertex_sets(L, [v for v in hood if v in label])
        for piece in sorted(pieces, key=lambda p: label[p[0]]):
            bip_edges.append((i, len(blocks) + label[piece[0]], piece))
    # Treeness is a theorem for chordal input; failure means a bug here.
    n_nodes = len(blocks) + len(complements)
    pairs = [(a, b) for a, b, _ in bip_edges]
    if spanning_forest(n_nodes, pairs) != len(pairs):
        raise AssertionError("block/complement intersection graph has a cycle")
    if len(bip_edges) != n_nodes - 1:
        raise AssertionError("block/complement intersection graph is disconnected")
    # Only hoods that share a vertex can overlap; the shared vertices are
    # dead, since a living vertex lies in its own block's hood alone. On
    # chordal input two hoods meet in a clique (two non-adjacent common
    # neighbours would close an induced cycle through both blocks), so
    # this too guards the construction, not the input.
    holders = {}
    for i, hood in enumerate(hoods):
        shared = {}  # earlier hood -> the vertices this hood shares with it
        for v in hood:
            earlier = holders.setdefault(v, [])
            for i0 in earlier:
                shared.setdefault(i0, []).append(v)
            earlier.append(i)
        for overlap in shared.values():
            if len(overlap) > 1 and len(_component_vertex_sets(L, overlap)) != 1:
                raise AssertionError("block neighborhoods meet in a disconnected set")

    # N(v) lies in the block's neighbourhood, so the link of v there is its
    # link in L; one star count of L serves every block.
    link_chi = link_euler(L)
    kernels = []
    for b in blocks:
        k = 0
        for v in b:
            k = math.gcd(k, abs(phi.value(v).numerator))
        weighted = sum(abs(phi.value(v).numerator) * link_chi[v] for v in b)
        kernels.append(BlockKernel(b, k, Fraction(weighted, k)))

    parts = tuple(kernels) + tuple(Parabolic(c) for c in complements)
    edge_groups = tuple(Parabolic(piece) for _, _, piece in bip_edges)
    if len(parts) == 1 and not edge_groups:
        vertex_descriptor = parts[0]
    else:
        vertex_descriptor = Amalgam(parts, edge_groups)
    certificate = {
        "nodes": node_labels,
        "edges": [
            {"source": a, "target": b, "intersection": list(piece)}
            for a, b, piece in bip_edges
        ],
        "is_tree": True,
    }
    return vertex_descriptor, kernels, certificate


def dual_splitting(L: FlagComplex, phi: Character):
    """Single-vertex splitting dual to ``phi`` realizing the closed-form
    complexity, together with its report.

    Each living block of each component becomes an HNN loop over the kernel
    of the character restricted to the block's one-neighborhood group; its
    stable letter takes the value k, the gcd of the character on the
    block, and its report row is (block, k, chi, -k * chi). Complement
    components and the intersection tree are collapsed into the vertex. A
    component on which the character vanishes stays a parabolic part and
    is never walked. Several components are joined through a trivial hub
    before the collapse, and each certificate names its component.

    For a connected chordal complex on at least two vertices the returned
    complexity is exactly the splitting complexity along ``phi``; on every
    other input it is only an upper bound for the infimum.
    """
    check_domain(phi, L)
    require_integral(phi)
    require_nonzero(phi)
    require_chordal(L)

    components = L.components()
    several = len(components) > 1
    parts, kernels, certificates = [], [], []
    for comp in components:
        phic = phi.restrict(comp.vertices) if several else phi
        if phic.is_zero:
            parts.append(Parabolic(comp.vertices))
            certificates.append({"component": list(comp.vertices), "dead": True})
            continue
        vertex_descriptor, comp_kernels, certificate = _connected_dual(comp, phic)
        parts.append(vertex_descriptor)
        kernels.extend(comp_kernels)
        if several:
            certificate["component"] = list(comp.vertices)
        certificates.append(certificate)
    if several:
        edge_groups = tuple(Trivial() for _ in components)
        vertex_descriptor = Amalgam(tuple(parts) + (Trivial(),), edge_groups)
        certificate = {"components": certificates, "is_tree": True}

    edges = [GogEdge(0, 0, g, "kernel") for g in kernels]
    letters = {i: Fraction(g.k) for i, g in enumerate(kernels)}
    gog = GraphOfGroups(L, [vertex_descriptor], edges, (), letters, phi)
    rows = tuple(BlockRow(g.block, g.k, g.chi, -g.k * g.chi) for g in kernels)
    complexity = sum((r.contribution for r in rows), start=Fraction(0))
    return gog, SplittingReport(complexity, rows, certificate)


# -- complexity --------------------------------------------------------------------


def _stable_letter_values(gog: GraphOfGroups, phi: Character):
    """Character values of the stable letters under ``phi``.

    Stable letters are recorded only through the values of the character the
    splitting was built against, so ``phi`` must be a rational multiple of
    it.
    """
    values = []
    for i in range(len(gog.edges)):
        if i not in gog.stable_letters:
            raise SplittingError("missing stable letter value")
        values.append(gog.stable_letters[i])
    if gog.character is None:
        raise SplittingError("splitting records no dual character")
    q = phi.proportion_to(gog.character)
    if q is None:
        raise SplittingError(
            "character is not proportional to the splitting's dual character"
        )
    return [q * v for v in values]


def splitting_complexity(gog: GraphOfGroups, phi: Character) -> Fraction:
    """Minus the sum over positive edges of |phi(t_e)| times the edge
    group's Euler characteristic; zero for an edgeless splitting."""
    if not gog.single_vertex:
        raise SplittingError("complexity is defined for single-vertex splittings")
    if not gog.edges:
        return Fraction(0)
    values = _stable_letter_values(gog, phi)
    total = Fraction(0)
    for e, value in zip(gog.edges, values):
        total -= abs(value) * euler_of(e.group, gog.complex)
    return total


# -- cyclic cover truncations ----------------------------------------------------------


class CoverTruncation(Record):
    """Finite window of the infinite cyclic cover of a single-vertex
    splitting: vertex copies v_-k .. v_k and the edge lifts that fit.

    ``lift_counts`` is per positive edge; the rank triple is
    (sum of vertex-copy b1, sum over edges of lifts * b1, difference).
    """

    k: int
    vertex_count: int
    lift_counts: tuple
    connected: bool
    vertex_rank_sum: Fraction
    edge_rank_sum: Fraction
    rank_difference: Fraction

    def to_json_doc(self):
        return {
            "k": self.k,
            "vertex_count": self.vertex_count,
            "lift_counts": list(self.lift_counts),
            "connected": self.connected,
            "vertex_rank_sum": format_rational(self.vertex_rank_sum),
            "edge_rank_sum": format_rational(self.edge_rank_sum),
            "rank_difference": format_rational(self.rank_difference),
        }


def cyclic_cover_truncation(gog: GraphOfGroups, phi: Character, k: int) -> CoverTruncation:
    """The window with vertices v_i, |i| <= k, and one lift of each loop
    from v_i to v_(i + m), m = phi(t_e), whenever both ends are in range.

    The window is the graph on 2k + 1 consecutive points with an edge
    i ~ i + |m| per letter, so a letter has max(0, 2k + 1 - |m|) lifts.
    From two points on, connectivity is monotone in the window length (a
    new end point joins through any step no longer than the window), so
    one union-find grows the window a point at a time and stops once it
    connects or holds all 2k + 1 points: the cost depends on the letters,
    not on k.
    """
    if not gog.single_vertex:
        raise SplittingError("truncation is defined for single-vertex splittings")
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise SplittingError("truncation level must be a nonnegative integer")
    if not gog.edges:
        raise SplittingError("truncation needs at least one stable letter")
    values = _stable_letter_values(gog, phi)
    steps = []
    g = 0
    for value in values:
        if value.denominator != 1 or value == 0:
            raise SplittingError("stable letters must have nonzero integer values")
        steps.append(abs(value.numerator))
        g = math.gcd(g, steps[-1])
    if g != 1:
        raise SplittingError("stable letter values must have gcd 1")

    size = 2 * k + 1
    counts = [max(0, size - m) for m in steps]
    connected = size == 1
    parent = []
    joined = 0
    for j in range(1, size):
        # Point j joins the window 0 .. j - 1 through every step that fits.
        joined += spanning_forest(j + 1, [(j - m, j) for m in steps if m <= j], parent)
        if joined == j:
            connected = True
            break

    b1_vertex = b1_of(gog.vertex_groups[0], gog.complex)
    vertex_rank_sum = size * b1_vertex
    edge_rank_sum = sum(
        (counts[idx] * b1_of(e.group, gog.complex) for idx, e in enumerate(gog.edges)),
        start=Fraction(0),
    )
    return CoverTruncation(
        k,
        size,
        tuple(counts),
        connected,
        vertex_rank_sum,
        edge_rank_sum,
        vertex_rank_sum - edge_rank_sum,
    )
