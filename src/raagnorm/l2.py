"""Closed-form L2-Betti numbers and L2-Euler characteristics.

For the group of a flag complex L and an epimorphism to the integers given
by a primitive integral character:

* ``b_i`` of the group itself is the reduced Betti number of L one
  dimension down;
* ``b_i`` of the character's kernel is the |value|-weighted sum of the
  links' reduced Betti numbers one dimension down;
* the kernel's L2-Euler characteristic is the |value|-weighted sum of the
  links' group Euler characteristics.

Fibering (finitely generated kernel) is decided by the living-subcomplex
criterion: connected and dominating.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .characters import Character, check_domain, require_nonzero, require_primitive
from .complexes import FlagComplex, _check_budget
from .homology import euler_raag, link_betti, reduced_betti


def l2_betti_group(L: FlagComplex, max_i=None) -> list:
    """b_i of the group of ``L`` for 0 <= i <= max_i (exact rationals).

    ``max_i`` defaults to the top simplex dimension plus one; all higher
    entries vanish.
    """
    rb = reduced_betti(L)
    if max_i is None:
        max_i = rb.top_dim + 1
    return [Fraction(rb.rank(i - 1)) for i in range(max_i + 1)]


def l2_betti_kernel(L: FlagComplex, phi: Character, max_i=None) -> list:
    """b_i of the kernel of the epimorphism given by a primitive ``phi``.

    Reads every link's reduced Betti numbers from the link's core
    (:func:`raagnorm.homology.link_betti`); no link is built and ``L`` is
    not enumerated.
    """
    check_domain(phi, L)
    require_primitive(phi)
    links = link_betti(L)
    if max_i is None:
        max_i = max((rb.top_dim for rb in links.values()), default=-1) + 2
    # ``phi`` is integral, so the sums stay in the integers.
    weighted = [(abs(phi.value(v).numerator), rb) for v, rb in links.items()]
    return [
        Fraction(sum(w * rb.rank(i - 1) for w, rb in weighted)) for i in range(max_i + 1)
    ]


def l2_euler_kernel(L: FlagComplex, phi: Character) -> Fraction:
    """L2-Euler characteristic of the kernel: sum of |phi(v)| * chi of the
    group of the link of v.

    Only the links of vertices where ``phi`` is nonzero are built. A link
    of at most :data:`_MASK_LINK_MAX` vertices has its f-vector counted
    over bit masks (:func:`_link_f_vector`) and kept on it for
    :func:`raagnorm.homology.euler_raag`; a larger one is counted by
    :meth:`FlagComplex.f_vector`. ``L`` is not enumerated.
    """
    check_domain(phi, L)
    require_primitive(phi)
    # ``phi`` is integral, so the sum stays in the integers.
    total = 0
    for v in L.vertices:
        weight = phi.value(v).numerator
        if weight:
            link = L.link(v)
            if len(link.vertices) <= _MASK_LINK_MAX:
                link._memo()["f_vector"] = _link_f_vector(link)
            total += abs(weight) * euler_raag(link)
    return Fraction(total)


# A link's masks are up to as wide as the link, one or more per vertex, so
# a link of d vertices takes on the order of d * d bits. Past this size the
# candidate lists of ``FlagComplex.f_vector`` count it instead.
_MASK_LINK_MAX = 256


def _link_f_vector(K):
    """The f-vector of ``K``, its cliques counted over bit masks.

    Cliques grow as in :meth:`FlagComplex.f_vector`, each from the common
    later neighbours of its vertices, but the candidates of a clique are a
    mask over the positions of ``K``, so a mask is never wider than ``K``.
    A level's size is the number of bits in the masks of the level below,
    charged to the simplex budget before the level is built.
    """
    pos = K._index
    size = total = len(pos)
    _check_budget(total)
    near = []  # each vertex's neighbours, as a mask
    cands = []  # the later neighbours of each vertex that has some
    for i, v in enumerate(K.vertices):
        mask = 0
        for w in K._adj[v]:
            mask |= 1 << pos[w]
        near.append(mask)
        mask >>= i + 1
        if mask:
            cands.append(mask << i + 1)
    counts = []
    while size:
        counts.append(size)
        size = sum(map(int.bit_count, cands))
        total += size
        _check_budget(total)
        nxt = []
        for m in cands:
            while m:
                low = m & -m
                m ^= low
                child = m & near[low.bit_length() - 1]
                if child:
                    nxt.append(child)
        cands = nxt
    return tuple(counts)


class FiberingReport(Record):
    """Outcome of the living-subcomplex test.

    fibered <=> connected and dominating; ``living`` is the induced
    subcomplex on the vertices where the character is nonzero.
    """

    fibered: bool
    living: FlagComplex
    connected: bool
    dominating: bool

    def to_json_doc(self):
        return {
            "fibered": self.fibered,
            "living": self.living.to_json_doc(),
            "connected": self.connected,
            "dominating": self.dominating,
        }


def living_subcomplex(L: FlagComplex, phi: Character) -> FlagComplex:
    check_domain(phi, L)
    return L.induced([v for v in L.vertices if phi.value(v) != 0])


def is_fibered(L: FlagComplex, phi: Character) -> FiberingReport:
    """Finitely generated kernel test for a nonzero rational character."""
    living = living_subcomplex(L, phi)
    require_nonzero(phi)
    connected = living.is_connected()
    dominating = L.one_neighborhood(living.vertices) == L.vertices
    return FiberingReport(connected and dominating, living, connected, dominating)
