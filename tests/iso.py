"""Exhaustive isomorphism testing for small groups (test support).

Searches over assignments of generator images; intended for orders up to
about 16, where the generator sets are tiny.
"""

from __future__ import annotations

import itertools

from permdeg.groups import FiniteGroup


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    """Exhaustive generator-image search; practical for order <= 16 or so."""
    if G.order != H.order:
        return False
    if G.order_profile() != H.order_profile():
        return False
    gens = G.generators()
    # candidate images must match element orders
    h_by_order: dict[int, list[int]] = {}
    for x in range(H.order):
        h_by_order.setdefault(H.element_order(x), []).append(x)
    pools = [h_by_order.get(G.element_order(g), []) for g in gens]
    for images in itertools.product(*pools):
        phi = _extend(G, H, gens, images)
        if phi is not None:
            return True
    return False


def _extend(G: FiniteGroup, H: FiniteGroup, gens, images):
    """Extend gens -> images to a full map by generation; None if it is not
    a well-defined injective homomorphism."""
    phi = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g, img in zip(gens, images):
                b = G.mul(a, g)
                fb = H.mul(phi[a], img)
                if b in phi:
                    if phi[b] != fb:
                        return None
                else:
                    phi[b] = fb
                    nxt.append(b)
        frontier = nxt
    if len(phi) != G.order or len(set(phi.values())) != G.order:
        return None
    for a in range(G.order):
        for b in range(G.order):
            if phi[G.mul(a, b)] != H.mul(phi[a], phi[b]):
                return None
    return phi
