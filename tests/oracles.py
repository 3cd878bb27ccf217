"""Independent brute-force oracles used to cross-check the engine.

These deliberately avoid the engine's lattice machinery for the checked
quantity: groups are compared through element-order multisets computed
by enumeration, which is a complete isomorphism invariant for finite
abelian groups.  Finite groups are compared by a backtracking search for
an isomorphism over the images of a generating set.
"""

from __future__ import annotations

from classfield.abelian import FgAbGroup
from classfield.groups import (
    FiniteGroup, _generating_set, abelianization, commutator_subgroup,
)


def enumerate_value(group: FgAbGroup):
    """All coordinate vectors of a finite value group."""
    assert group.is_finite()
    return [tuple(v) for v in group.elements()]


def order_multiset(group: FgAbGroup):
    return sorted(group.element_order(x) for x in enumerate_value(group))


def _element_orders_of_set(elements, add, zero):
    orders = []
    for x in elements:
        n, acc = 1, x
        while acc != zero:
            acc = add(acc, x)
            n += 1
        orders.append(n)
    return sorted(orders)


def _span(generators, add, zero):
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def coset_group_order_multiset(ambient: FgAbGroup, subgroup_elements):
    """Element-order multiset of ambient/subgroup, by coset enumeration."""
    sub = frozenset(subgroup_elements)
    rep_of = {}
    for x in enumerate_value(ambient):
        if x in rep_of:
            continue
        coset = sorted(ambient.add(x, s) for s in sub)
        for y in coset:
            rep_of[y] = coset[0]
    reps = sorted(set(rep_of.values()))

    def cadd(a, b):
        return rep_of[ambient.add(a, b)]

    zero = rep_of[ambient.zero()]
    return _element_orders_of_set(reps, cadd, zero)


def tate_h0_oracle(c, hkey, ukey):
    """|H^0| and its order multiset by literal norm-image enumeration."""
    value_h = c.values[hkey]
    value_u = c.values[ukey]
    norm = c.ind[(hkey, ukey)]
    image = {tuple(norm(x)) for x in enumerate_value(value_u)}
    return coset_group_order_multiset(value_h, image)


def tate_hminus1_oracle(c, hkey, ukey, coset_reps):
    """ker(norm)/augmentation by enumeration over C(U)."""
    value_u = c.values[ukey]
    norm = c.ind[(hkey, ukey)]
    zero_h = c.values[hkey].zero()
    kernel = [x for x in enumerate_value(value_u) if tuple(norm(x)) == zero_h]
    aug_gens = set()
    for rep in coset_reps:
        con = c.con[(rep, ukey)]
        for x in enumerate_value(value_u):
            aug_gens.add(value_u.add(con(x), value_u.neg(x)))
    aug = _span(sorted(aug_gens), value_u.add, value_u.zero())
    assert aug <= set(kernel), "augmentation image must lie in the kernel"
    rep_of = {}
    for x in kernel:
        if x in rep_of:
            continue
        coset = sorted(value_u.add(x, a) for a in aug)
        for y in coset:
            rep_of[y] = coset[0]
    reps = sorted(set(rep_of.values()))

    def cadd(a, b):
        return rep_of[value_u.add(a, b)]

    return _element_orders_of_set(reps, cadd, rep_of[value_u.zero()])


def classical_tate_oracle(module, h, u):
    """Tate H^0/H^-1 of the H/U-module A^U from the action matrices.

    Independent of the functor tables: works directly with the module's
    action, the norm sum over coset representatives, and the
    augmentation difference of a generating coset.
    """
    from classfield.abelian import (
        AbHom, fixed_subgroup, quotient,
        element_preimage)
    amb = module.underlying
    fixed_u, emb_u = fixed_subgroup(
        amb, [module.action[a] for a in u.elements]).presentation
    p = h.parent
    reps, seen = [], set()
    for x in h.elements:
        if x in seen:
            continue
        reps.append(x)
        for a in u.elements:
            seen.add(p.table[x][a])
    # norm and augmentation as endomorphisms of A^U
    norm_amb = AbHom.zero(amb, amb)
    for r in reps:
        norm_amb = norm_amb.add(module.action[r])
    cols = []
    for j in range(fixed_u.rank):
        e = [1 if i == j else 0 for i in range(fixed_u.rank)]
        cols.append(list(norm_amb(emb_u(e))))
    # H^0 = A^H / N(A^U): present A^H as fixed points of all of H
    fixed_h, emb_h = fixed_subgroup(
        amb, [module.action[a] for a in h.elements]).presentation
    norm_into_h = []
    for col in cols:
        x = element_preimage(emb_h, col)
        assert x is not None
        norm_into_h.append(list(x))
    h0, _ = quotient(fixed_h, norm_into_h)
    # H^-1 = ker(N|A^U) / <(sigma - 1) A^U over coset reps>
    norm_on_fixed_cols = []
    for j in range(fixed_u.rank):
        e = [1 if i == j else 0 for i in range(fixed_u.rank)]
        y = norm_amb(emb_u(e))
        x = element_preimage(emb_u, y)
        assert x is not None
        norm_on_fixed_cols.append(list(x))
    norm_end = AbHom.from_columns(fixed_u, fixed_u, norm_on_fixed_cols)
    ker, ker_emb = norm_end.kernel.presentation
    aug_gens = []
    ident = AbHom.identity(amb)
    for r in reps:
        diff = module.action[r].add(ident.scaled(-1))
        for j in range(fixed_u.rank):
            e = [1 if i == j else 0 for i in range(fixed_u.rank)]
            y = diff(emb_u(e))
            x = element_preimage(emb_u, y)
            assert x is not None
            k = element_preimage(ker_emb, x)
            assert k is not None
            aug_gens.append(list(k))
    hm1, _ = quotient(ker, aug_gens)
    return h0, hm1


# ---------------------------------------------------------------------------
# group isomorphism (catalog verification)
# ---------------------------------------------------------------------------

def _fingerprint(g: FiniteGroup):
    orders = tuple(sorted(g.element_order(a) for a in range(g.order)))
    classes = []
    seen = set()
    for a in range(g.order):
        if a in seen:
            continue
        cls = {g.conj(x, a) for x in range(g.order)}
        seen |= cls
        classes.append(len(cls))
    ab, _ = abelianization(g)
    derived = commutator_subgroup(g.full_subgroup())
    return (g.order, orders, len(g.center()), tuple(sorted(classes)),
            ab.invariant_factors, len(derived))


def are_isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Brute-force isomorphism test for small groups."""
    if g.order != h.order:
        return False
    if _fingerprint(g) != _fingerprint(h):
        return False
    gens = _generating_set(g)
    by_order: dict[int, list[int]] = {}
    for x in range(h.order):
        by_order.setdefault(h.element_order(x), []).append(x)
    targets = [by_order.get(g.element_order(x), []) for x in gens]

    # words expressing every g-element over the generators
    words = {0: ()}
    frontier = [0]
    while frontier:
        x = frontier.pop(0)
        for i, gen in enumerate(gens):
            y = g.table[x][gen]
            if y not in words:
                words[y] = words[x] + (i,)
                frontier.append(y)

    def extend(images):
        phi = {}
        for x in range(g.order):
            e = 0
            for i in words[x]:
                e = h.table[e][images[i]]
            phi[x] = e
        if len(set(phi.values())) != h.order:
            return False
        return all(phi[g.table[a][b]] == h.table[phi[a]][phi[b]]
                   for a in range(g.order) for b in range(g.order))

    def backtrack(i, chosen):
        if i == len(gens):
            return extend(chosen)
        for cand in targets[i]:
            if backtrack(i + 1, chosen + [cand]):
                return True
        return False

    return backtrack(0, [])
