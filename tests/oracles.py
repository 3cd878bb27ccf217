"""Independent brute-force oracles used to cross-check the engine.

These deliberately avoid the engine's lattice machinery for the checked
quantity: groups are compared through element-order multisets computed
by enumeration, which is a complete isomorphism invariant for finite
abelian groups.  Finite groups are compared by a backtracking search for
an isomorphism over the images of a generating set.
"""

from __future__ import annotations

from classfield.abelian import FgAbGroup, presentation_from_lattice
from classfield.groups import (
    CosetCoordinateMap, FiniteGroup, Subgroup, abelianization, commutator_subgroup,
    cosets, subgroup_generators,
)


def mat_mul(a, b) -> list[list[int]]:
    """The product a @ b, entry by entry, so that it shares no code with
    ``AbHom.compose``; a b with no rows has width 0."""
    if a and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    width = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(width)]
            for row in a]


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


def subgroup_elements(ambient: FgAbGroup, gens: list) -> set:
    """All elements of a finite subgroup, by closure."""
    gens = [ambient.reduce(g) for g in gens]
    seen = {ambient.zero()}
    frontier = [ambient.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ambient.add(x, g)
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

def center_elements(g: FiniteGroup) -> tuple[int, ...]:
    """Z(g) as sorted elements: those that commute with every element."""
    return tuple(a for a in range(g.order)
                 if all(g.table[a][b] == g.table[b][a] for b in range(g.order)))


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
    return (g.order, orders, len(center_elements(g)), tuple(sorted(classes)),
            ab.invariant_factors, len(derived))


def are_isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Brute-force isomorphism test for small groups."""
    if g.order != h.order:
        return False
    if _fingerprint(g) != _fingerprint(h):
        return False
    gens = subgroup_generators(g.full_subgroup())
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


# ---------------------------------------------------------------------------
# subgroup lattice, normality and commutators by brute force
# ---------------------------------------------------------------------------

def generated_oracle(g: FiniteGroup, gens) -> tuple[int, ...]:
    """<gens> as sorted elements, closed over the generators and their
    inverses, as ``FiniteGroup.generated_subgroup`` did before it closed
    over positive words only."""
    closure = {0}
    frontier = [0]
    gens = list(gens) + [g.inverse[x] for x in gens]
    while frontier:
        x = frontier.pop()
        for y in (g.table[x][s] for s in gens):
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return tuple(sorted(closure))


def all_subgroups_oracle(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Every subgroup's elements, sorted by (order, elements): each cyclic
    seed and each found subgroup extended by every element outside it.
    This is the engine's enumeration before it extended by cosets."""
    found = {(0,)}
    queue = [(0,)]
    for x in range(1, g.order):
        h = generated_oracle(g, [x])
        if h not in found:
            found.add(h)
            queue.append(h)
    while queue:
        h = queue.pop()
        for x in range(1, g.order):
            if x in h:
                continue
            bigger = generated_oracle(g, list(h) + [x])
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return sorted(found, key=lambda s: (len(s), s))


def normal_in_oracle(g: FiniteGroup, u, h) -> bool:
    """Whether a*x*a^-1 lies in u for every a in h and x in u."""
    inside = set(u)
    return all(g.table[g.table[a][x]][g.inverse[a]] in inside for a in h for x in u)


def commutator_oracle(g: FiniteGroup, h) -> tuple[int, ...]:
    """[h, h] as sorted elements, generated by every commutator of h."""
    return generated_oracle(g, {g.commutator(a, b) for a in h for b in h})


def quotient_is_abelian_oracle(g: FiniteGroup, h, r) -> bool:
    """Whether h/r is abelian, r normal in h: every commutator lies in r."""
    inside = set(r)
    return all(g.commutator(a, b) in inside for a in h for b in h)


def abelian_quotient_oracle(h: Subgroup, r: Subgroup):
    """H/R in normal form with its coordinate map, as ``groups.abelian_quotient``
    computed it when it grew the span of its quotient generators coset by
    coset.  It keeps no memo, so it never answers from the engine's."""
    p = h.parent
    if not r.is_subgroup_of(h):
        raise ValueError("kernel must be contained in the subgroup")
    if not r.is_normal_in(h):
        raise ValueError("kernel must be normal in the subgroup")
    # cosets with min-element representatives
    t = cosets(h, r)
    reps, rep_of = t.reps, t.rep_of

    def cmul(a, b):
        return rep_of[p.table[a][b]]

    # greedy generators of the quotient
    gens: list[int] = []
    span = {0}
    for x in reps:
        if x in span:
            continue
        gens.append(x)
        frontier = list(span)
        while frontier:
            y = frontier.pop()
            z = cmul(y, x)
            while z not in span:
                span.add(z)
                frontier.append(z)
                z = cmul(z, x)
    # every rep lies in the span of gens: H/R is abelian iff they commute
    if any(cmul(a, b) != cmul(b, a) for i, a in enumerate(gens) for b in gens[:i]):
        raise ValueError("quotient is not abelian")
    k = len(gens)
    # BFS word vectors over the generators; the loop walks the growing list
    word = {0: (0,) * k}
    frontier = [0]
    for x in frontier:
        for i, g in enumerate(gens):
            y = cmul(x, g)
            if y not in word:
                w = list(word[x])
                w[i] += 1
                word[y] = tuple(w)
                frontier.append(y)
    # relation lattice of the presentation Z^k -> H/R
    rel_cols = []
    seen_rels = set()
    for x in reps:
        wx = word[x]
        for i, g in enumerate(gens):
            y = cmul(x, g)
            rel = tuple(wx[j] + (1 if j == i else 0) - word[y][j] for j in range(k))
            if any(rel) and rel not in seen_rels:
                seen_rels.add(rel)
                rel_cols.append(list(rel))
    group, to_new, from_new = presentation_from_lattice(k, rel_cols)
    rep_coords = {x: to_new(list(word[x])) for x in reps}
    coords = {x: rep_coords[rep_of[x]] for x in h.elements}
    gen_reps = []
    for rep_vec in from_new:
        e = 0
        for g, n in zip(gens, rep_vec):
            e = p.mul(e, p.power(g, n))
        gen_reps.append(e)
    return group, CosetCoordinateMap(coords, tuple(gen_reps))
