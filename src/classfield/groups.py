"""Finite groups with subgroups, transversals, double cosets and
abelianization.

Elements are integers 0..order-1 with 0 the identity; multiplication is a
dense Cayley table.  All derived data (inverses, subgroup lattice,
abelianized quotients, and the least-representative transversals that
``cosets`` builds) is cached on the group instance, so groups behave as
immutable shared values.  A transversal's ``rep_of`` answers "which coset
is g in?" for every layer above this one.

Composition order for T-permutations of a right transversal is pinned to
"apply sigma_{T,g} first":  sigma_{T,g g'} = sigma_{T,g'} o sigma_{T,g}.
The left-transversal mirror puts the subgroup part on the right of the
decomposition g = t * kappa_T(g) and satisfies the same composition law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abelian import FgAbGroup, presentation_from_lattice

MAX_INPUT_ORDER = 128  # largest group read by from_json; checking a table is O(n^3)


class InvalidReps(ValueError):
    """A supplied double-coset representative set fails the partition check."""


class FiniteGroup:
    """Finite group given by a Cayley table with identity at index 0."""

    def __init__(self, table, name: str = "G", validate: bool = True):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.name = name
        if validate:
            self._validate()
        self.inverse = self._build_inverses()
        self._cache: dict = {}

    def _validate(self):
        n = self.order
        if n == 0:
            raise ValueError("empty table")
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise ValueError("table is not square")
            if sorted(row) != list(range(n)):
                raise ValueError(f"row {i} is not a permutation")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValueError("index 0 is not an identity")
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise ValueError(
                            f"associativity fails at ({a},{b},{c})")

    def _build_inverses(self):
        inv = [0] * self.order
        for a in range(self.order):
            row = self.table[a]
            inv[a] = row.index(0)
        return tuple(inv)

    # -- arithmetic ------------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def power(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inverse[a], -n
        r = 0
        while n:
            if n & 1:
                r = self.table[r][a]
            a = self.table[a][a]
            n >>= 1
        return r

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inverse[g])

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(a, b), self.mul(self.inverse[a], self.inverse[b]))

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != 0:
            x = self.table[x][a]
            n += 1
        return n

    # -- construction ----------------------------------------------------
    @classmethod
    def from_permutations(cls, degree: int, generators, name: str = "G",
                          max_order: int | None = None) -> "FiniteGroup":
        """Group of permutations (0-based image lists); ValueError past max_order."""
        gens = [tuple(g) for g in generators]
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise ValueError("generator is not a permutation")
        ident = tuple(range(degree))
        elems = [ident]
        index = {ident: 0}
        frontier = [ident]
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = tuple(g[p[i]] for i in range(degree))
                if q not in index:
                    index[q] = len(elems)
                    elems.append(q)
                    frontier.append(q)
                    if max_order is not None and len(elems) > max_order:
                        raise ValueError(f"group order exceeds the maximum {max_order}")
        n = len(elems)
        table = [[0] * n for _ in range(n)]
        for i, p in enumerate(elems):
            for j, q in enumerate(elems):
                table[i][j] = index[tuple(p[q[k]] for k in range(degree))]
        g = cls(table, name=name, validate=False)
        g.inverse = g._build_inverses()
        g._cache["permutations"] = tuple(elems)
        return g

    # -- subgroups -------------------------------------------------------
    def subgroup(self, elements) -> "Subgroup":
        return Subgroup(self, elements)

    def generated_subgroup(self, gens) -> "Subgroup":
        closure = {0}
        frontier = [0]
        gens = list(gens) + [self.inverse[g] for g in gens]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.table[x][g]
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        return Subgroup(self, closure, validate=False)

    def full_subgroup(self) -> "Subgroup":
        if "full" not in self._cache:
            self._cache["full"] = Subgroup(self, range(self.order), validate=False)
        return self._cache["full"]

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,), validate=False)

    def all_subgroups(self) -> tuple:
        """Every subgroup, found by closing cyclic seeds under extension."""
        if "subgroups" in self._cache:
            return self._cache["subgroups"]
        found: dict[tuple, Subgroup] = {}
        queue = [self.trivial_subgroup()]
        found[(0,)] = queue[0]
        for g in range(1, self.order):
            h = self.generated_subgroup([g])
            if h.elements not in found:
                found[h.elements] = h
                queue.append(h)
        while queue:
            h = queue.pop()
            for g in range(1, self.order):
                if g in h.element_set:
                    continue
                bigger = self.generated_subgroup(list(h.elements) + [g])
                if bigger.elements not in found:
                    found[bigger.elements] = bigger
                    queue.append(bigger)
        subs = tuple(sorted(found.values(), key=lambda s: (len(s.elements), s.elements)))
        self._cache["subgroups"] = subs
        return subs

    def center(self) -> "Subgroup":
        if "center" not in self._cache:
            z = [a for a in range(self.order)
                 if all(self.table[a][b] == self.table[b][a] for b in range(self.order))]
            self._cache["center"] = Subgroup(self, z, validate=False)
        return self._cache["center"]

    def is_abelian(self) -> bool:
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.order) for b in range(a))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    def to_json(self) -> dict:
        return {"cayley_table": [list(r) for r in self.table]}

    @classmethod
    def from_json(cls, data: dict, name: str = "G") -> "FiniteGroup":
        if "cayley_table" in data:
            if len(data["cayley_table"]) > MAX_INPUT_ORDER:
                raise ValueError(f"group order exceeds the maximum {MAX_INPUT_ORDER}")
            return cls(data["cayley_table"], name=name)
        if "perm_generators" in data:
            return cls.from_permutations(data["degree"], data["perm_generators"],
                                         name=name, max_order=MAX_INPUT_ORDER)
        raise ValueError("group data needs 'cayley_table' or 'perm_generators'")


class Subgroup:
    """Subgroup handle: parent group plus a sorted element index set."""

    __slots__ = ("parent", "elements", "element_set")

    def __init__(self, parent: FiniteGroup, elements, validate: bool = True):
        self.parent = parent
        self.elements = tuple(sorted(set(elements)))
        self.element_set = frozenset(self.elements)
        if validate:
            if not self.element_set <= set(range(parent.order)):
                raise ValueError("subgroup element out of range")
            if 0 not in self.element_set:
                raise ValueError("subgroup must contain the identity")
            for a in self.elements:
                if parent.inverse[a] not in self.element_set:
                    raise ValueError("subgroup not closed under inverses")
                for b in self.elements:
                    if parent.table[a][b] not in self.element_set:
                        raise ValueError("subgroup not closed under products")

    def __contains__(self, g: int) -> bool:
        return g in self.element_set

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        if self.parent is not other.parent:
            raise ValueError("cannot compare subgroups of different parents")
        return self.elements == other.elements

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __repr__(self):
        return f"Subgroup{self.elements}"

    @property
    def index(self) -> int:
        return self.parent.order // len(self.elements)

    def is_subgroup_of(self, other: "Subgroup") -> bool:
        return self.element_set <= other.element_set

    def is_normal_in(self, other: "Subgroup") -> bool:
        p, key = self.parent, ("normal_in", self.elements, other.elements)
        if key not in p._cache:
            p._cache[key] = all(p.conj(g, x) in self.element_set
                                for g in other.elements for x in self.elements)
        return p._cache[key]

    def is_normal(self) -> bool:
        return self.is_normal_in(self.parent.full_subgroup())

    def conjugate(self, g: int) -> "Subgroup":
        p = self.parent
        return Subgroup(p, (p.conj(g, x) for x in self.elements), validate=False)

    def intersection(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.parent, self.element_set & other.element_set,
                        validate=False)

    def to_json(self) -> dict:
        return {"elements": list(self.elements)}


def subgroup_key_to_id(key) -> str:
    return ",".join(str(x) for x in key)


def subgroup_id_to_key(s: str):
    return tuple(int(x) for x in s.split(",")) if s else ()


@dataclass(frozen=True)
class Transversal:
    """Ordered full set of coset representatives.

    ``ambient`` defaults to the whole parent group; passing a subgroup
    gives a transversal of ``subgroup`` inside that ambient subgroup.
    ``rep_of`` maps each element of the ambient to the representative of
    its coset; it is built here and takes no part in equality or hashing.
    """

    subgroup: Subgroup
    side: str  # "right" or "left"
    reps: tuple[int, ...]
    ambient: Subgroup | None = None
    rep_of: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        p = self.subgroup.parent
        ambient_size = p.order
        if self.ambient is not None:
            if not self.subgroup.is_subgroup_of(self.ambient):
                raise ValueError("subgroup must lie inside the ambient")
            if not set(self.reps) <= self.ambient.element_set:
                raise ValueError("representatives must lie in the ambient")
            ambient_size = len(self.ambient.elements)
        rep_of: dict[int, int] = {}
        for t in self.reps:
            # cosets partition the ambient and t lies in its own coset, so
            # t repeats a coset exactly when an earlier coset holds it
            if t in rep_of:
                raise ValueError("representatives repeat a coset")
            if self.side == "right":
                rep_of.update({p.table[h][t]: t for h in self.subgroup.elements})
            else:
                rep_of.update({p.table[t][h]: t for h in self.subgroup.elements})
        if len(self.reps) * len(self.subgroup.elements) != ambient_size:
            raise ValueError("representatives do not cover the ambient")
        object.__setattr__(self, "rep_of", rep_of)

    @property
    def is_unitary(self) -> bool:
        return 0 in self.reps


def _min_reps(elements, block) -> tuple[int, ...]:
    """Least element of each block, ascending.

    ``elements`` must be ascending and ``block(x)`` must list the block of
    x, so that the blocks partition ``elements``.
    """
    reps, seen = [], set()
    for x in elements:
        if x not in seen:
            reps.append(x)
            seen.update(block(x))
    return tuple(reps)


def cosets(h: Subgroup, i: Subgroup, side: str = "left") -> Transversal:
    """The transversal of the left (x*I) or right (I*x) cosets of i in h
    by their least elements, ascending.

    Memoised in the parent's cache, so one (h, i, side) gives one shared
    object.  Its ambient is h, or None when h is the whole group; the
    Transversal rejects an i outside h and a side other than these two.
    """
    p = h.parent
    key = ("cosets", h.elements, i.elements, side)
    if key not in p._cache:
        table = p.table
        if side == "left":
            reps = _min_reps(h.elements, lambda x: [table[x][a] for a in i.elements])
        else:
            reps = _min_reps(h.elements, lambda x: [table[a][x] for a in i.elements])
        ambient = None if len(h.elements) == p.order else h
        p._cache[key] = Transversal(i, side, reps, ambient)
    return p._cache[key]


def coset_reps(h: Subgroup, i: Subgroup, side: str = "left") -> tuple[int, ...]:
    """Least element of each left (x*I) or right (I*x) coset of i in h."""
    return cosets(h, i, side).reps


def right_transversal(g: FiniteGroup, h: Subgroup) -> Transversal:
    """Deterministic right transversal: minimal element per coset, ascending."""
    return cosets(g.full_subgroup(), h, "right")


def left_transversal(g: FiniteGroup, h: Subgroup) -> Transversal:
    return cosets(g.full_subgroup(), h, "left")


def t_remover(t: Transversal, g: int) -> int:
    """Subgroup part of the unique decomposition along the transversal.

    Right transversal: g = kappa * rep; left transversal: g = rep * kappa.
    """
    p = t.subgroup.parent
    r = t.rep_of.get(g)
    if r is None:
        raise ValueError(f"element {g} is outside the ambient of the transversal")
    if t.side == "right":
        return p.table[g][p.inverse[r]]
    return p.table[p.inverse[r]][g]


def t_permutation(t: Transversal, g: int) -> dict[int, int]:
    """The rep permutation sigma with t*g = kappa(t*g)*sigma(t) (right side).

    Left side mirror: g*t = sigma(t)*kappa(g*t).
    """
    # r*g and g*r lie in the ambient, which holds r, exactly when g does
    if g not in t.rep_of:
        raise ValueError(f"element {g} is outside the ambient of the transversal")
    table = t.subgroup.parent.table
    if t.side == "right":
        return {r: t.rep_of[table[r][g]] for r in t.reps}
    return {r: t.rep_of[table[g][r]] for r in t.reps}


def double_coset_reps(g: FiniteGroup, u: Subgroup, v: Subgroup,
                      within: Subgroup | None = None) -> tuple[int, ...]:
    """Minimal representatives of the (U,V)-double cosets, ascending.

    The cosets partition G, or ``within`` when given (U and V inside it).
    """
    elements = range(g.order) if within is None else within.elements
    return _min_reps(elements, lambda x: double_coset_of(g, u, v, x))


def double_coset_of(g: FiniteGroup, u: Subgroup, v: Subgroup, x: int) -> frozenset:
    out = set()
    for a in u.elements:
        ax = g.table[a][x]
        for b in v.elements:
            out.add(g.table[ax][b])
    return frozenset(out)


def check_double_coset_reps(g: FiniteGroup, u: Subgroup, v: Subgroup, reps) -> None:
    """Raise InvalidReps unless the (U,V)-double cosets of reps partition G."""
    covered = set()
    for rho in reps:
        dc = double_coset_of(g, u, v, rho)
        if covered & dc:
            raise InvalidReps("double cosets of the representatives overlap")
        covered |= dc
    if len(covered) != g.order:
        raise InvalidReps("double cosets do not cover the group")


def lift_double_coset_transversal(g: FiniteGroup, u: Subgroup, v: Subgroup,
                                  reps, transversals) -> Transversal:
    """Right transversal of U in G from double-coset data.

    ``transversals`` maps each rho in reps to a right transversal of
    U^rho n V in V; the lifted reps are the products rho*t.
    """
    check_double_coset_reps(g, u, v, reps)
    lifted = []
    for rho in reps:
        t_rho = transversals[rho]
        u_rho = Subgroup(g, (g.conj(g.inverse[rho], x) for x in u.elements),
                         validate=False)
        expected = u_rho.intersection(v)
        if (t_rho.subgroup != expected or t_rho.side != "right"
                or t_rho.ambient is None or t_rho.ambient != v):
            raise InvalidReps(
                "need a right transversal of U^rho n V inside V")
        for t in t_rho.reps:
            lifted.append(g.table[rho][t])
    return Transversal(u, "right", tuple(lifted))


def commutator_subgroup(h: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators of h (normal in h)."""
    p = h.parent
    comms = {p.commutator(a, b) for a in h.elements for b in h.elements}
    return p.generated_subgroup(comms)


class CosetCoordinateMap:
    """Quotient map from a subgroup onto an abelian quotient in normal form.

    ``coords(h)`` gives the canonical coordinates of h*R and ``gen_reps``
    holds one group element per canonical generator; ``section`` rebuilds
    a representative from coordinates.
    """

    def __init__(self, subgroup: Subgroup, kernel: Subgroup,
                 group: FgAbGroup, coords: dict[int, tuple],
                 gen_reps: tuple[int, ...]):
        self.subgroup = subgroup
        self.kernel = kernel
        self.group = group
        self._coords = coords
        self.gen_reps = gen_reps

    def __call__(self, h: int) -> tuple[int, ...]:
        return self._coords[h]

    def section(self, vector) -> int:
        p = self.subgroup.parent
        out = 0
        for g, n in zip(self.gen_reps, self.group.reduce(vector)):
            out = p.mul(out, p.power(g, n))
        return out


def abelian_quotient(h: Subgroup, r: Subgroup) -> tuple[FgAbGroup, CosetCoordinateMap]:
    """Normal form of H/R for a normal R with abelian quotient."""
    p = h.parent
    key = ("abq", h.elements, r.elements)
    if key in p._cache:
        return p._cache[key]
    if not r.is_subgroup_of(h):
        raise ValueError("kernel must be contained in the subgroup")
    if not r.is_normal_in(h):
        raise ValueError("kernel must be normal in the subgroup")
    # cosets with min-element representatives
    t = cosets(h, r)
    reps, rep_of = t.reps, t.rep_of

    def cmul(a, b):
        return rep_of[p.table[a][b]]

    for a in reps:
        for b in reps:
            if cmul(a, b) != cmul(b, a):
                raise ValueError("quotient is not abelian")

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
    k = len(gens)
    # BFS word vectors over the generators
    word = {0: (0,) * k}
    frontier = [0]
    while frontier:
        x = frontier.pop(0)
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
    coords = {}
    for x in h.elements:
        coords[x] = group.reduce(to_new(list(word[rep_of[x]])))
    gen_reps = []
    for rep_vec in from_new:
        e = 0
        for g, n in zip(gens, rep_vec):
            e = p.mul(e, p.power(g, n))
        gen_reps.append(e)
    cmap = CosetCoordinateMap(h, r, group, coords, tuple(gen_reps))
    p._cache[key] = (group, cmap)
    return group, cmap


def abelianization(g: FiniteGroup) -> tuple[FgAbGroup, CosetCoordinateMap]:
    """Maximal abelian quotient of g with its quotient map."""
    if "abelianization" not in g._cache:
        full = g.full_subgroup()
        g._cache["abelianization"] = abelian_quotient(full, commutator_subgroup(full))
    return g._cache["abelianization"]


def quotient_group(g: FiniteGroup, n: Subgroup,
                   name: str | None = None) -> tuple[FiniteGroup, list[int]]:
    """Quotient by a normal subgroup; returns the group and g -> index map."""
    if not n.is_normal():
        raise ValueError("quotient needs a normal subgroup")
    t = cosets(g.full_subgroup(), n)
    index = {r: i for i, r in enumerate(t.reps)}
    table = [[index[t.rep_of[g.table[a][b]]] for b in t.reps] for a in t.reps]
    q = FiniteGroup(table, name=name or f"{g.name}/N", validate=False)
    return q, [index[t.rep_of[x]] for x in range(g.order)]


# ---------------------------------------------------------------------------
# generating sets
# ---------------------------------------------------------------------------

def _generating_set(g: FiniteGroup) -> tuple[int, ...]:
    """Greedy generators of g, least elements first; memoised on g."""
    if "generating_set" not in g._cache:
        gens: list[int] = []
        span = {0}
        for x in range(1, g.order):
            if x in span:
                continue
            gens.append(x)
            span = set(g.generated_subgroup(gens).elements)
            if len(span) == g.order:
                break
        g._cache["generating_set"] = tuple(gens)
    return g._cache["generating_set"]
