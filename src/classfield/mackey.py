"""RIC/Mackey functor engine over finite subgroup systems.

Functors are closed tables: every value (a finitely generated abelian
group in normal form) and every restriction/induction/conjugation edge
map (an integer matrix) is materialized, which keeps the exhaustive axiom
checkers deterministic and the reports serializable.  The built-in
tables (``stable_table`` and ``quotient_functor``) build their maps, each
validated, on the first read of any of them.

Built-in functors:
  * stable_table            -- res/ind/con from callbacks, con once per coset
  * quotient_table          -- H -> H/N(H), restriction = transfer; pi_R
                               and the tautological CFT
  * abelianization_functor  -- H -> H/R(H), restriction = transfer
  * fixed_point_functor     -- H -> A^H for a G-module A
  * omega_functor           -- constant cyclic value, res = *e, ind = *f
  * quotient_functor        -- value-wise cokernel of maps spanning a subfunctor
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from operator import add

from .abelian import (
    FgAbGroup, AbHom, _int_rows, _matmul, element_preimages, factor_through,
    fixed_subgroup, identity_matrix, is_isomorphism,
)
from .groups import (
    FiniteGroup, Subgroup, abelian_quotient, coset_reps, cosets, double_coset_reps,
    left_transversal, subgroup_generators, subgroup_id_to_key, subgroup_key_to_id,
)
from .ramification import RamificationDatum, degrees, inertia_subgroup
from .report import CheckItem
from .transfer import AbelianizationSystem, _pretransfers


class NotMackeySystem(ValueError):
    pass


class NotMackeyCover(ValueError):
    pass


class InvalidDescentBasis(ValueError):
    pass


class NotSubfunctor(ValueError):
    pass


# ---------------------------------------------------------------------------
# subgroup systems
# ---------------------------------------------------------------------------

SubKey = tuple  # sorted element tuple of a subgroup


class SubgroupSystem:
    """Base set of subgroups with restriction and induction edge sets.

    Keys are sorted element tuples.  ``res_sets[H]`` lists the subgroups
    restriction maps out of C(H) may target; ``ind_sets[H]`` the sources
    of induction maps into C(H).  The constructor checks the subgroup-system
    axioms and raises ``ValueError`` at the first failure, so every system
    is valid; ``is_mackey`` and ``is_arithmetic`` are read off the edge sets
    on first access.
    """

    def __init__(self, group: FiniteGroup, base, res_sets, ind_sets):
        self.group = group
        self._subs = {tuple(sorted(h.elements)): h for h in base}
        self._points = tuple(sorted(self._subs, key=lambda k: (len(k), k)))
        self.res_sets = {k: tuple(sorted(v)) for k, v in res_sets.items()}
        self.ind_sets = {k: tuple(sorted(v)) for k, v in ind_sets.items()}
        self._conj = {}
        gens = subgroup_generators(group.full_subgroup())
        if _system_failure(self, gens) is not None:
            failure = _system_failure(self, range(group.order))
            raise ValueError(f"{failure.detail} at {failure.witness}")

    def points(self):
        return self._points

    def below(self, key: SubKey) -> tuple:
        """The points inside ``key``, in ``points()`` order."""
        inside = set(key)
        return tuple(k for k in self._points if inside.issuperset(k))

    def subgroup(self, key: SubKey) -> Subgroup:
        return self._subs[key]

    def res_set(self, key: SubKey):
        return self.res_sets[key]

    def ind_set(self, key: SubKey):
        return self.ind_sets[key]

    def conjugate(self, g: int, key: SubKey) -> SubKey:
        out = self._conj.get((g, key))
        if out is None:
            grp = self.group
            out = self._conj[g, key] = tuple(sorted(grp.conj(g, x) for x in key))
        return out

    def __contains__(self, key: SubKey) -> bool:
        return key in self._subs

    @cached_property
    def is_mackey(self) -> bool:
        """I ∩ J lies in S_r(J) and in S_i(I) for every point H, every I in
        S_r(H) and every J in S_i(H)."""
        res, ind = self.res_sets, self.ind_sets
        for k in self._points:
            for ikey in res[k]:
                for jkey in ind[k]:
                    cap = tuple(sorted(set(ikey) & set(jkey)))
                    if cap not in res[jkey] or cap not in ind[ikey]:
                        return False
        return True

    @cached_property
    def is_arithmetic(self) -> bool:
        """S_r(H) and S_i(H) are all the points inside H, at every point H."""
        return all(set(self.res_sets[k]) == set(self.below(k)) == set(self.ind_sets[k])
                   for k in self._points)


def _system_failure(system: SubgroupSystem, elems) -> CheckItem | None:
    """First failing subgroup-system axiom, taking the two conjugation
    conditions (the points, and each S_r and S_i, are conjugation-stable)
    only for g in ``elems``.

    The g whose conjugation maps the points onto points, and each S(X) onto
    S(gX), form a set closed under products: for two of them, g and h,
    ghX is a point and gh S(X) = g S(hX) = S(ghX).  A product-closed subset
    of the finite group G that holds a generating set is all of G.  So
    the pass over a generating set fails exactly when the pass over G does;
    only its first witness may differ, which is why the constructor reruns
    the failing pass over G.
    """
    fail = partial(CheckItem, "subgroup_system_valid", False)
    points = set(system.points())
    for k in points:
        for g in elems:
            if system.conjugate(g, k) not in points:
                return fail((g, k), "base not closed under conjugation")
    for star, sets in (("r", system.res_sets), ("i", system.ind_sets)):
        for k in points:
            entries = sets.get(k)
            if entries is None:
                return fail(k, f"missing {star}-set")
            if k not in entries:
                return fail(k, f"H not in S_{star}(H)")
            for j in entries:
                if j not in points or not set(j) <= set(k):
                    return fail((k, j), f"S_{star}(H) member not a subgroup of H")
                for l in sets.get(j, ()):
                    if l not in entries:
                        return fail((k, j, l), f"S_{star} not transitive")
            for g in elems:
                conj_k = system.conjugate(g, k)
                conj_entries = {system.conjugate(g, j) for j in entries}
                if conj_entries != set(sets.get(conj_k, ())):
                    return fail((g, k), f"S_{star} not conjugation-equivariant")
    return None


def full_system(group: FiniteGroup) -> SubgroupSystem:
    """Grp(G)^f: all subgroups, all restrictions and inductions."""
    key = "full_system"
    if key not in group._cache:
        group._cache[key] = system_from_predicate(group, lambda h, i: True)
    return group._cache[key]


def system_from_predicate(group: FiniteGroup, edge_ok) -> SubgroupSystem:
    """All subgroups as base; res/ind edges H -> I where edge_ok(H, I)."""
    subs = group.all_subgroups()
    keys = {h.elements: h for h in subs}
    res, ind = {}, {}
    for k, h in keys.items():
        allowed = tuple(j for j in keys
                        if set(j) <= set(k) and edge_ok(h, keys[j]))
        res[k] = allowed
        ind[k] = allowed
    return SubgroupSystem(group, subs, res, ind)


def unramified_system(datum: RamificationDatum) -> SubgroupSystem:
    """Res/ind restricted to unramified subgroups (I ⊇ I_H)."""
    def edge_ok(h, i):
        return set(inertia_subgroup(datum, h).elements) <= i.element_set

    return system_from_predicate(datum.group, edge_ok)


# ---------------------------------------------------------------------------
# G-modules
# ---------------------------------------------------------------------------

class GModule:
    """Finitely generated abelian group with a validated G-action."""

    def __init__(self, group: FiniteGroup, underlying: FgAbGroup,
                 action: dict[int, AbHom], validate: bool = True):
        self.group = group
        self.underlying = underlying
        self.action = dict(action)
        if validate:
            self._validate()

    def _validate(self):
        g = self.group
        if set(self.action) != set(range(g.order)):
            raise ValueError("action must cover every element")
        for a in range(g.order):
            m = self.action[a]
            if m.domain != self.underlying or m.codomain != self.underlying:
                raise ValueError("action maps must be endomorphisms")
        for a in range(g.order):
            for b in range(g.order):
                lhs = self.action[a].compose(self.action[b])
                if lhs != self.action[g.table[a][b]]:
                    raise ValueError(f"action breaks at ({a},{b})")
        # the product law and action[1] = id give a o a^-1 = id: automorphisms
        if self.action[0] != AbHom.identity(self.underlying):
            raise ValueError("identity must act trivially")


def trivial_module(group: FiniteGroup, underlying: FgAbGroup) -> GModule:
    ident = AbHom.identity(underlying)
    return GModule(group, underlying,
                   {a: ident for a in range(group.order)}, validate=False)


def permutation_module(group: FiniteGroup, stabilizer: Subgroup,
                       torsion: int = 0, sign_kernel: Subgroup | None = None
                       ) -> GModule:
    """Z[G/K]-style module (free or with Z/q coefficients).

    Coordinates are the left cosets gK; g acts by permuting them, twisted
    by the +-1 character with the given kernel when provided.
    """
    p = group
    t = left_transversal(p, stabilizer)
    index = {r: i for i, r in enumerate(t.reps)}
    n = len(t.reps)
    underlying = FgAbGroup(n) if torsion == 0 else FgAbGroup(0, (torsion,) * n)
    action = {}
    for g in range(p.order):
        sign = 1
        if sign_kernel is not None and g not in sign_kernel.element_set:
            sign = -1
        cols = []
        for r in t.reps:
            target = index[t.rep_of[p.table[g][r]]]
            col = [0] * n
            col[target] = sign
            cols.append(col)
        action[g] = AbHom.from_columns(underlying, underlying, cols)
    return GModule(p, underlying, action, validate=False)


def sign_module(group: FiniteGroup, kernel: Subgroup,
                torsion: int = 0) -> GModule:
    """Rank-one module twisted by the +-1 character with the given kernel."""
    if kernel.index != 2:
        raise ValueError("sign character needs an index-2 kernel")
    underlying = FgAbGroup(1) if torsion == 0 else FgAbGroup(0, (torsion,))
    action = {}
    for g in range(group.order):
        s = 1 if g in kernel.element_set else -1
        action[g] = AbHom.multiplication(underlying, s)
    return GModule(group, underlying, action, validate=False)


# ---------------------------------------------------------------------------
# RIC functors
# ---------------------------------------------------------------------------

@dataclass
class RicFunctor:
    """Closed functor table over a subgroup system or spectrum domain.

    A ``deferred`` table builds res, ind and con, validating each map, on the
    first read of any of them; a build that raises leaves them unset.
    """

    domain: object
    values: dict
    res: dict    # (I, H) -> AbHom C(H) -> C(I)
    ind: dict    # (H, I) -> AbHom C(I) -> C(H)
    con: dict    # (g, H) -> AbHom C(H) -> C(^gH)
    meta: dict = field(default_factory=dict)

    @classmethod
    def deferred(cls, domain, values: dict, build, meta: dict) -> RicFunctor:
        """A table whose ``build()`` returns (res, ind, con) on the first read."""
        phi = cls.__new__(cls)
        phi.domain, phi.values, phi.meta, phi._build = domain, values, meta, build
        return phi

    def __getattr__(self, name):
        # reached only while an attribute is unset: the maps of a deferred table
        if name not in ("res", "ind", "con") or "_build" not in self.__dict__:
            raise AttributeError(name)
        self.res, self.ind, self.con = self._build()
        del self._build
        return self.__dict__[name]


def validate_ric_functor(phi: RicFunctor) -> CheckItem:
    """Structural completeness plus triviality/transitivity/equivariance.

    Typing, the identities and res/ind transitivity are checked for every
    point and edge; the con axioms only for s in a generating set S of G:
      (T) con_{s,gX} o con_{g,X} = con_{sg,X} for every g in G;
      (E) con_{s,Y} o res_{Y,X} = res_{sY,sX} o con_{s,X}, and the same
          square for ind.
    With con_{1,X} = id this proves both axioms for all of G x G, by
    induction on the length of h as a word in S (a positive word, as G is
    finite). If con_{h,gX} o con_{g,X} = con_{hg,X} for all g and X, then
    by (T) at (s, h, gX) and at (s, hg, X)
      con_{sh,gX} o con_{g,X} = con_{s,hgX} o con_{h,gX} o con_{g,X}
                              = con_{s,hgX} o con_{hg,X} = con_{shg,X}.
    With transitivity for all of G x G, equivariance for h and (E) at
    (s, hY, hX) give
      con_{sh,Y} o res_{Y,X} = con_{s,hY} o res_{hY,hX} o con_{h,X}
                             = res_{shY,shX} o con_{sh,X}.
    That step needs hY in S_r(hX) (or S_i(hX)): conjugation must preserve
    the points and edge sets, and it does on every domain.  A subgroup
    system checks this when it is built; a spectrum's edges are read off S
    and E, and ``Spectrum._validate_extension`` checks that E is
    equivariant.  When the reduced pass fails, the checks rerun over all
    of G, which reports the exhaustive scan's first witness; that pass
    fails too, since S is a subset of G.
    """
    grp = phi.domain.group
    if _ric_failure(phi, subgroup_generators(grp.full_subgroup())) is None:
        return CheckItem("ric_axioms", True)
    return _ric_failure(phi, range(grp.order))


def _ric_failure(phi: RicFunctor, elems) -> CheckItem | None:
    """First failing RIC axiom, taking the con axioms only for s in elems."""
    fail = partial(CheckItem, "ric_axioms", False)
    dom = phi.domain
    grp = dom.group
    points = dom.points()
    for x in points:
        if x not in phi.values:
            return fail(x, "missing value")
        for y in dom.res_set(x):
            h = phi.res.get((y, x))
            if h is None or h.domain != phi.values[x] or h.codomain != phi.values[y]:
                return fail((y, x), "missing or mistyped res")
        for y in dom.ind_set(x):
            h = phi.ind.get((x, y))
            if h is None or h.domain != phi.values[y] or h.codomain != phi.values[x]:
                return fail((x, y), "missing or mistyped ind")
        for g in range(grp.order):
            h = phi.con.get((g, x))
            gx = dom.conjugate(g, x)
            if h is None or h.domain != phi.values[x] or h.codomain != phi.values[gx]:
                return fail((g, x), "missing or mistyped con")
    for x in points:
        ident = AbHom.identity(phi.values[x])
        if phi.res[(x, x)] != ident:
            return fail(x, "res_{x,x} != id")
        if phi.ind[(x, x)] != ident:
            return fail(x, "ind_{x,x} != id")
        if phi.con[(0, x)] != ident:
            return fail(x, "con_{1,x} != id")
    res_set = {x: dom.res_set(x) for x in points}
    ind_set = {x: dom.ind_set(x) for x in points}
    for x in points:
        for y in res_set[x]:
            for z in dom.res_set(y):
                if phi.res[(z, y)].compose(phi.res[(y, x)]) != phi.res[(z, x)]:
                    return fail((z, y, x), "res not transitive")
        for y in ind_set[x]:
            for z in dom.ind_set(y):
                if phi.ind[(x, y)].compose(phi.ind[(y, z)]) != phi.ind[(x, z)]:
                    return fail((x, y, z), "ind not transitive")
        for g1 in range(grp.order):
            gx = dom.conjugate(g1, x)
            for g2 in elems:
                lhs = phi.con[(g2, gx)].compose(phi.con[(g1, x)])
                if lhs != phi.con[(grp.mul(g2, g1), x)]:
                    return fail((g2, g1, x), "con not transitive")
    for x in points:
        for g in elems:
            gx = dom.conjugate(g, x)
            for y in res_set[x]:
                gy = dom.conjugate(g, y)
                lhs = phi.con[(g, y)].compose(phi.res[(y, x)])
                rhs = phi.res[(gy, gx)].compose(phi.con[(g, x)])
                if lhs != rhs:
                    return fail((g, y, x), "res not equivariant")
            for y in ind_set[x]:
                gy = dom.conjugate(g, y)
                lhs = phi.con[(g, x)].compose(phi.ind[(x, y)])
                rhs = phi.ind[(gx, gy)].compose(phi.con[(g, y)])
                if lhs != rhs:
                    return fail((g, x, y), "ind not equivariant")
    return None


def check_stability(phi: RicFunctor) -> CheckItem:
    """con_{h,H} = id for h in H."""
    fail = partial(CheckItem, "stability", False)
    dom = phi.domain
    for x in dom.points():
        for h in dom.subgroup(x):
            if phi.con[(h, x)] != AbHom.identity(phi.values[x]):
                return fail((h, x), "con_{h,H} != id")
    return CheckItem("stability", True)


def check_mackey_formula(phi: RicFunctor) -> CheckItem:
    """res o ind = sum over double cosets of ind o con o res.

    Each sum is taken over raw matrices and reduced once, modulo C(I).
    That equals reducing after every product, because each edge map is
    well defined: a torsion generator's column is killed by its order.
    """
    fail = partial(CheckItem, "mackey_formula", False)
    dom = phi.domain
    if not isinstance(dom, SubgroupSystem):
        raise NotMackeySystem("Mackey formula needs a subgroup-system domain")
    if not dom.is_mackey:
        raise NotMackeySystem("domain fails the Mackey-system conditions")
    grp = dom.group
    for hkey in dom.points():
        h = dom.subgroup(hkey)
        for ikey in dom.res_set(hkey):
            i_sub = dom.subgroup(ikey)
            c_i = phi.values[ikey]
            for jkey in dom.ind_set(hkey):
                j_sub = dom.subgroup(jkey)
                c_j = phi.values[jkey]
                lhs = phi.res[(ikey, hkey)].compose(phi.ind[(hkey, jkey)])
                rhs = [[0] * c_j.rank for _ in range(c_i.rank)]
                for rho in double_coset_reps(grp, i_sub, j_sub, within=h):
                    i_conj = dom.conjugate(grp.inverse[rho], ikey)
                    cap_right = tuple(sorted(set(i_conj) & set(jkey)))
                    cap_left = dom.conjugate(rho, cap_right)
                    ind = phi.ind[(ikey, cap_left)]
                    con = phi.con[(rho, cap_right)]
                    res = phi.res[(cap_right, jkey)]
                    if (ind.domain, con.domain, res.domain, ind.codomain) != \
                            (con.codomain, res.codomain, c_j, c_i):
                        raise ValueError("composition mismatch")
                    term = _matmul(ind.matrix, _matmul(con.matrix, res.matrix,
                                                       c_j.rank), c_j.rank)
                    rhs = [list(map(add, a, b)) for a, b in zip(rhs, term)]
                if lhs != AbHom(c_j, c_i, rhs):
                    return fail((hkey, ikey, jkey), "Mackey formula fails")
    return CheckItem("mackey_formula", True)


def check_cohomological(phi: RicFunctor) -> CheckItem:
    """ind o res = multiplication by the index on every allowed pair."""
    fail = partial(CheckItem, "cohomological", False)
    dom = phi.domain
    for hkey in dom.points():
        allowed = set(dom.res_set(hkey)) & set(dom.ind_set(hkey))
        for ikey in allowed:
            n = len(hkey) // len(ikey)
            lhs = phi.ind[(hkey, ikey)].compose(phi.res[(ikey, hkey)])
            if lhs != AbHom.multiplication(phi.values[hkey], n):
                return fail((hkey, ikey), "ind o res != index multiple")
    return CheckItem("cohomological", True)


# ---------------------------------------------------------------------------
# built-in functors
# ---------------------------------------------------------------------------

def stable_table(domain, values: dict, res_of, ind_of, con_of,
                 meta: dict) -> RicFunctor:
    """A stable table whose res, ind and con are built on the first read of any.

    ``res_of(y, x)`` makes res_{y,x}, ``ind_of(x, y)`` makes ind_{x,y} and
    ``con_of(r, x, rx)`` makes con_{r,x}, each validating its map.  With
    H = domain.subgroup(x), ``con_of`` runs once per least representative r
    of a left coset rH, and its map is stored for every g in rH.  Those maps
    are equal, entry by entry, to the ones built from g: write g = r*h with
    h in H.
      * h fixes x, so gx = rx: H normalises itself, and each U in E(H) of a
        spectrum point (H, U) is normal in H.
      * Quotient tables: h*a*h^-1 = a*c with c in [H,H], so g*a*g^-1 and
        r*a*r^-1 differ by r*c*r^-1 in [rHr^-1, rHr^-1], which the kernel
        at rx contains, as ``abelian_quotient`` makes it normal with an
        abelian quotient.  Both give the same reduced coordinates.
      * Fixed points: the action is a homomorphism (validated, or built as
        one), so act(g) o emb_H = act(r) o act(h) o emb_H, and act(h)
        fixes A^H pointwise.  Both right-hand sides have the same reduced
        columns, so ``factor_through`` returns the same solution.
      * Omega_d: every con is the identity.
    Entries are inserted in the order of g, as a per-element loop would.
    """
    grp = domain.group

    def build():
        res, ind, con = {}, {}, {}
        for x in domain.points():
            res.update(((y, x), res_of(y, x)) for y in domain.res_set(x))
            ind.update(((x, y), ind_of(x, y)) for y in domain.ind_set(x))
            h = domain.subgroup(x)
            t = cosets(grp.full_subgroup(), h)  # shared by every point over H
            maps = {r: con_of(r, x, domain.conjugate(r, x)) for r in t.reps}
            con.update(((g, x), maps[t.rep_of[g]]) for g in range(grp.order))
        return res, ind, con
    return RicFunctor.deferred(domain, values, build, meta)


def quotient_table(domain, kernels: dict, meta: dict) -> RicFunctor:
    """The stable table x -> H/N with H = domain.subgroup(x) and N = kernels[x].

    Restriction along I <= H is the transfer from H to I; induction and
    conjugation are induced by inclusion and conjugation, each map made by
    ``AbHom.from_columns``.  Values are built here; ``meta`` gains the coset
    coordinate maps under "coords".
    """
    values, coords = {}, {}
    for x in domain.points():
        values[x], coords[x] = abelian_quotient(domain.subgroup(x), kernels[x])

    def by_reps(src, dst, reps):  # generator i of C(src) to the class of reps[i]
        return AbHom.from_columns(values[src], values[dst],
                                  [list(coords[dst](a)) for a in reps])

    def res_of(y, x):
        if y == x:
            return AbHom.identity(values[x])
        return by_reps(x, y, _pretransfers(domain.subgroup(x), domain.subgroup(y),
                                           coords[x].gen_reps))
    return stable_table(
        domain, values, res_of, lambda x, y: by_reps(y, x, coords[y].gen_reps),
        lambda r, x, rx: by_reps(x, rx, [domain.group.conj(r, a)
                                         for a in coords[x].gen_reps]),
        dict(meta, coords=coords))


def abelianization_functor(system: SubgroupSystem,
                           rsys: AbelianizationSystem) -> RicFunctor:
    """pi_R: H -> H/R(H), the quotient table of the system by R."""
    kernels = {key: rsys.assignment[key] for key in system.points()}
    return quotient_table(system, kernels,
                          {"kind": "abelianization", "system_r": rsys})


def fixed_point_functor(module: GModule, system: SubgroupSystem) -> RicFunctor:
    """A_*: H -> A^H, each distinct A^H presented once; inclusion res, norm ind."""
    amb = module.underlying
    values, embeds, keys = {}, {}, {}
    for x in system.points():
        k = fixed_subgroup(amb, [module.action[a] for a in x])
        values[x], embeds[x] = keys.setdefault(k, k).presentation

    def ind_of(x, y):
        norm = AbHom.zero(amb, amb)
        for r in coset_reps(system.subgroup(x), system.subgroup(y)):
            norm = norm.add(module.action[r])
        return factor_through(embeds[x], norm.compose(embeds[y]))
    return stable_table(
        system, values, lambda y, x: factor_through(embeds[y], embeds[x]), ind_of,
        lambda r, x, rx: factor_through(embeds[rx], module.action[r].compose(embeds[x])),
        {"kind": "fixed_point", "module": module, "embeddings": embeds})


def omega_functor(datum: RamificationDatum, system: SubgroupSystem,
                  omega: FgAbGroup) -> RicFunctor:
    """Constant cyclic functor with res = *e and ind = *f."""
    if omega.rank > 1:
        raise ValueError("omega must be cyclic (rank at most 1)")

    def degree(x, y, which):  # e (0) or f (1) of the edge from x down to y
        return AbHom.multiplication(
            omega, degrees(datum, system.subgroup(x), system.subgroup(y))[which])
    return stable_table(
        system, {key: omega for key in system.points()},
        lambda y, x: degree(x, y, 0), lambda x, y: degree(x, y, 1),
        lambda r, x, rx: AbHom.identity(omega), {"kind": "omega", "datum": datum})


def quotient_functor(phi: RicFunctor, subs: dict) -> RicFunctor:
    """Quotient of phi by the images of the maps ``subs[x]`` into ``phi.values[x]``.

    Every edge map must preserve the family of images (checked here on the
    rows of each ``subs[x].image``, which generate it, each distinct (con
    map, gX) at x once; NotSubfunctor on the first failing edge).  The value
    and projection at x are ``subs[x].cokernel``, cached on the map.  The
    induced res, ind and con are built on the first read of any of them, each
    validated then by ``AbHom.from_columns``, once per distinct (map, source,
    target).
    """
    dom = phi.domain
    keys = {x: subs[x].image for x in dom.points()}
    for x in dom.points():
        gens = keys[x].rows
        for y in dom.res_set(x):
            if not keys[y].contains(*map(phi.res[(y, x)], gens)):
                raise NotSubfunctor(f"res edge ({y},{x}) escapes subfunctor")
        tested = set()  # a skipped g repeats a passed (map, gX)
        for g in range(dom.group.order):
            edge = m, gx = phi.con[(g, x)], dom.conjugate(g, x)
            if edge not in tested:
                tested.add(edge)
                if not keys[gx].contains(*map(m, gens)):
                    raise NotSubfunctor(f"con edge ({g},{x}) escapes subfunctor")
        for y in dom.ind_set(x):
            if not keys[x].contains(*map(phi.ind[(x, y)], keys[y].rows)):
                raise NotSubfunctor(f"ind edge ({x},{y}) escapes subfunctor")
    values, projs, lifts = {}, {}, {}
    for x in dom.points():
        values[x], projs[x] = subs[x].cokernel
        lifts[x] = element_preimages(projs[x], identity_matrix(values[x].rank))
    res, ind, con = dict(phi.res), dict(phi.ind), dict(phi.con)  # the maps checked

    def build():  # one map per distinct (map, source, target) in each run
        induced = cache(lambda m, src, dst: AbHom.from_columns(
            values[src], values[dst], [projs[dst](m(v)) for v in lifts[src]]))
        return ({(y, x): induced(m, x, y) for (y, x), m in res.items()},
                {(x, y): induced(m, y, x) for (x, y), m in ind.items()},
                {(g, x): induced(m, x, dom.conjugate(g, x)) for (g, x), m in con.items()})
    return RicFunctor.deferred(dom, values, build,
                               {"kind": "quotient", "of": phi, "projections": projs})


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

@dataclass
class FunctorMorphism:
    source: RicFunctor
    target: RicFunctor
    components: dict


def validate_functor_morphism(phi: FunctorMorphism) -> CheckItem:
    """All res/ind/con squares commute; each distinct con square at a point once."""
    fail = partial(CheckItem, "morphism", False)
    src, tgt = phi.source, phi.target
    dom = src.domain
    if tgt.domain is not dom:
        return fail(None, "source and target domains differ")
    for x in dom.points():
        c = phi.components.get(x)
        if c is None or c.domain != src.values[x] or c.codomain != tgt.values[x]:
            return fail(x, "missing or mistyped component")
    for x in dom.points():
        for y in dom.res_set(x):
            lhs = phi.components[y].compose(src.res[(y, x)])
            rhs = tgt.res[(y, x)].compose(phi.components[x])
            if lhs != rhs:
                return fail(("res", y, x), "res square fails")
        for y in dom.ind_set(x):
            lhs = phi.components[x].compose(src.ind[(x, y)])
            rhs = tgt.ind[(x, y)].compose(phi.components[y])
            if lhs != rhs:
                return fail(("ind", x, y), "ind square fails")
        squares = set()  # a skipped g repeats a passed square
        for g in range(dom.group.order):
            square = gx, s, t = dom.conjugate(g, x), src.con[(g, x)], tgt.con[(g, x)]
            if square not in squares:
                squares.add(square)
                if phi.components[gx].compose(s) != t.compose(phi.components[x]):
                    return fail(("con", g, x), "con square fails")
    return CheckItem("morphism", True)


# ---------------------------------------------------------------------------
# descent, colimits and the adjunction
# ---------------------------------------------------------------------------

def _validate_descent_basis(system: SubgroupSystem, basis,
                            require_cofinal: bool = True) -> Subgroup:
    """Returns the minimum N0 of a valid finite-level descent basis.

    Cofinality (every base group contains a basis member) is needed for
    the adjunction unit but not for the bare colimit, whose finite-level
    value only sees the minimum; functor_colimit therefore skips it.  No
    separate filter-basis check is run: a minimum N0 lies in every a ∩ b
    and is a member, so a basis with a minimum is a filter basis.
    """
    if not basis:
        raise InvalidDescentBasis("basis is empty")
    for b in basis:
        if not b.is_normal():
            raise InvalidDescentBasis(f"{b.elements} is not normal")
        if b.elements not in system:
            raise InvalidDescentBasis(f"{b.elements} not in the system base")
    for key in system.points():
        members = [b for b in basis if b.element_set <= set(key)]
        if require_cofinal and not members:
            raise InvalidDescentBasis(f"basis not cofinal below {key}")
        for b in members:
            if b.elements not in system.res_sets[key]:
                raise InvalidDescentBasis(
                    f"basis member {b.elements} not in S_r({key})")
    n0 = min(basis, key=lambda b: len(b.elements))
    for b in basis:
        if not n0.element_set <= b.element_set:
            raise InvalidDescentBasis("filter basis has no minimum")
    return n0


def functor_colimit(phi: RicFunctor, basis) -> GModule:
    """Finite-level colimit: Phi(N0) with g acting through conjugation."""
    system = phi.domain
    if not isinstance(system, SubgroupSystem):
        raise InvalidDescentBasis("colimit needs a subgroup-system domain")
    stab = check_stability(phi)
    if not stab.passed:
        raise InvalidDescentBasis(f"functor is not stable: {stab.witness}")
    n0 = _validate_descent_basis(system, basis, require_cofinal=False)
    key = n0.elements
    grp = system.group
    action = {g: phi.con[(g, key)] for g in range(grp.order)}
    return GModule(grp, phi.values[key], action)


def check_galois_descent(phi: RicFunctor, hkey, ukey) -> bool:
    """Is res_{U,H}: Phi(H) -> Phi(U)^{H/U} an isomorphism?"""
    system = phi.domain
    h = system.subgroup(hkey)
    u = system.subgroup(ukey)
    if not u.is_normal_in(h):
        raise ValueError("Galois descent needs U normal in H")
    if ukey not in system.res_sets[hkey]:
        raise ValueError("U must be a restriction target of H")
    # fixed_subgroup rejects a con that does not map Phi(U) to itself
    _, emb = fixed_subgroup(phi.values[ukey],
                            [phi.con[(x, ukey)] for x in h.elements]).presentation
    try:
        factored = factor_through(emb, phi.res[(ukey, hkey)])
    except ValueError:
        return False
    return is_isomorphism(factored)


@dataclass
class AdjunctionResult:
    counit: AbHom                  # epsilon(A): (A_*)* -> A
    counit_is_iso: bool
    unit: FunctorMorphism          # eta(Phi): Phi -> (Phi^*)_*
    unit_is_iso: bool
    unit_witness: object
    colimit_module: GModule


def adjunction_maps(module: GModule, phi: RicFunctor, basis) -> AdjunctionResult:
    """Counit for the module and unit for the functor, with iso verdicts."""
    system = phi.domain
    n0 = _validate_descent_basis(system, basis)
    _, counit = fixed_subgroup(module.underlying,
                               [module.action[a] for a in n0.elements]).presentation
    counit_iso = is_isomorphism(counit)

    colim = functor_colimit(phi, basis)
    colim_star = fixed_point_functor(colim, system)
    components = {}
    witness = None
    all_iso = True
    for key in system.points():
        emb = colim_star.meta["embeddings"][key]
        try:
            comp = factor_through(emb, phi.res[(n0.elements, key)])
        except ValueError:
            raise AssertionError("restriction must land in the fixed points")
        components[key] = comp
        if all_iso and not is_isomorphism(comp):
            all_iso = False
            witness = key
    unit = FunctorMorphism(phi, colim_star, components)
    return AdjunctionResult(counit, counit_iso, unit, all_iso, witness, colim)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def system_to_json(system: SubgroupSystem) -> dict:
    return {
        "base": [subgroup_key_to_id(k) for k in system.points()],
        "res": {subgroup_key_to_id(k): [subgroup_key_to_id(j) for j in v]
                for k, v in system.res_sets.items()},
        "ind": {subgroup_key_to_id(k): [subgroup_key_to_id(j) for j in v]
                for k, v in system.ind_sets.items()},
    }


def system_from_json(group: FiniteGroup, data: dict) -> SubgroupSystem:
    base = [Subgroup(group, subgroup_id_to_key(s)) for s in data["base"]]
    res = {subgroup_id_to_key(k): tuple(subgroup_id_to_key(j) for j in v)
           for k, v in data["res"].items()}
    ind = {subgroup_id_to_key(k): tuple(subgroup_id_to_key(j) for j in v)
           for k, v in data["ind"].items()}
    return SubgroupSystem(group, base, res, ind)


def functor_to_json(phi: RicFunctor) -> dict:
    """Functor file format; only subgroup-system domains are serialized."""
    if not isinstance(phi.domain, SubgroupSystem):
        raise ValueError("only subgroup-system functors serialize to JSON")
    return {
        "system": system_to_json(phi.domain),
        "values": {subgroup_key_to_id(k): v.to_json()
                   for k, v in phi.values.items()},
        "res": [{"from": subgroup_key_to_id(h), "to": subgroup_key_to_id(i),
                 "matrix": [list(r) for r in m.matrix]}
                for (i, h), m in sorted(phi.res.items())],
        "ind": [{"from": subgroup_key_to_id(i), "to": subgroup_key_to_id(h),
                 "matrix": [list(r) for r in m.matrix]}
                for (h, i), m in sorted(phi.ind.items())],
        "con": [{"g": g, "H": subgroup_key_to_id(h),
                 "matrix": [list(r) for r in m.matrix]}
                for (g, h), m in sorted(phi.con.items())],
    }


def functor_from_json(group: FiniteGroup, data: dict) -> RicFunctor:
    system = system_from_json(group, data["system"])
    values = {subgroup_id_to_key(k): FgAbGroup.from_json(v)
              for k, v in data["values"].items()}
    res, ind, con = {}, {}, {}
    for item in data["res"]:
        h = subgroup_id_to_key(item["from"])
        i = subgroup_id_to_key(item["to"])
        res[(i, h)] = AbHom(values[h], values[i], _int_rows(item["matrix"]))
    for item in data["ind"]:
        i = subgroup_id_to_key(item["from"])
        h = subgroup_id_to_key(item["to"])
        ind[(h, i)] = AbHom(values[i], values[h], _int_rows(item["matrix"]))
    for item in data["con"]:
        h = subgroup_id_to_key(item["H"])
        g = item["g"]
        if type(g) is not int or not 0 <= g < group.order:
            raise ValueError(
                f"con entry g must be an integer from 0 to {group.order - 1}")
        gh = system.conjugate(g, h)
        con[(g, h)] = AbHom(values[h], values[gh], _int_rows(item["matrix"]))
    return RicFunctor(system, values, res, ind, con)
