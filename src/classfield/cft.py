"""Class-field-theoretic layer: spectra, Tate H^0/H^-1, valuations,
unramified and full reciprocity morphisms, lattice and reduction checks.

A spectrum is a two-dimensional domain of pairs (H, U) with U normal in
H, built from a subgroup system and a conjugation-equivariant extension
assignment.  Representations live on spectra as RIC-functor tables; the
reciprocity morphism is computed pair by pair, with every certificate
(prime independence, lift independence, naturality) verified
exhaustively over the finite model rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .abelian import (
    AbHom, FgAbGroup, element_preimage, element_preimages, factor_through,
    group_order, identity_matrix, is_injective, is_isomorphism, is_surjective,
    quotient, subgroup_contains, subgroup_key,
)
from .groups import Subgroup, abelian_quotient, commutator_subgroup, coset_reps, cosets
from .mackey import (
    FunctorMorphism, NotMackeyCover, RicFunctor, SubgroupSystem,
    omega_functor, quotient_functor, quotient_table, validate_functor_morphism,
)
from .ramification import (
    DepthInsufficient, InertiaTrivialHorizon, NoLiftInModel, RamificationDatum,
    d_horizon,
    frobenius_element, frobenius_group, frobenius_lifts, inertia_subgroup,
    p_parts, prime_factors,
)
from .report import CheckItem, ModelLimit, Report  # noqa: F401  (re-exported)
from .transfer import AbelianizationSystem


class NotUrFnd(ModelLimit):
    pass


class ImageMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

PairKey = tuple  # (hkey, ukey)


class Spectrum:
    """Two-dimensional domain Sp(S, E) of pairs (H, U), U in E(H).

    res edges keep U fixed and move H along S_r; ind edges move to
    (I, V) with I in S_i(H), V in E(I), V <= U.
    """

    def __init__(self, system: SubgroupSystem, extension: dict):
        self.system = system
        self.group = system.group
        self.extension = {k: tuple(sorted(v)) for k, v in extension.items()}
        self._validate_extension()
        self.pairs = tuple(sorted(
            (hkey, ukey)
            for hkey in system.points() for ukey in self.extension[hkey]))

    def _validate_extension(self):
        sys = self.system
        grp = self.group
        for hkey in sys.points():
            exts = self.extension.get(hkey)
            if exts is None:
                raise ValueError(f"extension set missing for {hkey}")
            if hkey not in exts:
                raise ValueError("H must belong to its own extension set")
            h = sys.subgroup(hkey)
            for ukey in exts:
                u = Subgroup(grp, ukey, validate=False)
                if not set(ukey) <= set(hkey) or not u.is_normal_in(h):
                    raise ValueError(f"{ukey} is not normal in {hkey}")
            # one r per coset rH: r*h moves H and each U in E(H) (normal) as r does
            for g in coset_reps(grp.full_subgroup(), h):
                img = {sys.conjugate(g, ukey) for ukey in exts}
                if img != set(self.extension[sys.conjugate(g, hkey)]):
                    raise ValueError("extension sets not conjugation-equivariant")

    # domain protocol ----------------------------------------------------
    def points(self):
        return self.pairs

    def subgroup(self, pair: PairKey) -> Subgroup:
        return self.system.subgroup(pair[0])

    def subgroup_pair(self, pair: PairKey):
        return self.subgroup(pair), Subgroup(self.group, pair[1], validate=False)

    @cached_property
    def _edges(self) -> dict:
        """pair -> (res set, ind set), each sorted because S_r, S_i and E are."""
        sys, ext = self.system, self.extension
        return {(hkey, ukey): (
            tuple((ikey, ukey) for ikey in sys.res_set(hkey) if ukey in ext[ikey]),
            tuple((ikey, vkey) for ikey in sys.ind_set(hkey)
                  for vkey in ext[ikey] if set(vkey) <= set(ukey)))
            for hkey, ukey in self.pairs}

    def res_set(self, pair: PairKey):
        return self._edges[pair][0]

    def ind_set(self, pair: PairKey):
        return self._edges[pair][1]

    def conjugate(self, g: int, pair: PairKey) -> PairKey:
        sys = self.system
        return (sys.conjugate(g, pair[0]), sys.conjugate(g, pair[1]))

    # coherence flags ------------------------------------------------------
    def ext_r(self, hkey, rsys: AbelianizationSystem):
        r = rsys.assignment[hkey]
        return [u for u in self.extension[hkey] if r.element_set <= set(u)]

    @cached_property
    def is_i_coherent(self) -> bool:
        """E(H) <= S_i(H), and for U in E(H) and a point U <= I <= H: I in E(H)
        and U in E(I) when I is normal in H, and (I, U) an ind edge of (H, U)
        when U is in E(I), which, as U <= U, is I in S_i(H)."""
        sys = self.system
        for hkey in sys.points():
            exts, inducible = set(self.extension[hkey]), set(sys.ind_set(hkey))
            if not exts <= inducible:
                return False
            h = sys.subgroup(hkey)
            below = [(ikey, sys.subgroup(ikey).is_normal_in(h))
                     for ikey in sys.below(hkey)]
            for ukey in exts:
                for ikey, normal in below:
                    if not set(ukey) <= set(ikey):
                        continue
                    u_in_e_i = ukey in self.extension[ikey]
                    if normal and (ikey not in exts or not u_in_e_i):
                        return False
                    if u_in_e_i and ikey not in inducible:
                        return False
        return True


def full_extension(system: SubgroupSystem) -> dict:
    """E(H) = all normal subgroups of H that lie in the base."""
    out = {}
    for hkey in system.points():
        h = system.subgroup(hkey)
        out[hkey] = [k for k in system.below(hkey)
                     if system.subgroup(k).is_normal_in(h)]
    return out


def unramified_extension(system: SubgroupSystem, datum: RamificationDatum) -> dict:
    """E^ur(H): the U in the full E(H) that hold I_H, so that I_U = I_H."""
    out = full_extension(system)
    for hkey, exts in out.items():
        i_h = inertia_subgroup(datum, system.subgroup(hkey)).element_set
        out[hkey] = [k for k in exts if i_h <= set(k)]
    return out


def lift_to_spectrum(c: RicFunctor, spectrum: Spectrum) -> RicFunctor:
    """The class functor C viewed on the spectrum: C^E(H,U) = C(H)."""
    values, res, ind, con = {}, {}, {}, {}
    for pair in spectrum.points():
        hkey = pair[0]
        values[pair] = c.values[hkey]
        for q in spectrum.res_set(pair):
            res[(q, pair)] = c.res[(q[0], hkey)]
        for q in spectrum.ind_set(pair):
            ind[(pair, q)] = c.ind[(hkey, q[0])]
        for g in range(spectrum.group.order):
            con[(g, pair)] = c.con[(g, hkey)]
    return RicFunctor(spectrum, values, res, ind, con,
                      meta={"kind": "spectrum_lift", "class_functor": c})


# ---------------------------------------------------------------------------
# tautological class field theory
# ---------------------------------------------------------------------------

def tautological_cft(spectrum: Spectrum, rsys: AbelianizationSystem) -> RicFunctor:
    """Values H/(U R(H)) with transfer restrictions.

    This is the quotient presentation of the tautological theory; its
    values carry coordinate maps usable as the source of reciprocity
    morphisms.
    """
    grp = spectrum.group
    kernels = {}
    for hkey, ukey in spectrum.points():
        r = rsys.assignment[hkey]
        kernels[(hkey, ukey)] = grp.generated_subgroup(list(ukey) + list(r.elements))
    return quotient_table(spectrum, kernels, {"kind": "tautological", "kernels": kernels,
                                              "system_r": rsys})


def _check_mackey_cover(c: RicFunctor, spectrum: Spectrum):
    sys_c = c.domain
    if not isinstance(sys_c, SubgroupSystem):
        raise NotMackeyCover("class functor must live on a subgroup system")
    flat = spectrum.system
    for hkey in flat.points():
        if hkey not in sys_c:
            raise NotMackeyCover(f"cover misses base group {hkey}")
        if not set(flat.res_set(hkey)) <= set(sys_c.res_set(hkey)):
            raise NotMackeyCover(f"cover misses res edges at {hkey}")
        if not set(flat.ind_set(hkey)) <= set(sys_c.ind_set(hkey)):
            raise NotMackeyCover(f"cover misses ind edges at {hkey}")
        if not set(spectrum.extension[hkey]) <= set(sys_c.ind_set(hkey)):
            raise NotMackeyCover(f"extensions of {hkey} not inducible in cover")
    for pair in spectrum.points():
        for (ikey, vkey) in spectrum.ind_set(pair):
            if vkey not in sys_c.ind_set(pair[1]):
                raise NotMackeyCover(
                    f"V={vkey} not inducible into U={pair[1]} in the cover")
    if not sys_c.is_mackey:
        raise NotMackeyCover("cover fails the Mackey-system conditions")


def induction_representation(c: RicFunctor, spectrum: Spectrum) -> RicFunctor:
    """H^0-hat representation: (H,U) -> C(H)/ind_{H,U} C(U)."""
    _check_mackey_cover(c, spectrum)
    rep = quotient_functor(lift_to_spectrum(c, spectrum),
                           {pair: c.ind[pair] for pair in spectrum.points()})
    rep.meta["kind"] = "induction_representation"
    rep.meta["class_functor"] = c
    return rep


# ---------------------------------------------------------------------------
# Tate cohomology in degrees 0 and -1
# ---------------------------------------------------------------------------

def tate_h0(c: RicFunctor, hkey, ukey) -> tuple[FgAbGroup, AbHom]:
    """Cokernel of ind_{H,U} with the projection from C(H)."""
    return c.ind[(hkey, ukey)].cokernel


def _cyclic_generator_rep(h: Subgroup, u: Subgroup) -> int | None:
    """A representative generating H/U when that quotient is cyclic."""
    p = h.parent
    n = len(h.elements) // len(u.elements)
    for x in h.elements:
        y, k = x, 1
        while y not in u.element_set:
            y = p.table[y][x]
            k += 1
        if k == n:
            return x
    return None


def tate_hminus1(c: RicFunctor, hkey, ukey) -> FgAbGroup:
    """ker(ind_{H,U}) modulo the augmentation subgroup I_(H,U).

    I_(H,U) is generated by the images of con_{h,U} - id over coset
    representatives h.
    """
    sys = c.domain
    h = sys.subgroup(hkey)
    u = sys.subgroup(ukey)
    if not u.is_normal_in(h):
        raise ValueError("Tate groups need U normal in H")
    kernel, embed = c.ind[(hkey, ukey)].kernel.presentation
    value = c.values[ukey]
    ident = AbHom.identity(value)
    cols = [col for rep in coset_reps(h, u)
            for col in c.con[(rep, ukey)].add(ident.scaled(-1)).image_generators()]
    aug_gens = element_preimages(embed, cols)
    if aug_gens is None:
        raise AssertionError("augmentation image must lie in ker(ind)")
    result, _ = quotient(kernel, aug_gens)
    return result


def check_class_field_axiom(c: RicFunctor, hkey, ukey) -> bool:
    """|H^0-hat| = [H:U] and H^-1-hat trivial."""
    n = len(hkey) // len(ukey)
    h0, _ = tate_h0(c, hkey, ukey)
    if group_order(h0) != n:
        return False
    return tate_hminus1(c, hkey, ukey).is_trivial()


def check_hilbert90(c: RicFunctor, hkey, ukey) -> bool:
    return tate_hminus1(c, hkey, ukey).is_trivial()


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

@dataclass
class ValuationFamily:
    """Morphism v: C -> Omega_d with a distinguished generator omega = 1."""

    functor: RicFunctor
    omega: FgAbGroup
    components: dict  # hkey -> AbHom C(H) -> Omega

    def generator(self) -> tuple[int, ...]:
        if self.omega.rank != 1:
            raise ValueError("omega must be cyclic of rank 1")
        return (1,)


def validate_valuation(v: ValuationFamily, datum: RamificationDatum) -> Report:
    """Morphism conditions into Omega_d plus the generator condition."""
    report = Report()
    c = v.functor
    sys = c.domain
    omega_d = omega_functor(datum, sys, v.omega)
    morphism = FunctorMorphism(c, omega_d, v.components)
    report.nest("valuation_is_morphism_into_omega_d",
                validate_functor_morphism(morphism))
    gen = v.generator()
    for hkey in sys.points():
        if element_preimage(v.components[hkey], gen) is None:
            report.add("generator_in_image", False, hkey)
            return report
    report.add("generator_in_image", True)
    return report


def induce_valuation_family(v_top: AbHom, c: RicFunctor,
                            datum: RamificationDatum) -> ValuationFamily:
    """Build v_H = (1/f_H) v o ind_{G,H} from a single valuation at G.

    Requires Omega = Z; raises ImageMismatch when v(ind C(H)) != f_H Z.
    """
    omega = v_top.codomain
    if omega != FgAbGroup(1):
        raise ValueError("induced families need the torsion-free Omega = Z")
    sys = c.domain
    gkey = tuple(range(sys.group.order))
    components = {}
    for hkey in sys.points():
        f_h = datum.image_generator(sys.subgroup(hkey))
        composite = v_top.compose(c.ind[(gkey, hkey)])
        entries = [x for row in composite.matrix for x in row]
        image_gen = math.gcd(*entries) if any(entries) else 0
        if image_gen != f_h:
            raise ImageMismatch(
                f"v(ind C(H)) = {image_gen}Z != f_H Z = {f_h}Z at H={hkey}")
        components[hkey] = AbHom(
            composite.domain, omega,
            tuple(tuple(x // f_h for x in row) for row in composite.matrix))
    return ValuationFamily(c, omega, components)


def prime_elements_exist(v: ValuationFamily, hkey) -> tuple[int, ...] | None:
    return element_preimage(v.components[hkey], v.generator())


def _kernel_map(v: ValuationFamily, src_key, dst_key, edge: AbHom):
    """Restrict an edge map of C to the kernels of the valuation."""
    _, emb_src = v.components[src_key].kernel.presentation
    _, emb_dst = v.components[dst_key].kernel.presentation
    return factor_through(emb_dst, edge.compose(emb_src))


def validate_urfnd(c: RicFunctor, v: ValuationFamily, spectrum: Spectrum,
                   datum: RamificationDatum) -> Report:
    """Unramified reciprocity-datum conditions on every unramified pair."""
    report = Report()
    report.nest("valuation_valid", validate_valuation(v, datum))
    if not report.passed:
        return report
    omega = v.omega
    gen = v.generator()
    for pair in spectrum.points():
        hkey, ukey = pair
        h, u = spectrum.subgroup_pair(pair)
        if inertia_subgroup(datum, u).elements != inertia_subgroup(datum, h).elements:
            report.add("pair_unramified", False, pair)
            continue
        n = len(hkey) // len(ukey)
        # (i) Im(v_H) / n Im(v_U) cyclic of order n generated by omega
        im_u_scaled = [list(omega.scale(n, col))
                       for col in v.components[ukey].image_generators()]
        s, emb = v.components[hkey].image.presentation
        rel_gens = element_preimages(emb, im_u_scaled)
        if rel_gens is None:
            report.add("index_subgroup_inclusion", False, pair)
        else:
            q, proj = quotient(s, rel_gens)
            ok_order = group_order(q) == n
            omega_in_s = element_preimage(emb, gen)
            generated = False
            if omega_in_s is not None:
                cls = proj(omega_in_s)
                generated = q.element_order(cls) == group_order(q)
            report.add("image_quotient_cyclic_of_index", ok_order and generated,
                       None if ok_order and generated else pair)
        # (ii) ind surjective on kernels
        ok = is_surjective(_kernel_map(v, ukey, hkey, c.ind[(hkey, ukey)]))
        report.add("ind_surjective_on_kernels", ok, None if ok else pair)
        # (iii) |H^0| <= [H:U]
        h0, _ = tate_h0(c, hkey, ukey)
        ok = group_order(h0) <= n
        report.add("tate_h0_bounded", ok, None if ok else pair)
    return report


# ---------------------------------------------------------------------------
# reciprocity tables
# ---------------------------------------------------------------------------

@dataclass
class ReciprocityTable:
    pair: PairKey
    source: FgAbGroup
    source_coords: object  # CosetCoordinateMap from H
    target: FgAbGroup
    target_proj: AbHom     # C(H) -> target
    map: AbHom
    is_iso: bool
    lift_independent: bool | None = None
    prime_independent: bool | None = None

    def to_json(self) -> dict:
        return {"pair": [list(self.pair[0]), list(self.pair[1])],
                "source": self.source.to_json(),
                "target": self.target.to_json(),
                "matrix": [list(r) for r in self.map.matrix],
                "is_iso": self.is_iso,
                "lift_independent": self.lift_independent,
                "prime_independent": self.prime_independent}


def _prime_independence(c: RicFunctor, v: ValuationFamily, hkey, ukey) -> bool:
    """All primes of C(H) agree mod ind C(U): ker(v_H) <= Im(ind_{H,U})."""
    return c.ind[(hkey, ukey)].image.contains(*v.components[hkey].kernel.rows)


def unramified_upsilon(c: RicFunctor, v: ValuationFamily,
                       datum: RamificationDatum, pair: PairKey) -> ReciprocityTable:
    """Frobenius -> prime-element table for an unramified pair.

    The source H/U is cyclic, generated by the relative Frobenius; the
    map sends its k-th power to the k-th power of a prime element modulo
    the norm subgroup.
    """
    hkey, ukey = pair
    sys = c.domain
    h = sys.subgroup(hkey)
    u = sys.subgroup(ukey)
    n = len(hkey) // len(ukey)
    if inertia_subgroup(datum, u).elements != inertia_subgroup(datum, h).elements:
        raise NotUrFnd(f"pair {pair} is not unramified")
    if not is_surjective(_kernel_map(v, ukey, hkey, c.ind[(hkey, ukey)])):
        raise NotUrFnd(f"ind not surjective on kernels at {pair}")
    target, proj = tate_h0(c, hkey, ukey)
    if not group_order(target) <= n:
        raise NotUrFnd(f"|H^0| exceeds the index at {pair}")
    source, cmap = abelian_quotient(h, u)
    if hkey == ukey:
        return ReciprocityTable(pair, source, cmap, target, proj,
                                AbHom.zero(source, target), is_iso=True,
                                prime_independent=True)
    d_vals, horizon = d_horizon(datum, h)
    pi = prime_elements_exist(v, hkey)
    if pi is None:
        raise NotUrFnd(f"no prime element in C(H) at {pair}")
    cols = []
    for rep in cmap.gen_reps:
        k = d_vals[rep] % n
        cols.append(list(proj(c.values[hkey].scale(k, pi))))
    m = AbHom.from_columns(source, target, cols)
    return ReciprocityTable(
        pair, source, cmap, target, proj, m,
        is_iso=is_isomorphism(m),
        prime_independent=_prime_independence(c, v, hkey, ukey))


def validate_fnd(c: RicFunctor, v: ValuationFamily, spectrum: Spectrum,
                 datum: RamificationDatum) -> Report:
    """urFND on the unramified sub-spectrum plus the kernel exactness.

    For each open subgroup U of a base group and each unramified open
    normal V of U, the four-term sequence
    1 -> ker v_U -> ker v_V -> ker v_V -> ker v_U -> 1
    (restriction, con_{phi-1}, induction) must be exact.  Each (U, V) is
    checked once; a failure names (U, U, V), taking U itself as the base
    group above U, as it is the first one in ``points()`` order.
    The urFND runs on ``spectrum`` itself when it is the unramified one.
    """
    report = Report()
    ur_ext = unramified_extension(spectrum.system, datum)
    ur_spec = spectrum
    if spectrum.extension != {k: tuple(sorted(v)) for k, v in ur_ext.items()}:
        ur_spec = Spectrum(spectrum.system, ur_ext)
    report.nest("urfnd_on_unramified_subspectrum",
                validate_urfnd(c, v, ur_spec, datum))
    sys = c.domain
    for ukey in spectrum.system.points():
        if ukey not in sys:
            continue
        u = sys.subgroup(ukey)
        for vkey in ur_ext[ukey]:
            v_sub = sys.subgroup(vkey)
            if (vkey, ukey) not in c.res or (ukey, vkey) not in c.ind:
                report.add("cover_edges_present", False, (ukey, vkey))
                continue
            # V = U: the Frobenius coset is the identity, con - 1 = 0
            phi = 0 if vkey == ukey else frobenius_element(datum, u, v_sub)
            res_k = _kernel_map(v, ukey, vkey, c.res[(vkey, ukey)])
            ind_k = _kernel_map(v, vkey, ukey, c.ind[(ukey, vkey)])
            con_diff = c.con[(phi, vkey)].add(
                AbHom.identity(c.values[vkey]).scaled(-1))
            con_k = _kernel_map(v, vkey, vkey, con_diff)
            ok = (is_injective(res_k)
                  and res_k.image == con_k.kernel
                  and con_k.image == ind_k.kernel
                  and is_surjective(ind_k))
            report.add("kernel_sequence_exact", ok,
                       None if ok else (ukey, ukey, vkey))
    return report


def upsilon_tilde(c: RicFunctor, v: ValuationFamily, datum: RamificationDatum,
                  h_elt: int, pair: PairKey,
                  certify_prime_independence: bool = False):
    """Value of the lift morphism on a Frobenius element of H.

    Returns coordinates in H^0-hat(C)(H,U) of
    ind_{H,Sigma}(pi^(P'(mult d_H(h)))) for the Frobenius group Sigma of
    h relative to U.
    """
    hkey, ukey = pair
    sys = c.domain
    h = sys.subgroup(hkey)
    u = sys.subgroup(ukey)
    sigma, _ = frobenius_group(datum, h_elt, h, u)
    skey = sigma.elements
    d_vals, _ = d_horizon(datum, h)
    mult = d_vals[h_elt]
    _, pprime = p_parts(mult, datum.primes_p)
    pi = prime_elements_exist(v, skey)
    if pi is None:
        raise NotUrFnd(f"no prime element in C(Sigma) at {skey}")
    target, proj = tate_h0(c, hkey, ukey)
    value = proj(c.ind[(hkey, skey)](c.values[skey].scale(pprime, pi)))
    if certify_prime_independence:
        shifted = [c.ind[(hkey, skey)](c.values[skey].scale(pprime, col))
                   for col in v.components[skey].kernel.rows]
        if not c.ind[(hkey, ukey)].image.contains(*shifted):
            raise NotUrFnd(
                f"prime choice leaks through at Sigma={skey}, pair={pair}")
    return value, target, proj


def upsilon(c: RicFunctor, v: ValuationFamily, datum: RamificationDatum,
            pair: PairKey, fnd_validated: bool = False) -> ReciprocityTable:
    """Full reciprocity table (H/U)^ab -> H^0-hat(C)(H,U).

    Refuses to run unless ``validate_fnd`` passed (``fnd_validated``).  The
    per-pair certificates are computed on every call: lift independence
    over every Frobenius lift of every coset, and prime independence.
    """
    if not fnd_validated:
        raise NotUrFnd("run validate_fnd first or pass fnd_validated=True")
    hkey, ukey = pair
    sys = c.domain
    grp = sys.group
    h = sys.subgroup(hkey)
    u = sys.subgroup(ukey)
    comm = commutator_subgroup(h)
    n_sub = grp.generated_subgroup(list(ukey) + list(comm.elements))
    source, cmap = abelian_quotient(h, n_sub)
    target, proj = tate_h0(c, hkey, ukey)
    if source.is_trivial() and target.is_trivial():
        return ReciprocityTable(pair, source, cmap, target, proj,
                                AbHom.zero(source, target), is_iso=True,
                                lift_independent=True, prime_independent=True)

    lift_ok = True
    coset_values: dict[int, tuple] = {}
    u_cosets = cosets(h, u)
    for rep in u_cosets.reps:
        try:
            lifts = frobenius_lifts(datum, h, u, rep)
        except NoLiftInModel:
            continue  # value forced by multiplicativity from other cosets
        vals = []
        for lift in lifts:
            try:
                val, _, _ = upsilon_tilde(c, v, datum, lift, pair,
                                          certify_prime_independence=True)
            except DepthInsufficient:
                continue  # this lift's multiplicity exceeds the horizon
            vals.append(val)
        if not vals:
            continue  # no usable lift: the coset is forced by the others
        if len(set(vals)) != 1:
            lift_ok = False
        coset_values[rep] = vals[0]
    cols, missing = [], []
    for i, rep in enumerate(cmap.gen_reps):
        # any U-coset inside the source class of the generator will do
        candidates = sorted(u_cosets.rep_of[grp.mul(rep, w)] for w in n_sub.elements)
        chosen = next((r for r in candidates if r in coset_values), None)
        if chosen is None:
            missing.append(i)
        cols.append(None if chosen is None else list(coset_values[chosen]))
    if missing:
        # no lift in the generator's class: its value is forced by
        # multiplicativity, e_i = sum x_j cmap(rep_j) over the lifted cosets
        free = FgAbGroup(len(coset_values))
        span = AbHom.from_columns(free, source, [list(cmap(r)) for r in coset_values])
        value_of = AbHom.from_columns(free, target,
                                      [list(v) for v in coset_values.values()])
        xs = element_preimages(span, [identity_matrix(source.rank)[i] for i in missing])
        if xs is None:
            raise NoLiftInModel(
                "the cosets with a Frobenius lift do not generate (H/U)^ab")
        for i, x in zip(missing, xs):
            cols[i] = list(value_of(x))
    m = AbHom.from_columns(source, target, cols)
    # the matrix must reproduce every available coset value; this is the
    # well-definedness of the induced map on (H/U)^ab
    consistent = all(m(cmap(rep)) == val for rep, val in coset_values.items())
    return ReciprocityTable(pair, source, cmap, target, proj, m,
                            is_iso=is_isomorphism(m) and consistent,
                            lift_independent=lift_ok,
                            prime_independent=True)


def certify_upsilon_tilde_multiplicative(c: RicFunctor, v: ValuationFamily,
                                         datum: RamificationDatum,
                                         pair: PairKey) -> Report:
    """Exhaustive multiplicativity of the lift morphism on Frob_H."""
    report = Report()
    hkey, _ = pair
    sys = c.domain
    h = sys.subgroup(hkey)
    try:
        d_vals, _ = d_horizon(datum, h)
    except InertiaTrivialHorizon:
        report.add("upsilon_tilde_multiplicative", True, "vacuous: Frob_H empty")
        return report
    frob = [x for x in h.elements if d_vals[x] != 0]
    values = {}
    target = None
    for x in list(frob):
        try:
            values[x], target, _ = upsilon_tilde(c, v, datum, x, pair)
        except DepthInsufficient:
            frob.remove(x)  # unrepresentable multiplicity: outside the model
    if target is None:
        report.add("upsilon_tilde_multiplicative", True,
                   "vacuous: no representable lifts")
        return report
    grp = sys.group
    for a in frob:
        for b in frob:
            ab = grp.table[a][b]
            if ab not in values:
                continue  # product left Frob_H (d_H wrapped to zero)
            lhs = target.add(values[a], values[b])
            if lhs != values[ab]:
                report.add("upsilon_tilde_multiplicative", False, (pair, a, b))
                return report
    report.add("upsilon_tilde_multiplicative", True)
    return report


def upsilon_morphism(c: RicFunctor, v: ValuationFamily,
                     datum: RamificationDatum, spectrum: Spectrum,
                     rsys: AbelianizationSystem,
                     fnd_validated: bool = False):
    """The reciprocity morphism as a functor morphism, with its tables."""
    source = tautological_cft(spectrum, rsys)
    target = induction_representation(c, spectrum)
    tables = {}
    components = {}
    for pair in spectrum.points():
        table = upsilon(c, v, datum, pair, fnd_validated=fnd_validated)
        if table.source != source.values[pair]:
            raise AssertionError("source presentation mismatch")
        tables[pair] = table
        components[pair] = table.map
    morphism = FunctorMorphism(source, target, components)
    return morphism, tables


# ---------------------------------------------------------------------------
# lattice properties and reduction theorems
# ---------------------------------------------------------------------------

def norm_subgroup_assignment(rep: RicFunctor) -> dict:
    """Extension assignment of an induction representation: ind_{H,U} C(U)."""
    c = rep.meta["class_functor"]
    return {pair: c.ind[pair].image for pair in rep.domain.points()}


def tautological_assignment(taut: RicFunctor) -> dict:
    """Extension assignment U R(H)/R(H) inside H/R(H)."""
    rsys = taut.meta["system_r"]
    spectrum: Spectrum = taut.domain
    subs = {}
    for pair in spectrum.points():
        hkey, ukey = pair
        # memoised on the group under ("abq", H, R(H))
        value, cmap = abelian_quotient(spectrum.system.subgroup(hkey),
                                       rsys.assignment[hkey])
        subs[pair] = subgroup_key(value, [cmap(x) for x in ukey])
    return subs


def lattice_property_check(assignment: dict, spectrum: Spectrum,
                           rsys: AbelianizationSystem,
                           iso: FunctorMorphism | None = None) -> Report:
    """Monotonicity, product/intersection laws and R-lattice injectivity of
    an extension assignment: a dict from each pair (H, U) to the
    ``SubgroupKey`` of Phi(H, U), all of one ambient group per H."""
    report = Report()
    if iso is not None:
        mrep = validate_functor_morphism(iso)
        all_iso = mrep.passed and all(
            is_isomorphism(iso.components[p]) for p in spectrum.points())
        report.add("supplied_morphism_is_iso", all_iso, mrep.witness)
    grp = spectrum.group
    for hkey in spectrum.system.points():
        exts = spectrum.extension[hkey]
        key = {u: assignment[(hkey, u)] for u in exts}
        amb = key[hkey].ambient  # H is in E(H), checked by the spectrum
        ext_r = set(spectrum.ext_r(hkey, rsys))
        for i, u1 in enumerate(exts):
            k1 = key[u1]
            for j, u2 in enumerate(exts):
                k2 = key[u2]
                # bench/test_bench.py counts this module-level call
                if set(u2) <= set(u1) and not subgroup_contains(amb, k1.rows, *k2.rows):
                    report.add("monotone", False, (hkey, u1, u2))
                    return report
                # Both laws are symmetric: each unordered pair is checked at
                # j >= i.  Had (U2, U1) failed, the scan returned there, before
                # (U1, U2), so every witness is the ordered scan's first one.
                if j < i or u1 not in ext_r or u2 not in ext_r:
                    continue
                # U1 and U2 are normal in H, so U1*U2 is a subgroup
                prod = tuple(sorted({grp.table[a][b] for a in u1 for b in u2}))
                cap = tuple(sorted(set(u1) & set(u2)))
                if prod in exts and key[prod] != subgroup_key(amb, k1.rows + k2.rows):
                    report.add("product_law", False, (hkey, u1, u2))
                    return report
                if cap in exts and key[cap] != k1.meet(k2):
                    report.add("intersection_law", False, (hkey, u1, u2))
                    return report
        # R-lattice injectivity: the first two members of the earliest tie
        by_key = {}
        for u in sorted(ext_r):
            by_key.setdefault(key[u], []).append(u)
        tie = next((us for us in by_key.values() if len(us) > 1), None)
        if tie is not None:
            report.add("r_lattice_injective", False, (hkey, tie[0], tie[1]))
            return report
    report.add("monotone", True)
    report.add("product_law", True)
    report.add("intersection_law", True)
    report.add("r_lattice_injective", True)
    return report


def reduced_verification(theta: FunctorMorphism, mode: str,
                         rsys: AbelianizationSystem) -> Report:
    """Compare the reduced isomorphy check with the full per-pair check.

    mode 'prime_power': reduced set = pairs with abelian quotient cyclic
    of prime-power order.  mode 'prime': reduced set = prime-order cyclic
    pairs, with the class field axiom on them as an extra hypothesis.
    The theorems predict reduced-pass => full-pass on the R-pairs.
    Mode 'prime' reads the class functor from θ's target's meta.

    Checks, in order: "hypotheses", "reduced", "full" (each with its first
    witness) and "agreement"; θ's naturality verdict is part "morphism".
    The hypotheses read i-coherence alone: l-coherence, (H, U2) an ind edge
    of (H, U1) for all U2 <= U1 in E(H), holds on every spectrum, since that
    edge exists exactly when H is in S_i(H), and S_i(H) holds H.
    """
    if mode not in ("prime", "prime_power"):
        raise ValueError("mode must be 'prime' or 'prime_power'")
    spectrum: Spectrum = theta.source.domain
    report = Report()
    hyp_ok = True
    hyp_witness = None
    report.parts["morphism"] = mrep = validate_functor_morphism(theta)
    if not mrep.passed:
        hyp_ok, hyp_witness = False, ("morphism", mrep.witness)
    if not spectrum.is_i_coherent:
        hyp_ok, hyp_witness = False, ("coherence",)
    r_exts = {hkey: set(spectrum.ext_r(hkey, rsys)) for hkey in spectrum.system.points()}
    r_pairs = [pair for pair in spectrum.points() if pair[1] in r_exts[pair[0]]]
    if mode == "prime" and hyp_ok:
        c = theta.target.meta.get("class_functor")
        if c is None:
            raise ValueError("mode 'prime' needs the class functor")
        for pair in r_pairs:
            hkey, ukey = pair
            n = len(hkey) // len(ukey)
            if prime_factors(n) == {n} and not check_class_field_axiom(c, hkey, ukey):
                hyp_ok, hyp_witness = False, ("class_field_axiom", pair)
                break

    def cyclic_quotient(pair) -> bool:
        h, u = spectrum.subgroup_pair(pair)
        return _cyclic_generator_rep(h, u) is not None

    reduced_pass, reduced_witness = True, None
    full_pass, full_witness = True, None
    for pair in r_pairs:
        hkey, ukey = pair
        n = len(hkey) // len(ukey)
        iso = is_isomorphism(theta.components[pair])
        in_reduced = cyclic_quotient(pair) and (
            len(prime_factors(n)) <= 1 if mode == "prime_power"
            else prime_factors(n) == {n})
        if in_reduced and not iso and reduced_pass:
            reduced_pass, reduced_witness = False, pair
        if not iso and full_pass:
            full_pass, full_witness = False, pair
    agreement = full_pass or not (hyp_ok and reduced_pass)
    report.add("hypotheses", hyp_ok, hyp_witness)
    report.add("reduced", reduced_pass, reduced_witness)
    report.add("full", full_pass, full_witness)
    report.add("agreement", agreement, None if agreement else full_witness)
    return report
