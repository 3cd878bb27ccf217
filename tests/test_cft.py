
import random

import pytest

from classfield.abelian import (
    AbHom, FgAbGroup, element_preimage, group_order, identity_matrix, is_injective,
    is_isomorphism, is_surjective, subgroup_contains,
)
from classfield.catalog import catalog, cyclic, direct_product, symmetric
from classfield.cft import (
    ImageMismatch, NotUrFnd, Spectrum, ValuationFamily,
    certify_upsilon_tilde_multiplicative, check_class_field_axiom,
    check_hilbert90, full_extension, induce_valuation_family,
    induction_representation, lattice_property_check, lift_to_spectrum,
    norm_subgroup_assignment, reduced_verification, tate_h0, tate_hminus1,
    tautological_assignment, tautological_cft, unramified_extension,
    unramified_upsilon, upsilon, upsilon_morphism, upsilon_tilde,
    validate_fnd, validate_urfnd, validate_valuation, _kernel_map,
)
from classfield.groups import FiniteGroup
from classfield.mackey import (
    FunctorMorphism, GModule, NotMackeyCover, NotSubfunctor, fixed_point_functor,
    full_system, permutation_module, quotient_functor, sign_module, system_from_predicate,
    trivial_module, unramified_system, validate_functor_morphism, validate_ric_functor,
)
from classfield.ramification import RamificationDatum, frobenius_element
from classfield.transfer import commutator_system

from conftest import (
    admissible_data, assert_rejected, random_modules, relabeled, without_self_induction,
)
from oracles import (
    classical_tate_oracle, order_multiset, subgroup_elements, tate_h0_oracle,
    tate_hminus1_oracle,
)


def trivial_z_setup(group, modulus, d_images):
    datum = RamificationDatum(group, modulus, d_images)
    sys = full_system(group)
    c = fixed_point_functor(trivial_module(group, FgAbGroup(1)), sys)
    omega = FgAbGroup(1)
    vfam = ValuationFamily(c, omega,
                           {k: AbHom.identity(omega) for k in sys.points()})
    return datum, sys, c, vfam


def c2_fixture():
    return trivial_z_setup(cyclic(2), 2, (0, 1))


def c4_fixture():
    return trivial_z_setup(cyclic(4), 4, (0, 1, 2, 3))


def v4_fixture():
    v4 = direct_product(cyclic(2), cyclic(2))
    datum = RamificationDatum(v4, 2, (0, 0, 1, 1))
    sys = unramified_system(datum)
    c = fixed_point_functor(trivial_module(v4, FgAbGroup(1)), sys)
    omega = FgAbGroup(1)
    vfam = ValuationFamily(c, omega,
                           {k: AbHom.identity(omega) for k in sys.points()})
    return datum, sys, c, vfam


def first_coordinate_family(c):
    """v_H = the first coordinate of the module, through each fixed-point
    embedding of the fixed-point functor c."""
    amb = c.meta["module"].underlying
    v_top = AbHom(amb, FgAbGroup(1), ((1,) + (0,) * (amb.rank - 1),))
    return ValuationFamily(c, FgAbGroup(1), {
        k: v_top.compose(emb) for k, emb in c.meta["embeddings"].items()})


def _coherence_by_scan(spec):
    """l- and i-coherence, scanned over the ind edges of the spectrum's pairs."""
    sys, ext = spec.system, spec.extension
    l_ok = all((hkey, u2) in spec.ind_set((hkey, u1))
               for hkey in sys.points() for u1 in ext[hkey] for u2 in ext[hkey]
               if set(u2) <= set(u1))
    i_ok = True
    for hkey in sys.points():
        exts, h = set(ext[hkey]), sys.subgroup(hkey)
        i_ok = i_ok and exts <= set(sys.ind_set(hkey))
        for ukey in exts:
            for ikey in sys.points():
                if not set(ukey) <= set(ikey) <= set(hkey):
                    continue
                if sys.subgroup(ikey).is_normal_in(h):
                    i_ok = i_ok and ikey in exts and ukey in ext[ikey]
                if ukey in ext[ikey]:
                    i_ok = i_ok and (ikey, ukey) in spec.ind_set((hkey, ukey))
    return l_ok, i_ok


class TestSpectrum:
    def test_coherence_flags_match_the_pair_scans(self, group_catalog):
        spectra = []
        for g in group_catalog.values():
            full = full_system(g)
            spectra.append(Spectrum(full, full_extension(full)))
            for datum in admissible_data(g):
                ur = unramified_system(datum)
                spectra.append(Spectrum(ur, unramified_extension(ur, datum)))
        # S_i(S3) without the subgroups of order 2
        s3 = group_catalog["S3"]
        no_order2 = system_from_predicate(s3, lambda h, i: len(i) != 2 or h == i)
        hand = Spectrum(no_order2, full_extension(no_order2))
        for spec in spectra + [hand]:
            # l-coherence holds on every spectrum, as S_i(H) holds H
            assert _coherence_by_scan(spec) == (True, spec.is_i_coherent)
        assert not hand.is_i_coherent
        # without S3 in S_i(S3), which l-coherence asks for, there is no system
        assert_rejected(*without_self_induction(full_system(s3)))

    def test_pairs_and_coherence(self):
        datum, sys, _, _ = c4_fixture()
        spec = Spectrum(sys, unramified_extension(sys, datum))
        assert spec.is_i_coherent
        assert all(u == h or set(u) < set(h) for h, u in spec.points())

    def test_extension_must_be_equivariant(self):
        s3 = symmetric(3)
        sys = full_system(s3)
        ext = full_extension(sys)
        order2 = next(k for k in sys.points() if len(k) == 2)
        broken = dict(ext)
        broken[order2] = [k for k in broken[order2] if len(k) != 1]
        with pytest.raises(ValueError):
            Spectrum(sys, broken)

    def test_equivariance_broken_only_outside_h(self, group_catalog):
        # E(H) for a Klein four-group H normal in D4 drops one of two
        # subgroups of order 2 that are conjugate in D4: every h in H fixes
        # E(H), and only conjugation from the other coset of H breaks it
        d4 = group_catalog["D4"]
        sys = full_system(d4)
        ext = full_extension(sys)
        ukey = next(k for k in sys.points()
                    if len(k) == 2 and not sys.subgroup(k).is_normal())
        hkey = next(k for k in sys.points() if len(k) == 4 and set(ukey) < set(k))
        h = sys.subgroup(hkey)
        assert h.is_normal() and ukey in ext[hkey]
        assert all(sys.conjugate(x, u) in ext[hkey]
                   for x in h.elements for u in ext[hkey])
        broken = dict(ext)
        broken[hkey] = [u for u in ext[hkey] if u != ukey]
        assert all(sys.conjugate(x, u) in broken[hkey]
                   for x in h.elements for u in broken[hkey])
        with pytest.raises(ValueError, match="conjugation-equivariant"):
            Spectrum(sys, broken)

    def test_res_keeps_u_fixed(self):
        datum, sys, _, _ = v4_fixture()
        spec = Spectrum(sys, unramified_extension(sys, datum))
        for pair in spec.points():
            for q in spec.res_set(pair):
                assert q[1] == pair[1]


class TestTautological:
    def test_values(self):
        s3 = symmetric(3)
        sys = full_system(s3)
        spec = Spectrum(sys, full_extension(sys))
        taut = tautological_cft(spec, commutator_system(sys))
        full_key = tuple(range(6))
        a3 = next(k for k in sys.points() if len(k) == 3)
        assert taut.values[(full_key, a3)] == FgAbGroup(0, (2,))
        assert taut.values[(full_key, full_key)].is_trivial()
        assert validate_ric_functor(taut).passed

    def test_abelian_trivial_r_gives_h_mod_u(self):
        c4 = cyclic(4)
        sys = full_system(c4)
        spec = Spectrum(sys, full_extension(sys))
        taut = tautological_cft(spec, commutator_system(sys))
        gk = (0, 1, 2, 3)
        assert taut.values[(gk, (0,))] == FgAbGroup(0, (4,))
        assert taut.values[(gk, (0, 2))] == FgAbGroup(0, (2,))

    def test_equals_quotient_presentation(self):
        from classfield.mackey import abelianization_functor
        s3 = symmetric(3)
        sys = full_system(s3)
        spec = Spectrum(sys, full_extension(sys))
        rsys = commutator_system(sys)
        taut = tautological_cft(spec, rsys)
        pi = abelianization_functor(sys, rsys)
        lifted = lift_to_spectrum(pi, spec)
        sub = {}
        for pair in spec.points():
            cm = pi.meta["coords"][pair[0]]
            sub[pair] = [list(cm(x)) for x in pair[1]]
        quot = quotient_functor(lifted, sub)
        assert all(quot.values[p] == taut.values[p] for p in spec.points())


class TestInductionRepresentation:
    def test_pi_ab_gives_abelianized_quotients(self):
        # H^0_E(pi_R) has the (H/U)^ab values of the tautological theory
        from classfield.mackey import abelianization_functor
        s3 = symmetric(3)
        sys = full_system(s3)
        spec = Spectrum(sys, full_extension(sys))
        rsys = commutator_system(sys)
        rep = induction_representation(
            abelianization_functor(sys, rsys), spec)
        taut = tautological_cft(spec, rsys)
        for pair in spec.points():
            assert order_multiset(rep.values[pair]) == order_multiset(
                taut.values[pair])

    def test_trivial_z_cokernels(self):
        datum, sys, c, _ = c4_fixture()
        spec = Spectrum(sys, full_extension(sys))
        rep = induction_representation(c, spec)
        gk = (0, 1, 2, 3)
        assert rep.values[(gk, (0,))] == FgAbGroup(0, (4,))
        assert rep.values[(gk, (0, 2))] == FgAbGroup(0, (2,))
        assert rep.values[(gk, gk)].is_trivial()
        assert validate_ric_functor(rep).passed

    def test_cover_violation_detected(self):
        datum, sys, c, _ = v4_fixture()
        # a spectrum on the FULL system is not covered by the unramified one
        full_sys = full_system(datum.group)
        spec = Spectrum(full_sys, full_extension(full_sys))
        with pytest.raises(NotMackeyCover):
            induction_representation(c, spec)


def _permutation_class_functor(group):
    """Fixed points of Z[G/K] for the first non-normal K of order 2."""
    k = next(h for h in group.all_subgroups()
             if len(h) == 2 and not h.is_normal_in(group.full_subgroup()))
    return fixed_point_functor(permutation_module(group, k), full_system(group))


def _class_functor(name):
    if name.startswith("C"):
        group = cyclic(int(name[1:]))
        return fixed_point_functor(trivial_module(group, FgAbGroup(1)),
                                   full_system(group))
    return _permutation_class_functor(catalog()[name])


def _eager_induced_reference(rep):
    """res, ind and con of a quotient functor, each entry built on its own.

    Each generator of the source value is lifted by its own
    ``element_preimage``; the induced map does not depend on the lift.
    """
    phi, projs = rep.meta["of"], rep.meta["projections"]

    def induced(m, src, dst):
        lifts = [element_preimage(projs[src], e)
                 for e in identity_matrix(rep.values[src].rank)]
        return AbHom.from_columns(rep.values[src], rep.values[dst],
                                  [list(projs[dst](m(lift))) for lift in lifts])

    dom = rep.domain
    return ({(y, x): induced(m, x, y) for (y, x), m in phi.res.items()},
            {(x, y): induced(m, y, x) for (x, y), m in phi.ind.items()},
            {(g, x): induced(m, x, dom.conjugate(g, x)) for (g, x), m in phi.con.items()})


class TestDeferredInductionRepresentation:
    """quotient_functor checks the subfunctor at once, builds its maps on first read."""

    def test_norm_subgroup_job_builds_no_map(self, monkeypatch):
        import sys as _sys
        from classfield import mackey
        c = _class_functor("C16")
        sys = c.domain
        spec = Spectrum(sys, full_extension(sys))
        rsys = commutator_system(sys)
        calls = []
        original = AbHom.from_columns

        def counted(*args):
            if _sys._getframe(1).f_code.co_filename == mackey.__file__:
                calls.append(args)
            return original(*args)

        monkeypatch.setattr(AbHom, "from_columns", staticmethod(counted))
        rep = induction_representation(c, spec)
        report = lattice_property_check(norm_subgroup_assignment(rep), spec, rsys)
        assert report.passed
        assert calls == []
        assert len(rep.con) == len(rep.meta["of"].con)
        assert calls  # the first read ran the build

    @pytest.mark.parametrize("name", ["C4", "C8", "C12", "C16", "S3", "D4"])
    def test_forced_tables_equal_eager_reference(self, name):
        c = _class_functor(name)
        rep = induction_representation(c, Spectrum(c.domain, full_extension(c.domain)))
        assert "res" not in vars(rep)
        for got, ref in zip((rep.res, rep.ind, rep.con), _eager_induced_reference(rep)):
            assert type(got) is dict
            assert list(got) == list(ref)
            for key, m in ref.items():
                assert got[key] == m, (name, key)

    def test_failed_build_raises_on_every_read(self, monkeypatch):
        # a projection onto Z/4 sending everything to 1: the induced ind
        # from (C2, 1), whose value is Z/2, no longer respects torsion
        c = _class_functor("C4")
        rep = induction_representation(c, Spectrum(c.domain, full_extension(c.domain)))
        top = ((0, 1, 2, 3), (0,))
        assert rep.values[top] == FgAbGroup(0, (4,))
        monkeypatch.setitem(rep.meta["projections"], top, lambda v: (1,))
        for name in ("ind", "con", "res", "ind"):
            with pytest.raises(ValueError, match="torsion"):
                getattr(rep, name)
            assert not {"res", "ind", "con"} & set(vars(rep))
        monkeypatch.undo()
        assert validate_ric_functor(rep).passed
        for got, ref in zip((rep.res, rep.ind, rep.con), _eager_induced_reference(rep)):
            assert got == ref

    def test_not_subfunctor_raised_at_construction(self):
        # all of C(G) at (G, 1): res to (C2, 1) sends 1 outside 2Z
        c = _class_functor("C4")
        spec = Spectrum(c.domain, full_extension(c.domain))
        lifted = lift_to_spectrum(c, spec)
        sub = {pair: c.ind[pair].image_generators() for pair in spec.points()}
        sub[((0, 1, 2, 3), (0,))] = [[1]]
        with pytest.raises(NotSubfunctor, match=r"res edge \(\(\(0, 2\), \(0,\)\)"):
            quotient_functor(lifted, sub)


def _largest_in_a_coset(group, h):
    """The largest element of the left coset rH of the least r outside H."""
    r = min(x for x in range(group.order) if x not in h)
    return max(group.table[r][a] for a in h)


def _first_failing_square(phi):
    """The witness of a scan over every res, ind and con square, g by g."""
    src, tgt, comp = phi.source, phi.target, phi.components
    dom = src.domain
    for x in dom.points():
        for y in dom.res_set(x):
            if comp[y].compose(src.res[(y, x)]) != tgt.res[(y, x)].compose(comp[x]):
                return ("res", y, x)
        for y in dom.ind_set(x):
            if comp[x].compose(src.ind[(x, y)]) != tgt.ind[(x, y)].compose(comp[y]):
                return ("ind", x, y)
        for g in range(dom.group.order):
            gx = dom.conjugate(g, x)
            if comp[gx].compose(src.con[(g, x)]) != tgt.con[(g, x)].compose(comp[x]):
                return ("con", g, x)
    return None


class TestConDeduplication:
    """A con map is checked once per distinct (map, gX); a planted entry is seen.

    The builders share one map across a coset rH, so a planted map at the
    largest g of rH differs from the one at r while gX = rX.
    """

    @pytest.mark.parametrize("name", ["S3", "D4"])
    def test_quotient_functor_names_the_planted_con(self, name):
        c = _class_functor(name)
        spec = Spectrum(c.domain, full_extension(c.domain))
        lifted = lift_to_spectrum(c, spec)
        sub = {pair: c.ind[pair].image_generators() for pair in spec.points()}
        grp = spec.group
        planted = None
        for x in spec.points():
            h = spec.system.subgroup(x[0])
            if len(h) == 1 or len(h) == grp.order:
                continue
            g = _largest_in_a_coset(grp, h.elements)
            gx = spec.conjugate(g, x)
            src, dst = lifted.values[x], lifted.values[gx]
            for i in range(dst.rank):
                for j in range(src.rank):
                    m = AbHom.from_columns(src, dst, [
                        [int(k == i and col == j) for k in range(dst.rank)]
                        for col in range(src.rank)])
                    if not subgroup_contains(dst, sub[gx], *map(m, sub[x])):
                        planted = g, x, m
                        break
                if planted:
                    break
            if planted:
                break
        assert planted is not None
        g, x, m = planted
        rep = quotient_functor(lifted, sub)  # the unplanted family is a subfunctor
        lifted.con[(g, x)] = m
        with pytest.raises(NotSubfunctor) as err:
            quotient_functor(lifted, sub)
        assert str(err.value) == f"con edge ({g},{x}) escapes subfunctor"
        # rep induces the maps it checked, not ones written to lifted later
        r = min(grp.table[g][a] for a in x[0])
        assert rep.con[(g, x)] == rep.con[(r, x)]

    @pytest.mark.parametrize("n", [8, 12])
    def test_validate_functor_morphism_reports_the_scan_witness(self, n):
        datum, sys, c, vfam = trivial_z_setup(cyclic(n), n, tuple(range(n)))
        spec = Spectrum(sys, full_extension(sys))
        morphism, _ = upsilon_morphism(c, vfam, datum, spec, commutator_system(sys),
                                       fnd_validated=True)
        assert validate_functor_morphism(morphism).passed
        assert _first_failing_square(morphism) is None
        tgt = morphism.target
        x = next(p for p in spec.points() if 1 < len(p[0]) < n
                 and not tgt.values[p].is_trivial())
        g = _largest_in_a_coset(spec.group, x[0])
        gx = spec.conjugate(g, x)
        assert tgt.con[(g, x)] is tgt.con[(min(x[0]), x)]  # one map per coset
        tgt.con[(g, x)] = AbHom.zero(tgt.values[x], tgt.values[gx])
        witness = _first_failing_square(morphism)
        assert witness == ("con", g, x)
        report = validate_functor_morphism(morphism)
        assert (report.passed, report.witness) == (False, witness)


class TestTate:
    def test_trivial_z_cyclic(self):
        datum, sys, c, _ = c2_fixture()
        h0, _ = tate_h0(c, (0, 1), (0,))
        assert h0 == FgAbGroup(0, (2,))
        assert tate_hminus1(c, (0, 1), (0,)).is_trivial()
        assert check_class_field_axiom(c, (0, 1), (0,))

    def test_negation_module(self):
        c2 = cyclic(2)
        sys = full_system(c2)
        c = fixed_point_functor(sign_module(c2, c2.trivial_subgroup()), sys)
        h0, _ = tate_h0(c, (0, 1), (0,))
        assert h0.is_trivial()
        assert tate_hminus1(c, (0, 1), (0,)) == FgAbGroup(0, (2,))
        assert not check_class_field_axiom(c, (0, 1), (0,))
        assert not check_hilbert90(c, (0, 1), (0,))

    def test_pair_h_h_trivial(self):
        datum, sys, c, _ = c4_fixture()
        gk = (0, 1, 2, 3)
        h0, _ = tate_h0(c, gk, gk)
        assert h0.is_trivial()
        assert tate_hminus1(c, gk, gk).is_trivial()
        assert check_class_field_axiom(c, gk, gk)

    def test_enumeration_oracle(self, group_catalog):
        for name in ("S3", "D4"):
            g = group_catalog[name]
            sys = full_system(g)
            for module in random_modules(g, seed=23, count=2,
                                         max_torsion=4):
                if module.underlying.free_rank:
                    module = permutation_module(
                        g, g.full_subgroup(), torsion=4)
                c = fixed_point_functor(module, sys)
                for hkey in sys.points():
                    h = sys.subgroup(hkey)
                    for ukey in sys.ind_set(hkey):
                        u = sys.subgroup(ukey)
                        if not u.is_normal_in(h):
                            continue
                        if group_order(c.values[ukey]) > 10 ** 4:
                            continue
                        h0, _ = tate_h0(c, hkey, ukey)
                        assert order_multiset(h0) == tate_h0_oracle(
                            c, hkey, ukey)
                        reps = [x for x in h.elements]
                        hm1 = tate_hminus1(c, hkey, ukey)
                        assert order_multiset(hm1) == tate_hminus1_oracle(
                            c, hkey, ukey, reps)

    def test_classical_module_oracle(self, group_catalog):
        # bar-resolution route from the module action matrices
        for name in ("S3", "C12"):
            g = group_catalog[name]
            sys = full_system(g)
            for module in random_modules(g, seed=41, count=2):
                c = fixed_point_functor(module, sys)
                for hkey in sys.points():
                    h = sys.subgroup(hkey)
                    for ukey in sys.ind_set(hkey):
                        u = sys.subgroup(ukey)
                        if not u.is_normal_in(h):
                            continue
                        h0_cl, hm1_cl = classical_tate_oracle(module, h, u)
                        h0, _ = tate_h0(c, hkey, ukey)
                        assert h0 == h0_cl
                        assert tate_hminus1(c, hkey, ukey) == hm1_cl


class TestValuations:
    def test_identity_family_valid(self):
        datum, sys, c, vfam = c2_fixture()
        assert validate_valuation(vfam, datum).passed

    def test_ramified_edge_fails(self):
        # trivial-Z over C2xC2 with projection d on the FULL system:
        # a totally ramified restriction edge forces v_U = 2 v_H
        v4 = direct_product(cyclic(2), cyclic(2))
        datum = RamificationDatum(v4, 2, (0, 0, 1, 1))
        sys = full_system(v4)
        c = fixed_point_functor(trivial_module(v4, FgAbGroup(1)), sys)
        omega = FgAbGroup(1)
        vfam = ValuationFamily(c, omega, {k: AbHom.identity(omega)
                                          for k in sys.points()})
        rep = validate_valuation(vfam, datum)
        assert not rep.passed

    def test_zero_family_fails_generator(self):
        datum, sys, c, _ = c2_fixture()
        vfam = ValuationFamily(c, FgAbGroup(1),
                               {k: AbHom.zero(c.values[k], FgAbGroup(1))
                                for k in sys.points()})
        rep = validate_valuation(vfam, datum)
        assert not rep.passed
        assert rep.first_failure().name == "generator_in_image"

    def test_induced_family(self):
        datum, sys, c, vfam = c4_fixture()
        gk = (0, 1, 2, 3)
        induced = induce_valuation_family(AbHom.identity(FgAbGroup(1)), c, datum)
        assert all(induced.components[k] == vfam.components[k]
                   for k in sys.points())
        assert validate_valuation(induced, datum).passed

    def test_induced_family_mismatch(self):
        # v = 2*id: images land in 2Z, not f_H Z
        datum, sys, c, _ = c4_fixture()
        with pytest.raises(ImageMismatch):
            induce_valuation_family(
                AbHom.multiplication(FgAbGroup(1), 2), c, datum)


class TestUrFnd:
    def test_c2_fixture_passes(self):
        datum, sys, c, vfam = c2_fixture()
        spec = Spectrum(sys, unramified_extension(sys, datum))
        assert validate_urfnd(c, vfam, spec, datum).passed

    def test_v4_fixture_passes(self):
        datum, sys, c, vfam = v4_fixture()
        spec = Spectrum(sys, unramified_extension(sys, datum))
        assert validate_urfnd(c, vfam, spec, datum).passed

    def test_mod_m_kernel_failure(self):
        # trivial-Z functor with v = reduction mod 4: kernels are 4Z and
        # ind = x2 maps 4Z into, but not onto, 4Z
        datum, sys, c, _ = c4_fixture()
        z4 = FgAbGroup(0, (4,))
        vfam = ValuationFamily(c, z4, {k: AbHom(c.values[k], z4, ((1,),))
                                       for k in sys.points()})
        assert validate_valuation(vfam, datum).passed
        spec = Spectrum(sys, unramified_extension(sys, datum))
        rep = validate_urfnd(c, vfam, spec, datum)
        assert not rep.passed
        failing = {check.name for check in rep.checks if not check.passed}
        assert "ind_surjective_on_kernels" in failing


class TestUnramifiedUpsilon:
    def test_c2_table(self):
        datum, sys, c, vfam = c2_fixture()
        table = unramified_upsilon(c, vfam, datum, ((0, 1), (0,)))
        assert table.source == FgAbGroup(0, (2,))
        assert table.target == FgAbGroup(0, (2,))
        assert table.is_iso and table.prime_independent
        assert table.map.matrix == ((1,),)

    def test_c4_half_pair(self):
        datum, sys, c, vfam = c4_fixture()
        table = unramified_upsilon(c, vfam, datum, ((0, 1, 2, 3), (0, 2)))
        assert table.source == FgAbGroup(0, (2,))
        assert table.is_iso

    def test_pair_h_h_trivial(self):
        datum, sys, c, vfam = c4_fixture()
        gk = (0, 1, 2, 3)
        table = unramified_upsilon(c, vfam, datum, (gk, gk))
        assert table.source.is_trivial() and table.target.is_trivial()
        assert table.is_iso

    def test_rejects_ramified_pair(self):
        datum, sys, c, vfam = v4_fixture()
        with pytest.raises(NotUrFnd):
            unramified_upsilon(c, vfam, datum, ((0, 1, 2, 3), (0, 3)))

    def test_naturality_everywhere(self):
        for fixture in (c2_fixture, c4_fixture, v4_fixture):
            datum, sys, c, vfam = fixture()
            spec = Spectrum(sys, unramified_extension(sys, datum))
            rsys = commutator_system(sys)
            source = tautological_cft(spec, rsys)
            target = induction_representation(c, spec)
            comps = {}
            for pair in spec.points():
                table = unramified_upsilon(c, vfam, datum, pair)
                assert table.is_iso
                comps[pair] = table.map
            morphism = FunctorMorphism(source, target, comps)
            assert validate_functor_morphism(morphism).passed


class TestFnd:
    def test_fixtures_pass(self):
        for fixture in (c2_fixture, c4_fixture, v4_fixture):
            datum, sys, c, vfam = fixture()
            spec = Spectrum(sys, unramified_extension(sys, datum))
            assert validate_fnd(c, vfam, spec, datum).passed

    @staticmethod
    def _negation():
        c2 = cyclic(2)
        datum = RamificationDatum(c2, 2, (0, 1))
        sys = full_system(c2)
        c = fixed_point_functor(sign_module(c2, c2.trivial_subgroup()), sys)
        vfam = ValuationFamily(c, FgAbGroup(1),
                               {k: AbHom.zero(c.values[k], FgAbGroup(1))
                                for k in sys.points()})
        return c, vfam, Spectrum(sys, unramified_extension(sys, datum)), datum

    def test_negation_fails_exactness(self):
        c, vfam, spec, datum = self._negation()
        rep = validate_fnd(c, vfam, spec, datum)
        assert not rep.passed
        names = {check.name for check in rep.checks if not check.passed}
        assert "kernel_sequence_exact" in names

    def test_nontrivial_unit_groups(self):
        # C2 on Z + Z[C2], sigma swapping the last two coordinates, and v the
        # first coordinate: ker v_1 = 0 + Z[C2] and ker v_G = the diagonal,
        # so each exactness check compares two different nonzero kernels
        c2 = cyclic(2)
        datum = RamificationDatum(c2, 2, (0, 1))
        sys = full_system(c2)
        z3 = FgAbGroup(3)
        swap = AbHom(z3, z3, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))
        c = fixed_point_functor(GModule(c2, z3, {0: AbHom.identity(z3), 1: swap}), sys)
        vfam = first_coordinate_family(c)
        assert vfam.components[(0,)].kernel.rows == ((0, 1, 0), (0, 0, 1))
        assert vfam.components[(0, 1)].kernel.rows == ((0, 1),)
        rep = validate_fnd(c, vfam, Spectrum(sys, unramified_extension(sys, datum)), datum)
        exact = [check for check in rep.checks if check.name == "kernel_sequence_exact"]
        assert rep.passed and len(exact) == 3

    def test_first_witness_matches_the_scan_over_every_base_group(self):
        # the exactness at (U, V) does not read H, so each (U, V) is checked
        # once; its first failure is the one a scan over every base group
        # H >= U and every (U, V) below it meets first
        def scan_over_base_groups(c, v, spectrum, datum):
            sys = c.domain
            ur = unramified_extension(spectrum.system, datum)
            for hkey in spectrum.system.points():
                for ukey in set(sys.points()):
                    if not set(ukey) <= set(hkey):
                        continue
                    for vkey in ur.get(ukey, ()):
                        phi = 0 if vkey == ukey else frobenius_element(
                            datum, sys.subgroup(ukey), sys.subgroup(vkey))
                        res_k = _kernel_map(v, ukey, vkey, c.res[(vkey, ukey)])
                        ind_k = _kernel_map(v, vkey, ukey, c.ind[(ukey, vkey)])
                        con_k = _kernel_map(v, vkey, vkey, c.con[(phi, vkey)].add(
                            AbHom.identity(c.values[vkey]).scaled(-1)))
                        if not (is_injective(res_k) and res_k.image == con_k.kernel
                                and con_k.image == ind_k.kernel
                                and is_surjective(ind_k)):
                            return hkey, ukey, vkey
            return None

        # C4 on Z + Z[C4], v the first coordinate, which passes, with a
        # defect planted at U = C2, below two base groups: ind from 1 to C2
        # scaled by 3 is not onto the kernel
        c4 = cyclic(4)
        datum = RamificationDatum(c4, 4, (0, 1, 2, 3))
        sys = full_system(c4)
        z5 = FgAbGroup(5)
        shift = AbHom(z5, z5, ((1, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 1, 0, 0, 0),
                               (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)))
        c = fixed_point_functor(GModule.from_generator_action(c4, z5, {1: shift}), sys)
        vfam = first_coordinate_family(c)
        spec = Spectrum(sys, unramified_extension(sys, datum))
        assert validate_fnd(c, vfam, spec, datum).passed
        c2, one = (0, 2), (0,)
        c.ind[(c2, one)] = c.ind[(c2, one)].scaled(3)
        planted = (c, vfam, spec, datum)
        for scenario in (self._negation(), planted):
            rep = validate_fnd(*scenario)
            first = next(x for x in rep.checks[1:] if not x.passed)
            assert first.name == "kernel_sequence_exact"
            assert first.witness == scan_over_base_groups(*scenario)
        assert first.witness == (c2, c2, one)

    def test_urfnd_runs_on_the_unramified_subspectrum(self):
        # on a spectrum with ramified pairs the urFND part is still that of
        # the unramified sub-spectrum, not of the spectrum given
        datum, sys, c, vfam = v4_fixture()
        full = Spectrum(sys, full_extension(sys))
        ur = Spectrum(sys, unramified_extension(sys, datum))
        assert not validate_urfnd(c, vfam, full, datum).passed
        assert validate_urfnd(c, vfam, ur, datum).passed
        rep = validate_fnd(c, vfam, full, datum)
        assert rep.parts["urfnd_on_unramified_subspectrum"].passed

    def test_trivial_spectrum_vacuous(self):
        datum, sys, c, vfam = c2_fixture()
        spec = Spectrum(sys, {k: [k] for k in sys.points()})
        ur = validate_urfnd(c, vfam, spec, datum)
        assert ur.passed


class TestFullUpsilon:
    def test_refuses_unvalidated(self):
        datum, sys, c, vfam = c2_fixture()
        with pytest.raises(NotUrFnd):
            upsilon(c, vfam, datum, ((0, 1), (0,)))

    def test_c2_value(self):
        datum, sys, c, vfam = c2_fixture()
        table = upsilon(c, vfam, datum, ((0, 1), (0,)), fnd_validated=True)
        assert table.map.matrix == ((1,),)
        assert table.is_iso and table.lift_independent

    def test_upsilon_tilde_examples(self):
        datum, sys, c, vfam = c2_fixture()
        val, target, _ = upsilon_tilde(c, vfam, datum, 1, ((0, 1), (0,)),
                                       certify_prime_independence=True)
        assert val == (1,)
        # h in U n Frob_H gives the identity coset
        datum4, sys4, c4, v4 = c4_fixture()
        gk = (0, 1, 2, 3)
        val2, _, _ = upsilon_tilde(c4, v4, datum4, 2, (gk, (0, 2)))
        assert val2 == (0,)

    def test_prime_choice_leak_is_caught(self):
        # C2 acting trivially on Z^2 with v = the first coordinate: the prime
        # (0, 1) of ker v_G is not a norm (ind_{G,1} doubles), so the value
        # depends on which prime element is chosen
        c2 = cyclic(2)
        datum = RamificationDatum(c2, 2, (0, 1))
        c = fixed_point_functor(trivial_module(c2, FgAbGroup(2)), full_system(c2))
        vfam = first_coordinate_family(c)
        pair = ((0, 1), (0,))
        upsilon_tilde(c, vfam, datum, 1, pair)
        with pytest.raises(NotUrFnd, match="prime choice leaks through"):
            upsilon_tilde(c, vfam, datum, 1, pair, certify_prime_independence=True)

    def test_unramified_h_reduces_to_prime_power(self):
        # h with Sigma = H: value is pi_H^(P') mod ind
        datum, sys, c, vfam = c4_fixture()
        gk = (0, 1, 2, 3)
        val, target, proj = upsilon_tilde(c, vfam, datum, 1, (gk, (0, 2)))
        assert val == proj((1,))

    def test_multiplicativity_certificates(self):
        for fixture in (c2_fixture, c4_fixture, v4_fixture):
            datum, sys, c, vfam = fixture()
            spec = Spectrum(sys, unramified_extension(sys, datum))
            for pair in spec.points():
                assert certify_upsilon_tilde_multiplicative(
                    c, vfam, datum, pair).passed

    def test_matches_unramified_tables(self):
        for fixture in (c2_fixture, c4_fixture, v4_fixture):
            datum, sys, c, vfam = fixture()
            spec = Spectrum(sys, unramified_extension(sys, datum))
            rsys = commutator_system(sys)
            morphism, tables = upsilon_morphism(c, vfam, datum, spec, rsys,
                                                fnd_validated=True)
            assert validate_functor_morphism(morphism).passed
            for pair in spec.points():
                ur = unramified_upsilon(c, vfam, datum, pair)
                assert tables[pair].map.matrix == ur.map.matrix
                assert tables[pair].is_iso
                assert tables[pair].lift_independent


class TestLattice:
    def test_tautological_passes(self):
        for group in (cyclic(4), symmetric(3)):
            sys = full_system(group)
            spec = Spectrum(sys, full_extension(sys))
            rsys = commutator_system(sys)
            taut = tautological_cft(spec, rsys)
            rep = lattice_property_check(
                tautological_assignment(taut), spec, rsys)
            assert rep.passed

    def test_norm_subgroups_on_cyclic(self):
        datum, sys, c, vfam = c4_fixture()
        spec = Spectrum(sys, full_extension(sys))
        rep_functor = induction_representation(c, spec)
        rsys = commutator_system(sys)
        morphism, _ = upsilon_morphism(c, vfam, datum, spec, rsys,
                                       fnd_validated=True)
        rep = lattice_property_check(norm_subgroup_assignment(rep_functor),
                                     spec, rsys, iso=morphism)
        assert rep.passed

    def test_corrupted_assignment_fails(self):
        c4 = cyclic(4)
        sys = full_system(c4)
        spec = Spectrum(sys, full_extension(sys))
        rsys = commutator_system(sys)
        taut = tautological_cft(spec, rsys)
        assignment = tautological_assignment(taut)
        gk = (0, 1, 2, 3)
        # swap the subgroups assigned to U = <g^2> and U = 1
        a = assignment.subgroups[(gk, (0, 2))]
        assignment.subgroups[(gk, (0, 2))] = assignment.subgroups[(gk, (0,))]
        assignment.subgroups[(gk, (0,))] = a
        rep = lattice_property_check(assignment, spec, rsys)
        assert not rep.passed

    # Planted defects: (group, H, point -- or list of points -- whose
    # subgroup is replaced, the point it is copied from, expected first
    # failure with its witness).
    V4, C2C4 = direct_product(cyclic(2), cyclic(2)), direct_product(cyclic(2), cyclic(4))
    G4, G6, G8 = (0, 1, 2, 3), tuple(range(6)), tuple(range(8))

    @pytest.mark.parametrize("group,hkey,target,source,expected", [
        # shrink the product point <a><b> = G down to <a>
        (V4, G4, G4, (0, 1), ("product_law", (G4, (0, 1), (0, 2)))),
        (C2C4, G8, G8, G4, ("product_law", (G8, G4, (0, 2, 4, 6)))),
        # make two R-lattice entries equal
        (cyclic(4), G4, (0, 2), (0,), ("r_lattice_injective", (G4, (0,), (0, 2)))),
        (C2C4, G4, (0, 2), (0,), ("r_lattice_injective", (G4, (0,), (0, 2)))),
        # shrink G to 1 under C4, grow 1 to G under S3
        (cyclic(4), G4, G4, (0,), ("monotone", (G4, G4, (0, 2)))),
        (symmetric(3), G6, (0,), G6, ("monotone", (G6, (0, 2, 4), (0,)))),
        # grow <a> to G: <a> and <b> then meet in more than 1
        (V4, G4, (0, 1), G4, ("intersection_law", (G4, (0, 1), (0, 2)))),
        (C2C4, G8, G4, G8, ("intersection_law", (G8, G4, (0, 2, 4, 6)))),
        # non-abelian: grow a Klein four-group of D4 to G; it meets the
        # other maximal subgroups in more than the centre
        (catalog()["D4"], G8, (0, 3, 4, 7), G8,
         ("intersection_law", (G8, (0, 1, 4, 5), (0, 3, 4, 7)))),
        # three R-lattice entries equal: the first two members are reported
        (cyclic(4), G4, [(0,), (0, 2)], G4, ("r_lattice_injective", (G4, (0,), G4))),
        (symmetric(3), G6, [(0,), G6], (0, 2, 4),
         ("r_lattice_injective", (G6, G6, (0, 2, 4)))),
    ])
    def test_planted_defect_witness(self, group, hkey, target, source, expected):
        sys = full_system(group)
        spec = Spectrum(sys, full_extension(sys))
        rsys = commutator_system(sys)
        assignment = tautological_assignment(tautological_cft(spec, rsys))
        assert lattice_property_check(assignment, spec, rsys).passed
        for point in target if isinstance(target, list) else [target]:
            assignment.subgroups[(hkey, point)] = list(assignment.subgroups[(hkey, source)])
        failure = lattice_property_check(assignment, spec, rsys).first_failure()
        assert (failure.name, failure.witness) == expected

    def test_injectivity_reports_the_earliest_tie(self):
        # U -> UK/K with K = <6> in C12 keeps every lattice law (the subgroup
        # lattice of a cyclic group is distributive) and has two fibres
        c12 = cyclic(12)
        sys = full_system(c12)
        spec = Spectrum(sys, full_extension(sys))
        rsys = commutator_system(sys)
        assignment = tautological_assignment(tautological_cft(spec, rsys))
        g12 = tuple(range(12))
        base = dict(assignment.subgroups)
        for u in spec.extension[g12]:
            uk = c12.generated_subgroup(list(u) + [6]).elements
            assignment.subgroups[(g12, u)] = base[(g12, uk)]
        failure = lattice_property_check(assignment, spec, rsys).first_failure()
        # fibres {1, <6>} and {<4>, <2>}: the one met first in sorted order
        assert (failure.name, failure.witness) == (
            "r_lattice_injective", (g12, (0,), (0, 6)))

    @pytest.mark.parametrize("name", ["D4", "Q8", "C4xC2", "S3"])
    def test_random_defects_match_ordered_scan(self, name):
        sys = full_system(catalog()[name])
        spec = Spectrum(sys, full_extension(sys))
        rsys = commutator_system(sys)
        rng = random.Random(f"lattice-defects:{name}")
        for _ in range(40):
            assignment = tautological_assignment(tautological_cft(spec, rsys))
            hkey = rng.choice(sys.points())
            amb = assignment.ambient[hkey]
            exts = spec.extension[hkey]
            if rng.random() < 0.5:  # copy another point's subgroup
                gens = assignment.subgroups[(hkey, rng.choice(exts))]
            else:  # or take up to two random elements
                elements = sorted(amb.elements())
                gens = rng.sample(elements, rng.randint(0, min(2, len(elements))))
            assignment.subgroups[(hkey, rng.choice(exts))] = list(map(list, gens))
            failure = lattice_property_check(assignment, spec, rsys).first_failure()
            got = None if failure is None else (failure.name, failure.witness)
            assert got == ordered_scan(assignment, spec, rsys)


def ordered_scan(assignment, spectrum, rsys):
    """First lattice failure of an ordered-pair scan over element sets."""
    grp = spectrum.group
    for hkey in spectrum.system.points():
        exts = spectrum.extension[hkey]
        amb = assignment.ambient[hkey]
        ext_r = set(map(tuple, spectrum.ext_r(hkey, rsys)))
        phi = {u: subgroup_elements(amb, assignment.subgroups[(hkey, u)])
               for u in exts}
        for u1 in exts:
            for u2 in exts:
                if set(u2) <= set(u1) and not phi[u2] <= phi[u1]:
                    return "monotone", (hkey, u1, u2)
                if u1 not in ext_r or u2 not in ext_r:
                    continue
                prod = grp.generated_subgroup(list(u1) + list(u2)).elements
                cap = tuple(sorted(set(u1) & set(u2)))
                if prod in exts and phi[prod] != subgroup_elements(
                        amb, list(phi[u1] | phi[u2])):
                    return "product_law", (hkey, u1, u2)
                if cap in exts and phi[cap] != phi[u1] & phi[u2]:
                    return "intersection_law", (hkey, u1, u2)
        r_list = sorted(ext_r)
        for i, u1 in enumerate(r_list):
            for u2 in r_list[i + 1:]:
                if phi[u1] == phi[u2]:
                    return "r_lattice_injective", (hkey, u1, u2)
    return None


def norm_subgroup_verdicts(table, d):
    """Upsilon tables and lattice verdicts of trivial Z on the full spectrum."""
    group = FiniteGroup(table, validate=False)
    datum, sys, c, vfam = trivial_z_setup(group, group.order, d)
    spec = Spectrum(sys, full_extension(sys))
    rsys = commutator_system(sys)
    morphism, tables = upsilon_morphism(c, vfam, datum, spec, rsys,
                                        fnd_validated=True)
    rep = lattice_property_check(
        norm_subgroup_assignment(induction_representation(c, spec)), spec, rsys,
        iso=morphism)
    return [(ch.name, ch.passed) for ch in rep.checks], tables


class TestLabelIndependence:
    """Upsilon and the lattice check give one verdict per isomorphism class.

    The generators of (H/U)^ab are the least elements of their classes, so
    which coset classes hold a generator depends on the labelling; a
    generator whose class has no Frobenius lift takes the value forced by
    the lifted cosets.
    """

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
    def test_relabeled_cyclic_matches_catalog_labelling(self, n):
        reference = norm_subgroup_verdicts(cyclic(n).table, tuple(range(n)))
        checks, tables = reference
        assert all(passed for _, passed in checks)
        for seed in range(12):
            table, perm = relabeled(cyclic(n).table, seed)
            d = [0] * n
            for exponent in range(n):
                d[perm[exponent]] = exponent
            got_checks, got_tables = norm_subgroup_verdicts(table, tuple(d))
            assert got_checks == checks, seed
            for (hkey, ukey), t in tables.items():
                moved = tuple(tuple(sorted(perm[x] for x in k)) for k in (hkey, ukey))
                g = got_tables[moved]
                assert (g.source, g.target, g.is_iso, g.lift_independent,
                        g.prime_independent) == (t.source, t.target, t.is_iso,
                                                 t.lift_independent,
                                                 t.prime_independent), (seed, moved)


class TestReducedVerification:
    def test_identity_on_tautological(self):
        s3 = symmetric(3)
        sys = full_system(s3)
        spec = Spectrum(sys, full_extension(sys))
        rsys = commutator_system(sys)
        taut = tautological_cft(spec, rsys)
        theta = FunctorMorphism(taut, taut,
                                {p: AbHom.identity(taut.values[p])
                                 for p in spec.points()})
        for mode in ("prime_power",):
            assert reduced_verification(theta, mode, rsys).passed

    def test_pairs_outside_the_r_pairs_are_not_checked(self):
        # U = 1 does not hold R(S3) = A3, so (S3, 1) is no R-pair: a zero
        # component there is no isomorphism, yet neither check reads it
        s3 = symmetric(3)
        sys = full_system(s3)
        spec = Spectrum(sys, full_extension(sys))
        rsys = commutator_system(sys)
        taut = tautological_cft(spec, rsys)
        pair = (tuple(range(6)), (0,))
        assert pair in spec.points() and pair[1] not in spec.ext_r(pair[0], rsys)
        components = {p: AbHom.identity(taut.values[p]) for p in spec.points()}
        components[pair] = components[pair].scaled(0)
        assert not is_isomorphism(components[pair])
        theta = FunctorMorphism(taut, taut, components)
        _, reduced, full, agreement = reduced_verification(
            theta, "prime_power", rsys).checks
        assert reduced.passed and full.passed and agreement.passed

    def test_prime_mode_refuses_a_target_without_a_class_functor(self):
        # the tautological theory records no class functor, so mode 'prime'
        # has no class field axiom to read
        s3 = symmetric(3)
        sys = full_system(s3)
        spec = Spectrum(sys, full_extension(sys))
        rsys = commutator_system(sys)
        taut = tautological_cft(spec, rsys)
        assert "class_functor" not in taut.meta
        theta = FunctorMorphism(taut, taut,
                                {p: AbHom.identity(taut.values[p])
                                 for p in spec.points()})
        with pytest.raises(ValueError, match="^mode 'prime' needs the class functor$"):
            reduced_verification(theta, "prime", rsys)

    def test_upsilon_prime_mode(self):
        datum, sys, c, vfam = c4_fixture()
        spec = Spectrum(sys, unramified_extension(sys, datum))
        rsys = commutator_system(sys)
        morphism, _ = upsilon_morphism(c, vfam, datum, spec, rsys,
                                       fnd_validated=True)
        report = reduced_verification(morphism, "prime", rsys)
        assert [c.name for c in report.checks] == \
            ["hypotheses", "reduced", "full", "agreement"]
        assert report.passed and report.parts["morphism"].passed

    def test_corrupted_component_caught(self):
        datum, sys, c, vfam = c4_fixture()
        spec = Spectrum(sys, unramified_extension(sys, datum))
        rsys = commutator_system(sys)
        morphism, _ = upsilon_morphism(c, vfam, datum, spec, rsys,
                                       fnd_validated=True)
        gk = (0, 1, 2, 3)
        bad = dict(morphism.components)
        pair = (gk, (0,))
        bad[pair] = bad[pair].scaled(2)
        theta = FunctorMorphism(morphism.source, morphism.target, bad)
        hypotheses, reduced, full, agreement = reduced_verification(
            theta, "prime", rsys).checks
        # caught by hypothesis validation or by a check, never silent
        assert (not hypotheses.passed) or (not reduced.passed) \
            or (not full.passed)
        assert agreement.passed


class TestTrivialSpectrum:
    def test_fnd_on_identity_pairs_only(self):
        datum, sys, c, vfam = c2_fixture()
        spec = Spectrum(sys, {k: [k] for k in sys.points()})
        assert validate_fnd(c, vfam, spec, datum).passed
        rsys = commutator_system(sys)
        morphism, tables = upsilon_morphism(c, vfam, datum, spec, rsys,
                                            fnd_validated=True)
        assert validate_functor_morphism(morphism).passed
        assert all(t.source.is_trivial() for t in tables.values())
