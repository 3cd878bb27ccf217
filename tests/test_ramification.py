import math

import pytest

from classfield.catalog import cyclic, direct_product
from classfield.mackey import full_system
from classfield.ramification import (
    DepthInsufficient, InertiaTrivialHorizon, NoLiftInModel, NotUnramified,
    RamificationDatum, SupernaturalNumber,
    d_horizon, degrees, frobenius_element, frobenius_group, frobenius_lifts,
    inertia_subgroup, p_parts, power_subgroup,
)
from classfield.transfer import AbelianizationSystem, validate_abelianization_system

from conftest import admissible_data, catalog_groups


def c4_datum():
    return RamificationDatum(cyclic(4), 4, (0, 1, 2, 3))


def v4_projection():
    v4 = direct_product(cyclic(2), cyclic(2))
    return RamificationDatum(v4, 2, (0, 0, 1, 1))


class TestDatumValidation:
    def test_rejects_non_homomorphism(self):
        with pytest.raises(ValueError):
            RamificationDatum(cyclic(4), 4, (0, 1, 1, 1))

    def test_rejects_non_surjective(self):
        with pytest.raises(ValueError):
            RamificationDatum(cyclic(4), 4, (0, 2, 0, 2))

    def test_primes_must_cover(self):
        with pytest.raises(ValueError):
            RamificationDatum(cyclic(4), 4, (0, 1, 2, 3),
                              primes_p=frozenset({3}))

    def test_json_roundtrip(self):
        d = c4_datum()
        again = RamificationDatum.from_json(d.to_json())
        assert again.d == d.d and again.modulus == d.modulus


class TestInertiaAndDegrees:
    def test_injective_d_trivial_inertia(self):
        d = c4_datum()
        for h in d.group.all_subgroups():
            assert inertia_subgroup(d, h).elements == (0,)

    def test_v4_projection_kernel(self):
        d = v4_projection()
        g = d.group.full_subgroup()
        assert inertia_subgroup(d, g).elements == (0, 1)

    def test_h_inside_kernel(self):
        d = v4_projection()
        k = d.group.generated_subgroup([1])
        assert inertia_subgroup(d, k) == k

    def test_unramified_and_totally_ramified(self):
        d = v4_projection()
        g = d.group.full_subgroup()
        assert degrees(d, g, g) == (1, 1)
        assert degrees(d, g, d.group.generated_subgroup([1])) == (1, 2)
        assert degrees(d, g, d.group.generated_subgroup([3])) == (2, 1)

    def test_ef_law_exhaustive(self, group_catalog):
        for name in ("C12", "D4", "S3", "Q8", "C2xC2"):
            g = group_catalog[name]
            for datum in admissible_data(g):
                subs = g.all_subgroups()
                for h in subs:
                    for k in subs:
                        if not k.is_subgroup_of(h):
                            continue
                        e, f = degrees(datum, h, k)
                        assert e * f == len(h) // len(k)

    def test_tower_law_exhaustive(self, group_catalog):
        for name in ("C12", "D4", "S3"):
            g = group_catalog[name]
            for datum in admissible_data(g):
                subs = g.all_subgroups()
                for h in subs:
                    for k in subs:
                        if not k.is_subgroup_of(h):
                            continue
                        for l in subs:
                            if not l.is_subgroup_of(k):
                                continue
                            e_hl, f_hl = degrees(datum, h, l)
                            e_hk, f_hk = degrees(datum, h, k)
                            e_kl, f_kl = degrees(datum, k, l)
                            assert e_hl == e_hk * e_kl
                            assert f_hl == f_hk * f_kl

    def test_unramified_iff_contains_inertia(self, group_catalog):
        for name in ("D4", "C12", "C2xC2"):
            g = group_catalog[name]
            for datum in admissible_data(g):
                for h in g.all_subgroups():
                    i_h = inertia_subgroup(datum, h)
                    for k in g.all_subgroups():
                        if not k.is_subgroup_of(h):
                            continue
                        e, _ = degrees(datum, h, k)
                        assert (e == 1) == i_h.element_set <= k.element_set \
                            if False else (e == 1) == (
                                i_h.element_set <= k.element_set)

    def test_totally_ramified_iff_product(self, group_catalog):
        for name in ("D4", "C12", "C2xC2"):
            g = group_catalog[name]
            for datum in admissible_data(g):
                for h in g.all_subgroups():
                    i_h = inertia_subgroup(datum, h)
                    for k in g.all_subgroups():
                        if not k.is_subgroup_of(h):
                            continue
                        _, f = degrees(datum, h, k)
                        product = g.generated_subgroup(
                            list(k.elements) + list(i_h.elements))
                        assert (f == 1) == (product.elements == h.elements)

    def test_inertia_family_is_abelianization_system(self):
        # Gamma_H cyclic, hence abelian, for every H: inertia assignment
        # passes the transfer-side validation on the full system
        d = v4_projection()
        sys = full_system(d.group)
        assignment = {k: inertia_subgroup(d, sys.subgroup(k))
                      for k in sys.points()}
        rep = validate_abelianization_system(
            AbelianizationSystem(sys, assignment))
        assert rep.passed


class TestHorizonMap:
    def test_d_g_equals_d(self):
        d = c4_datum()
        vals, horizon = d_horizon(d, d.group.full_subgroup())
        assert horizon == 4
        assert [vals[x] for x in range(4)] == [0, 1, 2, 3]

    def test_c4_subgroup(self):
        d = c4_datum()
        h = d.group.generated_subgroup([2])
        vals, horizon = d_horizon(d, h)
        assert horizon == 2 and vals[2] == 1

    def test_trivial_horizon_error(self):
        d = c4_datum()
        with pytest.raises(InertiaTrivialHorizon):
            d_horizon(d, d.group.trivial_subgroup())

    def test_surjective_with_inertia_kernel(self, group_catalog):
        for name in ("C12", "D4"):
            g = group_catalog[name]
            for datum in admissible_data(g):
                for h in g.all_subgroups():
                    try:
                        vals, horizon = d_horizon(datum, h)
                    except InertiaTrivialHorizon:
                        continue
                    assert set(vals.values()) == set(range(horizon))
                    kernel = {x for x, v in vals.items() if v == 0}
                    assert kernel == inertia_subgroup(datum, h).element_set

    def test_compatibility_along_inclusions(self):
        # f_{H|K} * d_K = d_H on K
        d = c4_datum()
        g = d.group.full_subgroup()
        k = d.group.generated_subgroup([2])
        vals_g, hor_g = d_horizon(d, g)
        vals_k, hor_k = d_horizon(d, k)
        _, f = degrees(d, g, k)
        for x in k.elements:
            assert (f * vals_k[x]) % hor_g == vals_g[x]


class TestFrobenius:
    def test_c4_frobenius_element(self):
        d = c4_datum()
        g = d.group.full_subgroup()
        u = d.group.generated_subgroup([2])
        assert frobenius_element(d, g, u) == 1

    def test_u_equals_h(self):
        d = v4_projection()
        k = d.group.generated_subgroup([1])
        # (H, H) with nontrivial d_H image forced through kernel subgroup
        g = d.group.full_subgroup()
        phi = frobenius_element(d, g, g)
        assert phi == 0

    def test_v4_frobenius(self):
        d = v4_projection()
        g = d.group.full_subgroup()
        u = d.group.generated_subgroup([1])
        assert frobenius_element(d, g, u) == 2  # class of (1,0)

    def test_generates_quotient(self, group_catalog):
        for name in ("C12", "D4"):
            g = group_catalog[name]
            for datum in admissible_data(g):
                for h in g.all_subgroups():
                    i_h = inertia_subgroup(datum, h)
                    for u in g.all_subgroups():
                        if not (u.is_subgroup_of(h) and u.is_normal_in(h)
                                and i_h.element_set <= u.element_set):
                            continue
                        try:
                            phi = frobenius_element(datum, h, u)
                        except InertiaTrivialHorizon:
                            assert u == h or len(h) == len(u)
                            continue
                        # powers of phi must cover H/U
                        covered = set()
                        x = 0
                        p = g
                        for _ in range(len(h) // len(u)):
                            covered.add(min(p.table[x][a] for a in u.elements))
                            x = p.table[x][phi]
                        assert len(covered) == len(h) // len(u)

    def test_not_unramified(self):
        d = v4_projection()
        g = d.group.full_subgroup()
        diag = d.group.generated_subgroup([3])
        with pytest.raises(NotUnramified):
            frobenius_element(d, g, diag)


class TestFrobeniusGroup:
    def test_c6_example(self):
        c6 = cyclic(6)
        d = RamificationDatum(c6, 6, tuple(range(6)))
        g = c6.full_subgroup()
        u = c6.generated_subgroup([2])
        sigma, report = frobenius_group(d, 2, g, u, certify_unique=True)
        assert sigma.elements == (0, 2, 4)
        assert report.passed and report.unique
        assert report.f_expected == 2  # P(2) with P = {2, 3}

    def test_c4_full_group(self):
        d = c4_datum()
        sigma, report = frobenius_group(
            d, 1, d.group.full_subgroup(), d.group.trivial_subgroup(),
            certify_unique=True)
        assert sigma.elements == (0, 1, 2, 3)
        assert report.passed and report.unique

    def test_kernel_element_rejected(self):
        d = v4_projection()
        g = d.group.full_subgroup()
        with pytest.raises(ValueError):
            frobenius_group(d, 1, g, g.parent.trivial_subgroup())

    def test_sigma_formula_and_uniqueness(self, group_catalog):
        # Sigma = <h> * I_U and no other subgroup passes the axioms
        for name in ("C12", "D4", "C2xC2"):
            g = group_catalog[name]
            for datum in admissible_data(g):
                full = g.full_subgroup()
                for u in g.all_subgroups():
                    vals, _ = d_horizon(datum, full)
                    for h_elt in range(g.order):
                        if vals[h_elt] == 0:
                            continue
                        try:
                            sigma, report = frobenius_group(
                                datum, h_elt, full, u, certify_unique=True)
                        except DepthInsufficient:
                            continue
                        expected = g.generated_subgroup(
                            [h_elt] + list(inertia_subgroup(datum, u).elements))
                        assert sigma.elements == expected.elements
                        if report.passed:
                            assert report.unique

    def test_uniqueness_on_proper_subgroups(self):
        # certify_unique scans only the subgroups inside H; its verdict must
        # match a brute-force count of the subgroups of G inside H that
        # satisfy the three axioms
        checked = 0
        for g in catalog_groups(12):
            full = g.full_subgroup()
            for datum in admissible_data(g):
                for h in g.all_subgroups():
                    if h == full:
                        continue
                    try:
                        vals, _ = d_horizon(datum, h)
                    except InertiaTrivialHorizon:
                        continue
                    for u in g.all_subgroups():
                        if not u.is_subgroup_of(h):
                            continue
                        i_u = inertia_subgroup(datum, u).elements
                        for h_elt in h.elements:
                            if vals[h_elt] == 0:
                                continue
                            try:
                                sigma, report = frobenius_group(
                                    datum, h_elt, h, u, certify_unique=True)
                            except DepthInsufficient:
                                continue
                            if not report.passed:
                                continue
                            axioms = [k for k in g.all_subgroups()
                                      if k.is_subgroup_of(h)
                                      and h_elt in k.element_set
                                      and inertia_subgroup(datum, k).elements == i_u
                                      and degrees(datum, h, k)[1] == report.f_expected]
                            assert sigma in axioms
                            assert report.unique == (len(axioms) == 1)
                            checked += 1
        assert checked == 803

    def test_depth_insufficient(self):
        # C6 with modulus 3: h = g^2 has mult 2, so P(mult) = 2, but the
        # residue 2 is invertible mod 3 and f_{H|Sigma} collapses to 1 -
        # the truncation cannot represent the 2-part of this lift
        c6 = cyclic(6)
        d = RamificationDatum(c6, 3, tuple(x % 3 for x in range(6)))
        full = c6.full_subgroup()
        with pytest.raises(DepthInsufficient) as err:
            frobenius_group(d, 2, full, c6.trivial_subgroup())
        assert err.value.report.f_expected == 2
        assert err.value.report.f_actual == 1


class TestFrobeniusLifts:
    def test_v4_lifts(self):
        d = v4_projection()
        g = d.group.full_subgroup()
        u = d.group.generated_subgroup([1])
        assert frobenius_lifts(d, g, u, 2) == (2, 3)

    def test_identity_coset_of_h_mod_h(self):
        d = c4_datum()
        g = d.group.full_subgroup()
        lifts = frobenius_lifts(d, g, g, 0)
        vals, _ = d_horizon(d, g)
        assert set(lifts) == {x for x in range(4) if vals[x] != 0}

    def test_injective_d_exact_lifts(self):
        d = c4_datum()
        g = d.group.full_subgroup()
        u = d.group.generated_subgroup([2])
        assert frobenius_lifts(d, g, u, 1) == (1, 3)

    def test_no_lift_in_model(self):
        d = c4_datum()
        g = d.group.full_subgroup()
        with pytest.raises(NoLiftInModel):
            frobenius_lifts(d, g, d.group.trivial_subgroup(), 0)


class TestPParts:
    def test_examples(self):
        assert p_parts(12, {2}) == (4, 3)
        assert p_parts(1, {2}) == (1, 1)
        assert p_parts(30, {2, 3, 5}) == (30, 1)

    def test_multiplicative(self):
        for n in range(1, 40):
            for m in range(1, 40):
                pn, qn = p_parts(n, {2, 5})
                pm, qm = p_parts(m, {2, 5})
                pnm, qnm = p_parts(n * m, {2, 5})
                assert pnm == pn * pm and qnm == qn * qm

    def test_power_subgroup(self):
        r = power_subgroup(4, 2)
        assert r.index == 2 and r.index_divides_n
        r = power_subgroup(6, 4, {2, 3})
        assert r.index == 2 and r.p_part_law_holds
        assert power_subgroup(12, 1).index == 1

    def test_index_divides_exhaustive(self):
        for m in range(1, 30):
            for n in range(1, 30):
                r = power_subgroup(m, n)
                assert r.index_divides_n
                assert r.index == math.gcd(n, m)


class TestSupernatural:
    def test_absorption(self):
        two_inf = SupernaturalNumber((), frozenset({2}))
        assert two_inf * SupernaturalNumber.from_int(8) == two_inf

    def test_divisibility(self):
        big = SupernaturalNumber(((3, 1),), frozenset({2}))
        assert SupernaturalNumber.from_int(12).divides(big)
        assert not SupernaturalNumber.from_int(8).divides(
            SupernaturalNumber.from_int(12))

    def test_product_matches_int(self):
        a, b = 12, 90
        prod = SupernaturalNumber.from_int(a) * SupernaturalNumber.from_int(b)
        assert prod == SupernaturalNumber.from_int(a * b)

    def test_p_part_consistent(self):
        n = SupernaturalNumber.from_int(360)
        p = n.p_part({2, 5})
        assert p == SupernaturalNumber.from_int(40)


class TestHorizonCompatibility:
    def test_f_scaling_exhaustive(self, group_catalog):
        # f_{H|K} * d_K = d_H on K, over every fixture datum and chain
        for name in ("C12", "C16", "D4", "Q8"):
            g = group_catalog[name]
            for datum in admissible_data(g):
                for h in g.all_subgroups():
                    try:
                        vals_h, hor_h = d_horizon(datum, h)
                    except InertiaTrivialHorizon:
                        continue
                    for k in g.all_subgroups():
                        if not k.is_subgroup_of(h):
                            continue
                        try:
                            vals_k, _ = d_horizon(datum, k)
                        except InertiaTrivialHorizon:
                            continue
                        _, f = degrees(datum, h, k)
                        for x in k.elements:
                            assert (f * vals_k[x]) % hor_h == vals_h[x]


class TestFrobeniusCompatibility:
    def test_con_res_ind_on_frobenius_elements(self):
        # the relative Frobenius behaves functorially inside H/U:
        # conjugation carries it over, restriction (transfer) raises it to
        # the e-th power, induction (inclusion) to the f-th power
        from classfield.catalog import direct_product, cyclic
        from classfield.transfer import _pretransfers

        v4 = direct_product(cyclic(2), cyclic(2))
        datum = RamificationDatum(v4, 2, (0, 0, 1, 1))
        g = v4
        subs = g.all_subgroups()
        for h in subs:
            i_h = inertia_subgroup(datum, h)
            for u in subs:
                if not (u.is_subgroup_of(h) and u.is_normal_in(h)
                        and i_h.element_set <= u.element_set):
                    continue
                try:
                    phi = frobenius_element(datum, h, u)
                except InertiaTrivialHorizon:
                    continue
                # conjugation
                for x in range(g.order):
                    h_conj = h.conjugate(x)
                    u_conj = u.conjugate(x)
                    phi_c = frobenius_element(datum, h_conj, u_conj)
                    assert min(g.table[g.conj(x, phi)][a]
                               for a in u_conj.elements) == \
                        min(g.table[phi_c][a] for a in u_conj.elements)
                # restriction: transfer of phi_{H|U} is phi_{K|U}^e
                for k in subs:
                    if not (u.is_subgroup_of(k) and k.is_subgroup_of(h)):
                        continue
                    i_k = inertia_subgroup(datum, k)
                    if not i_k.element_set <= u.element_set:
                        continue
                    e, f = degrees(datum, h, k)
                    try:
                        phi_k = frobenius_element(datum, k, u)
                    except InertiaTrivialHorizon:
                        assert k == u  # I_K = K forces the trivial pair
                        phi_k = 0
                    (transferred,) = _pretransfers(h, k, [phi])
                    lhs = min(g.table[transferred][a] for a in u.elements)
                    rhs = min(g.table[g.power(phi_k, e)][a]
                              for a in u.elements)
                    assert lhs == rhs
                    # induction: the inclusion sends phi_{K|U} to
                    # phi_{H|U}^{f_{H|K}}
                    lhs2 = min(g.table[phi_k][a] for a in u.elements)
                    rhs2 = min(g.table[g.power(phi, f)][a]
                               for a in u.elements)
                    assert lhs2 == rhs2
