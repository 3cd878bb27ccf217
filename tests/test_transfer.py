import itertools
import random

import pytest

from classfield.catalog import cyclic, symmetric
from classfield.groups import (
    FiniteGroup, InvalidReps, Subgroup, Transversal, commutator_subgroup,
    double_coset_reps, right_transversal,
)
from classfield.mackey import full_system
from classfield.transfer import (
    NotTransferInducing, commutator_system,
    lambda_exponent, pretransfer, transfer, transfer_via_lambda,
    trivial_system, validate_abelianization_system, AbelianizationSystem,
)

from conftest import catalog_groups, relabeled


def coset_rep(g, h, r_h, x):
    return min(g.table[x][a] for a in r_h.elements)


def random_transversal(g, h, rng):
    reps = []
    seen = set()
    pool = list(range(g.order))
    rng.shuffle(pool)
    for x in pool:
        if x in seen:
            continue
        reps.append(x)
        for a in h.elements:
            seen.add(g.table[a][x])
    return Transversal(h, "right", tuple(reps))


class TestPretransfer:
    def test_c4_example(self):
        # C4 -> <g^2>, input g: kappa(e*g) * kappa(g*g) = e * g^2
        c4 = cyclic(4)
        h = c4.generated_subgroup([2])
        t = right_transversal(c4, h)
        assert pretransfer(c4, h, t, 1) == 2

    def test_identity_input(self):
        s3 = symmetric(3)
        for h in s3.all_subgroups():
            t = right_transversal(s3, h)
            assert pretransfer(s3, h, t, 0) == 0

    def test_lands_in_subgroup(self):
        s3 = symmetric(3)
        for h in s3.all_subgroups():
            t = right_transversal(s3, h)
            for x in range(s3.order):
                assert pretransfer(s3, h, t, x) in h.element_set

    def test_preserves_normal_subgroups(self, group_catalog):
        # V^T maps U into U for U normal in G, U <= H
        for name in ("D4", "S3", "Q8", "A4", "C12", "Q16", "D4oC4"):
            g = group_catalog[name]
            for h in g.all_subgroups():
                t = right_transversal(g, h)
                for u in g.all_subgroups():
                    if not (u.is_normal() and u.is_subgroup_of(h)):
                        continue
                    for x in u.elements:
                        assert pretransfer(g, h, t, x) in u.element_set


class TestTransfer:
    def test_c4_to_subgroup(self):
        c4 = cyclic(4)
        h = c4.generated_subgroup([2])
        triv = c4.trivial_subgroup()
        assert transfer(c4, h, triv, triv, 1) == 2

    def test_s3_to_a3_constant(self):
        # the only homomorphism C2 -> C3 is trivial
        s3 = symmetric(3)
        a3 = next(h for h in s3.all_subgroups() if len(h) == 3)
        r_h = commutator_subgroup(a3)  # trivial
        r_g = commutator_subgroup(s3.full_subgroup())  # = A3
        for x in range(6):
            assert transfer(s3, a3, r_h, r_g, x) == 0

    def test_transfer_to_g_is_identity(self):
        s3 = symmetric(3)
        g_full = s3.full_subgroup()
        r = commutator_subgroup(g_full)
        for x in range(6):
            assert transfer(s3, g_full, r, r, x) == coset_rep(s3, g_full, r, x)

    def test_failed_coabelian_check_raises_on_every_call(self):
        # the checks run once per (H, R_H, R_G), before the memo is filled
        s3 = symmetric(3)
        g_full = s3.full_subgroup()
        r = commutator_subgroup(g_full)
        triv = s3.trivial_subgroup()
        for _ in range(2):
            for r_h, r_g in ((triv, r), (r, triv)):
                with pytest.raises(ValueError, match="not abelian"):
                    transfer(s3, g_full, r_h, r_g, 1)
        for x in range(6):
            assert transfer(s3, g_full, r, r, x) == coset_rep(s3, g_full, r, x)

    def test_not_transfer_inducing(self):
        # R_G = C4 itself cannot transfer into R_H = 1: V(g) = g^2 != e
        c4 = cyclic(4)
        h = c4.generated_subgroup([2])
        with pytest.raises(NotTransferInducing):
            transfer(c4, h, c4.trivial_subgroup(), c4.full_subgroup(), 1)

    def test_transversal_independence(self, group_catalog):
        rng = random.Random(7)
        for name in ("S3", "D4", "Q8", "C12"):
            g = group_catalog[name]
            r_g = commutator_subgroup(g.full_subgroup())
            for h in g.all_subgroups():
                if h.index > 6:
                    continue
                r_h = commutator_subgroup(h)
                base = [transfer(g, h, r_h, r_g, x) for x in range(g.order)]
                for _ in range(4):
                    t = random_transversal(g, h, rng)
                    got = [transfer(g, h, r_h, r_g, x, transversal=t)
                           for x in range(g.order)]
                    assert got == base

    def test_multiplicative(self, group_catalog):
        for name in ("S3", "D4", "A4"):
            g = group_catalog[name]
            r_g = commutator_subgroup(g.full_subgroup())
            for h in g.all_subgroups():
                r_h = commutator_subgroup(h)
                vals = {x: transfer(g, h, r_h, r_g, x) for x in range(g.order)}
                for x in range(g.order):
                    for y in range(g.order):
                        prod = coset_rep(g, h, r_h,
                                         g.table[vals[x]][vals[y]])
                        assert prod == vals[g.table[x][y]]

    def test_transitive(self, group_catalog):
        g = group_catalog["D4"]
        r_g = commutator_subgroup(g.full_subgroup())
        subs = g.all_subgroups()
        for mid in subs:
            r_mid = commutator_subgroup(mid)
            for low in subs:
                if not low.is_subgroup_of(mid):
                    continue
                r_low = commutator_subgroup(low)
                from classfield.transfer import transfer_between
                for x in range(g.order):
                    via = transfer_between(
                        low, mid, r_low, r_mid,
                        transfer(g, mid, r_mid, r_g, x))
                    via = coset_rep(g, low, r_low, via)
                    direct = transfer(g, low, r_low, r_g, x)
                    assert via == direct


class TestLabelIndependence:
    def test_transfer_commutes_with_relabelling(self):
        # under a relabelling pi fixing 0, pi(transfer(x)) and the relabelled
        # transfer of pi(x) lie in one coset of pi(R_H); the least elements
        # of that coset may differ between the two labellings
        moved = 0
        for g, seed in itertools.product(catalog_groups(max_order=16), range(3)):
            table, perm = relabeled(g.table, seed)
            g2 = FiniteGroup(table, validate=False)

            def image(s):
                return Subgroup(g2, (perm[a] for a in s.elements), validate=False)
            r_g = commutator_subgroup(g.full_subgroup())
            for h in g.all_subgroups():
                r_h = commutator_subgroup(h)
                h2, r_h2, r_g2 = image(h), image(r_h), image(r_g)
                for x in range(g.order):
                    a = perm[transfer(g, h, r_h, r_g, x)]
                    b = transfer(g2, h2, r_h2, r_g2, perm[x])
                    assert g2.table[g2.inverse[a]][b] in r_h2.element_set, (g.name, seed, h, x)
                    moved += a != b
        assert moved > 0  # the coset, not its least element, is label-free


class TestLambdaPresentation:
    def test_c4_single_rep(self):
        c4 = cyclic(4)
        h = c4.generated_subgroup([2])
        triv = c4.trivial_subgroup()
        # H\G/<g> = one double coset, lambda = 2
        assert lambda_exponent(c4, h, 1, 0) == 2
        assert transfer_via_lambda(c4, h, triv, 1, (0,)) == 2

    def test_identity_element(self):
        s3 = symmetric(3)
        a3 = next(h for h in s3.all_subgroups() if len(h) == 3)
        triv = s3.trivial_subgroup()
        reps = double_coset_reps(s3, a3, s3.generated_subgroup([0]))
        for rho in reps:
            assert lambda_exponent(s3, a3, 0, rho) == 1
        assert transfer_via_lambda(s3, a3, triv, 0, reps) == 0

    def test_agrees_with_transfer(self, group_catalog):
        for name in ("S3", "D4", "Q8", "C12", "A4"):
            g = group_catalog[name]
            r_g = commutator_subgroup(g.full_subgroup())
            for h in g.all_subgroups():
                r_h = commutator_subgroup(h)
                for x in range(g.order):
                    reps = double_coset_reps(g, h, g.generated_subgroup([x]))
                    lam = transfer_via_lambda(g, h, r_h, x, reps)
                    assert lam == transfer(g, h, r_h, r_g, x)

    def test_exponents_partition_index(self, group_catalog):
        g = group_catalog["S4"]
        for h in g.all_subgroups():
            if h.index > 8:
                continue
            for x in range(g.order):
                reps = double_coset_reps(g, h, g.generated_subgroup([x]))
                total = sum(lambda_exponent(g, h, x, rho) for rho in reps)
                assert total == h.index

    def test_invalid_reps(self):
        c4 = cyclic(4)
        h = c4.generated_subgroup([2])
        triv = c4.trivial_subgroup()
        with pytest.raises(InvalidReps):
            transfer_via_lambda(c4, h, triv, 1, (0, 1))


class TestAbelianizationSystems:
    def test_commutator_system_passes(self, group_catalog):
        for name in ("S3", "D4", "Q8", "A4"):
            sys = full_system(group_catalog[name])
            assert validate_abelianization_system(commutator_system(sys)).passed

    def test_full_assignment_passes(self):
        sys = full_system(symmetric(3))
        full = AbelianizationSystem(sys, {k: sys.subgroup(k) for k in sys.points()})
        assert validate_abelianization_system(full).passed

    def test_trivial_on_abelian(self):
        sys = full_system(cyclic(6))
        assert validate_abelianization_system(trivial_system(sys)).passed

    def test_trivial_on_nonabelian_fails(self):
        sys = full_system(symmetric(3))
        rep = validate_abelianization_system(trivial_system(sys))
        assert not rep.passed

    def test_non_normal_assignment_fails(self):
        s3 = symmetric(3)
        sys = full_system(s3)
        base = commutator_system(sys)
        bad = dict(base.assignment)
        # replace R(S3) = A3 by a non-normal order-2 subgroup
        order2 = next(h for h in s3.all_subgroups() if len(h) == 2)
        bad[tuple(range(6))] = order2
        rep = validate_abelianization_system(AbelianizationSystem(sys, bad))
        assert not rep.passed
        assert rep.witness is not None
