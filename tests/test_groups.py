import random
from collections import Counter

import pytest

from classfield.abelian import FgAbGroup, group_order
from classfield.catalog import (
    alternating, catalog, cyclic, dicyclic, dihedral, direct_product,
    symmetric,
)
from classfield.groups import (
    FiniteGroup, InvalidReps, Subgroup, Transversal,
    abelian_quotient, abelianization, coset_reps, cosets,
    double_coset_reps, double_coset_of, left_transversal, lift_double_coset_transversal,
    commutator_subgroup, quotient_group, right_transversal, subgroup_generators,
    t_permutation, t_remover,
)
from classfield.transfer import _coabelian_check

from oracles import (
    abelian_quotient_oracle, all_subgroups_oracle, are_isomorphic, commutator_oracle,
    generated_oracle, normal_in_oracle, quotient_is_abelian_oracle,
)

EXPECTED_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2,
                   10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14, 24: 1}


class TestCatalog:
    def test_counts_per_order(self, group_catalog):
        counts = Counter(g.order for g in group_catalog.values())
        assert dict(counts) == EXPECTED_COUNTS

    def test_tables_are_valid_groups(self, group_catalog):
        for g in group_catalog.values():
            FiniteGroup(g.table)  # full validation

    def test_pairwise_non_isomorphic(self, group_catalog):
        groups = list(group_catalog.values())
        for i, a in enumerate(groups):
            for b in groups[i + 1:]:
                if a.order == b.order:
                    assert not are_isomorphic(a, b), (a.name, b.name)

    def test_named_fixtures_present(self, group_catalog):
        for name in ("S3", "S4", "A4", "D4", "Q8", "C2xC2xC2"):
            assert name in group_catalog

    def test_iso_positive_control(self):
        assert are_isomorphic(symmetric(3), dihedral(3))
        assert are_isomorphic(dicyclic(2), dicyclic(2))
        assert not are_isomorphic(dihedral(4), dicyclic(2))


class TestTransversals:
    def test_s3_a3_split(self):
        s3 = symmetric(3)
        a3 = next(h for h in s3.all_subgroups() if len(h) == 3)
        t = right_transversal(s3, a3)
        assert len(t.reps) == 2 and 0 in t.reps

    def test_c4_subgroup(self):
        c4 = cyclic(4)
        h = c4.generated_subgroup([2])
        t = right_transversal(c4, h)
        assert t.reps == (0, 1)

    def test_full_subgroup(self):
        g = symmetric(3)
        t = right_transversal(g, g.full_subgroup())
        assert t.reps == (0,)

    def test_partition_law_catalog(self, group_catalog):
        for g in group_catalog.values():
            if g.order > 16:
                continue
            for h in g.all_subgroups():
                t = right_transversal(g, h)
                covered = set()
                for r in t.reps:
                    coset = {g.table[a][r] for a in h.elements}
                    assert not (covered & coset)
                    covered |= coset
                assert covered == set(range(g.order))

    def test_invalid_transversal_rejected(self):
        c4 = cyclic(4)
        h = c4.generated_subgroup([2])
        with pytest.raises(ValueError):
            Transversal(h, "right", (0, 2))  # same coset twice


class TestRemoverAndPermutation:
    def test_c4_kappa(self):
        c4 = cyclic(4)
        h = c4.generated_subgroup([2])
        t = right_transversal(c4, h)  # reps (0, 1)
        # g^3 = g^2 * g: kappa(g^3) = g^2
        assert t_remover(t, 3) == 2

    def test_kappa_unitary_subgroup_fix(self):
        # kappa(h) = h for h in H when T is unitary
        s3 = symmetric(3)
        for h in s3.all_subgroups():
            t = right_transversal(s3, h)
            for x in h.elements:
                assert t_remover(t, x) == x

    def test_kappa_of_rep_is_identity(self):
        s3 = symmetric(3)
        for h in s3.all_subgroups():
            t = right_transversal(s3, h)
            for r in t.reps:
                assert t_remover(t, r) == 0

    def test_sigma_swap_on_c4(self):
        c4 = cyclic(4)
        h = c4.generated_subgroup([2])
        t = right_transversal(c4, h)
        sigma = t_permutation(t, 1)
        assert sigma == {0: 1, 1: 0}

    def test_sigma_identity(self):
        s3 = symmetric(3)
        h = s3.all_subgroups()[1]
        t = right_transversal(s3, h)
        assert t_permutation(t, 0) == {r: r for r in t.reps}

    def test_kappa_sigma_law_exhaustive(self, group_catalog):
        # t*g = kappa(t*g) * sigma(t), and the composition law
        for name in ("S3", "D4", "Q8", "C12", "A4"):
            g = group_catalog[name]
            for h in g.all_subgroups():
                t = right_transversal(g, h)
                for x in range(g.order):
                    sigma = t_permutation(t, x)
                    for r in t.reps:
                        prod = g.table[r][x]
                        assert prod == g.table[t_remover(t, prod)][sigma[r]]
                for x in range(g.order):
                    for y in range(g.order):
                        s_xy = t_permutation(t, g.table[x][y])
                        s_x = t_permutation(t, x)
                        s_y = t_permutation(t, y)
                        assert all(s_xy[r] == s_y[s_x[r]] for r in t.reps)

    def test_left_transversal_mirror(self):
        s3 = symmetric(3)
        for h in s3.all_subgroups():
            t = left_transversal(s3, h)
            for x in range(s3.order):
                sigma = t_permutation(t, x)
                for r in t.reps:
                    prod = s3.table[x][r]
                    assert prod == s3.table[sigma[r]][t_remover(t, prod)]


class TestDoubleCosets:
    def test_abelian_case(self):
        c12 = cyclic(12)
        u = c12.generated_subgroup([4])
        v = c12.generated_subgroup([6])
        reps = double_coset_reps(c12, u, v)
        # in the abelian case UgV are cosets of U+V
        uv = c12.generated_subgroup([4, 6])
        assert len(reps) == c12.order // len(uv)
        # inside H = <3> of order 4 with U = 1, V = <6>: the cosets of V
        h = c12.generated_subgroup([3])
        assert double_coset_reps(c12, c12.trivial_subgroup(), v,
                                 within=h) == (0, 3)
        assert double_coset_reps(c12, uv, uv, within=uv) == (0,)

    def test_u_equals_g(self):
        s3 = symmetric(3)
        assert double_coset_reps(s3, s3.full_subgroup(),
                                 s3.trivial_subgroup()) == (0,)
        assert double_coset_reps(s3, s3.full_subgroup(), s3.trivial_subgroup(),
                                 within=s3.full_subgroup()) == (0,)

    def test_s3_transposition(self):
        s3 = symmetric(3)
        u = next(h for h in s3.all_subgroups()
                 if len(h) == 2)
        assert len(double_coset_reps(s3, u, u)) == 2
        assert double_coset_reps(s3, u, u, within=u) == (0,)
        trivial = s3.trivial_subgroup()
        assert double_coset_reps(s3, trivial, trivial, within=u) == u.elements

    def test_within_partitions_the_subgroup(self, group_catalog):
        # brute force: the (U,V)-double cosets of the reps partition H,
        # each rep is the least element of its double coset, ascending
        for name in ("S3", "D4", "Q8", "A4"):
            g = group_catalog[name]
            subs = g.all_subgroups()
            for h in subs:
                inside = [s for s in subs if s.is_subgroup_of(h)]
                for u in inside:
                    for v in inside:
                        reps = double_coset_reps(g, u, v, within=h)
                        cosets = [double_coset_of(g, u, v, r) for r in reps]
                        assert list(reps) == sorted(reps)
                        assert [min(c) for c in cosets] == list(reps)
                        assert sum(map(len, cosets)) == len(h)
                        assert set().union(*cosets) == h.element_set

    def test_lift_transversal(self, group_catalog):
        for name in ("C4", "S3", "D4", "A4"):
            g = group_catalog[name]
            subs = g.all_subgroups()
            for u in subs:
                for v in subs:
                    reps = double_coset_reps(g, u, v)
                    inner = {}
                    for rho in reps:
                        u_rho = Subgroup(
                            g, (g.conj(g.inverse[rho], x) for x in u.elements),
                            validate=False)
                        cap = u_rho.intersection(v)
                        inner[rho] = Transversal(
                            cap, "right", coset_reps(v, cap, "right"), ambient=v)
                    lifted = lift_double_coset_transversal(g, u, v, reps, inner)
                    assert len(lifted.reps) == u.index

    def test_lift_rejects_bad_reps(self):
        s3 = symmetric(3)
        u = next(h for h in s3.all_subgroups() if len(h) == 2)
        with pytest.raises(InvalidReps):
            lift_double_coset_transversal(s3, u, u, (0, 0), {})


class TestCosetReps:
    def test_partition_by_brute_force(self, group_catalog):
        # |H:I| pairwise disjoint cosets covering H, each starting at its
        # least element, in ascending order
        for name in ("S3", "D4", "Q8", "A4", "S4"):
            g = group_catalog[name]
            subs = g.all_subgroups()
            for h in subs:
                for i in (s for s in subs if s.is_subgroup_of(h)):
                    for side in ("left", "right"):
                        reps = coset_reps(h, i, side)
                        cosets = [
                            sorted(g.table[r][a] if side == "left"
                                   else g.table[a][r] for a in i.elements)
                            for r in reps]
                        assert len(reps) == len(h) // len(i)
                        assert [c[0] for c in cosets] == list(reps)
                        assert list(reps) == sorted(reps)
                        assert set().union(*map(set, cosets)) == h.element_set

    def test_sides_differ_for_a_non_normal_subgroup(self):
        # S3 with I = <(0 1)>: the left and right cosets of I differ
        s3 = symmetric(3)
        i = next(h for h in s3.all_subgroups() if len(h) == 2)
        full = s3.full_subgroup()
        left, right = coset_reps(full, i, "left"), coset_reps(full, i, "right")
        assert left != right
        assert left == left_transversal(s3, i).reps
        assert right == right_transversal(s3, i).reps

    def test_rejects_unknown_side(self):
        s3 = symmetric(3)
        with pytest.raises(ValueError):
            coset_reps(s3.full_subgroup(), s3.trivial_subgroup(), "up")


def shuffled_transversal(g, i, side, ambient, rng):
    """A random element of each coset of i, in random order."""
    pool = list(range(g.order) if ambient is None else ambient.elements)
    rng.shuffle(pool)
    reps, seen = [], set()
    for x in pool:
        if x not in seen:
            reps.append(x)
            seen.update(g.table[x][a] if side == "left" else g.table[a][x]
                        for a in i.elements)
    return Transversal(i, side, tuple(reps), ambient)


class TestCosetMemo:
    def test_rep_of_matches_brute_force_membership(self, group_catalog):
        # rep_of sends each element of the ambient to the representative
        # whose coset holds it, for the memoised least-representative
        # transversal and for shuffled ones with and without an ambient
        rng = random.Random(18)
        for name in ("S3", "D4", "Q8", "A4", "S4"):
            g = group_catalog[name]
            subs = g.all_subgroups()
            for h in subs:
                ambients = (None, h) if len(h) == g.order else (h,)
                for i in (s for s in subs if s.is_subgroup_of(h)):
                    for side in ("left", "right"):
                        ts = [cosets(h, i, side)]
                        ts += [shuffled_transversal(g, i, side, a, rng) for a in ambients]
                        for t in ts:
                            assert set(t.rep_of) == h.element_set
                            for x in h.elements:
                                r = t.rep_of[x]
                                coset = {g.table[r][a] if side == "left"
                                         else g.table[a][r] for a in i.elements}
                                assert r in t.reps and x in coset

    def test_equal_transversals_stay_equal(self, group_catalog):
        g = group_catalog["S4"]
        full = g.full_subgroup()
        for h in g.all_subgroups():
            for side, make in (("right", right_transversal), ("left", left_transversal)):
                t = make(g, h)
                fresh = Transversal(h, side, coset_reps(full, h, side))
                assert fresh is not t
                assert fresh == t and hash(fresh) == hash(t)
                assert repr(fresh) == repr(t) and "rep_of" not in repr(t)
                assert fresh.rep_of == t.rep_of
                if len(t.reps) > 1:
                    # another order of the same reps: same cosets, another transversal
                    backwards = Transversal(h, side, t.reps[::-1])
                    assert backwards != t and backwards.rep_of == t.rep_of

    def test_one_object_per_subgroup_pair_and_side(self):
        s3 = symmetric(3)
        full = s3.full_subgroup()
        i, j = [h for h in s3.all_subgroups() if len(h) == 2][:2]
        t = cosets(full, i)
        # equal handles built afresh find the same object
        assert cosets(Subgroup(s3, range(6)), Subgroup(s3, i.elements), "left") is t
        assert left_transversal(s3, i) is t and t.ambient is None
        right = cosets(full, i, "right")
        assert right_transversal(s3, i) is right
        assert right is not t and right != t
        assert cosets(full, j) is not t and cosets(full, j) != t
        a3 = next(h for h in s3.all_subgroups() if len(h) == 3)
        inner = cosets(a3, s3.trivial_subgroup())
        assert inner.ambient == a3 and inner.reps == a3.elements
        assert inner is not cosets(full, s3.trivial_subgroup())

    def test_rejects_a_subgroup_outside_h(self, group_catalog):
        # {0, 3} does not lie in {0, 1}; a refusal is not memoised
        s3 = group_catalog["S3"]
        h, i = s3.subgroup((0, 1)), s3.subgroup((0, 3))
        for _ in range(2):
            for side in ("left", "right"):
                with pytest.raises(ValueError, match="inside the ambient"):
                    coset_reps(h, i, side)
                with pytest.raises(ValueError, match="inside the ambient"):
                    cosets(h, i, side)

    def test_element_outside_the_ambient_is_named(self, group_catalog):
        s3 = group_catalog["S3"]
        v = s3.subgroup((0, 1))
        for t in (Transversal(s3.trivial_subgroup(), "right", (1, 0), ambient=v),
                  cosets(v, s3.trivial_subgroup(), "left")):
            for outside in (3, 99):
                with pytest.raises(ValueError, match=f"element {outside} is outside"):
                    t_remover(t, outside)
                with pytest.raises(ValueError, match=f"element {outside} is outside"):
                    t_permutation(t, outside)
            assert t_permutation(t, 1) == {0: 1, 1: 0}
            assert [t_remover(t, x) for x in v.elements] == [0, 0]


def _fresh(g: FiniteGroup) -> FiniteGroup:
    """A copy of g with an empty cache, so every answer is computed anew."""
    return FiniteGroup(g.table, name=g.name, validate=False)


def _c2_power(n: int) -> FiniteGroup:
    g = cyclic(2)
    for _ in range(n - 1):
        g = direct_product(g, cyclic(2))
    return g


class TestSubgroupLattice:
    def test_cyclic_extension_matches_the_brute_force_oracle(self, group_catalog):
        probes = [*group_catalog.values(), _c2_power(5),
                  direct_product(symmetric(4), cyclic(2)), alternating(5)]
        for g in map(_fresh, probes):
            got = [h.elements for h in g.all_subgroups()]
            assert got == all_subgroups_oracle(g), g.name


class TestIsNormalIn:
    def test_memoised_answer_is_the_conjugation_scan(self, group_catalog):
        # a fresh copy of each group, so the first pass computes every answer
        # and the second reads it back from the memo
        for g in map(_fresh, group_catalog.values()):
            subs = g.all_subgroups()
            scan = {(u.elements, h.elements): normal_in_oracle(g, u.elements, h.elements)
                    for u in subs for h in subs}
            for _ in range(2):
                got = {(u.elements, h.elements): u.is_normal_in(h)
                       for u in subs for h in subs}
                assert got == scan, g.name
            # a second handle on the same elements shares the answer
            mid = subs[len(subs) // 2]
            u = Subgroup(g, mid.elements, validate=False)
            assert u.is_normal_in(g.full_subgroup()) == mid.is_normal()


class TestAbelianization:
    def test_s3(self):
        ab, cmap = abelianization(symmetric(3))
        assert ab == FgAbGroup(0, (2,))
        # 3-cycles die, transpositions map to the generator
        s3 = symmetric(3)
        for x in range(6):
            expected = (0,) if s3.element_order(x) in (1, 3) else (1,)
            assert cmap(x) == expected

    def test_abelian_group_is_itself(self):
        g = direct_product(cyclic(2), cyclic(4))
        ab, cmap = abelianization(g)
        assert group_order(ab) == 8
        assert ab == FgAbGroup(0, (2, 4))

    def test_q8(self):
        ab, _ = abelianization(dicyclic(2))
        assert ab == FgAbGroup(0, (2, 2))

    def test_quotient_map_kills_commutators(self, group_catalog):
        for name in ("S4", "D4oC4", "Q16", "A4"):
            g = group_catalog[name]
            ab, cmap = abelianization(g)
            for a in range(g.order):
                for b in range(g.order):
                    assert cmap(g.commutator(a, b)) == ab.zero()
            # homomorphism property
            for a in range(g.order):
                for b in range(g.order):
                    assert cmap(g.table[a][b]) == ab.add(cmap(a), cmap(b))

    def test_section_inverts_coords(self):
        g = symmetric(4)
        ab, cmap = abelianization(g)
        for vec in ab.elements():
            assert cmap(cmap.section(vec)) == vec


class TestGeneratingSet:
    def test_generates_the_group_and_is_computed_once(self, group_catalog, monkeypatch):
        groups = [_fresh(g) for g in group_catalog.values()]
        gens = [subgroup_generators(g.full_subgroup()) for g in groups]
        for g, gs in zip(groups, gens):
            assert len(g.generated_subgroup(list(gs))) == g.order
        monkeypatch.setattr(FiniteGroup, "_closure",
                            lambda *args: pytest.fail("generating set recomputed"))
        assert all(subgroup_generators(g.full_subgroup()) is gs
                   for g, gs in zip(groups, gens))

    def test_each_generator_is_the_least_element_outside_the_span(self, group_catalog):
        for g in map(_fresh, group_catalog.values()):
            for h in g.all_subgroups():
                gens = subgroup_generators(h)
                for i, x in enumerate(gens):
                    outside = set(h.elements) - set(generated_oracle(g, gens[:i]))
                    assert x == min(outside), (g.name, h.elements)
                assert generated_oracle(g, gens) == h.elements, (g.name, h.elements)


class TestCommutatorSubgroup:
    def test_normal_closure_is_the_brute_force_commutator_subgroup(self, group_catalog):
        for g in map(_fresh, group_catalog.values()):
            for h in g.all_subgroups():
                derived = commutator_subgroup(h)
                assert derived.elements == commutator_oracle(g, h.elements), g.name
                # memoised per subgroup: a second handle gets the same object
                assert commutator_subgroup(Subgroup(g, h.elements)) is derived


class TestAbelianQuotientRefusal:
    def test_s3_modulo_the_trivial_subgroup_is_refused(self):
        s3 = symmetric(3)
        with pytest.raises(ValueError, match="^quotient is not abelian$"):
            abelian_quotient(s3.full_subgroup(), s3.trivial_subgroup())
        with pytest.raises(ValueError, match="^quotient by the given subgroup is not abelian$"):
            _coabelian_check(s3.full_subgroup(), s3.trivial_subgroup())

    def test_generator_checks_refuse_exactly_the_non_abelian_quotients(self, group_catalog):
        refused = 0
        for g in map(_fresh, group_catalog.values()):
            subs = g.all_subgroups()
            for h in subs:
                for r in subs:
                    if not (r.is_subgroup_of(h)
                            and normal_in_oracle(g, r.elements, h.elements)):
                        continue
                    if quotient_is_abelian_oracle(g, h.elements, r.elements):
                        abelian_quotient(h, r)
                        _coabelian_check(h, r)
                        continue
                    refused += 1
                    with pytest.raises(ValueError, match="^quotient is not abelian$"):
                        abelian_quotient(h, r)
                    with pytest.raises(ValueError, match="not abelian$"):
                        _coabelian_check(h, r)
        assert refused > 0


class TestAbelianQuotientOracle:
    @staticmethod
    def _outcome(quotient, h, r):
        """The group, the coordinates of every element of h and the generator
        representatives, or the refusal text."""
        try:
            group, cmap = quotient(h, r)
        except ValueError as exc:
            return str(exc)
        return group, [cmap(x) for x in h.elements], cmap.gen_reps

    def test_coordinates_and_generators_match_the_coset_span_oracle(self, group_catalog):
        probes = [*group_catalog.values(), direct_product(symmetric(4), cyclic(2)),
                  alternating(5)]
        pairs = refused = 0
        for g in map(_fresh, probes):
            subs = g.all_subgroups()
            for h in subs:
                for r in subs:
                    if not (r.is_subgroup_of(h) and r.is_normal_in(h)):
                        continue
                    want = self._outcome(abelian_quotient_oracle, h, r)
                    assert self._outcome(abelian_quotient, h, r) == want, (
                        g.name, h.elements, r.elements)
                    pairs += 1
                    refused += isinstance(want, str)
        assert pairs > refused > 0


class TestQuotientGroup:
    def test_v4_quotient_of_d4(self):
        d4 = dihedral(4)
        center = d4.center()
        q, proj = quotient_group(d4, center)
        assert q.order == 4
        assert q.is_abelian()

    def test_projection_is_homomorphism(self):
        g = symmetric(4)
        n = next(h for h in g.all_subgroups() if len(h) == 4 and h.is_normal())
        q, proj = quotient_group(g, n)
        for a in range(g.order):
            for b in range(g.order):
                assert proj[g.table[a][b]] == q.table[proj[a]][proj[b]]


class TestSubgroupSemantics:
    def test_cross_parent_comparison_is_error(self):
        g1, g2 = cyclic(4), cyclic(4)
        with pytest.raises(ValueError):
            g1.trivial_subgroup() == g2.trivial_subgroup()

    def test_abelian_quotient_requires_abelian(self):
        s3 = symmetric(3)
        with pytest.raises(ValueError):
            abelian_quotient(s3.full_subgroup(), s3.trivial_subgroup())


class TestCompositionLaws:
    def test_right_kappa_composition(self, group_catalog):
        # kappa(t g g') = kappa(t g) * kappa(sigma_g(t) g')
        for name in ("S3", "D4", "Q8"):
            g = group_catalog[name]
            for h in g.all_subgroups():
                t = right_transversal(g, h)
                for x in range(g.order):
                    sigma = t_permutation(t, x)
                    for y in range(g.order):
                        for r in t.reps:
                            lhs = t_remover(t, g.mul(g.mul(r, x), y))
                            rhs = g.mul(t_remover(t, g.mul(r, x)),
                                        t_remover(t, g.mul(sigma[r], y)))
                            assert lhs == rhs

    def test_left_kappa_composition(self, group_catalog):
        # kappa(g' g t) = kappa(g' sigma_g(t)) * kappa(g t)
        for name in ("S3", "D4"):
            g = group_catalog[name]
            for h in g.all_subgroups():
                t = left_transversal(g, h)
                for x in range(g.order):
                    sigma = t_permutation(t, x)
                    for y in range(g.order):
                        for r in t.reps:
                            lhs = t_remover(t, g.mul(y, g.mul(x, r)))
                            rhs = g.mul(t_remover(t, g.mul(y, sigma[r])),
                                        t_remover(t, g.mul(x, r)))
                            assert lhs == rhs

    def test_unitary_kappa_left_multiplication(self, group_catalog):
        # kappa(h g) = h kappa(g) for h in H when the transversal is unitary
        for name in ("S3", "A4"):
            g = group_catalog[name]
            for h in g.all_subgroups():
                t = right_transversal(g, h)
                assert t.is_unitary
                for a in h.elements:
                    for x in range(g.order):
                        assert t_remover(t, g.mul(a, x)) == \
                            g.mul(a, t_remover(t, x))

    def test_transversal_reduction(self, group_catalog):
        # q o kappa_T = kappa_(q T) o q for a normal K <= H
        for name in ("D4", "S3", "C12"):
            g = group_catalog[name]
            for h in g.all_subgroups():
                for k in g.all_subgroups():
                    if not (k.is_normal() and k.is_subgroup_of(h)):
                        continue
                    q, proj = quotient_group(g, k)
                    t = right_transversal(g, h)
                    h_bar = Subgroup(q, {proj[x] for x in h.elements},
                                     validate=False)
                    t_bar = Transversal(h_bar, "right",
                                        tuple(dict.fromkeys(
                                            proj[r] for r in t.reps)))
                    for x in range(g.order):
                        assert proj[t_remover(t, x)] == \
                            t_remover(t_bar, proj[x])


class TestGroupSerialization:
    def test_permutation_generator_input(self):
        data = {"degree": 3, "perm_generators": [[1, 0, 2], [1, 2, 0]]}
        g = FiniteGroup.from_json(data)
        assert g.order == 6
        assert are_isomorphic(g, symmetric(3))

    def test_cayley_roundtrip(self):
        g = dicyclic(2)
        again = FiniteGroup.from_json(g.to_json())
        assert again.table == g.table
