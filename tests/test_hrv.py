import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classfield.hrv import (
    LaurentField, NotFiner, NotUniformizer, NotUnit,
    WindowOverflow, ZeroInverse, ZeroValuation, composite_valuation,
    laurent_from_json, outer_order,
    project_valuation, pullback_valuation, pushforward_valuation,
    rank_n_valuation, rlo_compare, rlo_leq, stack_roundtrip,
    valuation_axiom_sampler,
)


def f2_rank2(width=4):
    return LaurentField(2, 2, (-width, -width), (width, width))


class TestRlo:
    def test_last_coordinate_decides(self):
        assert rlo_compare((1, 0), (0, 1)) == -1
        assert rlo_compare((5, -1), (0, 0)) == -1
        assert rlo_compare((2, 3), (2, 3)) == 0

    def test_total_order_on_box(self):
        box = list(product(range(-2, 3), repeat=2))
        for a in box:
            for b in box:
                c = rlo_compare(a, b)
                assert c == -rlo_compare(b, a)
                if c == 0:
                    assert a == b

    def test_translation_invariance(self):
        box = list(product(range(-2, 3), repeat=2))
        for a in box:
            for b in box:
                if rlo_leq(a, b):
                    for c in box:
                        ac = tuple(x + y for x, y in zip(a, c))
                        bc = tuple(x + y for x, y in zip(b, c))
                        assert rlo_leq(ac, bc)

    def test_projection_monotone(self):
        box = list(product(range(-2, 3), repeat=3))
        for a in box:
            for b in box:
                if rlo_leq(a, b):
                    for r in range(1, 4):
                        assert rlo_leq(project_valuation(a, r),
                                       project_valuation(b, r))


class TestArithmetic:
    def test_t1_times_inverse(self):
        f = f2_rank2()
        t1 = f.variable(1)
        prod = t1.mul(t1.inverse())
        assert prod.support == {(0, 0): 1} and prod.exact

    def test_geometric_series(self):
        f = f2_rank2()
        one, t2 = f.one(), f.variable(2)
        inv = one.add(t2.neg()).inverse()
        assert set(inv.support) == {(0, k) for k in range(5)}
        assert not inv.exact  # the true inverse has infinite support
        back = one.add(t2.neg()).mul(inv)
        assert back.support == {(0, 0): 1}

    def test_additive_inverse(self):
        f = LaurentField(5, 2, (-3, -3), (3, 3))
        rng = random.Random(9)
        for _ in range(50):
            x = f.random_element(rng)
            assert x.add(x.neg()).is_zero()

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroInverse):
            f2_rank2().zero().inverse()

    def test_window_overflow_on_leading_term(self):
        # asymmetric window: T^(1,1) is representable but its inverse not
        f = LaurentField(2, 2, (0, 0), (2, 2))
        with pytest.raises(WindowOverflow):
            f.monomial((1, 1)).inverse()

    def test_field_inverse_roundtrip(self):
        # exact inverses multiply back to exactly 1; truncated ones to a
        # unit with leading term 1 (junk only above the window boundary)
        f = LaurentField(3, 2, (-4, -4), (4, 4))
        rng = random.Random(3)
        exact_hits = 0
        for _ in range(120):
            x = f.random_element(rng, max_terms=2, nonzero=True,
                                 lo=(-1, -1), hi=(1, 1))
            try:
                inv = x.inverse()
            except WindowOverflow:
                continue
            prod = x.mul(inv)
            if inv.exact:
                assert prod.support == {(0, 0): 1}
                exact_hits += 1
            else:
                assert prod.leading() == ((0, 0), 1)
        assert exact_hits > 20

    def test_precision_flag_propagates(self):
        f = f2_rank2(width=2)
        big = f.monomial((2, 2))
        trunc = big.mul(big)  # (4,4) leaves the window
        assert trunc.is_zero() and not trunc.exact
        tainted = trunc.add(f.one())
        assert not tainted.exact


class TestValuation:
    def test_spec_examples(self):
        f = f2_rank2()
        t1, t2 = f.variable(1), f.variable(2)
        assert rank_n_valuation(t1.add(t2)) == (1, 0)
        assert rank_n_valuation(t2) == (0, 1)
        assert rank_n_valuation(f.one().add(t1)) == (0, 0)

    def test_unit_vector_per_variable(self):
        f = LaurentField(3, 3, (-2, -2, -2), (2, 2, 2))
        for i in range(1, 4):
            expected = tuple(1 if j == i - 1 else 0 for j in range(3))
            assert rank_n_valuation(f.variable(i)) == expected

    def test_zero_valuation_raises(self):
        with pytest.raises(ZeroValuation):
            rank_n_valuation(f2_rank2().zero())

    def test_composite_oracle_agrees(self):
        for p in (2, 3):
            for rank in (1, 2, 3):
                f = LaurentField(p, rank, (-3,) * rank, (3,) * rank)
                rng = random.Random(p * 10 + rank)
                for _ in range(200):
                    x = f.random_element(rng, nonzero=True)
                    assert composite_valuation(x) == rank_n_valuation(x)

    def test_surjective_onto_window(self):
        f = f2_rank2(width=2)
        for exp in product(range(-2, 3), repeat=2):
            assert rank_n_valuation(f.monomial(exp)) == exp

    def test_projection_consistency(self):
        f = LaurentField(2, 3, (-2, -2, -2), (2, 2, 2))
        rng = random.Random(0)
        for _ in range(100):
            x = f.random_element(rng, nonzero=True)
            v = rank_n_valuation(x)
            for s in range(1, 4):
                for r in range(1, s + 1):
                    assert project_valuation(project_valuation(v, s), r) == \
                        project_valuation(v, r)


class TestPushPull:
    def test_pushforward_of_t1_class(self):
        f = f2_rank2()
        assert pushforward_valuation(f.variable(1)) == (1,)

    def test_pushforward_of_one(self):
        f = f2_rank2()
        assert pushforward_valuation(f.one()) == (0,)

    def test_representative_independence(self):
        f = f2_rank2()
        rng = random.Random(4)
        base = f.variable(1)
        for _ in range(100):
            # perturb by outer-positive noise: same residue class
            noise = f.random_element(rng, lo=(-2, 1), hi=(2, 3))
            rep = base.add(noise)
            if rep.is_zero() or outer_order(rep) != 0:
                continue
            assert pushforward_valuation(rep) == (1,)

    def test_not_unit_rejected(self):
        f = f2_rank2()
        with pytest.raises(NotUnit):
            pushforward_valuation(f.variable(2))

    def test_rank1_pushforward_rejected(self):
        f1 = LaurentField(2, 1, (-3,), (3,))
        with pytest.raises(NotFiner):
            pushforward_valuation(f1.one())

    def test_pullback_examples(self):
        f = f2_rank2()
        t1, t2 = f.variable(1), f.variable(2)
        assert pullback_valuation(t1.add(t2), t2) == (1, 0)
        assert pullback_valuation(t2, t2) == (0, 1)

    def test_pullback_rank1_recovers_order(self):
        f1 = LaurentField(2, 1, (-4,), (4,))
        t = f1.variable(1)
        for k in range(-2, 3):
            assert pullback_valuation(t.power(k) if k >= 0 else
                                      t.inverse().power(-k), t) == (k,)

    def test_not_uniformizer(self):
        f = f2_rank2()
        with pytest.raises(NotUniformizer):
            pullback_valuation(f.one(), f.variable(2).power(2))

    def test_roundtrips_seeded(self):
        for p in (2, 3):
            for rank in (1, 2, 3):
                width = {1: 4, 2: 3, 3: 2}[rank]
                f = LaurentField(p, rank, (-width,) * rank, (width,) * rank)
                report = stack_roundtrip(f, seed=0, samples=1000)
                assert report.passed and report.skipped == 0

    def test_wrong_uniformizer_reported(self):
        f = LaurentField(3, 2, (-3, -3), (3, 3))
        bad = f.variable(1).mul(f.variable(2))
        report = stack_roundtrip(f, seed=0, samples=300, uniformizer=bad)
        assert not report.passed


class TestAxiomSampler:
    def test_standard_valuation_clean(self):
        for p in (2, 3):
            f = LaurentField(p, 2, (-3, -3), (3, 3))
            report = valuation_axiom_sampler(f, seed=0, samples=600)
            assert report.passed

    def test_unit_times_inverse(self):
        f = f2_rank2()
        rng = random.Random(12)
        for _ in range(50):
            x = f.random_element(rng, max_terms=2, nonzero=True,
                                 lo=(-1, -1), hi=(1, 1))
            try:
                inv = x.inverse()
            except WindowOverflow:
                continue
            prod = x.mul(inv)
            if prod.exact:
                assert rank_n_valuation(prod) == (0, 0)

    def test_equality_case_targeted(self):
        f = f2_rank2()
        rng = random.Random(21)
        for _ in range(200):
            x = f.random_element(rng, nonzero=True)
            y = f.random_element(rng, nonzero=True)
            vx, vy = rank_n_valuation(x), rank_n_valuation(y)
            if vx == vy:
                continue
            s = x.add(y)
            lower = vx if rlo_leq(vx, vy) else vy
            assert rank_n_valuation(s) == lower


class TestSerialization:
    def test_roundtrip(self):
        f = LaurentField(5, 2, (-2, -2), (2, 2))
        rng = random.Random(8)
        for _ in range(20):
            x = f.random_element(rng)
            data = {"p": 5, "rank": 2, "window": {"lo": [-2, -2], "hi": [2, 2]},
                    "support": [{"exp": list(e), "coeff": c}
                                for e, c in sorted(x.support.items())]}
            assert laurent_from_json(data) == x

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_monomial_valuation(self, e1, e2, coeff):
        f = LaurentField(5, 2, (-3, -3), (3, 3))
        x = f.monomial((e1, e2), coeff)
        assert rank_n_valuation(x) == (e1, e2)
