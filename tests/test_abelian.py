import gc
import json
import math
import random
import signal
import weakref
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

import classfield.abelian as abelian
from classfield.abelian import (
    _hnf_key, _matmul, AbHom, FgAbGroup, SubgroupKey, element_preimages,
    factor_through, fixed_subgroup, group_order,
    is_injective, is_isomorphism, is_surjective, mat_mul, quotient, smith_decompose, solve_integer, subgroup_contains,
    subgroup_elements, subgroup_from_generators, subgroup_key,
)

from classfield.catalog import catalog
from classfield.cft import (
    Spectrum, full_extension, lattice_property_check, tautological_assignment,
    tautological_cft,
)
from classfield.mackey import full_system
from classfield.transfer import commutator_system
from conftest import catalog_groups, random_modules
from oracles import enumerate_value


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class TestSmith:
    def test_diag_2_3(self):
        m = [[2, 0], [0, 3]]
        s = smith_decompose(m)
        assert s.diagonal == [1, 6]
        assert mat_mul(mat_mul(s.left, m), s.right) == [[1, 0], [0, 6]]

    def test_zero_matrix(self):
        s = smith_decompose([[0]])
        assert s.diagonal == [0]

    def test_identity(self):
        s = smith_decompose(identity(2))
        assert s.diagonal == [1, 1]

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=120, deadline=None)
    def test_witnesses_multiply_back(self, rows, cols, data):
        m = [[data.draw(st.integers(-5, 5)) for _ in range(cols)]
             for _ in range(rows)]
        s = smith_decompose(m)
        d = mat_mul(mat_mul(s.left, m), s.right)
        for i in range(rows):
            for j in range(cols):
                expected = s.diagonal[i] if i == j and i < len(s.diagonal) else 0
                assert d[i][j] == expected
        # divisibility chain, zeros trailing
        nonzero = [x for x in s.diagonal if x]
        assert all(x > 0 for x in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert s.diagonal[len(nonzero):] == [0] * (len(s.diagonal) - len(nonzero))
        # transforms are two-sided inverses
        assert mat_mul(s.left, s.left_inv) == identity(rows)
        assert mat_mul(s.right_inv, s.right) == identity(cols)

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_solver(self, rows, cols, data):
        m = [[data.draw(st.integers(-4, 4)) for _ in range(cols)]
             for _ in range(rows)]
        x = [data.draw(st.integers(-3, 3)) for _ in range(cols)]
        b = [sum(m[i][j] * x[j] for j in range(cols)) for i in range(rows)]
        got = solve_integer(m, [b])
        assert got is not None
        [got] = got
        assert [sum(m[i][j] * got[j] for j in range(cols))
                for i in range(rows)] == b


class TestGroupBasics:
    def test_order(self):
        assert group_order(FgAbGroup(0, (2, 6))) == 12
        assert group_order(FgAbGroup(1)) == math.inf
        assert group_order(FgAbGroup(0)) == 1

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))

    def test_reduction_canonical(self):
        a = FgAbGroup(1, (3,))
        assert a.reduce((-1, 5)) == (2, 5)

    def test_element_order(self):
        a = FgAbGroup(0, (2, 4))
        assert a.element_order((1, 2)) == 2
        assert a.element_order((0, 1)) == 4
        assert FgAbGroup(1).element_order((3,)) == math.inf

    def test_moduli_and_rank_are_derived_fields_outside_equality(self):
        a = FgAbGroup(2, (2, 4))
        assert a.moduli == (2, 4, 0, 0) and a.rank == 4
        assert a.moduli is a.moduli and a.reduce(a.moduli) == a.zero()
        b = FgAbGroup(2, [2, 4])
        assert a == b and hash(a) == hash(b) == hash((2, (2, 4)))
        assert repr(a) == repr(b) == "FgAbGroup(free_rank=2, invariant_factors=(2, 4))"
        assert json.dumps(a.to_json()) == '{"free_rank": 2, "invariant_factors": [2, 4]}'
        assert FgAbGroup(0).moduli == () and FgAbGroup(0).rank == 0


class TestHoms:
    def test_torsion_respect(self):
        Z2, Z = FgAbGroup(0, (2,)), FgAbGroup(1)
        with pytest.raises(ValueError):
            AbHom(Z2, Z, ((1,),))  # 2*1 != 0 in Z
        AbHom(Z2, Z2, ((1,),))  # fine

    def test_composition_associative(self):
        a = FgAbGroup(0, (4,))
        f = AbHom(a, a, ((3,),))
        g = AbHom(a, a, ((2,),))
        h = AbHom(a, a, ((1,),))
        assert f.compose(g).compose(h) == f.compose(g.compose(h))
        assert f.compose(AbHom.identity(a)) == f

    def test_from_columns_needs_columns_of_codomain_rank(self):
        z, c2 = FgAbGroup(1), FgAbGroup(0, (2,))
        for cod, cols in ((c2, [[1, 5, 7]]), (FgAbGroup(0, (2, 2)), [[1]]),
                          (c2, [[]])):
            with pytest.raises(ValueError, match="codomain rank"):
                AbHom.from_columns(z, cod, cols)
        assert AbHom.from_columns(z, c2, [[5]]).matrix == ((1,),)

    def test_kernel_injective_map(self):
        Z = FgAbGroup(1)
        k, _ = AbHom(Z, Z, ((2,),)).kernel.presentation
        assert k.is_trivial()

    def test_kernel_times_two_mod_four(self):
        a = FgAbGroup(0, (4,))
        k, emb = AbHom(a, a, ((2,),)).kernel.presentation
        assert k == FgAbGroup(0, (2,))
        # generated by the class of 2
        assert set(map(tuple, emb.image_generators())) == {(2,)}

    def test_kernel_zero_map(self):
        k, _ = AbHom.zero(FgAbGroup(0, (6,)), FgAbGroup(1)).kernel.presentation
        assert k == FgAbGroup(0, (6,))

    def test_order_law_exhaustive_small(self):
        # order(domain) = order(kernel) * order(image) over all homs
        dom = FgAbGroup(0, (2, 4))
        cod = FgAbGroup(0, (4,))
        count = 0
        for cols in product(list(cod.elements()), repeat=dom.rank):
            try:
                h = AbHom.from_columns(dom, cod, [list(c) for c in cols])
            except ValueError:
                continue
            count += 1
            k, _ = h.kernel.presentation
            img, _ = h.image.presentation
            assert group_order(k) * group_order(img) == group_order(dom)
        assert count == 8  # 2 choices for the Z/2 column, 4 for the Z/4 one


class TestQuotients:
    def test_z_mod_two(self):
        q, proj = quotient(FgAbGroup(1), [[2]])
        assert q == FgAbGroup(0, (2,))
        assert proj((3,)) == (1,)

    def test_coordinate_kill(self):
        q, _ = quotient(FgAbGroup(2), [[1, 0]])
        assert q == FgAbGroup(1)

    def test_z4_z4_coset_count(self):
        a = FgAbGroup(0, (4, 4))
        q, proj = quotient(a, [[2, 2]])
        assert group_order(q) == 8
        # brute-force coset count
        sub = subgroup_elements(a, [[2, 2]])
        cosets = {tuple(sorted(a.add(x, s) for s in sub))
                  for x in enumerate_value(a)}
        assert len(cosets) == 8
        # projection kills exactly the subgroup
        assert all(proj(list(s)) == q.zero() for s in sub)
        killed = {x for x in enumerate_value(a) if proj(x) == q.zero()}
        assert killed == sub

    def test_quotient_by_trivial(self):
        a = FgAbGroup(1, (2,))
        q, _ = quotient(a, [])
        assert q == a


class TestSubgroups:
    def test_intersection_in_z12(self):
        z12 = FgAbGroup(0, (12,))
        inter = subgroup_key(z12, [[2]]).meet(subgroup_key(z12, [[3]]))
        assert inter == subgroup_key(z12, [[6]])
        assert inter.rows == ((6,),) and inter.ambient == z12

    def test_product_and_membership(self):
        z12 = FgAbGroup(0, (12,))
        assert subgroup_contains(z12, [[4], [6]], [2])
        assert not subgroup_contains(z12, [[4]], [2])

    def test_presentation_matches_enumeration(self):
        a = FgAbGroup(0, (4, 4))
        s, emb = subgroup_from_generators(a, [[2, 0], [0, 2]])
        elems = subgroup_elements(a, [[2, 0], [0, 2]])
        assert group_order(s) == len(elems)

    def test_cokernel(self):
        Z = FgAbGroup(1)
        cok, _ = AbHom(Z, Z, ((5,),)).cokernel
        assert cok == FgAbGroup(0, (5,))


@st.composite
def ab_groups(draw, finite=False):
    """Small groups in normal form: up to three invariant factors, free rank <= 2."""
    factors = []
    for _ in range(draw(st.integers(1 if finite else 0, 3))):
        factors.append(factors[-1] * draw(st.sampled_from([1, 2]))
                       if factors else draw(st.sampled_from([2, 3, 4])))
    return FgAbGroup(0 if finite else draw(st.integers(0, 2)), tuple(factors))


def draw_vectors(data, group, n_max):
    vec = st.lists(st.integers(-6, 6), min_size=group.rank, max_size=group.rank)
    return data.draw(st.lists(vec, max_size=n_max))


def snf_contains(group, gens, x):
    """Membership by the Smith normal form path: solve [gens | relations] y = x."""
    cols = [group.reduce(g) for g in gens] + group.relation_columns()
    if not cols:
        return not any(x)
    m = [[col[i] for col in cols] for i in range(group.rank)]
    return solve_integer(m, [list(group.reduce(x))], cols=len(cols)) is not None


def combination(data, group, gens):
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens),
                                max_size=len(gens)))
    return [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(group.rank)]


class TestHermiteKey:
    """The HNF key behind subgroup membership, equality and intersection."""

    @given(ab_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_key_is_echelon_and_reduced(self, group, data):
        key = _hnf_key(group.moduli, draw_vectors(data, group, 4))
        pivots = [next(i for i, v in enumerate(row) if v) for row in key]
        assert pivots == sorted(set(pivots))
        for i, (c, row) in enumerate(zip(pivots, key)):
            assert row[c] > 0
            assert all(0 <= above[c] < row[c] for above in key[:i])
        # every torsion coordinate carries a pivot: its relation is in the lattice
        assert set(range(len(group.invariant_factors))) <= set(pivots)

    @given(ab_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_membership_matches_snf_and_enumeration(self, group, data):
        gens = draw_vectors(data, group, 4)
        vec = st.lists(st.integers(-12, 12), min_size=group.rank, max_size=group.rank)
        for x in [data.draw(vec), combination(data, group, gens)]:
            got = subgroup_contains(group, gens, x)
            assert got == snf_contains(group, gens, x)
            if group.is_finite():
                assert got == (group.reduce(x) in subgroup_elements(group, gens))
        assert subgroup_contains(group, gens, combination(data, group, gens))

    @given(ab_groups(finite=True), st.data())
    @settings(max_examples=150, deadline=None)
    def test_key_equality_matches_element_sets(self, group, data):
        gens_a = draw_vectors(data, group, 3)
        if data.draw(st.booleans()):
            gens_b = [combination(data, group, gens_a) for _ in range(3)]
        else:
            gens_b = draw_vectors(data, group, 3)
        same = subgroup_elements(group, gens_a) == subgroup_elements(group, gens_b)
        assert (subgroup_key(group, gens_a) == subgroup_key(group, gens_b)) == same

    @given(ab_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_key_spans_the_sympy_hnf_lattice(self, group, data):
        gens = draw_vectors(data, group, 4)
        key = _hnf_key(group.moduli, gens)
        cols = gens + group.relation_columns()
        if not cols:
            assert key == ()
            return
        hnf = hermite_normal_form(Matrix(group.rank, len(cols),
                                         lambda i, j: cols[j][i]))
        hnf_cols = [[int(v) for v in hnf.col(j)] for j in range(hnf.cols)]
        assert len(key) == len(hnf_cols)  # both are bases of one lattice
        free = FgAbGroup(group.rank)
        for v in hnf_cols:
            assert snf_contains(free, [list(r) for r in key], v)
        for row in key:
            assert snf_contains(free, hnf_cols, list(row))
        assert _hnf_key(free.moduli, hnf_cols) == key

    @given(ab_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_key_ignores_order_and_redundant_generators(self, group, data):
        gens = draw_vectors(data, group, 4)
        key = _hnf_key(group.moduli, gens)
        shuffled = data.draw(st.permutations(gens))
        assert _hnf_key(group.moduli, shuffled) == key
        extra = [combination(data, group, gens), [0] * group.rank]
        extra += [[g + f * data.draw(st.integers(-2, 2)) for g, f in
                   zip(gens[0], group.moduli)]] if gens else []
        assert _hnf_key(group.moduli, shuffled + extra) == key

    @given(ab_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_memo_agrees_with_the_uncached_body(self, group, data):
        gens = draw_vectors(data, group, 4)
        body = abelian._hnf_of.__wrapped__
        families = [gens, [tuple(g) for g in gens], data.draw(st.permutations(gens)),
                    gens + gens[:1], gens[:-1]]
        # the same rows over the free group of the same rank have another key
        # whenever the group has torsion
        for moduli in (group.moduli, (0,) * group.rank):
            for rows in families:
                assert _hnf_key(moduli, rows) == body(moduli, tuple(map(tuple, rows)))

    @given(ab_groups(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_generating_families_of_one_subgroup_give_one_presentation(
            self, group, data):
        gens = draw_vectors(data, group, 3)
        key = subgroup_key(group, gens)
        # another family of the same subgroup: a unimodular step g0 += c * g1,
        # a redundant combination, and a new order
        other = [list(g) for g in gens]
        if len(other) > 1:
            c = data.draw(st.integers(-3, 3))
            other[0] = [u + c * v for u, v in zip(other[0], other[1])]
        other = data.draw(st.permutations(other + [combination(data, group, gens)]))
        for family in (other, list(key.rows)):
            same = subgroup_key(group, family)
            assert same == key and hash(same) == hash(key)
            assert same.presentation == key.presentation
        _, emb = key.presentation
        assert is_injective(emb) and emb.codomain == group
        assert subgroup_key(group, emb.image_generators()) == key
        # the presentation is cached on the value and is not a field
        assert "presentation" in vars(key)
        assert SubgroupKey(group, key.rows) == key

    @given(ab_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_intersection_matches_enumeration(self, group, data):
        gens_a = draw_vectors(data, group, 3)
        gens_b = draw_vectors(data, group, 3)
        inter = subgroup_key(group, gens_a).meet(subgroup_key(group, gens_b))
        if group.is_finite():
            assert subgroup_elements(group, inter.rows) == (
                subgroup_elements(group, gens_a) & subgroup_elements(group, gens_b))
        for g in inter.rows:
            assert snf_contains(group, gens_a, g) and snf_contains(group, gens_b, g)
        y = combination(data, group, gens_a)
        assert inter.contains(y) == snf_contains(group, gens_b, y)

    @given(ab_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_intersection_is_the_key_of_its_generators(self, group, data):
        # the lattice check compares this result with a key as it is
        gens_a = draw_vectors(data, group, 3)
        gens_b = draw_vectors(data, group, 3)
        got = subgroup_key(group, gens_a).meet(subgroup_key(group, gens_b))
        k = group.rank
        doubled = _hnf_key(group.moduli * 2, [list(g) + list(g) for g in gens_a]
                           + [list(g) + [0] * k for g in gens_b])
        old = [list(group.reduce(row[k:])) for row in doubled if not any(row[:k])]
        assert got == subgroup_key(group, [g for g in old if any(g)])
        if group.is_finite():
            both = (subgroup_elements(group, gens_a)
                    & subgroup_elements(group, gens_b))
            assert got == subgroup_key(group, sorted(both))

    @given(ab_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_keys_stand_in_for_their_generators(self, group, data):
        # the lattice check asks every question of keys, never of generators
        gens_a = draw_vectors(data, group, 3)
        gens_b = draw_vectors(data, group, 3)
        key_a, key_b = subgroup_key(group, gens_a), subgroup_key(group, gens_b)
        assert key_a.rows == _hnf_key(group.moduli, gens_a)
        assert (subgroup_key(group, key_a.rows + key_b.rows)
                == subgroup_key(group, gens_a + gens_b))
        whole = subgroup_key(group, identity(group.rank))
        assert key_a.meet(key_b) == key_b.meet(key_a)
        assert key_a.meet(whole) == key_a == key_a.meet(key_a)

    @given(ab_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_contains_many_is_all_of_contains_one(self, group, data):
        gens = draw_vectors(data, group, 3)
        vec = st.lists(st.integers(-12, 12), min_size=group.rank, max_size=group.rank)
        n = data.draw(st.integers(0, 4))
        xs = [data.draw(vec) if data.draw(st.booleans())
              else combination(data, group, gens) for _ in range(n)]
        assert subgroup_contains(group, gens, *xs) == all(
            subgroup_contains(group, gens, x) for x in xs)


def draw_hom(data, domain, codomain):
    """A random well-defined hom: torsion column j is killed by its modulus."""
    rows = [[0] * domain.rank for _ in range(codomain.rank)]
    for j, f in enumerate(domain.moduli):
        for i, m in enumerate(codomain.moduli):
            step = 1 if f == 0 else (m // math.gcd(m, f) if m else 0)
            rows[i][j] = step * data.draw(st.integers(-4, 4))
    return AbHom(domain, codomain, tuple(map(tuple, rows)))


class TestTrustedProducts:
    """compose and add return the map that the constructor builds from the
    product and sum matrices."""

    @given(ab_groups(), ab_groups(), ab_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_match_the_validating_constructor(self, a, b, c, data):
        g = draw_hom(data, a, b)
        f, h = draw_hom(data, b, c), draw_hom(data, b, c)
        product = tuple(
            tuple(sum(f.matrix[i][k] * g.matrix[k][j] for k in range(b.rank))
                  for j in range(a.rank))
            for i in range(c.rank))
        total = tuple(tuple(x + y for x, y in zip(rf, rh))
                      for rf, rh in zip(f.matrix, h.matrix))
        for trusted, checked in ((f.compose(g), AbHom(a, c, product)),
                                 (f.add(h), AbHom(b, c, total))):
            assert trusted is checked

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matmul_keeps_the_shape(self, rows, inner, cols, data):
        entries = st.integers(-5, 5)
        a = [[data.draw(entries) for _ in range(inner)] for _ in range(rows)]
        b = [[data.draw(entries) for _ in range(cols)] for _ in range(inner)]
        assert _matmul(a, b, cols) == [
            [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


class TestSolvePerMap:
    """The Hermite key of a map's graph answers every right-hand side; the
    image key and the kernel and cokernel presentations are the oracles."""

    @given(ab_groups(), ab_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_against_membership_and_presentations(self, a, b, data):
        h = draw_hom(data, a, b)
        image = h.image_generators()
        ys = [combination(data, b, image) if data.draw(st.booleans()) else y
              for y in draw_vectors(data, b, 4)]
        xs = element_preimages(h, ys)
        assert (xs is not None) == all(subgroup_contains(b, image, y) for y in ys)
        if xs is not None:
            assert [h(x) for x in xs] == [b.reduce(y) for y in ys]
        assert is_injective(h) == h.kernel.presentation[0].is_trivial()
        assert is_surjective(h) == h.cokernel[0].is_trivial()

    # Kernels whose presentation once ran the Smith decomposition of a kernel
    # basis with entries up to 10**140 and never finished (hypothesis seeds
    # 5, 10 and 30 of the property above).
    @pytest.mark.parametrize("data", [
        {"domain": {"free_rank": 2, "invariant_factors": [4, 8, 16]},
         "codomain": {"free_rank": 1, "invariant_factors": [4, 8]},
         "matrix": [[3, 2, 3, 2, 1], [0, 3, 2, 4, 4], [0, 0, 0, 0, -1]]},
        {"domain": {"free_rank": 2, "invariant_factors": [4, 4, 8]},
         "codomain": {"free_rank": 0, "invariant_factors": [4, 4, 8]},
         "matrix": [[3, 0, 0, 0, 3], [3, 3, 0, 1, 2], [0, 0, 7, 6, 4]]},
        {"domain": {"free_rank": 2, "invariant_factors": [4, 8, 16]},
         "codomain": {"free_rank": 0, "invariant_factors": [4, 8, 16]},
         "matrix": [[3, 3, 1, 1, 1], [0, 4, 2, 5, 6], [0, 2, 4, 14, 2]]},
    ])
    def test_kernel_presentation_finishes(self, data):
        def stalled(*_):
            raise TimeoutError("the kernel presentation did not finish in 20 s")
        h = AbHom.from_json(data)
        previous = signal.signal(signal.SIGALRM, stalled)
        signal.alarm(20)
        try:
            kernel, embed = h.kernel.presentation
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert is_injective(embed)
        assert (subgroup_key(h.domain, embed.image_generators())
                == subgroup_key(h.domain, smith_kernel(h)))
        # Smith kernel columns reach entries of 72, 708 and 28,096 here
        assert max(abs(v) for row in h.kernel.rows for v in row) <= 16


def smith_kernel(h):
    """Generators of ker h from Smith right-transform columns, an oracle
    independent of the Hermite key: x solves ``[M | -relations]`` exactly
    when h sends its first ``h.domain.rank`` entries to 0."""
    n = h.domain.rank
    if not h.codomain.rank:
        return identity(n)
    rel = h.codomain.relation_columns()
    snf = smith_decompose([list(row) + [-col[i] for col in rel]
                           for i, row in enumerate(h.matrix)])
    diag = snf.diagonal + [0] * (n + len(rel) - len(snf.diagonal))
    return [[snf.right[i][j] for i in range(n)] for j, d in enumerate(diag) if not d]


class TestKernelKey:
    """``AbHom.kernel`` is the key of ker h: the oracles are the elements that
    h sends to 0 and the Smith right-transform kernel columns."""

    @given(ab_groups(), ab_groups(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_against_smith_columns_and_enumeration(self, a, b, data):
        h = draw_hom(data, a, b)
        key = h.kernel
        assert key == subgroup_key(a, smith_kernel(h))
        if a.is_finite():
            assert key == subgroup_key(
                a, [x for x in enumerate_value(a) if not any(h(x))])

    def test_torsion_kernel_of_a_free_codomain_map(self):
        a = FgAbGroup(1, (2, 4))
        # e_0 -> 0, e_1 -> 0 (torsion into Z), e_2 -> 3
        h = AbHom(a, FgAbGroup(1), ((0, 0, 3),))
        assert h.kernel.rows == ((1, 0, 0), (0, 1, 0))
        assert AbHom.identity(a).kernel == subgroup_key(a, [])


class TestCachedDerivations:
    """``kernel``, ``image`` and ``cokernel`` are derived once per value and
    are not fields: an equal map read back from JSON is the same object,
    with its caches filled, and its ``repr`` and JSON show only the fields."""

    @given(ab_groups(), ab_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_cached_once_and_invisible(self, a, b, data):
        h = draw_hom(data, a, b)
        for name in ("kernel", "image", "cokernel"):
            first = getattr(h, name)
            assert getattr(h, name) is first and name in vars(h)
        copy = AbHom.from_json(json.loads(json.dumps(h.to_json())))
        assert copy is h and copy.cokernel is h.cokernel
        assert h == copy and copy == h and hash(h) == hash(copy)
        assert repr(h) == repr(copy) == (f"AbHom(domain={a!r}, codomain={b!r}, "
                                         f"matrix={h.matrix!r})")
        assert json.dumps(h.to_json()) == json.dumps(copy.to_json())
        assert h.image == subgroup_key(b, h.image_generators())
        assert h.cokernel == quotient(b, h.image_generators())


class TestIsInjective:
    """``is_injective`` compares the kernel key with the key of the trivial
    subgroup; the oracle enumerates the images of a finite domain."""

    @given(ab_groups(finite=True), ab_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_against_enumeration(self, a, b, data):
        h = draw_hom(data, a, b)
        for f in (h, h.kernel.presentation[1]):  # the kernel's embedding is injective
            elements = enumerate_value(f.domain)
            assert is_injective(f) == (len({f(x) for x in elements}) == len(elements))

    def test_planted_collision_is_caught(self):
        a = FgAbGroup(0, (2, 4, 8))
        assert is_injective(AbHom.identity(a))
        # the first generator now lands on 4 times the third
        planted = AbHom.from_columns(a, a, [[0, 0, 4], [0, 1, 0], [0, 0, 1]])
        images = [planted(x) for x in enumerate_value(a)]
        assert len(set(images)) < len(images)
        assert not is_injective(planted)

    def test_trivial_domain_or_codomain(self):
        trivial, c3, z = FgAbGroup(0), FgAbGroup(0, (3,)), FgAbGroup(1)
        assert not is_injective(AbHom.zero(c3, trivial))
        assert not is_injective(AbHom.zero(z, trivial))
        assert is_injective(AbHom.zero(trivial, trivial))
        assert is_injective(AbHom.zero(trivial, FgAbGroup(1, (2,))))


class TestOneDecompositionPerMap:
    """A map value holds one normal form, the Hermite key of its graph, built
    on the first read: its kernel, image and every preimage come from it, and
    every object of that value is the one map."""

    def test_two_factorizations_share_one_decomposition(self, monkeypatch):
        amb = FgAbGroup(1, (2, 12))
        _, emb = subgroup_from_generators(amb, [[1, 2, 0], [0, 3, 2]])
        r = emb.domain.rank
        maps = [emb.compose(AbHom.from_columns(FgAbGroup(2), emb.domain,
                                               [[1] * r, [0] * (r - 1) + [1]])),
                emb.compose(AbHom.multiplication(emb.domain, 5))]
        unsolved = AbHom.from_json(json.loads(json.dumps(emb.to_json())))
        # the oracle keys, built before any call is counted
        trivial = subgroup_key(emb.domain, [])
        image = subgroup_key(amb, emb.image_generators())
        snf_calls, hnf_calls = [], []
        real_snf, real_hnf = abelian.smith_decompose, abelian._hnf_key
        monkeypatch.setattr(abelian, "smith_decompose",
                            lambda m: snf_calls.append(m) or real_snf(m))
        monkeypatch.setattr(abelian, "_hnf_key", lambda mods, rows:
                            hnf_calls.append(mods) or real_hnf(mods, rows))
        assert emb.kernel == trivial and emb.image == image
        first = [factor_through(emb, h) for h in maps]
        assert [emb.compose(m) for m in first] == maps
        assert hnf_calls == [emb.codomain.moduli + emb.domain.moduli]
        assert [factor_through(emb, h) for h in maps] == first
        fresh = AbHom(emb.domain, emb.codomain, emb.matrix)
        assert [factor_through(fresh, h) for h in maps] == first
        assert [factor_through(unsolved, h) for h in maps] == first
        assert len(hnf_calls) == 1 and not snf_calls
        assert fresh is emb and unsolved is emb and "_graph" in vars(unsolved)
        assert emb == unsolved and unsolved == emb
        assert hash(emb) == hash(unsolved)
        assert repr(emb) == repr(unsolved)
        assert json.dumps(emb.to_json()) == json.dumps(unsolved.to_json())


class TestHermiteMemo:
    """``_hnf_key`` answers from one bounded memo, ``_hnf_of``."""

    def test_a_repeated_lattice_check_makes_no_new_key(self):
        sys = full_system(catalog()["S4"])
        spec = Spectrum(sys, full_extension(sys))
        rsys = commutator_system(sys)
        assignment = tautological_assignment(tautological_cft(spec, rsys))
        memo = abelian._hnf_of
        memo.cache_clear()
        assert lattice_property_check(assignment, spec, rsys).passed
        first = memo.cache_info()
        assert lattice_property_check(assignment, spec, rsys).passed
        second = memo.cache_info()
        assert first.misses > 0 and second.misses == first.misses
        assert second.hits > first.hits
        assert second.currsize <= second.maxsize == abelian._HNF_MEMO_SIZE


class TestOneObjectPerValue:
    """``AbHom(...)`` returns the live map of an equal value, and validates a
    value when it builds it, so a bad matrix raises however often it comes."""

    @given(ab_groups(), ab_groups(), ab_groups(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_constructor_returns_the_live_map(self, a, b, c, data):
        f, f2, g = draw_hom(data, a, b), draw_hom(data, a, b), draw_hom(data, b, c)
        n = data.draw(st.integers(-3, 3))

        def built(dom, cod, rows):
            # an unreduced list matrix, over copies of the groups
            rows = [[v + 3 * m for v in row] for row, m in zip(rows, cod.moduli)]
            return AbHom(FgAbGroup(dom.free_rank, dom.invariant_factors),
                         FgAbGroup(cod.free_rank, cod.invariant_factors), rows)

        cases = [
            (built(a, b, f.matrix), lambda: f),
            (f, lambda: AbHom(a, b, tuple(tuple(r) for r in f.matrix))),
            (f, lambda: AbHom.from_columns(a, b, f.image_generators())),
            (f, lambda: AbHom.from_json(json.loads(json.dumps(f.to_json())))),
            (built(a, a, identity(a.rank)), lambda: AbHom.identity(a)),
            (built(a, b, [[0] * a.rank] * b.rank), lambda: AbHom.zero(a, b)),
            (built(a, a, [[n * v for v in r] for r in identity(a.rank)]),
             lambda: AbHom.multiplication(a, n)),
            (built(a, b, [[n * v for v in r] for r in f.matrix]),
             lambda: f.scaled(n)),
            (built(a, b, [[x + y for x, y in zip(r, s)]
                          for r, s in zip(f.matrix, f2.matrix)]),
             lambda: f.add(f2)),
            (built(a, c, mat_mul([list(r) for r in g.matrix],
                                 [list(r) for r in f.matrix]) if b.rank
                   else [[0] * a.rank] * c.rank),
             lambda: g.compose(f)),
        ]
        for live, make in cases:
            assert make() is live

    def test_bad_shapes_raise_while_the_valid_map_lives(self):
        a, b = FgAbGroup(1, (2,)), FgAbGroup(0, (4, 8))
        h = AbHom(a, b, ((2, 1), (4, 3)))
        for rows in (((2, 1), (4, 3), (0, 0)), ((2, 1),),
                     ((2, 1), (4,)), ((2, 1), (4, 3, 0))):
            with pytest.raises(ValueError, match="matrix must be 2x2"):
                AbHom(a, b, rows)
        for cols in ([[2, 4], [1]], [[2, 4], [1, 3], [0, 0]]):
            with pytest.raises(ValueError):
                AbHom.from_columns(a, b, cols)
        assert AbHom(a, b, ((6, 5), (12, 11))) is h
        # every holder of the value shares the map, so none may change it
        with pytest.raises(AttributeError):
            h.matrix = ((0, 0), (0, 0))

    def test_a_failed_validation_stores_nothing(self):
        z2, z4, z = FgAbGroup(0, (2,)), FgAbGroup(0, (4,)), FgAbGroup(1)
        # the tracebacks are kept, and with them the objects that failed
        kept = []
        for _ in range(3):
            for dom, cod, rows in ((z2, z, ((1,),)), (z2, z4, ((1,),))):
                with pytest.raises(ValueError, match="torsion") as caught:
                    AbHom(dom, cod, rows)
                kept.append(caught)
        assert AbHom(z2, z4, ((2,),)).matrix == ((2,),)

    def test_a_map_is_released_with_its_last_reference(self):
        a = FgAbGroup(0, (7, 49))  # a value that no other test builds
        h = AbHom(a, a, ((3, 0), (0, 5)))
        h.kernel, h.image, h.cokernel, element_preimages(h, [[1, 1]])
        released = weakref.ref(h)
        assert any(m is h for m in abelian._INTERNED.values())
        del h
        gc.collect()
        assert released() is None
        assert all(a not in (m.domain, m.codomain)
                   for m in abelian._INTERNED.values())


def _generators(group, elements):
    """A generating set of the subgroup on ``elements``, greedily."""
    gens, span = [], {0}
    for x in elements:
        if x not in span:
            gens.append(x)
            span = set(group.generated_subgroup(gens).elements)
    return gens


class TestFixedSubgroup:
    """``fixed_subgroup`` against enumeration of the fixed elements, and
    its presentation against reordered, repeated and reduced families."""

    @pytest.mark.parametrize("group", catalog_groups(12), ids=lambda g: g.name)
    def test_against_brute_force_fixed_points(self, group):
        rng = random.Random(group.name)
        modules = [m for m in random_modules(group, count=4)
                   if m.underlying.is_finite()]
        for module in modules:
            amb, action = module.underlying, module.action
            stabilizer = {x: {g for g in range(group.order) if action[g](x) == x}
                          for x in amb.elements()}
            for h in group.all_subgroups():
                endos = [action[a] for a in h.elements]
                key = fixed_subgroup(amb, endos)
                fixed, emb = key.presentation
                expected = {x for x, st_x in stabilizer.items()
                            if st_x >= set(h.elements)}
                assert subgroup_elements(amb, emb.image_generators()) == expected
                assert group_order(fixed) == len(expected)
                shuffled = rng.sample(endos, len(endos))
                subset = rng.sample(list(h.elements), rng.randint(0, len(h.elements)))
                subset += _generators(group, h.elements)
                for family in (shuffled, endos + shuffled[:3],
                               [action[a] for a in subset]):
                    other = fixed_subgroup(amb, family)
                    assert other == key and other.presentation == (fixed, emb)

    def test_rejects_an_endomorphism_of_another_group(self):
        amb = FgAbGroup(0, (2, 4))
        other = AbHom.identity(FgAbGroup(0, (4,)))
        with pytest.raises(ValueError, match="wrong group"):
            fixed_subgroup(amb, [AbHom.identity(amb), other])

    def test_empty_family_fixes_the_whole_group(self):
        amb = FgAbGroup(1, (3,))
        fixed, emb = fixed_subgroup(amb, []).presentation
        assert fixed == amb
        assert subgroup_key(amb, emb.image_generators()) == subgroup_key(
            amb, [[1, 0], [0, 1]])
