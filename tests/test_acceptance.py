"""Acceptance suite: one test per criterion, printing a verdict line each.

Catalog = all groups of order <= 16 plus S3, S4, A4, D4, Q8, C2xC2xC2.
Every tolerance is exact; stated runtime budgets are asserted.
"""

import random
import subprocess
import sys
import time
from pathlib import Path


from classfield.abelian import (
    AbHom, FgAbGroup, group_order,
)
from classfield.catalog import catalog, cyclic, direct_product
from classfield.cft import (
    Spectrum, ValuationFamily, certify_upsilon_tilde_multiplicative,
    full_extension, induction_representation, lattice_property_check,
    norm_subgroup_assignment, reduced_verification, tate_h0, tate_hminus1,
    tautological_assignment, tautological_cft, unramified_extension,
    unramified_upsilon, upsilon_morphism, validate_fnd, validate_urfnd,
)
from classfield.groups import (
    Transversal, commutator_subgroup, double_coset_reps,
)
from classfield.mackey import (
    FunctorMorphism, adjunction_maps, check_cohomological,
    check_mackey_formula, check_stability,
    fixed_point_functor, full_system, permutation_module, trivial_module,
    unramified_system, validate_functor_morphism, validate_ric_functor,
)
from classfield.ramification import (
    DepthInsufficient, InertiaTrivialHorizon, RamificationDatum, d_horizon,
    degrees, frobenius_group, inertia_subgroup,
)
from classfield.transfer import (
    commutator_system, transfer, transfer_between,
    transfer_via_lambda,
)
from classfield.hrv import (
    LaurentField, rank_n_valuation, stack_roundtrip, valuation_axiom_sampler,
)

from conftest import admissible_data, random_modules
from oracles import order_multiset, tate_h0_oracle, tate_hminus1_oracle

FIXTURES = Path(__file__).parent.parent / "src" / "classfield" / "fixtures"


def verdict(n, ok, label):
    print(f"ACCEPTANCE {n:>2}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {n}: {label}"


def bundled_fnd_fixtures():
    """The three scenarios that pass validate_fnd, built in-process."""
    out = []
    for group, m, images in (
            (cyclic(2), 2, (0, 1)),
            (cyclic(4), 4, (0, 1, 2, 3))):
        datum = RamificationDatum(group, m, images)
        sys = full_system(group)
        c = fixed_point_functor(trivial_module(group, FgAbGroup(1)), sys)
        omega = FgAbGroup(1)
        vfam = ValuationFamily(c, omega, {k: AbHom.identity(omega)
                                          for k in sys.points()})
        out.append((datum, sys, c, vfam))
    v4 = direct_product(cyclic(2), cyclic(2))
    datum = RamificationDatum(v4, 2, (0, 0, 1, 1))
    sys = unramified_system(datum)
    c = fixed_point_functor(trivial_module(v4, FgAbGroup(1)), sys)
    omega = FgAbGroup(1)
    vfam = ValuationFamily(c, omega, {k: AbHom.identity(omega)
                                      for k in sys.points()})
    out.append((datum, sys, c, vfam))
    return out


def random_transversal(g, h, rng):
    reps, seen = [], set()
    pool = list(range(g.order))
    rng.shuffle(pool)
    for x in pool:
        if x in seen:
            continue
        reps.append(x)
        for a in h.elements:
            seen.add(g.table[a][x])
    return Transversal(h, "right", tuple(reps))


def coset_rep(g, r_h, x):
    return min(g.table[x][a] for a in r_h.elements)


class TestAcceptance:
    def test_01_transfer_correctness(self, group_catalog):
        start = time.time()
        rng = random.Random(1)
        ok = True
        for g in group_catalog.values():
            r_g = commutator_subgroup(g.full_subgroup())
            subs = [h for h in g.all_subgroups() if h.index <= 8]
            tables = {}
            for h in subs:
                r_h = commutator_subgroup(h)
                vals = [transfer(g, h, r_h, r_g, x) for x in range(g.order)]
                tables[h.elements] = (h, r_h, vals)
                # (a) identical across 5 random transversals
                for _ in range(5):
                    t = random_transversal(g, h, rng)
                    got = [transfer(g, h, r_h, r_g, x, transversal=t)
                           for x in range(g.order)]
                    ok = ok and got == vals
                # (b) multiplicative on all element pairs
                for x in range(g.order):
                    for y in range(g.order):
                        prod = coset_rep(g, r_h, g.table[vals[x]][vals[y]])
                        ok = ok and prod == vals[g.table[x][y]]
                # (d) equal to the double-coset presentation
                for x in range(g.order):
                    reps = double_coset_reps(g, h, g.generated_subgroup([x]))
                    ok = ok and transfer_via_lambda(
                        g, h, r_h, x, reps) == vals[x]
            # (c) transitive along all chains H <= H' <= G
            for hkey, (h, r_h, vals) in tables.items():
                for mkey, (mid, r_mid, mid_vals) in tables.items():
                    if not set(hkey) < set(mkey):
                        continue
                    through = {}
                    for x in range(g.order):
                        y = mid_vals[x]
                        if y not in through:
                            through[y] = coset_rep(
                                g, r_h,
                                transfer_between(h, mid, r_h, r_mid, y))
                        ok = ok and through[y] == vals[x]
        elapsed = time.time() - start
        verdict(1, ok and elapsed < 60,
                f"transfer transversal-independent, multiplicative, "
                f"transitive, lambda-consistent on the catalog "
                f"({elapsed:.1f}s < 60s)")

    def test_02_mackey_cohomological_suite(self, group_catalog):
        start = time.time()
        ok = True
        from classfield.mackey import abelianization_functor
        for g in group_catalog.values():
            sys = full_system(g)
            functors = [abelianization_functor(sys, commutator_system(sys))]
            for module in random_modules(g, seed=2026, count=3):
                functors.append(fixed_point_functor(module, sys))
            for phi in functors:
                ok = ok and validate_ric_functor(phi).passed
                ok = ok and check_stability(phi).passed
                ok = ok and check_mackey_formula(phi).passed
                ok = ok and check_cohomological(phi).passed
            if not ok:
                break
        elapsed = time.time() - start
        verdict(2, ok and elapsed < 120,
                f"pi_ab and 3 random modules per group pass the full "
                f"axiom suite exhaustively ({elapsed:.1f}s < 120s)")

    def test_03_adjunction_descent(self, group_catalog):
        ok = True
        for g in group_catalog.values():
            sys = full_system(g)
            basis = [h for h in g.all_subgroups() if h.is_normal()]
            for module in random_modules(g, seed=3, count=3):
                fp = fixed_point_functor(module, sys)
                adj = adjunction_maps(module, fp, basis)
                ok = ok and adj.counit_is_iso and adj.unit_is_iso
                ok = ok and validate_functor_morphism(adj.unit).passed
            if not ok:
                break
        # constructed non-descent functor fails eta with a witness
        c2 = cyclic(2)
        sys2 = full_system(c2)
        z2, triv = FgAbGroup(0, (2,)), FgAbGroup(0)
        gk, tk = (0, 1), (0,)
        from classfield.mackey import RicFunctor
        values = {gk: z2, tk: triv}
        res = {(tk, gk): AbHom.zero(z2, triv), (tk, tk): AbHom.identity(triv),
               (gk, gk): AbHom.identity(z2)}
        ind = {(gk, tk): AbHom.zero(triv, z2), (tk, tk): AbHom.identity(triv),
               (gk, gk): AbHom.identity(z2)}
        con = {(x, k): AbHom.identity(values[k])
               for k in (gk, tk) for x in range(2)}
        bad = RicFunctor(sys2, values, res, ind, con)
        adj_bad = adjunction_maps(trivial_module(c2, FgAbGroup(1)), bad,
                                  [c2.trivial_subgroup()])
        ok = ok and not adj_bad.unit_is_iso and adj_bad.unit_witness == gk
        verdict(3, ok, "counit/unit isomorphisms on catalog modules; "
                       "non-descent functor fails with witness")

    def test_04_ramification_laws(self, group_catalog):
        ok = True
        for g in group_catalog.values():
            for datum in admissible_data(g):
                subs = g.all_subgroups()
                inertia = {h.elements: inertia_subgroup(datum, h)
                           for h in subs}
                for h in subs:
                    i_h = inertia[h.elements]
                    for k in subs:
                        if not k.is_subgroup_of(h):
                            continue
                        e, f = degrees(datum, h, k)
                        ok = ok and e * f == len(h) // len(k)
                        ok = ok and (e == 1) == (
                            i_h.element_set <= k.element_set)
                        product = g.generated_subgroup(
                            list(k.elements) + list(i_h.elements))
                        ok = ok and (f == 1) == (
                            product.elements == h.elements)
                        for l in subs:
                            if not l.is_subgroup_of(k):
                                continue
                            e2, f2 = degrees(datum, k, l)
                            e3, f3 = degrees(datum, h, l)
                            ok = ok and e3 == e * e2 and f3 == f * f2
            if not ok:
                break
        verdict(4, ok, "e*f = [H:K], tower laws, unramified and "
                       "totally-ramified criteria, exhaustively")

    def test_05_frobenius_group_law(self, group_catalog):
        ok = True
        validated = 0
        for g in group_catalog.values():
            for datum in admissible_data(g):
                full = g.full_subgroup()
                try:
                    vals, _ = d_horizon(datum, full)
                except InertiaTrivialHorizon:
                    continue
                inertia_of = {}
                for u in g.all_subgroups():
                    inertia_of.setdefault(
                        inertia_subgroup(datum, u).elements, u)
                for _, u in sorted(inertia_of.items()):
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
                        ok = ok and sigma.elements == expected.elements
                        if report.passed:
                            validated += 1
                            ok = ok and report.unique
            if not ok:
                break
        verdict(5, ok and validated > 100,
                f"Sigma = <h>*I_U with uniqueness certified on "
                f"{validated} validated instances")

    def test_06_tate_oracle_equivalence(self, group_catalog):
        ok = True
        checked = 0
        fixture_modules = []
        for g in group_catalog.values():
            for module in random_modules(g, seed=6, count=2, max_index=4,
                                         max_torsion=3):
                fixture_modules.append((g, module))
        # targeted large-value fixtures up to the 10^4 bound
        c4 = [g for g in group_catalog.values() if g.name == "C4"][0]
        s3 = [g for g in group_catalog.values() if g.name == "S3"][0]
        fixture_modules.append(
            (c4, permutation_module(c4, c4.trivial_subgroup(), torsion=10)))
        fixture_modules.append(
            (s3, permutation_module(s3, s3.generated_subgroup([1]),
                                    torsion=4)))
        for g, module in fixture_modules:
            if module.underlying.free_rank:
                continue
            sys = full_system(g)
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
                    ok = ok and order_multiset(h0) == tate_h0_oracle(
                        c, hkey, ukey)
                    hm1 = tate_hminus1(c, hkey, ukey)
                    ok = ok and order_multiset(hm1) == tate_hminus1_oracle(
                        c, hkey, ukey, list(h.elements))
                    checked += 1
            if not ok:
                break
        verdict(6, ok and checked > 200,
                f"Tate H^0/H^-1 match enumeration oracles on {checked} pairs")

    def test_07_unramified_reciprocity(self):
        start = time.time()
        ok = True
        for datum, sys, c, vfam in bundled_fnd_fixtures():
            spec = Spectrum(sys, unramified_extension(sys, datum))
            ok = ok and validate_urfnd(c, vfam, spec, datum).passed
            rsys = commutator_system(sys)
            source = tautological_cft(spec, rsys)
            target = induction_representation(c, spec)
            comps = {}
            for pair in spec.points():
                table = unramified_upsilon(c, vfam, datum, pair)
                ok = ok and table.is_iso and table.prime_independent
                comps[pair] = table.map
            morphism = FunctorMorphism(source, target, comps)
            ok = ok and validate_functor_morphism(morphism).passed
        elapsed = time.time() - start
        verdict(7, ok and elapsed < 10,
                f"unramified Upsilon iso, prime-independent and natural "
                f"on the bundled fixtures ({elapsed:.2f}s < 10s)")

    def test_08_full_upsilon_properties(self):
        ok = True
        for datum, sys, c, vfam in bundled_fnd_fixtures():
            spec = Spectrum(sys, unramified_extension(sys, datum))
            ok = ok and validate_fnd(c, vfam, spec, datum).passed
            rsys = commutator_system(sys)
            morphism, tables = upsilon_morphism(c, vfam, datum, spec, rsys,
                                                fnd_validated=True)
            ok = ok and validate_functor_morphism(morphism).passed
            for pair in spec.points():
                t = tables[pair]
                ok = ok and t.lift_independent in (True, None)
                ur = unramified_upsilon(c, vfam, datum, pair)
                ok = ok and t.map.matrix == ur.map.matrix
                cert = certify_upsilon_tilde_multiplicative(
                    c, vfam, datum, pair)
                ok = ok and cert.passed
        verdict(8, ok, "full Upsilon lift-independent, multiplicative, "
                       "matches the unramified table, valid morphism")

    def test_09_reduction_consistency(self):
        rng = random.Random(9)
        ok = True
        thetas = []
        for datum, sys, c, vfam in bundled_fnd_fixtures():
            spec = Spectrum(sys, unramified_extension(sys, datum))
            rsys = commutator_system(sys)
            morphism, _ = upsilon_morphism(c, vfam, datum, spec, rsys,
                                           fnd_validated=True)
            thetas.append((morphism, rsys, c))
        # the tautological identity on S3 as a further hypothesis-clean case
        s3 = [g for g in catalog().values() if g.name == "S3"][0]
        sys3 = full_system(s3)
        spec3 = Spectrum(sys3, full_extension(sys3))
        rsys3 = commutator_system(sys3)
        taut = tautological_cft(spec3, rsys3)
        ident = FunctorMorphism(taut, taut,
                                {p: AbHom.identity(taut.values[p])
                                 for p in spec3.points()})
        thetas.append((ident, rsys3, None))
        for theta, rsys, c in thetas:
            for mode in ("prime", "prime_power"):
                if mode == "prime" and c is None:
                    continue
                report = reduced_verification(theta, mode, rsys)
                ok = ok and report.passed
        # 100 seeded defect mutations, each caught by hypothesis validation
        # or by the full check.  A mutation can accidentally compose theta
        # with a unit automorphism, yielding another legitimate reciprocity
        # morphism; such draws are certified sound (hypotheses, reduced and
        # full all pass), asserted consistent, and redrawn as non-defects.
        mutations = 0
        while mutations < 100:
            theta, rsys, c = thetas[rng.randrange(len(thetas))]
            pairs = [p for p in theta.source.domain.points()
                     if theta.components[p].matrix
                     and theta.components[p].matrix[0]]
            if not pairs:
                continue
            pair = pairs[rng.randrange(len(pairs))]
            comp = theta.components[pair]
            rows, cols = comp.codomain.rank, comp.domain.rank
            i, j = rng.randrange(rows), rng.randrange(cols)
            delta = rng.randint(1, 3)
            m = [list(r) for r in comp.matrix]
            m[i][j] += delta
            try:
                mutated_comp = AbHom(comp.domain, comp.codomain,
                                     tuple(tuple(r) for r in m))
            except ValueError:
                continue  # not well-defined: rejected at construction
            if mutated_comp == comp:
                continue  # invisible modulo the torsion
            bad = dict(theta.components)
            bad[pair] = mutated_comp
            mutated = FunctorMorphism(theta.source, theta.target, bad)
            mode = "prime" if c is not None else "prime_power"
            hypotheses, reduced, full, agreement = reduced_verification(
                mutated, mode, rsys).checks
            ok = ok and agreement.passed
            if hypotheses.passed and full.passed:
                ok = ok and reduced.passed  # certified alternative iso
                continue
            mutations += 1
            caught = (not hypotheses.passed) or (not full.passed)
            ok = ok and caught
        verdict(9, ok, "reduced-pass never contradicts full-fail; 100 "
                       "seeded defect mutations all caught")

    def test_10_lattice_properties(self, group_catalog):
        ok = True
        for g in group_catalog.values():
            sys = full_system(g)
            spec = Spectrum(sys, full_extension(sys))
            rsys = commutator_system(sys)
            taut = tautological_cft(spec, rsys)
            rep = lattice_property_check(tautological_assignment(taut),
                                         spec, rsys)
            ok = ok and rep.passed
            if not ok:
                break
        # norm-subgroup assignment of the trivial-Z theory on cyclic groups
        for n in (2, 3, 4, 8, 12, 16):
            g = cyclic(n)
            datum = RamificationDatum(g, n, tuple(range(n)))
            sys = full_system(g)
            c = fixed_point_functor(trivial_module(g, FgAbGroup(1)), sys)
            omega = FgAbGroup(1)
            vfam = ValuationFamily(c, omega, {k: AbHom.identity(omega)
                                              for k in sys.points()})
            spec = Spectrum(sys, full_extension(sys))
            rsys = commutator_system(sys)
            rep_functor = induction_representation(c, spec)
            morphism, _ = upsilon_morphism(c, vfam, datum, spec, rsys,
                                           fnd_validated=True)
            rep = lattice_property_check(
                norm_subgroup_assignment(rep_functor), spec, rsys,
                iso=morphism)
            ok = ok and rep.passed
        verdict(10, ok, "lattice identities and injectivity for the "
                        "tautological theory and cyclic norm subgroups")

    def test_11_hrv_roundtrips(self):
        start = time.time()
        ok = True
        for p in (2, 3):
            for rank, width in ((1, 4), (2, 3), (3, 2)):
                field = LaurentField(p, rank, (-width,) * rank,
                                     (width,) * rank)
                rt = stack_roundtrip(field, seed=11, samples=1000)
                ok = ok and rt.passed and rt.skipped == 0
                ax = valuation_axiom_sampler(field, seed=11, samples=400)
                ok = ok and ax.passed
                for i in range(1, rank + 1):
                    expected = tuple(1 if j == i - 1 else 0
                                     for j in range(rank))
                    ok = ok and rank_n_valuation(
                        field.variable(i)) == expected
        elapsed = time.time() - start
        verdict(11, ok and elapsed < 30,
                f"pushforward/pullback inversion on 1000 seeded elements "
                f"per rank and characteristic ({elapsed:.1f}s < 30s)")

    def test_12_determinism(self, tmp_path):
        ok = True
        for fixture in ("v4_projection.json", "c4_unramified.json",
                        "hrv_rank2.json"):
            kind = "hrv" if fixture.startswith("hrv") else "cft"
            outputs = []
            for i in range(2):
                out = tmp_path / f"{fixture}.{i}"
                proc = subprocess.run(
                    [sys.executable, "-m", "classfield.cli", kind,
                     "--input", str(FIXTURES / fixture),
                     "--out", str(out), "--seed", "0"],
                    capture_output=True, text=True)
                ok = ok and proc.returncode == 0
                outputs.append(out.read_bytes())
            ok = ok and outputs[0] == outputs[1]
        verdict(12, ok, "identical scenario and seed give byte-identical "
                        "reports")
