"""Seeded job lists for the four benchmark workloads, and the job bodies.

A job is the unit a user waits for.  Every job builds a fresh
``FiniteGroup`` from a Cayley table, so no per-instance cache carries over
from set-up or from an earlier job; module-level state persists within a
run, as it would for a user running a batch.

The seed relabels the elements of every group (a random permutation fixing
the identity), picks module stabilizers, transversals, planted-defect
locations and sampler seeds.  It never changes which groups, functor shapes
or scenario kinds a batch holds, so the cost of a batch is nearly the same
for every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from classfield.abelian import AbHom, FgAbGroup
from classfield.catalog import catalog, cyclic
from classfield.cft import (
    Spectrum, ValuationFamily, full_extension, induction_representation,
    lattice_property_check, norm_subgroup_assignment, tautological_assignment,
    tautological_cft, upsilon_morphism,
)
from classfield.groups import (
    FiniteGroup, Subgroup, Transversal, abelianization, commutator_subgroup,
    double_coset_reps,
)
from classfield.mackey import (
    abelianization_functor, adjunction_maps, check_cohomological,
    check_mackey_formula, check_stability, fixed_point_functor, full_system,
    permutation_module, trivial_module, validate_functor_morphism,
    validate_ric_functor,
)
from classfield.ramification import (
    DepthInsufficient, InertiaTrivialHorizon, NoLiftInModel, RamificationDatum,
    d_horizon, degrees, frobenius_group, inertia_subgroup, prime_factors,
)
from classfield.transfer import (
    commutator_system, transfer, transfer_between, transfer_via_lambda,
)

WORKLOADS = ("lattice", "mackey", "transfer", "cli")

# Catalog groups of order 8-16 plus S4 whose lattice job takes under about
# one second here.  C4xC4, C8xC2, C4xC2xC2, C2^4, D4xC2, Q8xC2, C2C2sdC4 and
# D4oC4 take 1.2-45 s each and would leave one or two jobs per run.
LATTICE_GROUPS = (
    "C8", "C4xC2", "C2xC2xC2", "D4", "Q8", "C9", "C3xC3", "C10", "D5", "C12",
    "D6", "A4", "Dic3", "C14", "D7", "C15", "C16", "M16", "Q16", "C4sdC4",
    "S4",
)
NORM_CYCLIC = (2, 3, 4, 8, 12, 16)

# Upsilon on a cyclic group whose order has two distinct primes raises
# NoLiftInModel for some element labelings (8 of 12 relabelings of C12 and
# of C6) although the catalog labeling passes; an isomorphic input must get
# the same verdict.  These jobs keep their expected pass.
LABEL_DEPENDENT = ("Upsilon verdict depends on element labels: NoLiftInModel "
                   "on some relabelings of C12")

# (group, functor, planted defect).  Functor "pi_ab" is the abelianization
# functor; ("perm", index, torsion, signed) is the fixed-point functor of a
# permutation module on the cosets of a seeded subgroup of that index,
# sign-twisted by a seeded index-2 subgroup when ``signed``.  C2^4, D4xC2
# and S4 make the tail.
MACKEY_SLOTS = (
    ("C2^4", "pi_ab", None),
    ("D4xC2", "pi_ab", None),
    ("S4", "pi_ab", None),
    ("C4xC2xC2", "pi_ab", None),
    ("Q8xC2", "pi_ab", None),
    ("D8", "pi_ab", None),
    ("C4xC4", "pi_ab", None),
    ("D6", "pi_ab", None),
    ("C2xC2xC2", "pi_ab", None),
    ("C12", "pi_ab", None),
    ("A4", "pi_ab", None),
    ("D4", "pi_ab", "con"),
    ("Q8", "pi_ab", "con"),
    ("D8", ("perm", 4, 0, False), None),
    ("SD16", ("perm", 2, 0, True), None),
    ("D4", ("perm", 4, 4, False), None),
    ("C2xC2xC2", ("perm", 2, 0, False), None),
    ("C12", ("perm", 4, 0, False), None),
    ("A4", ("perm", 4, 4, False), None),
    ("Dic3", ("perm", 3, 3, False), None),
    ("D5", ("perm", 5, 0, False), None),
    ("S3", ("perm", 6, 0, False), None),
    ("C3xC3", ("perm", 3, 3, False), None),
    ("Q8", ("perm", 2, 0, True), None),
    ("D6", ("perm", 2, 0, True), None),
    ("D4", ("perm", 2, 0, False), "res"),
    ("C12", ("perm", 3, 0, False), "con"),
    ("S3", ("perm", 3, 0, True), "res"),
)

# Groups whose every (group, subgroup of index <= 8) pair is a transfer
# job, and which each get one ramification job.
TRANSFER_GROUPS = (
    "C8", "C4xC2", "C2xC2xC2", "D4", "Q8", "C9", "C3xC3", "C10", "D5", "C12",
    "C2xC6", "D6", "A4", "Dic3", "C14", "D7", "C15", "C16", "C4xC4", "C8xC2",
    "D8", "SD16", "M16", "Q16", "C4xC2xC2", "D4xC2", "Q8xC2", "C4sdC4",
    "C2C2sdC4",
)

FIXTURES = ("c2_negation", "c2_unramified", "c4_unramified", "v4_projection")


@dataclass
class Job:
    """One seeded job: its inputs, and the verdict its construction implies.

    ``known_defect`` names a job whose expected verdict the program does
    not meet today; such a job is timed and reported like any other, but
    its miss is counted apart from unexpected failures.
    """

    id: int
    kind: str
    label: str
    params: dict
    known_defect: str | None = None


@dataclass
class Outcome:
    ok: bool
    verdicts: object
    detail: str = ""

    def digest(self) -> str:
        blob = json.dumps(self.verdicts, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def relabel(table, rng: random.Random) -> tuple:
    """Cayley table of the same group with elements 1..n-1 permuted."""
    n = len(table)
    perm = [0] + rng.sample(range(1, n), n - 1)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        row = table[a]
        pa = out[perm[a]]
        for b in range(n):
            pa[perm[b]] = perm[row[b]]
    return tuple(tuple(r) for r in out), perm


def relabeled_cyclic(n: int, rng: random.Random) -> tuple:
    """Relabeled C_n and its ramification map d: x -> exponent of x."""
    table, perm = relabel(cyclic(n).table, rng)
    d = [0] * n
    for exponent in range(n):
        d[perm[exponent]] = exponent
    return table, tuple(d)


def _checks(report) -> list:
    return [[c.name, c.passed, c.witness] for c in report.checks]


def make_batch(workload: str, seed: int, batch: int, workdir: Path) -> list[Job]:
    """The jobs of one batch; batch ``b`` of seed ``s`` is always the same."""
    rng = random.Random(f"{workload}:{seed}:{batch}")
    maker = {"lattice": _lattice_jobs, "mackey": _mackey_jobs,
             "transfer": _transfer_jobs, "cli": _cli_jobs}[workload]
    jobs = maker(rng, workdir / f"batch{batch}")
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job.id = batch * 10000 + i
    return jobs


def _lattice_jobs(rng, _workdir) -> list[Job]:
    cat = catalog()
    jobs = []
    for name in LATTICE_GROUPS:
        table, _ = relabel(cat[name].table, rng)
        jobs.append(Job(0, "tautological", name, {"name": name, "table": table}))
    for n in NORM_CYCLIC:
        table, d = relabeled_cyclic(n, rng)
        jobs.append(Job(0, "norm_subgroups", f"C{n}",
                        {"name": f"C{n}", "table": table, "d": d},
                        LABEL_DEPENDENT if len(prime_factors(n)) > 1 else None))
    return jobs


def _mackey_jobs(rng, _workdir) -> list[Job]:
    cat = catalog()
    jobs = []
    for name, functor, defect in MACKEY_SLOTS:
        table, _ = relabel(cat[name].table, rng)
        params = {"name": name, "table": table, "defect": defect,
                  "defect_pick": rng.randrange(1 << 30)}
        label = name
        if functor == "pi_ab":
            params["functor"] = "pi_ab"
            label += ":pi_ab"
        else:
            _, index, torsion, signed = functor
            g = FiniteGroup(table, name=name, validate=False)
            subs = g.all_subgroups()
            params["functor"] = "perm"
            params["stabilizer"] = rng.choice(
                [h.elements for h in subs if h.index == index])
            params["torsion"] = torsion
            kernels = [h.elements for h in subs if h.index == 2]
            params["sign_kernel"] = (rng.choice(kernels)
                                     if signed and kernels else None)
            label += f":perm{index}/{torsion}{'+sign' if signed else ''}"
        if defect:
            label += f":defect-{defect}"
        jobs.append(Job(0, "functor", label, params))
    return jobs


def _transfer_jobs(rng, _workdir) -> list[Job]:
    cat = catalog()
    jobs = []
    for name in TRANSFER_GROUPS:
        table, _ = relabel(cat[name].table, rng)
        g = FiniteGroup(table, name=name, validate=False)
        for h in g.all_subgroups():
            if h.index <= 8:
                jobs.append(Job(0, "transfer", f"{name}:{len(h)}",
                                {"name": name, "table": table,
                                 "h": h.elements,
                                 "rng": rng.randrange(1 << 30)}))
        jobs.append(Job(0, "ramification", name,
                        {"name": name, "table": table}))
    return jobs


# ---------------------------------------------------------------------------
# job bodies
# ---------------------------------------------------------------------------

def run_job(job: Job, env: "CliEnv | None" = None) -> Outcome:
    if job.kind == "cli":
        return _run_cli(job, env)
    return _BODIES[job.kind](job.params)


def _tautological(p) -> Outcome:
    g = FiniteGroup(p["table"], name=p["name"], validate=False)
    system = full_system(g)
    spec = Spectrum(system, full_extension(system))
    rsys = commutator_system(system)
    taut = tautological_cft(spec, rsys)
    rep = lattice_property_check(tautological_assignment(taut), spec, rsys)
    return Outcome(rep.passed, [len(spec.points()), _checks(rep)])


def _norm_subgroups(p) -> Outcome:
    g = FiniteGroup(p["table"], name=p["name"], validate=False)
    n = g.order
    datum = RamificationDatum(g, n, p["d"])
    system = full_system(g)
    c = fixed_point_functor(trivial_module(g, FgAbGroup(1)), system)
    omega = FgAbGroup(1)
    vfam = ValuationFamily(c, omega, {k: AbHom.identity(omega)
                                      for k in system.points()})
    spec = Spectrum(system, full_extension(system))
    rsys = commutator_system(system)
    rep_functor = induction_representation(c, spec)
    try:
        morphism, _ = upsilon_morphism(c, vfam, datum, spec, rsys,
                                       fnd_validated=True)
    except NoLiftInModel as exc:
        return Outcome(False, ["NoLiftInModel", str(exc)],
                       detail=f"NoLiftInModel: {exc}")
    rep = lattice_property_check(norm_subgroup_assignment(rep_functor), spec,
                                 rsys, iso=morphism)
    components = sorted((k, m.matrix) for k, m in morphism.components.items())
    return Outcome(rep.passed, [_checks(rep), components])


def _generating_set(g: FiniteGroup) -> list[int]:
    gens, span = [], {0}
    for x in range(1, g.order):
        if x not in span:
            gens.append(x)
            span = set(g.generated_subgroup(gens).elements)
    return gens


def _plant_defect(phi, g: FiniteGroup, kind: str, pick: int):
    """Corrupt one con or res entry so that the functor axioms must fail.

    con: con[(s, X)] becomes zero for a non-generator s and a point X with
    C(X) != 0; then con_{s^-1, sX} o con_{s, X} = 0 != id = con_{1, X}, so
    con-transitivity fails.  res (fixed-point functors only): res[(Y, X)]
    becomes zero for {1} < Y < X with C(X) != 0; then
    res_{1,Y} o res_{Y,X} = 0 differs from the injective inclusion
    res_{1,X}, so res-transitivity fails.  Returns the corrupted key.
    """
    points = sorted(phi.domain.points(), key=lambda k: (len(k), k))
    nonzero = [x for x in points if phi.values[x].rank]
    trivial = (0,)
    if kind == "res":
        pairs = [(y, x) for x in nonzero for y in phi.domain.res_set(x)
                 if y != x and y != trivial]
        if pairs:
            y, x = pairs[pick % len(pairs)]
            phi.res[(y, x)] = AbHom.zero(phi.values[x], phi.values[y])
            return ["res", y, x]
    gens = set(_generating_set(g))
    others = [s for s in range(1, g.order) if s not in gens]
    s = others[pick % len(others)] if others else max(gens)
    x = nonzero[(pick >> 8) % len(nonzero)]
    sx = phi.domain.conjugate(s, x)
    phi.con[(s, x)] = AbHom.zero(phi.values[x], phi.values[sx])
    return ["con", s, x]


def _functor(p) -> Outcome:
    g = FiniteGroup(p["table"], name=p["name"], validate=False)
    system = full_system(g)
    module = None
    if p["functor"] == "pi_ab":
        phi = abelianization_functor(system, commutator_system(system))
    else:
        kernel = p["sign_kernel"]
        module = permutation_module(
            g, Subgroup(g, p["stabilizer"]), torsion=p["torsion"],
            sign_kernel=Subgroup(g, kernel) if kernel else None)
        phi = fixed_point_functor(module, system)
    planted = None
    if p["defect"]:
        planted = _plant_defect(phi, g, p["defect"], p["defect_pick"])
    reports = [validate_ric_functor(phi), check_stability(phi),
               check_mackey_formula(phi), check_cohomological(phi)]
    verdicts = [[r.passed, r.witness, r.detail] for r in reports]
    if planted:
        first = reports[0]
        return Outcome(not first.passed and first.witness is not None,
                       [planted, verdicts])
    ok = all(r.passed for r in reports)
    if module is not None:
        basis = [h for h in g.all_subgroups() if h.is_normal()]
        adj = adjunction_maps(module, phi, basis)
        morph = validate_functor_morphism(adj.unit)
        ok = ok and adj.counit_is_iso and adj.unit_is_iso and morph.passed
        verdicts.append([adj.counit_is_iso, adj.unit_is_iso,
                         adj.unit_witness, morph.passed])
    return Outcome(ok, verdicts)


def _random_transversal(g, h, rng) -> Transversal:
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


def _coset_rep(g, r_h, x) -> int:
    return min(g.table[x][a] for a in r_h.elements)


def _transfer(p) -> Outcome:
    """Transfer table of one subgroup with the identities test_01 checks."""
    g = FiniteGroup(p["table"], name=p["name"], validate=False)
    rng = random.Random(p["rng"])
    subs = [h for h in g.all_subgroups() if h.index <= 8]
    h = next(s for s in subs if s.elements == p["h"])
    r_g = commutator_subgroup(g.full_subgroup())
    r_h = commutator_subgroup(h)
    n = g.order
    vals = [transfer(g, h, r_h, r_g, x) for x in range(n)]
    independent = all(
        [transfer(g, h, r_h, r_g, x, transversal=t) for x in range(n)] == vals
        for t in [_random_transversal(g, h, rng) for _ in range(5)])
    multiplicative = all(
        _coset_rep(g, r_h, g.table[vals[x]][vals[y]]) == vals[g.table[x][y]]
        for x in range(n) for y in range(n))
    lam = all(
        transfer_via_lambda(g, h, r_h, x,
                            double_coset_reps(g, h, g.generated_subgroup([x])))
        == vals[x] for x in range(n))
    transitive = True
    for mid in subs:
        if not h.element_set < mid.element_set:
            continue
        r_mid = commutator_subgroup(mid)
        through = {}
        for x in range(n):
            y = transfer(g, mid, r_mid, r_g, x)
            if y not in through:
                through[y] = _coset_rep(
                    g, r_h, transfer_between(h, mid, r_h, r_mid, y))
            transitive = transitive and through[y] == vals[x]
    flags = [independent, multiplicative, lam, transitive]
    return Outcome(all(flags), [vals, flags])


def _admissible_data(g: FiniteGroup) -> list:
    """Surjections G -> Z/m from abelianization characters (as in test_04)."""
    ab, cmap = abelianization(g)
    out = []
    for idx, f in enumerate(ab.invariant_factors):
        for m in (d for d in range(2, f + 1) if f % d == 0):
            images = tuple(cmap(x)[idx] % m for x in range(g.order))
            out.append(RamificationDatum(g, m, images))
    return out


def _ramification(p) -> Outcome:
    """Ramification laws (test_04) and Frobenius groups (test_05) of one group."""
    g = FiniteGroup(p["table"], name=p["name"], validate=False)
    ok = True
    validated = insufficient = 0
    for datum in _admissible_data(g):
        subs = g.all_subgroups()
        inertia = {h.elements: inertia_subgroup(datum, h) for h in subs}
        for h in subs:
            i_h = inertia[h.elements]
            for k in subs:
                if not k.is_subgroup_of(h):
                    continue
                e, f = degrees(datum, h, k)
                ok = ok and e * f == len(h) // len(k)
                ok = ok and (e == 1) == (i_h.element_set <= k.element_set)
                product = g.generated_subgroup(
                    list(k.elements) + list(i_h.elements))
                ok = ok and (f == 1) == (product.elements == h.elements)
                for l in subs:
                    if not l.is_subgroup_of(k):
                        continue
                    e2, f2 = degrees(datum, k, l)
                    e3, f3 = degrees(datum, h, l)
                    ok = ok and e3 == e * e2 and f3 == f * f2
        full = g.full_subgroup()
        try:
            vals, _ = d_horizon(datum, full)
        except InertiaTrivialHorizon:
            continue
        inertia_of = {}
        for u in subs:
            inertia_of.setdefault(inertia[u.elements].elements, u)
        for _, u in sorted(inertia_of.items()):
            for h_elt in range(g.order):
                if vals[h_elt] == 0:
                    continue
                try:
                    sigma, report = frobenius_group(datum, h_elt, full, u,
                                                    certify_unique=True)
                except DepthInsufficient:
                    insufficient += 1
                    continue
                expected = g.generated_subgroup(
                    [h_elt] + list(inertia[u.elements].elements))
                ok = ok and sigma.elements == expected.elements
                if report.passed:
                    validated += 1
                    ok = ok and bool(report.unique)
    return Outcome(ok, [ok, validated, insufficient])


_BODIES = {
    "tautological": _tautological,
    "norm_subgroups": _norm_subgroups,
    "functor": _functor,
    "transfer": _transfer,
    "ramification": _ramification,
}


# ---------------------------------------------------------------------------
# cli workload
# ---------------------------------------------------------------------------

@dataclass
class CliEnv:
    """How cli jobs start their child: one child at a time, from ``root``."""

    root: Path
    launcher: list[str]          # argv prefix that runs classfield.cli
    env: dict
    trace_dir: Path | None = None  # set when children run traced
    child_rss_kb: list = field(default_factory=list)


def _write(path: Path, data) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
    return str(path)


def _cli_job(label, argv, expect_code, expect_fail=(), known_defect=None):
    return Job(0, "cli", label, {"argv": argv, "expect_code": expect_code,
                                 "expect_fail": sorted(expect_fail)},
               known_defect)


def _cli_jobs(rng, workdir: Path) -> list[Job]:
    cat = catalog()
    fixtures = Path(__file__).resolve().parent.parent / "src" / "classfield" / "fixtures"
    seed = rng.randrange(1000)
    jobs = []
    for name in FIXTURES:
        fail = (("valuation_valid", "urfnd_valid", "fnd_valid")
                if name == "c2_negation" else ())
        jobs.append(_cli_job(f"fixture:{name}",
                             ["cft", "--input", str(fixtures / f"{name}.json")],
                             1 if fail else 0, fail))
    jobs.append(_cli_job("fixture:hrv_rank2",
                         ["hrv", "--input", str(fixtures / "hrv_rank2.json"),
                          "--seed", str(seed)], 0))

    def table_of(name):
        return [list(r) for r in relabel(cat[name].table, rng)[0]]

    for name in ("S4", "D4xC2", "C2xC6"):
        path = _write(workdir / f"group_{name}.json",
                      {"group": {"cayley_table": table_of(name)}})
        jobs.append(_cli_job(f"group:{name}", ["group", "--input", path], 0))
    for name in ("C2^4", "D4xC2", "Q8xC2", "C4xC2xC2"):
        path = _write(workdir / f"mackey_{name}.json",
                      {"group": {"cayley_table": table_of(name)},
                       "functor": {"kind": "abelianization"}})
        jobs.append(_cli_job(f"mackey:{name}:pi_ab",
                             ["mackey", "--input", path], 0))
    table = table_of("D6")
    g = FiniteGroup(table, name="D6", validate=False)
    stab = rng.choice([h.elements for h in g.all_subgroups() if h.index == 4])
    path = _write(workdir / "mackey_D6_perm.json",
                  {"group": {"cayley_table": table},
                   "functor": {"kind": "fixed_point",
                               "module": {"kind": "permutation", "torsion": 3,
                                          "stabilizer": {"elements": list(stab)}}}})
    jobs.append(_cli_job("mackey:D6:perm4/3", ["mackey", "--input", path], 0))
    for n, certify in ((8, False), (12, False), (16, True)):
        table, d = relabeled_cyclic(n, rng)
        path = _write(workdir / f"cft_C{n}.json", {
            "group": {"cayley_table": [list(r) for r in table]},
            "ramification": {"modulus": n, "d": list(d),
                             "primes_P": sorted(prime_factors(n))},
            "functor": {"kind": "fixed_point",
                        "module": {"kind": "trivial",
                                   "underlying": {"free_rank": 1,
                                                  "invariant_factors": []}}},
            "valuation": {"omega": {"modulus": 0}, "components": "identity"},
            "spectrum": {"kind": "unramified"}, "system": {"kind": "full"}})
        argv = ["cft", "--input", path] + (["--certify"] if certify else [])
        known = LABEL_DEPENDENT if len(prime_factors(n)) > 1 else None
        jobs.append(_cli_job(f"cft:C{n}{':certify' if certify else ''}", argv,
                             0, known_defect=known))
    for rank, width in ((2, 3), (3, 2)):
        p = rng.choice((2, 3))
        path = _write(workdir / f"hrv_rank{rank}.json", {
            "tasks": ["roundtrip", "axioms"], "samples": 300,
            "field": {"p": p, "rank": rank,
                      "window": {"lo": [-width] * rank, "hi": [width] * rank}}})
        jobs.append(_cli_job(f"hrv:rank{rank}:p{p}",
                             ["hrv", "--input", path,
                              "--seed", str(rng.randrange(1000))], 0))
    # Malformed scenarios: the exit-code contract says 2 (input error).
    defect = "malformed input exits 1 with a traceback, not 2"
    malformed = (("mackey", "no_group", {"functor": {"kind": "abelianization"}}),
                 ("cft", "no_group", {"ramification": {"modulus": 2, "d": [0, 1]}}),
                 ("group", "top_level_list", [[0, 1], [1, 0]]))
    for sub, what, data in malformed:
        path = _write(workdir / f"malformed_{sub}_{what}.json", data)
        jobs.append(_cli_job(f"malformed:{sub}:{what}",
                             [sub, "--input", path], 2, known_defect=defect))
    return jobs


def _run_cli(job: Job, env: CliEnv) -> Outcome:
    p = job.params
    out = env.root / ".bench_work" / "cli-out" / f"{os.getpid()}-{job.id}.out"
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()
    traced = [str(env.trace_dir), str(job.id)] if env.trace_dir else []
    argv = env.launcher + traced + p["argv"] + ["--out", str(out)]
    with open(os.devnull, "wb") as sink:
        proc = subprocess.Popen(argv, cwd=env.root, env=env.env,
                                stdout=sink, stderr=sink)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    env.child_rss_kb.append(usage.ru_maxrss)
    report = out.read_bytes() if out.exists() else b""
    if out.exists():
        out.unlink()
    failing = []
    if report:
        failing = sorted(c["name"] for c in json.loads(report)["checks"]
                         if c["status"] != "pass")
    ok = code == p["expect_code"] and failing == p["expect_fail"]
    return Outcome(ok, [code, hashlib.sha256(report).hexdigest()],
                   detail=f"exit {code}, expected {p['expect_code']}")
