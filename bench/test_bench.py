"""Self-test of the benchmark's tracer, oracle and planted defects.

    python3 -m pytest bench/test_bench.py -q

Runs small jobs only (D4, C6, Q8, S3), in a few seconds.
"""

import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import pytest  # noqa: E402

import classfield  # noqa: E402
import classfield.abelian as abelian  # noqa: E402
import classfield.cft as cft  # noqa: E402
import classfield.groups as groups  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from classfield.ramification import DepthInsufficient, frobenius_group  # noqa: E402

WATCHED = {
    abelian.smith_decompose.__code__: ("abelian", "smith_decompose"),
    abelian.subgroup_contains.__code__: ("abelian", "subgroup_contains"),
    abelian.solve_integer.__code__: ("abelian", "solve_integer"),
    abelian.AbHom.__post_init__.__code__: ("abelian", "AbHom.__post_init__"),
    abelian.AbHom.compose.__code__: ("abelian", "AbHom.compose"),
    groups.FiniteGroup.all_subgroups.__code__:
        ("groups", "FiniteGroup.all_subgroups"),
    groups.FiniteGroup.generated_subgroup.__code__:
        ("groups", "FiniteGroup.generated_subgroup"),
}


def relabeled_job(kind, name, seed=0):
    table, _ = wl.relabel(wl.catalog()[name].table, random.Random(seed))
    return wl.Job(0, kind, name, {"name": name, "table": table})


def profiled(fn):
    """Call counts of the watched code objects, taken with sys.setprofile."""
    counts = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in WATCHED:
            counts[WATCHED[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return counts, result


def traced(fn, tracer=None):
    tracer = tracer or tracing.Tracer()
    tracer.install(namespaces=[vars(wl)])
    try:
        tracer.begin_job(1, "test")
        result = fn()
        tracer.end_job()
    finally:
        tracer.uninstall()
    return tracer, result


def snapshot():
    names = {}
    for modname, module in sorted(sys.modules.items()):
        if module is not None and (modname == "classfield"
                                   or modname.startswith("classfield.")):
            for name, obj in vars(module).items():
                names[(modname, name)] = id(obj)
    for name, obj in vars(wl).items():
        names[("workloads", name)] = id(obj)
    for cls in (abelian.AbHom, groups.FiniteGroup):
        for name, obj in vars(cls).items():
            names[(cls.__name__, name)] = id(obj)
    return names


def test_wrapped_counts_equal_direct_counts():
    job = relabeled_job("tautological", "D4")
    direct, plain = profiled(lambda: wl.run_job(job))
    tracer, wrapped = traced(lambda: wl.run_job(job))
    for key, count in direct.items():
        assert tracer.stats[key].calls == count, key
    assert direct[("abelian", "subgroup_contains")] > 0
    assert wrapped.digest() == plain.digest()
    assert wrapped.ok


def test_every_alias_is_rebound():
    tracer = tracing.Tracer()
    tracer.install(namespaces=[vars(wl)])
    try:
        for fn in (cft.subgroup_contains, abelian.subgroup_contains,
                   classfield.smith_decompose, wl.lattice_property_check):
            assert hasattr(fn, "__bench_original__")
        assert cft.subgroup_contains is abelian.subgroup_contains
        assert hasattr(abelian.AbHom.__dict__["__post_init__"],
                       "__bench_original__")
    finally:
        tracer.uninstall()


def test_unwrapping_restores_every_original():
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install(namespaces=[vars(wl)])
    assert snapshot() != before
    tracer.uninstall()
    assert snapshot() == before


def test_exceptions_pass_through_unchanged():
    job = relabeled_job("ramification", "C6")
    plain = wl.run_job(job)
    tracer, wrapped = traced(lambda: wl.run_job(job))
    assert wrapped.digest() == plain.digest()
    insufficient = plain.verdicts[2]
    assert insufficient > 0
    stat = tracer.stats[("ramification", "frobenius_group")]
    assert stat.errors["DepthInsufficient"] == insufficient

    g = wl.catalog()["C6"]
    full = g.full_subgroup()
    failing = []
    for datum in wl._admissible_data(g):
        for u in g.all_subgroups():
            for h_elt in range(1, g.order):
                try:
                    frobenius_group(datum, h_elt, full, u)
                except DepthInsufficient as exc:
                    failing.append((datum, u, h_elt, str(exc), exc.report))
                except ValueError:
                    pass
    assert failing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import classfield.ramification as ramification
        for datum, u, h_elt, message, report in failing:
            with pytest.raises(DepthInsufficient) as info:
                ramification.frobenius_group(datum, h_elt, full, u)
            assert str(info.value) == message and info.value.report == report
    finally:
        tracer.uninstall()


def test_exact_counts_repeat():
    job = relabeled_job("functor", "S3")
    job.params.update(functor="pi_ab", defect=None, defect_pick=0)
    first, _ = traced(lambda: wl.run_job(job))
    second, _ = traced(lambda: wl.run_job(job))
    calls = {k: s.calls for k, s in first.stats.items()}
    assert calls == {k: s.calls for k, s in second.stats.items()}
    assert first.counters == second.counters


def test_oracle_accepts_true_and_rejects_false_decompositions():
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    snf = abelian.smith_decompose(m)
    assert tracing.check_snf(m, snf) is None
    bad_diagonal = abelian.SmithDecomposition(
        [snf.diagonal[0], snf.diagonal[1] * 2] + snf.diagonal[2:],
        snf.left, snf.right, snf.left_inv, snf.right_inv)
    assert tracing.check_snf(m, bad_diagonal)
    bad_left = abelian.SmithDecomposition(
        snf.diagonal, [row[:] for row in snf.left], snf.right,
        snf.left_inv, snf.right_inv)
    bad_left.left[0][0] += 1
    assert tracing.check_snf(m, bad_left)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_defects_fail_with_a_witness(seed):
    jobs = wl.make_batch("mackey", seed, 0, ROOT / ".bench_work" / "test")
    planted = [j for j in jobs if j.params["defect"]
               and j.params["name"] in ("D4", "Q8", "C12", "S3")]
    assert len(planted) >= 4
    for job in planted:
        outcome = wl.run_job(job)
        assert outcome.ok, job.label
        first = outcome.verdicts[1][0]
        assert first[0] is False and first[1] is not None
