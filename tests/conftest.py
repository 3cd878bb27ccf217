import random
import sys
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from classfield import mackey
from classfield.catalog import catalog
from classfield.groups import abelianization
from classfield.mackey import SubgroupSystem, permutation_module
from classfield.ramification import RamificationDatum


def catalog_groups(max_order=None):
    cat = catalog()
    out = [g for g in cat.values()]
    if max_order is not None:
        out = [g for g in out if g.order <= max_order]
    return out


def relabeled(table, seed):
    """The same group with elements 1..n-1 permuted by a seeded shuffle."""
    n = len(table)
    perm = [0] + random.Random(seed).sample(range(1, n), n - 1)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out, perm


def random_modules(group, seed=0, count=3, max_index=6, max_torsion=4):
    """Seeded permutation modules, optionally sign-twisted."""
    rng = random.Random(f"{seed}:{group.name}")
    subs = [h for h in group.all_subgroups() if h.index <= max_index]
    index2 = [h for h in group.all_subgroups() if h.index == 2]
    mods = []
    for _ in range(count):
        stab = rng.choice(subs)
        torsion = rng.choice([0, 2, 3, max_torsion])
        kernel = rng.choice(index2) if index2 and rng.random() < 0.4 else None
        mods.append(permutation_module(group, stab, torsion=torsion,
                                       sign_kernel=kernel))
    return mods


def admissible_data(group):
    """Every surjection G -> Z/m (m > 1) built from abelianization characters."""
    ab, cmap = abelianization(group)
    out = []
    for idx, f in enumerate(ab.invariant_factors):
        for m in (d for d in range(2, f + 1) if f % d == 0):
            images = tuple(cmap(x)[idx] % m for x in range(group.order))
            out.append(RamificationDatum(group, m, images))
    return out


def without_self_induction(system):
    """The data of ``system`` with its top group G dropped from S_i(G), and
    nothing else changed: every axiom holds but reflexivity of S_i at G."""
    top = system.points()[-1]
    ind = {k: tuple(j for j in v if j != top) for k, v in system.ind_sets.items()}
    return (system.group, [system.subgroup(k) for k in system.points()],
            system.res_sets, ind)


def system_failure(group, base, res, ind, elems=None):
    """The first failing subgroup-system axiom of the data, taking the
    conjugation conditions over ``elems`` (all of G by default), on a system
    built without the constructor's own check."""
    with mock.patch.object(mackey, "_system_failure", return_value=None):
        unchecked = SubgroupSystem(group, base, res, ind)
    return mackey._system_failure(
        unchecked, range(group.order) if elems is None else elems)


def assert_rejected(group, base, res, ind):
    """``SubgroupSystem`` refuses the data, naming the exhaustive scan's
    first failure; returns that failure."""
    failure = system_failure(group, base, res, ind)
    assert failure is not None and not failure.passed
    with pytest.raises(ValueError) as exc:
        SubgroupSystem(group, base, res, ind)
    assert str(exc.value) == f"{failure.detail} at {failure.witness}"
    return failure


@pytest.fixture(scope="session")
def group_catalog():
    return catalog()
