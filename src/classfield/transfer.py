"""Pretransfer and transfer (Verlagerung) maps with their double-coset
presentation, plus abelianization systems.

The pretransfer from G to H along an ordered right transversal T sends g
to the product of the T-remover parts of t*g over t in T.  Modulo a
coabelian R(H) the result is transversal-independent and multiplicative;
that reduction is the transfer.  Topological closure is the identity on
finite groups, so generated subgroups stand in for closed generated
subgroups throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .groups import (
    FiniteGroup, Subgroup, Transversal, check_double_coset_reps, cosets,
    right_transversal, t_remover,
)
from .report import CheckItem


class NotTransferInducing(ValueError):
    """The pair (R_H, R_G) fails V^T(R_G) <= R_H."""


def pretransfer(g: FiniteGroup, h: Subgroup, t: Transversal, x: int) -> int:
    """Product of kappa_T(t_i * x) over the transversal, in its fixed order."""
    if t.subgroup != h or t.side != "right":
        raise ValueError("pretransfer needs a right transversal of h")
    out = 0
    for rep in t.reps:
        out = g.mul(out, t_remover(t, g.mul(rep, x)))
    return out


def _coabelian_check(h: Subgroup, r: Subgroup):
    if not r.is_subgroup_of(h):
        raise ValueError("coabelian subgroup must lie inside the subgroup")
    if not r.is_normal_in(h):
        raise ValueError("coabelian subgroup must be normal")
    p = h.parent
    for a in h.elements:
        for b in h.elements:
            if p.commutator(a, b) not in r.element_set:
                raise ValueError("quotient by the given subgroup is not abelian")


def _check_transfer_pair(big: Subgroup, h: Subgroup, r_h: Subgroup,
                         r_big: Subgroup) -> None:
    """Raise unless {R_H, R_big} is a transfer inducing pair for H <= big."""
    # memoized per parent group, keyed by the (big, H, R_H, R_big) tuple
    p = h.parent
    key = ("transfer_pair", big.elements, h.elements, r_h.elements, r_big.elements)
    if key not in p._cache:
        _coabelian_check(h, r_h)
        _coabelian_check(big, r_big)
        p._cache[key] = all(
            y in r_h.element_set for y in _pretransfers(big, h, r_big.elements))
    if not p._cache[key]:
        raise NotTransferInducing(
            "pretransfer does not map R_G into R_H for this pair")


def transfer(g: FiniteGroup, h: Subgroup, r_h: Subgroup, r_g: Subgroup,
             x: int, transversal: Transversal | None = None) -> int:
    """Transfer of x, as the minimal representative of its coset mod R_H.

    Requires {R_H, R_G} to be a transfer inducing pair; the result is
    independent of the transversal and defines a homomorphism
    G/R_G -> H/R_H.
    """
    _check_transfer_pair(g.full_subgroup(), h, r_h, r_g)
    t = transversal if transversal is not None else right_transversal(g, h)
    return cosets(h, r_h).rep_of[pretransfer(g, h, t, x)]


def transfer_between(h_small: Subgroup, h_big: Subgroup, r_small: Subgroup,
                     r_big: Subgroup, x: int) -> int:
    """Transfer from a subgroup to a smaller subgroup (both inside parent).

    Used for restriction maps of abelianization functors, where the
    ambient pair is (H_big, H_small) rather than (G, H).
    """
    _check_transfer_pair(h_big, h_small, r_small, r_big)
    (y,) = _pretransfers(h_big, h_small, [x])
    return cosets(h_small, r_small).rep_of[y]


def _pretransfers(h: Subgroup, i: Subgroup, xs) -> list[int]:
    """Pretransfer from h to its subgroup i of each x in xs, in the parent,
    along the least-representative right transversal of i inside h."""
    t = cosets(h, i, "right")
    return [pretransfer(h.parent, i, t, x) for x in xs]


def lambda_exponent(g: FiniteGroup, h: Subgroup, x: int, rho: int) -> int:
    """Least j > 0 with rho * x^j * rho^-1 in h."""
    j = 1
    y = g.conj(rho, x)
    acc = y
    while acc not in h.element_set:
        acc = g.mul(acc, y)
        j += 1
        if j > g.order:
            raise AssertionError("lambda exponent search exceeded group order")
    return j


def transfer_via_lambda(g: FiniteGroup, h: Subgroup, r_h: Subgroup, x: int,
                        reps) -> int:
    """Transfer computed from double-coset representatives of H\\G/<x>.

    The exponents lambda_x(rho) sum to the index [G:H]; the value is the
    product of rho * x^lambda * rho^-1 modulo R_H.
    """
    _coabelian_check(h, r_h)
    check_double_coset_reps(g, h, g.generated_subgroup([x]), reps)
    total = 0
    out = 0
    for rho in reps:
        lam = lambda_exponent(g, h, x, rho)
        total += lam
        out = g.mul(out, g.conj(rho, g.power(x, lam)))
    if total * len(h.elements) != g.order:
        raise AssertionError("lambda exponents do not sum to the index")
    return cosets(h, r_h).rep_of[out]


# ---------------------------------------------------------------------------
# abelianization systems
# ---------------------------------------------------------------------------

@dataclass
class AbelianizationSystem:
    """Family H -> R(H) of coabelian normal subgroups over a subgroup system.

    Conjugation equivariance, transfer compatibility along restriction
    edges and inclusion compatibility along induction edges are verified
    by validate_abelianization_system.
    """

    system: "object"  # a mackey.SubgroupSystem
    assignment: dict[tuple[int, ...], Subgroup]

    def r_of(self, h: Subgroup) -> Subgroup:
        return self.assignment[h.elements]


def validate_abelianization_system(candidate: AbelianizationSystem) -> CheckItem:
    """Check the three abelianization-system conditions exhaustively."""
    fail = partial(CheckItem, "abelianization_system_valid", False)
    sys = candidate.system
    g = sys.group
    for key in sys.points():
        h = sys.subgroup(key)
        r = candidate.r_of(h)
        try:
            _coabelian_check(h, r)
        except ValueError as exc:
            return fail(key, f"not coabelian: {exc}")
    # (i) conjugation equivariance
    for key in sys.points():
        h = sys.subgroup(key)
        r = candidate.r_of(h)
        for x in range(g.order):
            conj_h = sys.conjugate(x, key)
            expected = candidate.assignment[conj_h]
            image = {g.conj(x, a) for a in r.elements}
            if image != set(expected.elements):
                return fail((x, key), "conjugate of R(H) is not R(^gH)")
    # (ii) transfer compatibility on restriction edges
    for key in sys.points():
        h = sys.subgroup(key)
        r_h = candidate.r_of(h)
        for ikey in sys.res_set(key):
            if ikey == key:
                continue
            r_i = candidate.assignment[ikey]
            images = _pretransfers(h, sys.subgroup(ikey), r_h.elements)
            for x, val in zip(r_h.elements, images):
                if val not in r_i.element_set:
                    return fail((key, ikey, x), "transfer escapes R(I)")
    # (iii) inclusion compatibility on induction edges
    for key in sys.points():
        r_h = candidate.assignment[key]
        for ikey in sys.ind_set(key):
            r_i = candidate.assignment[ikey]
            if not r_i.element_set <= r_h.element_set:
                return fail((key, ikey), "R(I) not contained in R(H)")
    return CheckItem("abelianization_system_valid", True)


def commutator_system(sys) -> AbelianizationSystem:
    """The commutator-subgroup abelianization system on a subgroup system."""
    from .groups import commutator_subgroup
    assignment = {}
    for key in sys.points():
        assignment[key] = commutator_subgroup(sys.subgroup(key))
    return AbelianizationSystem(sys, assignment)


def trivial_system(sys) -> AbelianizationSystem:
    """R(H) = 1 for every H; valid only when every base group is abelian."""
    g = sys.group
    assignment = {key: g.trivial_subgroup() for key in sys.points()}
    return AbelianizationSystem(sys, assignment)
