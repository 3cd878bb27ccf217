"""Finite-model abstract ramification: inertia, e/f degrees, normalized
horizon maps d_H, Frobenius elements, groups and lifts, and P-part
arithmetic.

The procyclic target is truncated to Omega_fin = Z/m with distinguished
generator 1.  Every statement the infinite theory proves via
torsion-freeness is re-checked at runtime here; when the truncation is
too shallow to represent a lift faithfully the operations raise one of
the dedicated errors instead of extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .groups import FiniteGroup, Subgroup, cosets
from .report import ModelLimit


class DepthInsufficient(ModelLimit):
    """The finite modulus cannot represent this Frobenius group faithfully."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InertiaTrivialHorizon(ModelLimit):
    """d_H would land in a trivial quotient; the model is too shallow."""


class NoLiftInModel(ModelLimit):
    """The requested coset contains no Frobenius lift in the finite model."""


class NotUnramified(ValueError):
    """The subgroup is not open, normal and unramified as required."""


def prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


@dataclass(frozen=True)
class RamificationDatum:
    """Surjection d: G -> Z/m together with the prime set P.

    ``d`` is given element-wise; P defaults to the primes dividing
    lcm(|G|, m) and must contain every prime divisor of both.
    """

    group: FiniteGroup
    modulus: int
    d: tuple[int, ...]
    primes_p: frozenset[int] = field(default=frozenset())

    def __post_init__(self):
        g, m = self.group, self.modulus
        if m < 1:
            raise ValueError("modulus must be positive")
        imgs = tuple(v % m for v in self.d)
        object.__setattr__(self, "d", imgs)
        if len(imgs) != g.order:
            raise ValueError("d must assign a value to every element")
        for a in range(g.order):
            for b in range(g.order):
                if (imgs[a] + imgs[b]) % m != imgs[g.table[a][b]]:
                    raise ValueError(f"d is not a homomorphism at ({a},{b})")
        if math.gcd(m, *imgs) != 1 and m > 1:
            raise ValueError("d is not surjective onto Z/m")
        default = prime_factors(math.lcm(g.order, m))
        p = self.primes_p or frozenset(default)
        object.__setattr__(self, "primes_p", frozenset(p))
        if not default <= self.primes_p:
            raise ValueError("P must contain every prime of |G| and of m")

    def image_generator(self, h: Subgroup) -> int:
        """gcd generator of d(H) <= Z/m (m itself for the zero subgroup),
        which is f_H = [Z/m : d(H)]."""
        return math.gcd(self.modulus, *(self.d[a] for a in h.elements))


def inertia_subgroup(datum: RamificationDatum, h: Subgroup) -> Subgroup:
    """I_H = H intersect ker(d)."""
    return Subgroup(h.parent,
                    [a for a in h.elements if datum.d[a] == 0], validate=False)


def degrees(datum: RamificationDatum, h: Subgroup, k: Subgroup) -> tuple[int, int]:
    """(e_{H|K}, f_{H|K}) with e*f = [H:K]."""
    if not k.is_subgroup_of(h):
        raise ValueError("degrees need K <= H")
    i_h = inertia_subgroup(datum, h)
    i_k = inertia_subgroup(datum, k)
    e = len(i_h) // len(i_k)
    gh = datum.image_generator(h)
    gk = datum.image_generator(k)
    f = gk // gh  # [d(H):d(K)] = (m/gh)/(m/gk)
    return e, f


def d_horizon(datum: RamificationDatum, h: Subgroup):
    """The map d_H: H -> Z/(m/f_H) as (values per element, modulus).

    d(h) lies in f_H * Z/m; the value is its least nonnegative lift
    divided by f_H, reduced mod m/f_H.  Raises InertiaTrivialHorizon when
    m/f_H = 1, where the finite model carries no information.
    """
    f_h = datum.image_generator(h)
    if datum.modulus % f_h:
        raise AssertionError("f_H must divide the modulus")
    horizon = datum.modulus // f_h
    if horizon == 1:
        raise InertiaTrivialHorizon(
            f"d_H for H={h.elements} has trivial target Z/1")
    values = {a: (datum.d[a] // f_h) % horizon for a in h.elements}
    return values, horizon


def frobenius_element(datum: RamificationDatum, h: Subgroup, u: Subgroup) -> int:
    """Minimal representative of the relative Frobenius coset in H/U."""
    if not u.is_subgroup_of(h) or not u.is_normal_in(h):
        raise NotUnramified("U must be a normal subgroup of H")
    if inertia_subgroup(datum, u).elements != inertia_subgroup(datum, h).elements:
        raise NotUnramified("U is not unramified in H (I_U != I_H)")
    values, _ = d_horizon(datum, h)
    for a in sorted(values):
        if values[a] == 1:
            return cosets(h, u).rep_of[a]
    raise AssertionError("d_H must be surjective")


@dataclass
class FrobeniusReport:
    contains_h: bool
    inertia_matches: bool
    f_expected: int
    f_actual: int
    unique: bool | None = None

    @property
    def passed(self) -> bool:
        return (self.contains_h and self.inertia_matches
                and self.f_expected == self.f_actual)


def _p_part(n: int, primes) -> int:
    out = 1
    for p in prime_factors(n):
        if p in primes:
            q = 1
            while n % (q * p) == 0:
                q *= p
            out *= q
    return out


def p_parts(n: int, primes) -> tuple[int, int]:
    """(P(n), P'(n)) with n = P(n) * P'(n), both multiplicative."""
    if n < 1:
        raise ValueError("P-parts are defined for positive integers")
    pn = _p_part(n, primes)
    return pn, n // pn


def frobenius_group(datum: RamificationDatum, h_elt: int, h: Subgroup,
                    u: Subgroup, certify_unique: bool = False):
    """The Frobenius group Sigma = <h> * I_U with its axiom verdicts.

    Axioms: h in Sigma; f_{H|Sigma} = P(mult d_H(h)); I_Sigma = I_U.
    Raises DepthInsufficient when the inertia-index axiom fails, which is
    the finite model's signature of a too-shallow modulus.
    """
    p = h.parent
    if h_elt not in h.element_set or not u.is_subgroup_of(h):
        raise ValueError("need h in H and U <= H")
    values, horizon = d_horizon(datum, h)
    if values[h_elt] == 0:
        raise ValueError("d_H(h) = 0: not a Frobenius candidate")
    mult = values[h_elt]  # least positive representative
    i_u = inertia_subgroup(datum, u)
    sigma = p.generated_subgroup([h_elt] + list(i_u.elements))
    _, f_sigma = degrees(datum, h, sigma)
    expected = _p_part(mult, datum.primes_p)
    i_sigma = inertia_subgroup(datum, sigma)
    report = FrobeniusReport(
        contains_h=h_elt in sigma.element_set,
        inertia_matches=i_sigma.elements == i_u.elements,
        f_expected=expected,
        f_actual=f_sigma,
    )
    if certify_unique and report.passed:
        report.unique = _frobenius_unique(datum, h_elt, h, u, sigma)
    if report.f_actual != report.f_expected:
        raise DepthInsufficient(
            f"f_(H|Sigma) = {f_sigma} != P(mult) = {expected}; "
            "the modulus horizon is too shallow for this lift", report)
    return sigma, report


def _frobenius_unique(datum, h_elt, h, u, sigma) -> bool:
    """Exhaust all subgroups of H for a second group satisfying the axioms."""
    values, _ = d_horizon(datum, h)
    mult = values[h_elt]
    expected = _p_part(mult, datum.primes_p)
    i_u = inertia_subgroup(datum, u)
    for cand in h.parent.all_subgroups():  # the parent's cached lattice
        if h_elt not in cand.element_set or not cand.is_subgroup_of(h):
            continue
        if inertia_subgroup(datum, cand).elements != i_u.elements:
            continue
        _, f_cand = degrees(datum, h, cand)
        if f_cand != expected:
            continue
        if cand.elements != sigma.elements:
            return False
    return True


def frobenius_lifts(datum: RamificationDatum, h: Subgroup, u: Subgroup,
                    target: int) -> tuple[int, ...]:
    """All h in Frob_H = {d_H(h) != 0} mapping onto the coset target*U."""
    p = h.parent
    if not u.is_subgroup_of(h):
        raise ValueError("U must be a subgroup of H")
    if target not in h.element_set:
        raise ValueError("target representative must lie in H")
    values, _ = d_horizon(datum, h)
    coset = {p.table[target][x] for x in u.elements}
    lifts = tuple(sorted(a for a in coset if values[a] != 0))
    if not lifts:
        raise NoLiftInModel(
            f"coset of {target} mod U meets only kernel elements")
    return lifts


@dataclass
class PowerSubgroupReport:
    modulus: int
    n: int
    generator: int
    index: int
    index_divides_n: bool
    p_part_law_applicable: bool
    p_part_law_holds: bool | None


def power_subgroup(modulus: int, n: int, primes=None) -> PowerSubgroupReport:
    """The subgroup n*(Z/m) = <n*1> with its index facts.

    The index always divides n; when every prime of n outside P is
    invertible mod m, the index equals the P-part of n as seen by m.
    """
    if modulus < 1 or n < 1:
        raise ValueError("modulus and n must be positive")
    gen = math.gcd(n, modulus)
    index = gen  # [Z/m : <n>] = gcd(n, m)
    primes = frozenset(primes) if primes is not None else frozenset(
        prime_factors(modulus))
    applicable = all(
        (p in primes) or math.gcd(p, modulus) == 1
        for p in prime_factors(n))
    holds = None
    if applicable:
        restricted = _p_part(_p_part(n, primes), prime_factors(modulus))
        holds = index == math.gcd(restricted, modulus)
    return PowerSubgroupReport(modulus, n, gen, index, n % index == 0,
                               applicable, holds)


# ---------------------------------------------------------------------------
# supernatural numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupernaturalNumber:
    """Formal product of prime powers, exponents in N or infinity."""

    finite_exponents: tuple[tuple[int, int], ...] = ()
    infinite_primes: frozenset[int] = frozenset()

    def __post_init__(self):
        exps = tuple(sorted((p, e) for p, e in dict(self.finite_exponents).items()
                            if e > 0 and p not in self.infinite_primes))
        object.__setattr__(self, "finite_exponents", exps)

    @classmethod
    def from_int(cls, n: int) -> "SupernaturalNumber":
        if n < 1:
            raise ValueError("positive integers only")
        exps = {}
        for p in prime_factors(n):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            exps[p] = e
        return cls(tuple(exps.items()))

    def exponent(self, p: int) -> int | float:
        if p in self.infinite_primes:
            return math.inf
        return dict(self.finite_exponents).get(p, 0)

    def __mul__(self, other: "SupernaturalNumber") -> "SupernaturalNumber":
        primes = ({p for p, _ in self.finite_exponents}
                  | {p for p, _ in other.finite_exponents}
                  | self.infinite_primes | other.infinite_primes)
        inf = set()
        fin = {}
        for p in primes:
            e = self.exponent(p) + other.exponent(p)
            if e == math.inf:
                inf.add(p)
            elif e:
                fin[p] = e
        return SupernaturalNumber(tuple(fin.items()), frozenset(inf))

    def divides(self, other: "SupernaturalNumber") -> bool:
        primes = {p for p, _ in self.finite_exponents} | self.infinite_primes
        return all(self.exponent(p) <= other.exponent(p) for p in primes)

    def p_part(self, primes) -> "SupernaturalNumber":
        fin = tuple((p, e) for p, e in self.finite_exponents if p in primes)
        inf = frozenset(p for p in self.infinite_primes if p in primes)
        return SupernaturalNumber(fin, inf)

    def __str__(self):
        bits = [f"{p}^inf" for p in sorted(self.infinite_primes)]
        bits += [f"{p}^{e}" if e > 1 else str(p) for p, e in self.finite_exponents]
        return " * ".join(bits) if bits else "1"
