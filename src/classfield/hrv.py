"""Higher-rank discrete valuations over truncated multivariate Laurent
series.

Elements of F_p((T_1))...((T_n)) are sparse coefficient tables over a
finite exponent window, with variable 1 innermost.  Z^n carries the
reverse lexicographic order (last coordinate decides first), so the
outermost variable is the coarsest: v(T_i) is the i-th unit vector and
the standard rank-n valuation of a nonzero element is the RLO-minimal
support point.

Arithmetic is exact as long as every true support point stays inside the
window; operations that would need points outside it drop those terms
and clear the element's exactness flag instead of erroring.  Axiom
samplers skip pairs whose verdict would depend on dropped terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


class ZeroInverse(ZeroDivisionError):
    pass


class WindowOverflow(ValueError):
    """The result's leading term cannot be represented in the window."""


class ZeroValuation(ValueError):
    """The zero element has no valuation."""


class NotUnit(ValueError):
    pass


class NotUniformizer(ValueError):
    pass


class NotFiner(ValueError):
    """Pushforward needs a valuation strictly finer than the outer order."""


RloVec = tuple


def rlo_compare(a, b) -> int:
    """Total order on Z^n comparing the last coordinate first."""
    if len(a) != len(b):
        raise ValueError("vectors of different rank")
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return -1 if x < y else 1
    return 0


def rlo_leq(a, b) -> bool:
    return rlo_compare(a, b) <= 0


def rlo_min(vectors) -> RloVec:
    it = iter(vectors)
    best = next(it)
    for v in it:
        if rlo_compare(v, best) < 0:
            best = v
    return best


def project_valuation(value: RloVec, r: int) -> RloVec:
    """Last r components: the induced rank-r valuation of the vector."""
    if not 0 <= r <= len(value):
        raise ValueError("projection rank out of range")
    return tuple(value[len(value) - r:])


def _is_prime(p: int) -> bool:
    # Not ramification.prime_factors: the characteristic is user input, and
    # this stops at its smallest factor, while prime_factors would go on
    # trial-dividing up to the square root of the cofactor, as for
    # p = 2 * (10**17 + 3).
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


@dataclass(frozen=True)
class LaurentField:
    """Truncated F_p((T_1))...((T_n)) with a per-variable exponent window."""

    characteristic: int
    rank: int
    window_lo: tuple
    window_hi: tuple

    def __post_init__(self):
        lo, hi = tuple(self.window_lo), tuple(self.window_hi)
        if any(type(v) is not int for v in (self.characteristic, self.rank, *lo, *hi)):
            raise ValueError("field parameters must be integers")
        if not _is_prime(self.characteristic):
            raise ValueError("characteristic must be prime")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        object.__setattr__(self, "window_lo", lo)
        object.__setattr__(self, "window_hi", hi)
        if len(lo) != self.rank or len(hi) != self.rank:
            raise ValueError("window bounds must match the rank")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("window is empty")

    def in_window(self, exp: RloVec) -> bool:
        return all(a <= e <= b for e, a, b in
                   zip(exp, self.window_lo, self.window_hi))

    def zero(self) -> "LaurentElement":
        return LaurentElement(self, {}, exact=True)

    def one(self) -> "LaurentElement":
        return self.monomial((0,) * self.rank, 1)

    def monomial(self, exp, coeff: int = 1) -> "LaurentElement":
        exp = tuple(exp)
        coeff %= self.characteristic
        if not self.in_window(exp):
            raise WindowOverflow(f"exponent {exp} outside the window")
        return LaurentElement(self, {exp: coeff} if coeff else {}, exact=True)

    def variable(self, i: int) -> "LaurentElement":
        """T_i with 1-based index, innermost first."""
        if not 1 <= i <= self.rank:
            raise ValueError("variable index out of range")
        exp = tuple(1 if j == i - 1 else 0 for j in range(self.rank))
        return self.monomial(exp)

    def residue_field(self) -> "LaurentField":
        """Drop the outermost variable."""
        if self.rank < 2:
            raise NotFiner("rank-1 fields have a trivial residue tower")
        return LaurentField(self.characteristic, self.rank - 1,
                            self.window_lo[:-1], self.window_hi[:-1])

    def random_element(self, rng: random.Random, max_terms: int = 4,
                       nonzero: bool = False, lo=None, hi=None
                       ) -> "LaurentElement":
        lo = tuple(lo) if lo is not None else self.window_lo
        hi = tuple(hi) if hi is not None else self.window_hi
        support = {}
        for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
            exp = tuple(rng.randint(a, b) for a, b in zip(lo, hi))
            support[exp] = rng.randint(1, self.characteristic - 1)
        if nonzero and not support:
            exp = tuple(rng.randint(a, b) for a, b in zip(lo, hi))
            support[exp] = 1
        return LaurentElement(self, support, exact=True)


class LaurentElement:
    """Sparse truncated Laurent series; immutable after construction."""

    __slots__ = ("field", "support", "exact")

    def __init__(self, field: LaurentField, support: dict, exact: bool = True):
        p = field.characteristic
        cleaned = {}
        for exp, coeff in support.items():
            c = coeff % p
            if c:
                exp = tuple(exp)
                if not field.in_window(exp):
                    raise WindowOverflow(f"support point {exp} outside window")
                cleaned[exp] = c
        self.field = field
        self.support = cleaned
        self.exact = exact

    def is_zero(self) -> bool:
        return not self.support

    def __eq__(self, other):
        return (isinstance(other, LaurentElement) and self.field == other.field
                and self.support == other.support)

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.support.items()))))

    def __repr__(self):
        if not self.support:
            return "0"
        bits = []
        for exp in sorted(self.support, key=lambda e: tuple(reversed(e))):
            mono = "*".join(f"T{i+1}^{e}" for i, e in enumerate(exp) if e)
            c = self.support[exp]
            bits.append(f"{c}{'*' + mono if mono else ''}")
        tail = "" if self.exact else " (inexact)"
        return " + ".join(bits) + tail

    def _same_field(self, other: "LaurentElement"):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def add(self, other: "LaurentElement") -> "LaurentElement":
        self._same_field(other)
        out = dict(self.support)
        for exp, c in other.support.items():
            out[exp] = out.get(exp, 0) + c
        return LaurentElement(self.field, out,
                              exact=self.exact and other.exact)

    def neg(self) -> "LaurentElement":
        p = self.field.characteristic
        return LaurentElement(self.field,
                              {e: p - c for e, c in self.support.items()},
                              exact=self.exact)

    def sub(self, other: "LaurentElement") -> "LaurentElement":
        return self.add(other.neg())

    def mul(self, other: "LaurentElement") -> "LaurentElement":
        self._same_field(other)
        field = self.field
        out: dict = {}
        truncated = False
        for e1, c1 in self.support.items():
            for e2, c2 in other.support.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                if not field.in_window(exp):
                    truncated = True
                    continue
                out[exp] = out.get(exp, 0) + c1 * c2
        exact = self.exact and other.exact and not truncated
        return LaurentElement(field, out, exact=exact)

    def power(self, n: int) -> "LaurentElement":
        if n < 0:
            return self.inverse().power(-n)
        out = self.field.one()
        for _ in range(n):
            out = out.mul(self)
        return out

    def leading(self) -> tuple[RloVec, int]:
        """RLO-minimal support point and its coefficient."""
        if self.is_zero():
            raise ZeroValuation("zero element has no leading term")
        exp = rlo_min(self.support)
        return exp, self.support[exp]

    def inverse(self) -> "LaurentElement":
        """Geometric-series inverse, truncated to the window.

        The result is marked inexact when any true term was dropped;
        raises WindowOverflow when even the leading term of the inverse
        falls outside the window.
        """
        if self.is_zero():
            raise ZeroInverse("cannot invert zero")
        field = self.field
        p = field.characteristic
        exp0, c0 = self.leading()
        inv_exp = tuple(-e for e in exp0)
        if not field.in_window(inv_exp):
            raise WindowOverflow(
                f"leading term of the inverse at {inv_exp} exits the window")
        c0_inv = pow(c0, p - 2, p)
        lead_inv = LaurentElement(field, {inv_exp: c0_inv}, exact=True)
        # x = c0 T^e0 (1 + u) with u strictly RLO-positive
        normalized = self.mul(lead_inv)
        truncated = not normalized.exact
        u = LaurentElement(field, {e: c for e, c in normalized.support.items()
                                   if any(e)}, exact=True)
        series = field.one()
        term = field.one()
        while True:
            term = term.mul(u.neg())
            truncated = truncated or not term.exact
            if term.is_zero():
                break
            series = series.add(term)
        out = series.mul(lead_inv)
        truncated = truncated or not out.exact
        return LaurentElement(field, out.support,
                              exact=self.exact and not truncated)


def laurent_from_json(data: dict) -> LaurentElement:
    field = LaurentField(data["p"], data["rank"],
                         tuple(data["window"]["lo"]), tuple(data["window"]["hi"]))
    support = {tuple(item["exp"]): item["coeff"] for item in data["support"]}
    if any(len(e) != field.rank or any(type(v) is not int for v in (*e, c))
           for e, c in support.items()):
        raise ValueError("support terms need integer exponents of the field's rank")
    return LaurentElement(field, support)


def laurent_to_json(x: LaurentElement) -> dict:
    return {"p": x.field.characteristic, "rank": x.field.rank,
            "window": {"lo": list(x.field.window_lo),
                       "hi": list(x.field.window_hi)},
            "support": [{"exp": list(e), "coeff": c}
                        for e, c in sorted(x.support.items())]}


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

def rank_n_valuation(x: LaurentElement) -> RloVec:
    """Standard rank-n valuation: the RLO-minimal support point."""
    if x.is_zero():
        raise ZeroValuation("v(0) is undefined")
    return x.leading()[0]


def outer_order(x: LaurentElement) -> int:
    """Order in the outermost variable (the coarsest rank-1 valuation)."""
    return rank_n_valuation(x)[-1]


def outer_residue(x: LaurentElement) -> LaurentElement:
    """Residue modulo the outermost variable, as a rank n-1 element.

    Defined on the valuation ring of the outer order; the class of x is
    the slice of terms with outermost exponent zero.
    """
    if not x.is_zero() and outer_order(x) < 0:
        raise NotUnit("element is not in the outer valuation ring")
    res_field = x.field.residue_field()
    support = {e[:-1]: c for e, c in x.support.items() if e[-1] == 0}
    return LaurentElement(res_field, support, exact=x.exact)


def composite_valuation(x: LaurentElement) -> RloVec:
    """Valuation through the residue tower: w_i orders with q_i strips.

    Independent route to the same vector as rank_n_valuation: take the
    outer order, divide by the outer uniformizer, pass to the residue
    field, and recurse.
    """
    if x.is_zero():
        raise ZeroValuation("v(0) is undefined")
    field = x.field
    w = outer_order(x)
    if field.rank == 1:
        return (w,)
    t = field.variable(field.rank)
    unit = x.mul(t.power(-w))
    return composite_valuation(outer_residue(unit)) + (w,)


def pushforward_valuation(x: LaurentElement) -> RloVec:
    """Pushforward of the standard valuation along the outer order.

    ``x`` must be an outer unit; the value of its residue class is the
    truncation of v(x) to the inner n-1 coordinates, independent of the
    representative (1 + outer-maximal-ideal elements are units).
    """
    if x.field.rank < 2:
        raise NotFiner("pushforward needs rank at least 2")
    if x.is_zero() or outer_order(x) != 0:
        raise NotUnit("pushforward needs an outer unit representative")
    return rank_n_valuation(x)[:-1]


def pullback_valuation(x: LaurentElement, t: LaurentElement) -> RloVec:
    """(v o w)_t(x) = (v(q(x t^-w(x))), w(x)) for an outer uniformizer t."""
    if x.is_zero():
        raise ZeroValuation("v(0) is undefined")
    x._same_field(t)
    if t.is_zero() or outer_order(t) != 1:
        raise NotUniformizer("t must have outer order 1")
    w = outer_order(x)
    unit = x.mul(t.power(-w))
    if x.field.rank == 1:
        if unit.is_zero() or outer_order(unit) != 0:
            raise WindowOverflow("unit part lost to truncation")
        return (w,)
    residue = outer_residue(unit)
    if residue.is_zero():
        raise WindowOverflow("residue lost to truncation")
    return rank_n_valuation(residue) + (w,)


@dataclass
class SampleReport:
    name: str
    samples: int
    violations: list
    skipped: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations


def stack_roundtrip(field: LaurentField, seed: int = 0,
                    samples: int = 1000,
                    uniformizer: LaurentElement | None = None) -> SampleReport:
    """Pushforward-then-pullback and pullback-then-pushforward checks."""
    rng = random.Random(seed)
    t = uniformizer if uniformizer is not None else field.variable(field.rank)
    violations = []
    skipped = 0
    # keep the outer exponents in the middle half so uniformizer shifts
    # never leave the window and every sample gets a verdict
    lo = list(field.window_lo)
    hi = list(field.window_hi)
    lo[-1] = lo[-1] // 2
    hi[-1] = hi[-1] // 2
    for i in range(samples):
        x = field.random_element(rng, nonzero=True, lo=lo, hi=hi)
        v = rank_n_valuation(x)
        if field.rank == 1:
            if pullback_valuation(x, t) != v:
                violations.append((i, x.support, v))
            continue
        w = v[-1]
        shifted = x.mul(t.power(-w))
        if not shifted.exact:
            skipped += 1
            continue
        unit_val = pushforward_valuation(shifted)
        # pull the pushed value back through the uniformizer
        pulled = pullback_valuation(x, t)
        if pulled != unit_val + (w,) or pulled != v:
            violations.append((i, x.support, v, pulled))
    return SampleReport("stack_roundtrip", samples, violations, skipped)


def valuation_axiom_sampler(field: LaurentField, seed: int = 0,
                            samples: int = 500) -> SampleReport:
    """Multiplicativity and the ultrametric law on random pairs.

    Multiplicativity is checked whenever the leading product exponent is
    representable; a pair whose product would leave the window is skipped
    and counted.  The ultrametric law is checked on every pair: sampled
    elements are exact, and so is their sum.
    """
    rng = random.Random(seed)
    violations = []
    skipped = 0
    for i in range(samples):
        x = field.random_element(rng, nonzero=True)
        y = field.random_element(rng, nonzero=True)
        vx, vy = rank_n_valuation(x), rank_n_valuation(y)
        expected = tuple(a + b for a, b in zip(vx, vy))
        if field.in_window(expected):
            prod = x.mul(y)
            if prod.is_zero() or rank_n_valuation(prod) != expected:
                violations.append(("mul", i, x.support, y.support))
        else:
            skipped += 1
        s = x.add(y)
        if s.is_zero():
            continue
        vs = rank_n_valuation(s)
        lower = vx if rlo_leq(vx, vy) else vy
        if rlo_compare(vs, lower) < 0:
            violations.append(("ultrametric", i, x.support, y.support))
        if vx != vy and vs != lower:
            violations.append(("ultrametric_eq", i, x.support, y.support))
    return SampleReport("valuation_axioms", samples, violations, skipped)
