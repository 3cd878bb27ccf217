"""Exact arithmetic for finitely generated abelian groups.

Every group is kept in Smith normal form: a free rank together with an
ascending divisibility chain of invariant factors (each >= 2).  Canonical
coordinates list the torsion generators first, then the free generators,
so a coordinate vector for ``FgAbGroup(r, (f1, ..., ft))`` has ``t + r``
entries and entry ``i < t`` is reduced modulo ``f_i``.

A map is an ``AbHom``, and ``AbHom(domain, codomain, matrix)`` is its one
constructor.  Maps are hash-consed: the constructor returns the live map
of an equal value when there is one, so equal maps are one object and
equality is identity, and it validates a value only when it builds it.

Presentations and integer solving go through a witnessed Smith normal
form (Cohen, GTM 138, section 2.4).  A subgroup is a ``SubgroupKey``: the
canonical Hermite normal form of its preimage lattice in Z^rank, so equal
subgroups have equal keys.  The key answers membership (``contains``) and
intersection (``meet``), and presents its subgroup on the first read of
``presentation``.  A map holds one normal form, the Hermite key ``_graph``
of its graph, cached per value like ``kernel``, ``image`` and
``cokernel``, which are read off it; every preimage is a remainder modulo
it.  Each Hermite key comes from one bounded memo of recent inputs.
Hermite keys stay reduced where Smith transform columns blow up (Kannan
and Bachem, SIAM J. Comput. 8(4), 1979).  Everything runs over
plain Python integers, so there is no overflow and no floating point.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product as _iproduct
from operator import add as _add, mul as _mul

Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# integer matrix utilities
# ---------------------------------------------------------------------------

def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b) -> Matrix:
    if a and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    return _matmul(a, b, len(b[0]) if b else 0)


def _matmul(a, b, ncols: int) -> Matrix:
    """``a @ b`` without shape checks.

    ``ncols`` is the width of ``b``, passed because a matrix with no rows
    does not carry it.
    """
    if not b:
        return [[0] * ncols for _ in a]
    cols = list(zip(*b))
    return [[sum(map(_mul, row, col)) for col in cols] for row in a]


def mat_vec(a, v) -> list[int]:
    return [sum(map(_mul, row, v)) for row in a]


@dataclass
class SmithDecomposition:
    """Witnessed Smith normal form: left @ M @ right is diagonal."""

    diagonal: list[int]
    left: Matrix
    right: Matrix
    left_inv: Matrix
    right_inv: Matrix


def smith_decompose(m: Matrix) -> SmithDecomposition:
    """Diagonalize an integer matrix with unimodular transforms.

    Returns nonnegative diagonal entries forming a divisibility chain
    (zeros trailing).  ``left @ m @ right`` equals the diagonal matrix and
    the inverse transforms are tracked alongside.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    left, left_inv = identity_matrix(rows), identity_matrix(rows)
    right, right_inv = identity_matrix(cols), identity_matrix(cols)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]
        for r in left_inv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]
        right_inv[i], right_inv[j] = right_inv[j], right_inv[i]

    def row_add(i, j, q):
        # row i += q * row j
        if not q:
            return
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        left[i] = [x + q * y for x, y in zip(left[i], left[j])]
        for r in left_inv:
            r[j] -= q * r[i]

    def col_add(i, j, q):
        # col i += q * col j
        if not q:
            return
        for r in a:
            r[i] += q * r[j]
        for r in right:
            r[i] += q * r[j]
        right_inv[j] = [x - q * y for x, y in zip(right_inv[j], right_inv[i])]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]
        for r in left_inv:
            r[i] = -r[i]

    n = min(rows, cols)
    t = 0
    while t < n:
        # locate a pivot of minimal absolute value in the remaining block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        # clear row t and column t; restart whenever a remainder survives
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                q = a[i][t] // a[t][t]
                row_add(i, t, -q)
                if a[i][t]:
                    row_swap(t, i)
                    dirty = True
            for j in range(t + 1, cols):
                q = a[t][j] // a[t][t]
                col_add(j, t, -q)
                if a[t][j]:
                    col_swap(t, j)
                    dirty = True
        if a[t][t] < 0:
            row_negate(t)
        # enforce divisibility against the untouched block
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1
    diagonal = [a[i][i] for i in range(n)]
    return SmithDecomposition(diagonal, left, right, left_inv, right_inv)


def solve_integer(m: Matrix, bs: list[list[int]],
                  cols: int | None = None) -> list[list[int]] | None:
    """One integer solution of ``m @ x = b`` per ``b`` in ``bs``, or None
    when some ``b`` has none.  One Smith decomposition serves every column.
    """
    rows = len(m)
    if cols is None:
        cols = len(m[0]) if rows else 0
    if rows == 0 or not bs:
        return [[0] * cols for _ in bs]
    snf = smith_decompose(m)
    diag = snf.diagonal + [0] * (rows - len(snf.diagonal))
    pad = [0] * (len(snf.right) - len(snf.diagonal))
    xs = []
    for b in bs:
        ub = mat_vec(snf.left, b)
        if any(u % d if d else u for u, d in zip(ub, diag)):
            return None
        y = [u // d if d else 0 for u, d in zip(ub, snf.diagonal)]
        xs.append(mat_vec(snf.right, y + pad))
    return xs


# ---------------------------------------------------------------------------
# groups and homomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group in Smith normal form."""

    free_rank: int
    invariant_factors: tuple[int, ...] = ()
    # Per-coordinate modulus, 0 meaning a free coordinate, and the number of
    # coordinates: derived once here, so they take no part in equality,
    # hashing and ``repr``.
    moduli: tuple[int, ...] = field(init=False, compare=False, repr=False)
    rank: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        fs = tuple(int(f) for f in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        prev = None
        for f in fs:
            if f < 2:
                raise ValueError("invariant factors must be >= 2")
            if prev is not None and f % prev:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = f
        object.__setattr__(self, "moduli", fs + (0,) * self.free_rank)
        object.__setattr__(self, "rank", len(fs) + self.free_rank)

    def reduce(self, vector) -> tuple[int, ...]:
        mods = self.moduli
        if len(vector) != len(mods):
            raise ValueError("coordinate length mismatch")
        return tuple(v % m if m else v for v, m in zip(vector, mods))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def add(self, x, y) -> tuple[int, ...]:
        return self.reduce([a + b for a, b in zip(x, y)])

    def neg(self, x) -> tuple[int, ...]:
        return self.reduce([-a for a in x])

    def scale(self, n: int, x) -> tuple[int, ...]:
        return self.reduce([n * a for a in x])

    def is_trivial(self) -> bool:
        return self.rank == 0

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def elements(self):
        """Iterate all coordinate vectors (finite groups only)."""
        if not self.is_finite():
            raise ValueError("cannot enumerate an infinite group")
        return _iproduct(*(range(f) for f in self.invariant_factors))

    def element_order(self, x) -> int | float:
        x = self.reduce(x)
        if any(v and m == 0 for v, m in zip(x, self.moduli)):
            return math.inf
        n = 1
        for v, m in zip(x, self.moduli):
            if v:
                n = math.lcm(n, m // math.gcd(v, m))
        return n

    def relation_columns(self) -> list[list[int]]:
        """Columns generating the relation lattice in Z^rank."""
        return [[f if i == j else 0 for i in range(self.rank)]
                for j, f in enumerate(self.invariant_factors)]

    def __str__(self):
        parts = [f"Z/{f}" for f in self.invariant_factors] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank,
                "invariant_factors": list(self.invariant_factors)}

    @classmethod
    def from_json(cls, data: dict) -> "FgAbGroup":
        factors = tuple(data.get("invariant_factors", ()))
        if any(type(v) is not int for v in (data["free_rank"], *factors)):
            raise ValueError("free rank and invariant factors must be integers")
        return cls(data["free_rank"], factors)


def group_order(a: FgAbGroup) -> int | float:
    """Product of the invariant factors, or math.inf when free rank > 0."""
    if a.free_rank:
        return math.inf
    return math.prod(a.invariant_factors)


# One live map per value.  The engine runs in one thread, so the lookup and
# the store in ``AbHom.__new__`` need no lock.
_INTERNED: "weakref.WeakValueDictionary[tuple, AbHom]" = weakref.WeakValueDictionary()


class AbHom:
    """Homomorphism between groups in normal form, as an integer matrix.

    Column j holds the image of the j-th canonical domain generator;
    composition is matrix product.  Maps are hash-consed (Filliatre and
    Conchon, "Type-safe modular hash-consing", ML Workshop 2006), so
    equality and hashing are identity.  The cached ``_graph``, ``kernel``,
    ``image`` and ``cokernel`` are not fields.
    """

    domain: FgAbGroup
    codomain: FgAbGroup
    matrix: tuple[tuple[int, ...], ...]

    def __new__(cls, domain: FgAbGroup, codomain: FgAbGroup, matrix) -> "AbHom":
        try:
            rows = tuple(tuple(v % cm for v in row) if cm else tuple(row)
                         for row, cm in zip(matrix, codomain.moduli, strict=True))
        except ValueError:  # from zip: a row too many or too few
            raise ValueError(f"matrix must be {codomain.rank}x{domain.rank}") from None
        key = (domain.free_rank, domain.invariant_factors,
               codomain.free_rank, codomain.invariant_factors, rows)
        h = _INTERNED.get(key)
        if h is None:
            h = object.__new__(cls)
            for name, value in (("domain", domain), ("codomain", codomain),
                                ("matrix", rows)):
                object.__setattr__(h, name, value)
            h.__post_init__()
            _INTERNED[key] = h
        return h

    def __post_init__(self):
        """The row-length and torsion checks, run once per value (``__new__``
        has checked the row count)."""
        rows, cols = self.codomain.rank, self.domain.rank
        m = self.matrix
        if any(len(r) != cols for r in m):
            raise ValueError(f"matrix must be {rows}x{cols}")
        # well-definedness: torsion generators must map to killed elements
        for j, f in enumerate(self.domain.invariant_factors):
            for i, cm in enumerate(self.codomain.moduli):
                v = f * m[i][j]
                if (v % cm if cm else v) != 0:
                    raise ValueError(
                        f"column {j} does not respect torsion modulus {f}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return (f"AbHom(domain={self.domain!r}, codomain={self.codomain!r}, "
                f"matrix={self.matrix!r})")

    @cached_property
    def _graph(self) -> tuple[tuple[int, ...], ...]:
        """``_hnf_key`` of the graph ``{(h(x), x)}`` in codomain + domain,
        spanned by the rows ``(h(e_j), e_j)`` and the relations of both."""
        rows = [col + e for col, e in
                zip(self.image_generators(), identity_matrix(self.domain.rank))]
        return _hnf_key(self.codomain.moduli + self.domain.moduli, rows)

    @cached_property
    def kernel(self) -> "SubgroupKey":
        """``subgroup_key`` of ker h: the domain halves of the ``_graph``
        rows (0, x) with h(x) = 0, echelon and reduced as in ``meet``."""
        k = self.codomain.rank
        return SubgroupKey(self.domain,
                           tuple(r[k:] for r in self._graph if not any(r[:k])))

    @cached_property
    def image(self) -> "SubgroupKey":
        """``subgroup_key`` of the image: the other ``_graph`` rows project
        to an echelon, reduced basis of the image plus the codomain
        relations, which is that lattice's unique Hermite form."""
        k = self.codomain.rank
        return SubgroupKey(self.codomain,
                           tuple(r[:k] for r in self._graph if any(r[:k])))

    @cached_property
    def cokernel(self) -> tuple[FgAbGroup, "AbHom"]:
        """The cokernel with the projection from ``codomain``."""
        return quotient(self.codomain, self.image_generators())

    def __call__(self, vector) -> tuple[int, ...]:
        vector = self.domain.reduce(vector)
        return self.codomain.reduce(mat_vec(self.matrix, vector))

    def compose(self, other: "AbHom") -> "AbHom":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("composition mismatch")
        return AbHom(other.domain, self.codomain,
                     _matmul(self.matrix, other.matrix, other.domain.rank))

    def add(self, other: "AbHom") -> "AbHom":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ValueError("sum of homs needs equal (co)domains")
        return AbHom(self.domain, self.codomain,
                     (map(_add, ra, rb) for ra, rb in zip(self.matrix, other.matrix)))

    def scaled(self, n: int) -> "AbHom":
        return AbHom(self.domain, self.codomain,
                     tuple(tuple(n * v for v in row) for row in self.matrix))

    @staticmethod
    def identity(a: FgAbGroup) -> "AbHom":
        return AbHom(a, a, tuple(tuple(r) for r in identity_matrix(a.rank)))

    @staticmethod
    def zero(domain: FgAbGroup, codomain: FgAbGroup) -> "AbHom":
        return AbHom(domain, codomain,
                     tuple((0,) * domain.rank for _ in range(codomain.rank)))

    @staticmethod
    def multiplication(a: FgAbGroup, n: int) -> "AbHom":
        return AbHom.identity(a).scaled(n)

    @staticmethod
    def from_columns(domain: FgAbGroup, codomain: FgAbGroup,
                     cols: list[list[int]]) -> "AbHom":
        if len(cols) != domain.rank or any(len(c) != codomain.rank for c in cols):
            raise ValueError("need one column per domain generator, of codomain rank")
        return AbHom(domain, codomain,
                     tuple(tuple(col[i] for col in cols) for i in range(codomain.rank)))

    def image_generators(self) -> list[list[int]]:
        return [[self.matrix[i][j] for i in range(self.codomain.rank)]
                for j in range(self.domain.rank)]

    def to_json(self) -> dict:
        return {"domain": self.domain.to_json(),
                "codomain": self.codomain.to_json(),
                "matrix": [list(r) for r in self.matrix]}

    @classmethod
    def from_json(cls, data: dict) -> "AbHom":
        return cls(FgAbGroup.from_json(data["domain"]),
                   FgAbGroup.from_json(data["codomain"]),
                   _int_rows(data["matrix"]))


def _int_rows(matrix) -> tuple[tuple[int, ...], ...]:
    """A JSON matrix as a tuple of rows; an entry that is not an int raises."""
    rows = tuple(tuple(r) for r in matrix)
    if any(type(v) is not int for r in rows for v in r):
        raise ValueError("matrix entries must be integers")
    return rows


# ---------------------------------------------------------------------------
# subgroups, kernels, quotients
# ---------------------------------------------------------------------------

def presentation_from_lattice(k: int, rel_cols: list[list[int]]):
    """Normal form of Z^k modulo the lattice spanned by rel_cols.

    Returns (group, to_new, from_new): ``to_new`` maps old coordinates to
    normal-form coordinates and ``from_new`` holds, per new generator, an
    old-coordinate representative.
    """
    snf = (smith_decompose([[c[i] for c in rel_cols] for i in range(k)]) if rel_cols
           else SmithDecomposition([], identity_matrix(k), [], identity_matrix(k), []))
    diag = snf.diagonal + [0] * (k - len(snf.diagonal))  # 0 marks a free row
    # torsion rows first (snf order is already divisibility-ascending)
    torsion = [(i, d) for i, d in enumerate(diag) if d > 1]
    free = [(i, d) for i, d in enumerate(diag) if d == 0]
    ordered = torsion + free
    group = FgAbGroup(len(free), tuple(d for _, d in torsion))
    rows = [snf.left[i] for i, _ in ordered]

    def to_new(vector):
        return group.reduce(mat_vec(rows, vector))

    from_new = [[snf.left_inv[r][i] for r in range(k)] for i, _ in ordered]
    return group, to_new, from_new


def subgroup_from_generators(ambient: FgAbGroup, gens: list) -> tuple[FgAbGroup, AbHom]:
    """Abstract presentation of the subgroup generated by ``gens``.

    Returns the subgroup in normal form with an injective AbHom into the
    ambient group.
    """
    gens = [ambient.reduce(g) for g in gens]
    # Z^n -> ambient, e_j -> g_j: its kernel is the lattice of relations
    span = AbHom(FgAbGroup(len(gens)), ambient,
                 [[g[i] for g in gens] for i in range(ambient.rank)])
    s, _, from_new = presentation_from_lattice(len(gens), list(span.kernel.rows))
    return s, AbHom.from_columns(s, ambient, [span(rep) for rep in from_new])


def quotient(ambient: FgAbGroup, gens: list) -> tuple[FgAbGroup, AbHom]:
    """Quotient of ``ambient`` by the subgroup generated by ``gens``."""
    rel = ambient.relation_columns() + [list(ambient.reduce(g)) for g in gens]
    q, to_new, _ = presentation_from_lattice(ambient.rank, rel)
    cols = [list(to_new(e)) for e in identity_matrix(ambient.rank)]
    return q, AbHom.from_columns(ambient, q, cols)


def is_surjective(h: AbHom) -> bool:
    return h.image.contains(*identity_matrix(h.codomain.rank))


def is_injective(h: AbHom) -> bool:
    return h.kernel == subgroup_key(h.domain, [])


def is_isomorphism(h: AbHom) -> bool:
    return is_injective(h) and is_surjective(h)


def element_preimages(h: AbHom, ys) -> list[tuple[int, ...]] | None:
    """Some x with h(x) = y for each y in ys, or None when one y has none.

    (y, 0) minus a graph vector (h(x), x) is (0, -x) exactly when h(x) = y,
    so the remainder of (y, 0) modulo ``h._graph`` vanishes on the codomain
    exactly when y is in the image, and x is minus its domain half.
    """
    k, pad = h.codomain.rank, (0,) * h.domain.rank
    rs = [_remainder(h._graph, h.codomain.reduce(y) + pad) for y in ys]
    if any(any(r[:k]) for r in rs):
        return None
    return [h.domain.reduce([-v for v in r[k:]]) for r in rs]


def element_preimage(h: AbHom, y) -> tuple[int, ...] | None:
    """Some x with h(x) = y, or None."""
    return (element_preimages(h, [y]) or [None])[0]


def factor_through(embed: AbHom, h: AbHom) -> AbHom:
    """Solve embed o x = h for x, all columns at once."""
    xs = element_preimages(embed, h.image_generators())
    if xs is None:
        raise ValueError("map does not factor through the subgroup")
    return AbHom.from_columns(h.domain, embed.domain, xs)


# Entries of the ``_hnf_of`` memo.  A run repeats most Hermite keys (94% of
# the ``_hnf_key`` inputs of the ``lattice`` bench workload's batches 0-3 at
# seed 11, run in process), but its working set keeps growing (1,348
# distinct inputs after 4 batches, 2,895 after 40), so an unbounded table
# would grow with the run.  Hit rate and added ``ru_maxrss`` over those 40
# batches, by size: 256 -> 73%, +0 MB; 512 -> 82%, +0.5 MB; 1,024 -> 92%,
# +0.6 MB; 2,048 -> 98.7%, +1.5 MB.
_HNF_MEMO_SIZE = 1024


def _hnf_key(moduli, rows) -> tuple[tuple[int, ...], ...]:
    """Row Hermite normal form of ``rows`` plus ``m * e_i`` per modulus m.

    Echelon rows, positive pivots, entries above a pivot in ``[0, pivot)``:
    two row sets span the same lattice exactly when their keys are equal
    (Cohen, GTM 138, section 2.4).  A modulus 0 marks a free coordinate.
    ``moduli`` is a tuple; the key of each (moduli, rows) comes from the
    bounded memo ``_hnf_of``.
    """
    return _hnf_of(moduli, tuple(map(tuple, rows)))


@lru_cache(maxsize=_HNF_MEMO_SIZE)
def _hnf_of(moduli: tuple[int, ...],
            rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """``_hnf_key`` on tuples.  The relation row ``m * e_c`` is untouched
    until column ``c``, so rows are reduced modulo the moduli throughout and
    entries stay small.  Rows that are their own key are returned as given,
    so the memo's entry and value share them."""
    def red(row):
        return [v % m if m else v for v, m in zip(row, moduli, strict=True)]

    pending = [list(r) for r in {tuple(red(r)) for r in rows} if any(r)]
    basis = []
    for c, f in enumerate(moduli):
        pivot = [f if i == c else 0 for i in range(len(moduli))]
        rest = []
        for r in pending:
            while r[c]:  # Euclid on column c, by unimodular row steps
                q = pivot[c] // r[c]
                pivot, r = r, red([u - q * v for u, v in zip(pivot, r)])
            if any(r):
                rest.append(r)
        pending = rest
        if pivot[c]:
            basis.append((c, pivot if pivot[c] > 0 else [-v for v in pivot]))
    for i, (c, p) in enumerate(basis):
        for _, h in basis[:i]:
            q = h[c] // p[c]
            if q:
                h[:] = [u - q * v for u, v in zip(h, p)]
    key = tuple(tuple(p) for _, p in basis)
    return rows if key == rows else key


def _remainder(key, x) -> list[int] | tuple[int, ...]:
    """x minus the lattice vector that the echelon rows of ``key`` take off
    it, pivot by pivot: all zero exactly when x lies in their lattice."""
    c = 0
    for row in key:
        while not row[c]:  # rows are echelon, so pivots move right
            c += 1
        q = x[c] // row[c]  # a remainder survives to the final check
        if q:
            x = [u - q * v for u, v in zip(x, row)]
    return x


@dataclass(frozen=True)
class SubgroupKey:
    """The subgroup of ``ambient`` whose ``_hnf_key`` is ``rows``: equal exactly
    for equal subgroups.  ``presentation`` is cached and is not a field."""

    ambient: FgAbGroup
    rows: tuple[tuple[int, ...], ...]

    def contains(self, *xs) -> bool:
        """Is every x in the subgroup?"""
        return not any(any(_remainder(self.rows, self.ambient.reduce(x))) for x in xs)

    def meet(self, other: "SubgroupKey") -> "SubgroupKey":
        """The key of the intersection of two subgroups of one group.

        The rows ``[a | a]`` and ``[b | 0]`` plus the relations in both
        halves span ``{(u + v, u) : u in A, v in B}``.  Its echelon rows that
        vanish on the first half span the vectors ``(0, u)`` with ``u`` in
        both A and B.  Their second halves are echelon and reduced: the key
        of the intersection.
        """
        k = self.ambient.rank
        stacked = ([list(a) + list(a) for a in self.rows]
                   + [list(b) + [0] * k for b in other.rows])
        key = _hnf_key(self.ambient.moduli * 2, stacked)
        return SubgroupKey(self.ambient, tuple(r[k:] for r in key if not any(r[:k])))

    @cached_property
    def presentation(self) -> tuple[FgAbGroup, AbHom]:
        """The subgroup in normal form with its embedding into ``ambient``."""
        return subgroup_from_generators(self.ambient, list(self.rows))


def subgroup_key(ambient: FgAbGroup, gens: list) -> SubgroupKey:
    """Canonical key of <gens>: equal exactly for equal subgroups, rows generate it."""
    return SubgroupKey(ambient, _hnf_key(ambient.moduli, gens))


def subgroup_contains(ambient: FgAbGroup, gens: list, *xs) -> bool:
    """Is every x in the subgroup of ambient generated by gens?"""
    return subgroup_key(ambient, gens).contains(*xs)


def fixed_subgroup(ambient: FgAbGroup, endos: list[AbHom]) -> SubgroupKey:
    """Key of the common fixed points of a family of endomorphisms of ``ambient``.

    The fixed set L so far is kept as its key.  An e fixing every key row
    is skipped: the rows generate L, so L lies in ker(e - 1).  Any other e
    cuts L down to L ∩ ker(e - 1).  Families with the same common fixed
    points, such as H and a generating set of H, give the same key.
    """
    key = subgroup_key(ambient, identity_matrix(ambient.rank))  # the whole group
    for e in endos:
        if e.domain != ambient or e.codomain != ambient:
            raise ValueError("endomorphism of the wrong group")
        if all(e(row) == ambient.reduce(row) for row in key.rows):
            continue
        minus_one = AbHom(ambient, ambient, (
            [v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(e.matrix)))
        key = key.meet(minus_one.kernel)
    return key
