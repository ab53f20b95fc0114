"""Exact multivariate polynomial and rational-function arithmetic.

This module provides the algebraic substrate for the rest of foamlab:

* :class:`CoefRing` -- exact coefficient rings (integers, rationals, prime
  fields); no floating point anywhere.
* :class:`MultiPoly` -- immutable multivariate polynomials with a canonical
  graded-lexicographic term order and the grading convention that every
  variable has degree 2.
* :class:`SymPoly` -- a polynomial together with a block partition of its
  variables under which it is invariant (certified by adjacent
  transpositions).
* :class:`RatFun` -- rational functions whose denominators are products of
  pairwise variable differences, exactly the shape produced by the colored
  foam evaluation.
* Symmetric bases (elementary / complete / power sum), the degree-lowering
  derivations ``L_n = -sum_i z_i^{n+1} d/dz_i`` for ``n >= -1``, the prime
  field derivation ``sum_k x_k^2 d/dx_k``, twisted variants, and the scalar
  sequences that parameterize the foam operators.
* The facet alphabet ``x1..xa, y1..ym`` and Laurent polynomials in q, with
  the quantum binomials that graded ranks are checked against.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DivisionNotExact,
    IndexOutOfRange,
    InputError,
    NotInSymmetricSubring,
    WrongRing,
)

Scalar = int | Fraction

# ---------------------------------------------------------------------------
# Coefficient rings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefRing:
    """An exact coefficient ring: ``Z``, ``Q`` or a prime field ``Fp``.

    The rationals are included because the foam operators occasionally need
    the scalar 1/2 (cup/cap convolution terms); all downstream "2 must be
    invertible" constraints are enforced where they arise.
    """

    kind: str  # "Z" | "Q" | "Fp"
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("Z", "Q", "Fp"):
            raise InputError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Fp":
            if self.p is None or self.p < 2 or not _is_prime(self.p):
                raise InputError(f"modulus {self.p!r} is not prime")
        elif self.p is not None:
            raise InputError("modulus only allowed for prime fields")

    # -- scalar arithmetic --------------------------------------------------
    def normalize(self, c: Scalar) -> Scalar:
        # exact type first: isinstance(c, Fraction) goes through the
        # numbers.Rational ABC on every call
        if type(c) is int:
            return c % self.p if self.kind == "Fp" else c
        if self.kind == "Fp":
            if isinstance(c, Fraction):
                if c.denominator % self.p == 0:
                    raise WrongRing(f"denominator {c.denominator} not invertible mod {self.p}")
                return (c.numerator * pow(c.denominator, -1, self.p)) % self.p
            return c % self.p
        if isinstance(c, Fraction):
            if c.denominator == 1:
                return int(c)
            if self.kind == "Z":
                raise WrongRing(f"{c} is not an integer")
        return c

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return self.normalize(a + b)

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return self.normalize(a * b)

    def neg(self, a: Scalar) -> Scalar:
        return self.normalize(-a)

    def divide(self, a: Scalar, b: Scalar) -> Scalar:
        """Exact division a / b; raises if not exact in this ring."""
        if self.kind == "Fp":
            a, b = self.normalize(a), self.normalize(b)
        if b == 0:
            raise ZeroDivisionError("division by zero scalar")
        if self.kind == "Fp":
            return (a * pow(b, -1, self.p)) % self.p
        q = Fraction(a) / Fraction(b)
        if self.kind == "Z" and q.denominator != 1:
            raise DivisionNotExact(f"{a} / {b} is not an integer")
        return self.normalize(q)

    def __str__(self) -> str:
        return self.kind if self.kind != "Fp" else f"F{self.p}"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


ZZ = CoefRing("Z")
QQ = CoefRing("Q")


def GF(p: int) -> CoefRing:
    return CoefRing("Fp", p)


# ---------------------------------------------------------------------------
# Multivariate polynomials
# ---------------------------------------------------------------------------


def _canonical(ring: CoefRing, raw: Mapping[tuple[int, ...], Scalar]) -> dict:
    """Normalize each coefficient once and drop the zeros."""
    norm = ring.normalize
    return {e: c for e, r in raw.items() if (c := norm(r))}


def _grlex_key(exp: tuple[int, ...]) -> tuple:
    # Graded lexicographic: compare by total degree, then lexicographically
    # on the exponent vector in the declared variable order.
    return (sum(exp), exp)


def _heap_key(exp: tuple[int, ...]) -> tuple:
    # Negated grlex key: the smallest heap key is the grlex-largest exponent.
    return (-sum(exp), tuple(-k for k in exp))


class MultiPoly:
    """Immutable exact multivariate polynomial.

    Terms are stored as a map from exponent tuples (one slot per declared
    variable) to nonzero coefficients.  The canonical order used for
    serialization and hashing is graded lexicographic over the declared
    variable order.  The grading convention is ``deg(x_i) = 2``.
    """

    __slots__ = ("ring", "vars", "terms", "_hash")

    def __init__(
        self,
        ring: CoefRing,
        variables: Sequence[str],
        terms: Mapping[tuple[int, ...], Scalar],
    ) -> None:
        self.ring = ring
        self.vars = tuple(variables)
        raw: dict[tuple[int, ...], Scalar] = {}
        n = len(self.vars)
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for {n} variables")
            raw[exp] = raw[exp] + c if exp in raw else c
        self.terms = _canonical(ring, raw)
        self._hash = None

    @classmethod
    def _from_raw(
        cls, ring: CoefRing, variables: tuple[str, ...], raw: Mapping[tuple[int, ...], Scalar]
    ) -> "MultiPoly":
        """A polynomial from terms this module built itself.

        ``raw`` maps exponent tuples of the right length to unreduced
        coefficients (plain ``+``/``*`` sums of ring elements); each is
        normalized once and zeros are dropped.  The exponents are not
        re-validated.
        """
        return cls._from_terms(ring, variables, _canonical(ring, raw))

    @classmethod
    def _from_terms(
        cls, ring: CoefRing, variables: tuple[str, ...], terms: dict
    ) -> "MultiPoly":
        """A polynomial owning ``terms``, already canonical: normalized
        nonzero coefficients at exponent tuples of the right length."""
        self = object.__new__(cls)
        self.ring = ring
        self.vars = variables
        self.terms = terms
        self._hash = None
        return self

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, ring: CoefRing, variables: Sequence[str]) -> "MultiPoly":
        return cls(ring, variables, {})

    @classmethod
    def const(cls, ring: CoefRing, variables: Sequence[str], c: Scalar) -> "MultiPoly":
        variables = tuple(variables)
        return cls._from_raw(ring, variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, ring: CoefRing, variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        i = variables.index(name)
        exp = tuple(1 if k == i else 0 for k in range(len(variables)))
        return cls(ring, variables, {exp: 1})

    # -- basic queries ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Scalar:
        return self.terms.get((0,) * len(self.vars), 0)

    def total_degree(self) -> int:
        """Max exponent-sum over terms (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def qdegree(self) -> int:
        """Degree in the convention where each variable has degree 2."""
        return 2 * self.total_degree() if self.terms else -1

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- arithmetic ---------------------------------------------------------
    def _check_compat(self, other: "MultiPoly") -> None:
        if self.ring != other.ring:
            raise WrongRing(f"mixed rings {self.ring} and {other.ring}")
        if self.vars != other.vars:
            raise ValueError(f"mixed variable alphabets {self.vars} and {other.vars}")

    def _add(self, other, op: Callable[[Scalar, Scalar], Scalar]) -> "MultiPoly":
        """``op(self, other)`` for ``op`` one of ``operator.add`` and
        ``operator.sub``, in one pass: ``self``'s terms are copied as they
        are, and only the exponents of ``other`` are normalized."""
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.ring, self.vars, other)
        self._check_compat(other)
        norm = self.ring.normalize
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            s = norm(op(get(e, 0), c))
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly._from_terms(self.ring, self.vars, out)

    def __add__(self, other):
        return self._add(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._from_raw(self.ring, self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._add(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def _times_term(self, e0: tuple[int, ...], c0: Scalar) -> "MultiPoly":
        """``self * c0 * x^e0`` for a normalized nonzero ``c0``.

        Over Z, Q and F_p a product of nonzero coefficients is nonzero and
        the shift by ``e0`` is injective, so every term maps to one term:
        nothing accumulates and nothing cancels.
        """
        norm = self.ring.normalize
        if any(e0):
            add = operator.add
            terms = {tuple(map(add, e, e0)): norm(c * c0) for e, c in self.terms.items()}
        elif c0 == 1:
            return self
        else:
            terms = {e: norm(c * c0) for e, c in self.terms.items()}
        return MultiPoly._from_terms(self.ring, self.vars, terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = self.ring.normalize(other)
            if c0 == 0:
                return MultiPoly.zero(self.ring, self.vars)
            return self._times_term((0,) * len(self.vars), c0)
        self._check_compat(other)
        if len(other.terms) == 1:
            return self._times_term(*next(iter(other.terms.items())))
        if len(self.terms) == 1:
            return other._times_term(*next(iter(self.terms.items())))
        out: dict[tuple[int, ...], Scalar] = {}
        _add_product(out, self, other)
        return MultiPoly._from_raw(self.ring, self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return MultiPoly.const(self.ring, self.vars, 1)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == self.ring.normalize(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            key = (self.ring, self.vars, tuple(sorted(self.terms.items())))
            self._hash = hash(key)
        return self._hash

    # -- calculus and substitution ------------------------------------------
    def derivative(self, name: str) -> "MultiPoly":
        i = self.vars.index(name)
        out: dict[tuple[int, ...], Scalar] = {}
        for e, c in self.terms.items():
            if e[i]:
                out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        return MultiPoly._from_raw(self.ring, self.vars, out)

    def subs(self, mapping: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials for variables.

        Every variable of ``self`` must be mapped; the images must share one
        variable alphabet, which becomes the alphabet of the result.
        """
        images = [mapping[v] for v in self.vars]
        if not images:
            raise ValueError("cannot substitute into a polynomial with no variables")
        target = images[0]
        result = MultiPoly.zero(target.ring, target.vars)
        pow_cache: dict[tuple[int, int], MultiPoly] = {}

        def power(i: int, k: int) -> MultiPoly:
            key = (i, k)
            if key not in pow_cache:
                pow_cache[key] = images[i] ** k
            return pow_cache[key]

        for e, c in self.terms.items():
            term = MultiPoly.const(target.ring, target.vars, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            result = result + term
        return result

    def _remapped(self, variables: tuple[str, ...], positions: Sequence[int]) -> "MultiPoly":
        """This polynomial on ``variables``, variable ``k`` at slot
        ``positions[k]`` and exponent 0 elsewhere.  ``positions`` is injective,
        so each term keeps its canonical coefficient; one gather per term."""
        n = len(self.vars)
        source = [n] * len(variables)
        for k, pos in enumerate(positions):
            source[pos] = k
        if len(source) > 1:
            gather = operator.itemgetter(*source)
        else:
            gather = lambda e: tuple(e[k] for k in source)  # noqa: E731
        terms = {gather(e + (0,)): c for e, c in self.terms.items()}
        return MultiPoly._from_terms(self.ring, variables, terms)

    def extend(self, variables: Sequence[str]) -> "MultiPoly":
        """View this polynomial inside a larger variable alphabet."""
        variables = tuple(variables)
        return self._remapped(variables, [variables.index(v) for v in self.vars])

    def permute_vars(self, perm: Mapping[str, str]) -> "MultiPoly":
        """Apply a variable permutation (a bijection on the alphabet)."""
        pos = {v: i for i, v in enumerate(self.vars)}
        positions = [pos[perm.get(v, v)] for v in self.vars]
        if len(set(positions)) != len(positions):
            raise ValueError(f"{dict(perm)} is not a bijection on {self.vars}")
        return self._remapped(self.vars, positions)

    def map_coefficients(self, ring: CoefRing, fn: Callable[[Scalar], Scalar]) -> "MultiPoly":
        return MultiPoly(ring, self.vars, {e: fn(c) for e, c in self.terms.items()})

    # -- division -----------------------------------------------------------
    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division; raises :class:`DivisionNotExact` on remainder.

        A one-term divisor ``c * x^e`` divides each term on its own: its
        exponent minus ``e``, its coefficient over ``c``.  Any other divisor
        goes through long division, whose remainder's leading term comes
        from a heap of grlex keys with lazy deletion: an exponent that
        cancels stays in the heap and is skipped when it is popped.  Both
        report the grlex-largest term that does not divide, with the same
        error.
        """
        self._check_compat(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        ring = self.ring
        norm = ring.normalize
        lead = max(divisor.terms, key=_grlex_key)
        lead_c = divisor.terms[lead]
        # over a field the leading coefficient is inverted once per call;
        # over Z ring.divide raises when a quotient coefficient is not integral
        if ring.kind == "Fp":
            inv = pow(lead_c, -1, ring.p)
        elif ring.kind == "Q":
            inv = 1 / Fraction(lead_c)
        else:
            inv = None
        if len(divisor.terms) == 1:
            quo = self._term_quotient(lead, lead_c, inv)
            if quo is not None:
                return quo
            # some term does not divide: long division raises for the
            # grlex-largest one
        rem = dict(self.terms)
        heap = [(_heap_key(e), e) for e in rem]
        heapq.heapify(heap)
        quo: dict[tuple[int, ...], Scalar] = {}
        while heap:
            e = heapq.heappop(heap)[1]
            c = rem.get(e)
            if c is None:
                continue
            qe = tuple(map(operator.sub, e, lead))
            if min(qe, default=0) < 0:
                raise DivisionNotExact("leading monomial not divisible")
            qc = ring.divide(c, lead_c) if inv is None else norm(c * inv)
            quo[qe] = qc
            # rem -= qc * x^qe * divisor
            for de, dc in divisor.terms.items():
                te = tuple(map(operator.add, qe, de))
                old = rem.get(te)
                if old is None:
                    heapq.heappush(heap, (_heap_key(te), te))
                    old = 0
                s = norm(old - qc * dc)
                if s == 0:
                    rem.pop(te, None)
                else:
                    rem[te] = s
        return MultiPoly._from_raw(ring, self.vars, quo)

    def _term_quotient(
        self, e0: tuple[int, ...], c0: Scalar, inv: Scalar | None
    ) -> "MultiPoly | None":
        """``self / (c0 * x^e0)`` term by term, or None if some term does
        not divide; ``inv`` is ``1 / c0`` over a field and None over Z."""
        if c0 == 1 and not any(e0):
            return self
        ring, norm, sub = self.ring, self.ring.normalize, operator.sub
        shift = any(e0)
        terms: dict[tuple[int, ...], Scalar] = {}
        for e, c in self.terms.items():
            if shift:
                e = tuple(map(sub, e, e0))
                if min(e) < 0:
                    return None
            if inv is not None:
                terms[e] = norm(c * inv)
                continue
            try:
                terms[e] = ring.divide(c, c0)
            except DivisionNotExact:
                return None
        return MultiPoly._from_terms(ring, self.vars, terms)

    # -- serialization ------------------------------------------------------
    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for v, k in zip(self.vars, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    __repr__ = __str__


def _add_product(out: dict, a: MultiPoly, b: MultiPoly) -> None:
    """Add the terms of ``a * b`` into ``out``, unreduced; ``a`` and ``b``
    share one alphabet."""
    get, add = out.get, operator.add
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2


def _sum_of_products(
    ring: CoefRing, variables: tuple[str, ...], pairs: Iterable[tuple[MultiPoly, MultiPoly]]
) -> MultiPoly:
    """``sum a * b`` over ``pairs``, every factor over ``ring`` on
    ``variables``: all the products accumulate in one dict of unreduced
    coefficients, normalized once, so no polynomial is built per ``+``.  A
    pair with a zero factor adds nothing."""
    out: dict[tuple[int, ...], Scalar] = {}
    for a, b in pairs:
        if not (a.ring is ring is b.ring or a.ring == ring == b.ring):
            raise WrongRing(f"mixed rings {a.ring}, {b.ring} and {ring}")
        if a.vars != variables or b.vars != variables:
            raise ValueError(f"mixed variable alphabets {a.vars}, {b.vars} and {variables}")
        _add_product(out, a, b)
    return MultiPoly._from_raw(ring, variables, out)


# ---------------------------------------------------------------------------
# Symmetric polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymPoly:
    """A polynomial invariant under a product of symmetric groups.

    ``blocks`` partitions the variable tuple into consecutive groups; the
    polynomial must be invariant under permutations inside each block.
    :func:`is_symmetric` checks it: every term carries the coefficient of its
    exponent sorted inside each block, and the orbits of the sorted
    exponents add up to the number of terms.
    """

    poly: MultiPoly
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.blocks) != len(self.poly.vars):
            raise ValueError("block sizes must partition the variable alphabet")
        if not self.is_invariant():
            raise NotInSymmetricSubring(
                f"{self.poly} is not invariant under blocks {self.blocks}"
            )

    def is_invariant(self) -> bool:
        return is_symmetric(self.poly, self.blocks)


def facet_vars(a: int, m: int = 0) -> tuple[str, ...]:
    """The alphabet of a thickness-``a`` facet: ``x1..xa`` inside, then
    ``y1..ym`` outside."""
    return tuple(f"x{i}" for i in range(1, a + 1)) + tuple(
        f"y{i}" for i in range(1, m + 1)
    )


def is_symmetric(poly: MultiPoly, blocks: Sequence[int] | None = None) -> bool:
    """Whether ``poly`` is invariant under permutations inside each block
    (all variables one block by default).

    It is when every term's exponent, sorted inside each block, carries the
    same coefficient, and the terms fill the whole orbit of every sorted
    exponent.
    """
    n = len(poly.vars)
    bounds = []
    start = 0
    for b in (n,) if blocks is None else blocks:
        bounds.append((start, start + b))
        start += b
    if bounds == [(0, n)]:
        def block_sorted(e: tuple[int, ...]) -> tuple[int, ...]:
            return tuple(sorted(e, reverse=True))
    else:
        def block_sorted(e: tuple[int, ...]) -> tuple[int, ...]:
            out: list[int] = []
            for lo, hi in bounds:
                out += sorted(e[lo:hi], reverse=True)
            return (*out, *e[start:])

    keyed = [(block_sorted(e), e, c) for e, c in poly.terms.items()]
    coeffs = {e: c for key, e, c in keyed if key == e}
    get = coeffs.get
    if any(get(key) != c for key, _, c in keyed):
        return False
    orbits = 0
    for e in coeffs:
        size = 1
        for lo, hi in bounds:
            size *= math.factorial(hi - lo)
            for _, run in itertools.groupby(e[lo:hi]):
                size //= math.factorial(sum(1 for _ in run))
        orbits += size
    return orbits == len(keyed)


def elementary(ring: CoefRing, variables: Sequence[str], n: int) -> MultiPoly:
    """Elementary symmetric polynomial e_n in the given variables."""
    variables = tuple(variables)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > len(variables):
        return MultiPoly.zero(ring, variables)
    terms = {}
    for combo in itertools.combinations(range(len(variables)), n):
        exp = [0] * len(variables)
        for i in combo:
            exp[i] = 1
        terms[tuple(exp)] = 1
    return MultiPoly(ring, variables, terms)


def complete_homogeneous(ring: CoefRing, variables: Sequence[str], n: int) -> MultiPoly:
    """Complete homogeneous symmetric polynomial h_n."""
    variables = tuple(variables)
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = len(variables)
    terms = {}
    if k == 0:
        return MultiPoly(ring, variables, {(): 1} if n == 0 else {})
    for exp in _compositions(n, k):
        terms[exp] = 1
    return MultiPoly(ring, variables, terms)


def _compositions(total: int, slots: int) -> Iterable[tuple[int, ...]]:
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def power_sum(ring: CoefRing, variables: Sequence[str], n: int) -> MultiPoly:
    """Power sum p_n; by convention p_0 is the number of variables."""
    variables = tuple(variables)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return MultiPoly.const(ring, variables, len(variables))
    terms = {}
    for i in range(len(variables)):
        exp = [0] * len(variables)
        exp[i] = n
        terms[tuple(exp)] = 1
    return MultiPoly(ring, variables, terms)


def symmetric_basis(kind: str, n: int, ring: CoefRing, variables: Sequence[str]) -> SymPoly:
    """Spec-facing constructor for e_n / h_n / p_n as certified SymPoly."""
    fn = {
        "elementary": elementary,
        "complete": complete_homogeneous,
        "power_sum": power_sum,
    }[kind]
    return SymPoly(fn(ring, variables, n), (len(tuple(variables)),))


class ElementaryBasis:
    """Symmetric polynomials in ``variables`` written in ``e_1..e_N``.

    :meth:`to_e` rewrites a symmetric polynomial as a polynomial in the
    elementary symmetric polynomials (the variables ``E1..EN`` of ``e_names``)
    and :meth:`from_e` expands one back.  Both go through partitions
    (Macdonald, *Symmetric Functions and Hall Polynomials*, I.2--I.3).
    :meth:`to_e` reads the Schur coefficients of its input
    (:func:`_schur_coefficients`) and writes each Schur polynomial in ``e``
    (:meth:`schur`).  :meth:`from_e` expands each ``e^alpha`` on partitions
    by one Pieri step ``e^(alpha - u_i) * e_i``.  A converter keeps every
    Schur polynomial and every expansion it builds, so values that share
    one should share one converter.
    """

    def __init__(self, variables: Sequence[str]):
        self.vars = tuple(variables)
        N = len(self.vars)
        self.e_names = evars(N)
        zero = (0,) * N
        # e^alpha -> {partition: coefficient of its orbit sum}, integers
        self._expansions: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {
            zero: {zero: 1}
        }
        # s_lam -> {alpha: coefficient of e^alpha}, integers
        self._schurs: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {
            zero: {zero: 1}
        }

    def to_e(self, poly: MultiPoly) -> MultiPoly:
        """``poly`` as a polynomial in ``e_1..e_N``: its Schur coefficients,
        each Schur polynomial written in ``e``.  Raises
        :class:`NotInSymmetricSubring` unless ``poly`` is symmetric."""
        if poly.vars != self.vars:
            raise ValueError(f"alphabet {poly.vars} is not {self.vars}")
        if not is_symmetric(poly):
            raise NotInSymmetricSubring(f"{poly} is not symmetric")
        return self.from_schur(poly.ring, _schur_coefficients(poly, (len(self.vars),)))

    def from_schur(self, ring: CoefRing, coeffs: Mapping[tuple[int, ...], Scalar]) -> MultiPoly:
        """``sum c * s_lam`` over ``coeffs`` ``{lam: c}``, in ``e_1..e_N``."""
        out: dict[tuple[int, ...], Scalar] = {}
        get = out.get
        norm = ring.normalize
        for lam, c in coeffs.items():
            c = norm(c)
            if c:
                for alpha, k in self.schur(lam).items():
                    out[alpha] = get(alpha, 0) + c * k
        return MultiPoly._from_raw(ring, self.e_names, out)

    def schur(self, lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """The Schur polynomial ``s_lam`` (``lam`` a partition in ``N``
        parts) as ``{alpha: coefficient of e^alpha}``.

        By the Pieri rule ``e_k s_mu`` is the sum of ``s_nu`` over the
        vertical ``k``-strips ``nu / mu`` of at most ``N`` rows
        (:func:`_vertical_strips`).  With ``k`` the length of ``lam`` and
        ``mu`` ``lam`` less its first column, ``lam`` is one such ``nu`` and
        every other lies below ``lam`` in dominance order, so
        ``s_lam = e_k s_mu - sum s_nu`` recurses to ``s_0 = 1``.
        """
        found = self._schurs.get(lam)
        if found is None:
            k = len(lam) - lam.count(0)
            mu = tuple(part - 1 for part in lam[:k]) + lam[k:]
            found = {
                alpha[:k - 1] + (alpha[k - 1] + 1,) + alpha[k:]: c
                for alpha, c in self.schur(mu).items()
            }
            get = found.get
            for nu, _ in _vertical_strips(mu, k):
                if nu != lam:
                    for alpha, c in self.schur(nu).items():
                        found[alpha] = get(alpha, 0) - c
            found = {alpha: c for alpha, c in found.items() if c}
            self._schurs[lam] = found
        return found

    def from_e(self, epoly: MultiPoly) -> MultiPoly:
        """Expand a polynomial in ``e_1..e_N`` back into ``variables``."""
        if epoly.vars != self.e_names:
            raise ValueError(f"alphabet {epoly.vars} is not {self.e_names}")
        return self._expand(epoly.ring, epoly.terms)

    def _expand(self, ring: CoefRing, terms: Mapping[tuple[int, ...], Scalar]) -> MultiPoly:
        """``sum c * e^alpha`` over ``terms`` ``{alpha: c}``: summed on
        partitions, then each partition's orbit written out."""
        coeffs: dict[tuple[int, ...], Scalar] = {}
        get = coeffs.get
        for alpha, c in terms.items():
            for lam, k in self._expansion(alpha).items():
                coeffs[lam] = get(lam, 0) + c * k
        out: dict[tuple[int, ...], Scalar] = {}
        norm = ring.normalize
        for lam, c in coeffs.items():
            c = norm(c)
            if c:
                out.update(dict.fromkeys(_distinct_permutations(lam), c))
        return MultiPoly._from_terms(ring, self.vars, out)

    def _expansion(self, alpha: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """``e^alpha`` as ``{partition: coefficient}``."""
        found = self._expansions.get(alpha)
        if found is None:
            i = next(j for j, a in enumerate(alpha) if a)
            found = self._pieri(
                self._expansion(alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]), i + 1
            )
            self._expansions[alpha] = found
        return found

    def _pieri(
        self, f: Mapping[tuple[int, ...], int], r: int
    ) -> dict[tuple[int, ...], int]:
        """``f * e_r`` for ``f`` given by its coefficients at partitions.

        The product's coefficient at a partition ``nu`` sums ``f`` at the
        sorted ``nu - 1_S`` over the ``r``-sets ``S`` of positions, so each
        partition ``mu`` of ``f`` adds ``f[mu]`` times the number of such
        ``S`` to every ``nu = mu + 1_S`` that is a partition: the vertical
        strips on ``mu`` (:func:`_vertical_strips`).
        """
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for mu, c in f.items():
            for nu, w in _vertical_strips(mu, r):
                out[nu] = get(nu, 0) + c * w
        return {nu: c for nu, c in out.items() if c}


def _vertical_strips(mu: tuple[int, ...], r: int) -> list[tuple[tuple[int, ...], int]]:
    """Each partition ``nu = mu + 1_S`` over the ``r``-sets ``S`` of
    positions, once, with the number of ``r``-sets ``S'`` for which
    ``nu - 1_S'`` sorts to ``mu``.

    Built run by run of equal parts of ``mu``: adding 1 to ``t`` parts of
    a run keeps the parts decreasing only on its first ``t``.  Those ``t``
    parts join the untouched end of the run above when its parts are one
    larger, and taking 1 from any ``t`` parts of that joined run of
    ``nu`` sorts back to ``mu``: ``C(len, t)`` ways per run.
    """
    # (nu so far, parts still to add, count, untouched parts of the last run)
    states = [(mu, r, 1, 0)]
    first, above = 0, None
    for part, run_parts in itertools.groupby(mu):
        length = sum(1 for _ in run_parts)
        joins = above == part + 1
        grown = []
        for nu, left, w, rest in states:
            grown.append((nu, left, w, length))
            moved = list(nu)
            for t in range(1, min(length, left) + 1):
                moved[first + t - 1] += 1
                run = t + rest if joins else t
                grown.append((tuple(moved), left - t, w * math.comb(run, t), length - t))
        states = grown
        first, above = first + length, part
    return [(nu, w) for nu, left, w, _ in states if not left]


def _distinct_permutations(exp: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every distinct rearrangement of ``exp``, each once, in lexicographically
    decreasing order.

    Starts from ``exp`` sorted decreasing and steps to the previous
    permutation in place: find the last descent ``a[i] > a[i+1]``, swap
    ``a[i]`` with the last entry after it that is smaller, and reverse the
    tail after ``i``.  The package passes partitions, so there the sort only
    copies.
    """
    a = sorted(exp, reverse=True)
    n = len(a)
    while True:
        yield tuple(a)
        i = n - 2
        while i >= 0 and a[i] <= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] >= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def to_elementary(poly: MultiPoly) -> MultiPoly:
    """Rewrite a symmetric polynomial in the elementary symmetric generators.

    Returns a polynomial in variables ``E1..Ek`` such that substituting
    ``Ei -> e_i(vars)`` recovers the input; see :class:`ElementaryBasis`.
    """
    return ElementaryBasis(poly.vars).to_e(poly)


def from_elementary(epoly: MultiPoly, variables: Sequence[str]) -> MultiPoly:
    """Substitute E_i -> e_i(variables) into a polynomial in E-variables."""
    if not epoly.vars:
        raise ValueError("no variables")
    basis = ElementaryBasis(variables)
    N = len(basis.vars)
    index = []
    for name in epoly.vars:
        if not name.startswith("E") or int(name[1:]) < 0:
            raise ValueError(f"expected E-variables, got {name}")
        index.append(int(name[1:]))
    terms: dict[tuple[int, ...], Scalar] = {}
    for e, c in epoly.terms.items():
        alpha = [0] * N
        for i, k in zip(index, e):
            if k and i:
                if i > N:  # e_i vanishes on fewer than i variables
                    break
                alpha[i - 1] += k
        else:
            key = tuple(alpha)
            terms[key] = terms.get(key, 0) + c
    return basis._expand(epoly.ring, terms)


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------


def witt_act(n: int, q: MultiPoly) -> MultiPoly:
    """The degree-2n derivation ``-sum_i z_i^{n+1} d/dz_i`` for n >= -1:
    each factor ``z_i^k`` of a term, ``k > 0``, gives ``-k z_i^{k+n}``."""
    if n < -1:
        raise ValueError("index must be at least -1")
    out: dict[tuple[int, ...], Scalar] = {}
    get = out.get
    for e, c in q.terms.items():
        for i, k in enumerate(e):
            if k:
                ne = e[:i] + (k + n,) + e[i + 1:]
                out[ne] = get(ne, 0) - k * c
    return MultiPoly._from_raw(q.ring, q.vars, out)


def p_derivation(q: MultiPoly, iterate: int = 1) -> MultiPoly:
    """Apply ``sum_k x_k^2 d/dx_k = -L_1`` ``iterate`` times (prime field only)."""
    if q.ring.kind != "Fp":
        raise WrongRing("the p-derivation is defined over prime fields")
    if iterate < 1:
        raise ValueError("iterate must be >= 1")
    out = q
    for _ in range(iterate):
        out = -witt_act(1, out)
    return out


def twisted_p_derivation(q: MultiPoly, twist: MultiPoly, iterate: int = 1) -> MultiPoly:
    """Apply ``P -> dP + twist*P`` ``iterate`` times (prime field only)."""
    if q.ring.kind != "Fp":
        raise WrongRing("the twisted p-derivation is defined over prime fields")
    out = q
    for _ in range(iterate):
        out = p_derivation(out) + twist * out
    return out


# ---------------------------------------------------------------------------
# Scalar sequences for the foam operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WittSequence:
    """A scalar sequence (lambda_n), n >= -1, with lambda_{-1} = 0 and
    ``n*lambda_n - m*lambda_m = (n-m)*lambda_{m+n}``.

    Either closed-form linear (``lambda_n = slope*(n+1)``) or an explicit
    finite table.  Queries beyond ``n_max`` raise instead of extrapolating.
    """

    ring: CoefRing
    kind: str  # "linear" | "table"
    slope: Scalar = 0
    table: tuple[Scalar, ...] = ()  # values for n = -1, 0, 1, ...
    n_max: int = 8

    @classmethod
    def linear(cls, ring: CoefRing, slope: Scalar, n_max: int = 8) -> "WittSequence":
        return cls(ring, "linear", ring.normalize(slope), (), n_max)

    @classmethod
    def zero(cls, ring: CoefRing, n_max: int = 8) -> "WittSequence":
        return cls.linear(ring, 0, n_max)

    @classmethod
    def from_table(cls, ring: CoefRing, values: Sequence[Scalar]) -> "WittSequence":
        vals = tuple(ring.normalize(v) for v in values)
        return cls(ring, "table", 0, vals, len(vals) - 2)

    def __call__(self, n: int) -> Scalar:
        if n < -1 or n > self.n_max:
            raise IndexOutOfRange(f"index {n} outside [-1, {self.n_max}]")
        if self.kind == "linear":
            return self.ring.mul(self.slope, n + 1)
        return self.table[n + 1]

    def is_identically_zero(self) -> bool:
        return all(self(n) == 0 for n in range(-1, self.n_max + 1))


def witt_sequence_check(seq: WittSequence) -> tuple[bool, tuple[int, int] | None]:
    """Verify the defining relation; returns (ok, first failing (n, m))."""
    if seq(-1) != 0:
        return False, (-1, -1)
    r = seq.ring
    # Distinct pairs m < n cover the relation (it is antisymmetric in n, m).
    # Pairs with m >= 0 are checked first, then the m = -1 boundary pairs.
    pairs = [(n, m) for n in range(1, seq.n_max + 1) for m in range(0, n)]
    pairs += [(n, -1) for n in range(0, seq.n_max + 1)]
    for n, m in pairs:
        if not (-1 <= n + m <= seq.n_max):
            continue
        lhs = r.add(r.mul(n, seq(n)), r.neg(r.mul(m, seq(m))))
        rhs = r.mul(n - m, seq(n + m))
        if lhs != rhs:
            return False, (n, m)
    return True, None


@dataclass(frozen=True)
class FlatSequence:
    """A sequence of polynomial twists (tau_n), n = -1..n_max."""

    values: tuple[MultiPoly, ...]  # indexed from n = -1

    @property
    def n_max(self) -> int:
        return len(self.values) - 2

    def __call__(self, n: int) -> MultiPoly:
        if n < -1 or n > self.n_max:
            raise IndexOutOfRange(f"index {n} outside [-1, {self.n_max}]")
        return self.values[n + 1]


def flatness_check(tau: FlatSequence) -> dict[tuple[int, int], MultiPoly]:
    """Curvature report: defect of the flatness relation per index pair.

    The sequence is flat iff every reported defect is zero.
    """
    report: dict[tuple[int, int], MultiPoly] = {}
    for n in range(-1, tau.n_max + 1):
        for m in range(-1, n):
            if not (-1 <= n + m <= tau.n_max):
                continue
            defect = (
                witt_act(n, tau(m))
                - witt_act(m, tau(n))
                - (n - m) * tau(n + m)
            )
            report[(n, m)] = defect
    return report


def is_flat(tau: FlatSequence) -> bool:
    return all(d.is_zero() for d in flatness_check(tau).values())


def twisted_witt_act(n: int, tau: FlatSequence, q: MultiPoly) -> MultiPoly:
    """Twisted derivation ``q -> L_n(q) + tau_n * q``."""
    return witt_act(n, q) + tau(n) * q


# ---------------------------------------------------------------------------
# Base changes
# ---------------------------------------------------------------------------


def to_prime_field(q: MultiPoly, p: int) -> MultiPoly:
    """Coefficient reduction Z (or Q with invertible denominators) -> Fp."""
    ring = GF(p)
    return q.map_coefficients(ring, ring.normalize)


def kill_equivariance(q: MultiPoly) -> Scalar:
    """Specialize every symmetric-positive-degree part to 0.

    Sends each elementary symmetric polynomial of the full alphabet to zero,
    i.e. evaluates all variables at 0; requires a symmetric input so that
    the operation is a well-defined ring morphism on the symmetric subring.
    """
    if not is_symmetric(q):
        raise NotInSymmetricSubring(f"{q} is not symmetric in {q.vars}")
    return q.constant_value()


def base_change(q: MultiPoly, phi: str, p: int | None = None):
    """Spec-facing dispatcher over the two base changes."""
    if phi == "to_prime_field":
        if p is None:
            raise ValueError("modulus required")
        return to_prime_field(q, p)
    if phi == "kill_equivariance":
        return MultiPoly.const(q.ring, q.vars, kill_equivariance(q))
    raise ValueError(f"unknown base change {phi!r}")


# ---------------------------------------------------------------------------
# Rational functions with difference-product denominators
# ---------------------------------------------------------------------------


class RatFun:
    """A rational function ``num / prod_{i<j} (v_i - v_j)^{m_ij}``.

    This is the exact shape produced by the colored foam evaluation; no
    general rational-function field is implemented.  Denominator keys are
    pairs of variable *indices* (i, j) with i < j into the variable tuple.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: Mapping[tuple[int, int], int] | None = None):
        self.num = num
        clean: dict[tuple[int, int], int] = {}
        for (i, j), m in (den or {}).items():
            if m < 0:
                raise ValueError("denominator exponents must be nonnegative")
            if i >= j:
                raise ValueError("denominator pairs must satisfy i < j")
            if m:
                clean[(i, j)] = m
        self.den = clean

    def normalize(self) -> "RatFun":
        """Cancel every denominator factor that divides the numerator."""
        num = self.num
        if num.is_zero():
            return RatFun(num, {})
        terms = num.terms
        den: dict[tuple[int, int], int] = {}
        for (i, j), m in sorted(self.den.items()):
            while m:
                quo = _divide_by_difference(terms, i, j, num.ring)
                if quo is None:
                    break
                terms = quo
                m -= 1
            if m:
                den[(i, j)] = m
        if terms is not num.terms:
            num = MultiPoly._from_raw(num.ring, num.vars, terms)
        return RatFun(num, den)

    def as_polynomial(self) -> MultiPoly:
        from .errors import NotPolynomial

        r = self.normalize()
        if r.den:
            raise NotPolynomial(f"{r} has a nontrivial denominator")
        return r.num

    def __add__(self, other: "RatFun") -> "RatFun":
        """The normalized sum, by :func:`ratfun_sum`."""
        if isinstance(other, MultiPoly):
            other = RatFun(other)
        return ratfun_sum((self, other))

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __mul__(self, other) -> "RatFun":
        if isinstance(other, (int, Fraction, MultiPoly)):
            return RatFun(self.num * other, self.den)
        out = dict(self.den)
        for p, m in other.den.items():
            out[p] = out.get(p, 0) + m
        return RatFun(self.num * other.num, out)

    __rmul__ = __mul__

    def relabel(self, perm: Sequence[int]) -> "RatFun":
        """This function with variable ``i`` renamed to variable ``perm[i]``.

        A denominator factor that becomes ``x_a - x_b`` with ``a > b`` is
        stored as ``x_b - x_a``, which negates the numerator once per unit
        of its exponent.
        """
        num = self.num._remapped(self.num.vars, perm)
        den: dict[tuple[int, int], int] = {}
        flips = 0
        for (i, j), m in self.den.items():
            a, b = perm[i], perm[j]
            if a > b:
                a, b = b, a
                flips += m
            den[(a, b)] = m
        return RatFun(-num if flips % 2 else num, den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = RatFun(
                other
                if isinstance(other, MultiPoly)
                else MultiPoly.const(self.num.ring, self.num.vars, other)
            )
        return (self - other).num.is_zero()

    def __hash__(self):
        r = self.normalize()
        return hash((r.num, tuple(sorted(r.den.items()))))

    def __str__(self) -> str:
        if not self.den:
            return str(self.num)
        vs = self.num.vars
        factors = [
            f"({vs[i]} - {vs[j]})" + (f"^{m}" if m > 1 else "")
            for (i, j), m in sorted(self.den.items())
        ]
        return f"({self.num}) / ({'*'.join(factors)})"

    __repr__ = __str__


def _difference(ring: CoefRing, variables: tuple[str, ...], i: int, j: int) -> MultiPoly:
    """The factor ``x_i - x_j``."""
    n = len(variables)
    xi = (0,) * i + (1,) + (0,) * (n - i - 1)
    xj = (0,) * j + (1,) + (0,) * (n - j - 1)
    return MultiPoly._from_raw(ring, variables, {xi: 1, xj: -1})


def _divide_by_difference(
    terms: Mapping[tuple[int, ...], Scalar], i: int, j: int, ring: CoefRing
) -> dict[tuple[int, ...], Scalar] | None:
    """Quotient of a polynomial by ``x_i - x_j``, or None if it leaves a remainder.

    Synthetic division in ``x_i``: the terms are bucketed by their ``x_i``
    exponent into coefficients ``a_k`` (polynomials in the other variables)
    and a Horner pass from the top exponent down gives the quotient
    coefficients ``b_{k-1} = a_k + x_j * b_k``; the remainder is
    ``a_0 + x_j * b_0``.  The divisor is monic in ``x_i``, so no coefficient
    is ever divided.  Coefficients are left unreduced (``MultiPoly`` reduces
    them); only the remainder is reduced, to decide divisibility.
    """
    buckets: dict[int, dict[tuple[int, ...], Scalar]] = {}
    for e, c in terms.items():
        buckets.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    quo: dict[tuple[int, ...], Scalar] = {}
    carry: dict[tuple[int, ...], Scalar] = {}
    for k in range(max(buckets), -1, -1):
        acc = dict(buckets.get(k, ()))
        for e, c in carry.items():
            e = e[:j] + (e[j] + 1,) + e[j + 1:]
            acc[e] = acc.get(e, 0) + c
        carry = {e: c for e, c in acc.items() if c}
        if k:
            quo.update((e[:i] + (k - 1,) + e[i + 1:], c) for e, c in carry.items())
    # After the x_i^0 step the carry is the remainder.
    if any(ring.normalize(c) for c in carry.values()):
        return None
    return quo


def _schur_coefficients(g: MultiPoly, blocks: Sequence[int]) -> dict[tuple[int, ...], Scalar]:
    """``{lam: c}`` with ``sum c * s_lam`` equal to ``sum over sigma in
    S_N / W_P of sigma(g / Delta_P)``, for ``g`` invariant under ``W_P``.

    ``W_P`` is the Young subgroup of ``blocks``, runs of consecutive
    variables, and ``Delta_P`` the product of ``x_i - x_j`` over ``i < j`` in
    different blocks.  The sum is the Gysin pushforward from a partial flag
    variety, ``d_{w_0}(g x^delta_P)`` with ``delta_P`` the staircase
    ``(b - 1, ..., 0)`` inside each block of size ``b`` (Brion, "Lectures on
    the geometry of flag varieties", arXiv:math/0410240): the sum over
    ``W_P`` inside each coset sends ``x^delta_P / Delta`` to ``1 / Delta_P``.
    By the bialternant formula ``d_{w_0} x^beta`` is 0 when ``beta`` repeats
    an exponent, and otherwise the sign of the sort of ``beta`` times
    ``s_{sort(beta) - delta}`` (Macdonald, *Symmetric Functions and Hall
    Polynomials*, I.3).  One block gives the Schur expansion of a
    symmetric ``g``.
    """
    n = len(g.vars)
    shift: list[int] = []
    for size in blocks:
        shift += range(size - 1, -1, -1)
    delta = range(n - 1, -1, -1)
    out: dict[tuple[int, ...], Scalar] = {}
    get = out.get
    for e, c in g.terms.items():
        beta = tuple(map(operator.add, e, shift))
        if len(set(beta)) < n:
            continue
        lam = tuple(map(operator.sub, sorted(beta, reverse=True), delta))
        if sum(a < b for a, b in itertools.combinations(beta, 2)) % 2:
            c = -c
        out[lam] = get(lam, 0) + c
    return _canonical(g.ring, out)


def _lifts(
    keys: Sequence[tuple[tuple[tuple[int, int], int], ...]],
    ring: CoefRing,
    variables: tuple[str, ...],
) -> tuple[dict[tuple[int, int], int], list[MultiPoly]]:
    """The least common denominator of ``keys`` and each key's lift.

    A key is a denominator ``D`` as sorted ``((i, j), m)`` pairs.  The LCD
    takes the per-pair maximum over the keys, and the lift of ``D`` is
    ``LCD / D``, one lift per key in order.  Each power ``(x_i - x_j)^k``
    is built once.
    """
    lcd: dict[tuple[int, int], int] = {}
    for key in keys:
        for pair, m in key:
            lcd[pair] = max(lcd.get(pair, 0), m)
    powers: dict[tuple[tuple[int, int], int], MultiPoly] = {}
    lifts = []
    for key in keys:
        lift = MultiPoly.const(ring, variables, 1)
        den = dict(key)
        for pair, m in lcd.items():
            need = m - den.get(pair, 0)
            if need:
                if (pair, need) not in powers:
                    powers[(pair, need)] = _difference(ring, variables, *pair) ** need
                lift = lift * powers[(pair, need)]
        lifts.append(lift)
    return lcd, lifts


def ratfun_sum(parts: Iterable[RatFun]) -> RatFun:
    """The normalized sum of rational functions.

    Numerators of parts with the same denominator are added first.  Each
    nonzero group's sum is then multiplied once by its lift to the least
    common denominator of the nonzero groups (:func:`_lifts`), and the
    total is normalized once.
    """
    groups: dict[tuple, dict[tuple[int, ...], Scalar]] = {}
    first: MultiPoly | None = None
    for r in parts:
        if first is None:
            first = r.num
        else:
            first._check_compat(r.num)
        acc = groups.setdefault(tuple(sorted(r.den.items())), {})
        for e, c in r.num.terms.items():
            acc[e] = acc.get(e, 0) + c
    if first is None:
        raise ValueError("empty sum: no alphabet to infer")
    ring, variables = first.ring, first.vars
    sums = {
        key: num
        for key, terms in groups.items()
        if not (num := MultiPoly._from_raw(ring, variables, terms)).is_zero()
    }
    lcd, lifts = _lifts(list(sums), ring, variables)
    total: dict[tuple[int, ...], Scalar] = {}
    for num, lift in zip(sums.values(), lifts):
        for e, c in (num * lift).terms.items():
            total[e] = total.get(e, 0) + c
    return RatFun(MultiPoly._from_raw(ring, variables, total), lcd).normalize()


def poly_arith(op: str, a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Spec-facing dispatcher for basic polynomial arithmetic."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "exact_div":
        return a.exact_div(b)
    raise ValueError(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# Convenience: alphabets
# ---------------------------------------------------------------------------


def xvars(N: int) -> tuple[str, ...]:
    """The pigment alphabet X1..XN."""
    return tuple(f"X{i}" for i in range(1, N + 1))


def evars(N: int) -> tuple[str, ...]:
    """The alphabet E1..EN of the elementary symmetric polynomials."""
    return tuple(f"E{i}" for i in range(1, N + 1))


# ---------------------------------------------------------------------------
# Laurent polynomials in q (exponent -> coefficient maps)
# ---------------------------------------------------------------------------

Laurent = dict[int, int]


def _laurent_clean(d: Laurent) -> Laurent:
    return {e: c for e, c in sorted(d.items()) if c != 0}


def laurent_add(a: Laurent, b: Laurent) -> Laurent:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _laurent_clean(out)


def laurent_mul(a: Laurent, b: Laurent) -> Laurent:
    out: Laurent = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _laurent_clean(out)


def quantum_integer(k: int) -> Laurent:
    """The balanced q-integer ``q^{k-1} + q^{k-3} + ... + q^{1-k}``, empty
    for ``k <= 0``."""
    return qbinom_laurent(k, 1)


def qbinom_laurent(m: int, a: int) -> Laurent:
    """The balanced quantum binomial ``[m, a]``, empty unless ``0 <= a <= m``.

    Built row by row from ``[k, 0] = 1`` by the balanced q-Pascal rule
    ``[k, j] = q^{-j} [k-1, j] + q^{k-j} [k-1, j-1]``; the result is
    ``prod_{i=1..a} [m+1-i]/[i]`` with ``[n] = q^{n-1} + q^{n-3} + ... +
    q^{1-n}``, symmetric under ``q -> q^{-1}``.
    """
    if a < 0 or a > m:
        return {}
    row: list[Laurent] = [{0: 1}] + [{}] * a  # [k, 0..a], from k = 0
    for k in range(1, m + 1):
        row = [row[0]] + [
            laurent_add(laurent_mul({-j: 1}, row[j]), laurent_mul({k - j: 1}, row[j - 1]))
            for j in range(1, a + 1)
        ]
    return row[a]
