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
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    DivisionNotExact,
    ElementaryNotTerminating,
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

    def invertible(self, a: Scalar) -> bool:
        a = self.normalize(a)
        if a == 0:
            return False
        if self.kind == "Z":
            return a in (1, -1)
        return True

    def half(self) -> Scalar:
        """The scalar 1/2, when it exists."""
        from .errors import TwoNotInvertible

        if self.kind == "Q":
            return Fraction(1, 2)
        if self.kind == "Fp" and self.p != 2:
            return pow(2, -1, self.p)
        raise TwoNotInvertible(f"2 is not invertible in {self}")

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
        self = object.__new__(cls)
        self.ring = ring
        self.vars = variables
        self.terms = _canonical(ring, raw)
        self._hash = None
        return self

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, ring: CoefRing, variables: Sequence[str]) -> "MultiPoly":
        return cls(ring, variables, {})

    @classmethod
    def const(cls, ring: CoefRing, variables: Sequence[str], c: Scalar) -> "MultiPoly":
        return cls(ring, variables, {(0,) * len(tuple(variables)): c})

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

    def homogeneous_part(self, total: int) -> "MultiPoly":
        return MultiPoly(
            self.ring, self.vars, {e: c for e, c in self.terms.items() if sum(e) == total}
        )

    def coefficient(self, exp: tuple[int, ...]) -> Scalar:
        return self.terms.get(tuple(exp), 0)

    # -- arithmetic ---------------------------------------------------------
    def _check_compat(self, other: "MultiPoly") -> None:
        if self.ring != other.ring:
            raise WrongRing(f"mixed rings {self.ring} and {other.ring}")
        if self.vars != other.vars:
            raise ValueError(f"mixed variable alphabets {self.vars} and {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.ring, self.vars, other)
        self._check_compat(other)
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            out[e] = get(e, 0) + c
        return MultiPoly._from_raw(self.ring, self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._from_raw(self.ring, self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.ring, self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = self.ring.normalize(other)
            if c0 == 0:
                return MultiPoly.zero(self.ring, self.vars)
            return MultiPoly._from_raw(
                self.ring, self.vars, {e: c * c0 for e, c in self.terms.items()}
            )
        self._check_compat(other)
        out: dict[tuple[int, ...], Scalar] = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return MultiPoly._from_raw(self.ring, self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(self.ring, self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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

    def rename(self, new_vars: Sequence[str]) -> "MultiPoly":
        new_vars = tuple(new_vars)
        if len(new_vars) != len(self.vars):
            raise ValueError("rename must preserve arity")
        return MultiPoly._from_raw(self.ring, new_vars, self.terms)

    def extend(self, variables: Sequence[str]) -> "MultiPoly":
        """View this polynomial inside a larger variable alphabet."""
        variables = tuple(variables)
        idx = [variables.index(v) for v in self.vars]
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(variables)
            for pos, k in zip(idx, e):
                ne[pos] = k
            out[tuple(ne)] = c
        return MultiPoly._from_raw(self.ring, variables, out)

    def permute_vars(self, perm: Mapping[str, str]) -> "MultiPoly":
        """Apply a variable permutation (a bijection on the alphabet)."""
        pos = {v: i for i, v in enumerate(self.vars)}
        out = {}
        get = out.get
        for e, c in self.terms.items():
            ne = [0] * len(self.vars)
            for v, k in zip(self.vars, e):
                ne[pos[perm.get(v, v)]] = k
            key = tuple(ne)
            out[key] = get(key, 0) + c
        return MultiPoly._from_raw(self.ring, self.vars, out)

    def eval_scalar(self, values: Mapping[str, Scalar]) -> Scalar:
        total: Scalar = 0
        for e, c in self.terms.items():
            term = c
            for v, k in zip(self.vars, e):
                if k:
                    term = self.ring.mul(term, self.ring.normalize(values[v]) ** k)
            total = self.ring.add(total, term)
        return total

    def map_coefficients(self, ring: CoefRing, fn: Callable[[Scalar], Scalar]) -> "MultiPoly":
        return MultiPoly(ring, self.vars, {e: fn(c) for e, c in self.terms.items()})

    # -- division -----------------------------------------------------------
    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division; raises :class:`DivisionNotExact` on remainder.

        The leading term of the remainder comes from a heap of grlex keys
        with lazy deletion: an exponent that cancels stays in the heap and is
        skipped when it is popped.
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
        # over F_p the leading coefficient is inverted once per call
        inv = pow(lead_c, -1, ring.p) if ring.kind == "Fp" else None
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

    def to_record(self) -> dict:
        """Structured machine-readable record (used by the CLI JSON schema)."""
        return {
            "ring": str(self.ring),
            "variables": list(self.vars),
            "terms": [
                {"exponents": list(e), "coefficient": str(c)} for e, c in self.sorted_terms()
            ],
        }


# ---------------------------------------------------------------------------
# Symmetric polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymPoly:
    """A polynomial invariant under a product of symmetric groups.

    ``blocks`` partitions the variable tuple into consecutive groups; the
    polynomial must be invariant under permutations inside each block.
    Invariance is certified by adjacent transpositions.
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


def is_symmetric(poly: MultiPoly, blocks: Sequence[int] | None = None) -> bool:
    blocks = tuple(blocks) if blocks is not None else (len(poly.vars),)
    start = 0
    for b in blocks:
        for i in range(start, start + b - 1):
            u, v = poly.vars[i], poly.vars[i + 1]
            if poly.permute_vars({u: v, v: u}) != poly:
                return False
        start += b
    return True


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


#: Leading-term subtractions :func:`to_elementary` makes before giving up.
_TO_ELEMENTARY_STEPS = 100000


def to_elementary(poly: MultiPoly, e_names: Sequence[str] | None = None) -> MultiPoly:
    """Rewrite a symmetric polynomial in the elementary symmetric generators.

    Returns a polynomial in variables ``E1..Ek`` (or the supplied names)
    such that substituting ``Ei -> e_i(vars)`` recovers the input.  Uses the
    classical leading-term subtraction algorithm under graded lex order.
    """
    if not is_symmetric(poly):
        raise NotInSymmetricSubring(f"{poly} is not symmetric")
    k = len(poly.vars)
    e_names = tuple(e_names) if e_names is not None else tuple(f"E{i}" for i in range(1, k + 1))
    ring = poly.ring
    elems = [elementary(ring, poly.vars, i) for i in range(1, k + 1)]
    result = MultiPoly.zero(ring, e_names)
    work = poly
    guard = 0
    while not work.is_zero():
        guard += 1
        if guard > _TO_ELEMENTARY_STEPS:
            raise ElementaryNotTerminating("to_elementary failed to terminate")
        lead = max(work.terms, key=_grlex_key)
        c = work.terms[lead]
        lam = sorted(lead, reverse=True)
        if list(lead) != lam:
            # For a symmetric polynomial the grlex-leading exponent is always
            # weakly decreasing along the declared variable order.
            raise NotInSymmetricSubring(f"{poly} is not symmetric")
        # exponent of E_i in the subtracted product: lam_i - lam_{i+1}
        e_exp = [0] * k
        prod = MultiPoly.const(ring, poly.vars, 1)
        for i in range(k):
            nxt = lam[i + 1] if i + 1 < k else 0
            d = lam[i] - nxt
            e_exp[i] = d
            if d:
                prod = prod * (elems[i] ** d)
        result = result + MultiPoly(ring, e_names, {tuple(e_exp): c})
        work = work - prod * c
    return result


def from_elementary(epoly: MultiPoly, variables: Sequence[str]) -> MultiPoly:
    """Substitute E_i -> e_i(variables) into a polynomial in E-variables."""
    variables = tuple(variables)
    ring = epoly.ring
    mapping = {}
    for name in epoly.vars:
        if not name.startswith("E"):
            raise ValueError(f"expected E-variables, got {name}")
        i = int(name[1:])
        mapping[name] = elementary(ring, variables, i)
    if not epoly.vars:
        raise ValueError("no variables")
    return epoly.subs(mapping)


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------


def witt_act(n: int, q: MultiPoly) -> MultiPoly:
    """The degree-2n derivation ``-sum_i z_i^{n+1} d/dz_i`` for n >= -1."""
    if n < -1:
        raise ValueError("index must be at least -1")
    out = MultiPoly.zero(q.ring, q.vars)
    for i, v in enumerate(q.vars):
        d = q.derivative(v)
        if d.is_zero():
            continue
        exp = tuple(n + 1 if k == i else 0 for k in range(len(q.vars)))
        mono = MultiPoly(q.ring, q.vars, {exp: 1})
        out = out - mono * d
    return out


def p_derivation(q: MultiPoly, iterate: int = 1) -> MultiPoly:
    """Apply ``sum_k x_k^2 d/dx_k`` ``iterate`` times (prime field only)."""
    if q.ring.kind != "Fp":
        raise WrongRing("the p-derivation is defined over prime fields")
    if iterate < 1:
        raise ValueError("iterate must be >= 1")
    out = q
    for _ in range(iterate):
        nxt = MultiPoly.zero(out.ring, out.vars)
        for i, v in enumerate(out.vars):
            d = out.derivative(v)
            if d.is_zero():
                continue
            exp = tuple(2 if k == i else 0 for k in range(len(out.vars)))
            nxt = nxt + MultiPoly(out.ring, out.vars, {exp: 1}) * d
        out = nxt
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

    def _diff(self, i: int, j: int) -> MultiPoly:
        return _difference(self.num.ring, self.num.vars, i, j)

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

    def is_polynomial(self) -> bool:
        return not self.normalize().den

    def as_polynomial(self) -> MultiPoly:
        from .errors import NotPolynomial

        r = self.normalize()
        if r.den:
            raise NotPolynomial(f"{r} has a nontrivial denominator")
        return r.num

    def __add__(self, other: "RatFun") -> "RatFun":
        if isinstance(other, MultiPoly):
            other = RatFun(other)
        pairs = set(self.den) | set(other.den)
        common = {p: max(self.den.get(p, 0), other.den.get(p, 0)) for p in pairs}
        a = self.num
        for p, m in common.items():
            need = m - self.den.get(p, 0)
            if need:
                a = a * (self._diff(*p) ** need)
        b = other.num
        for p, m in common.items():
            need = m - other.den.get(p, 0)
            if need:
                b = b * (other._diff(*p) ** need)
        return RatFun(a + b, common)

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

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = RatFun(
                other
                if isinstance(other, MultiPoly)
                else MultiPoly.const(self.num.ring, self.num.vars, other)
            )
        diff = (self - other).normalize()
        return diff.num.is_zero()

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
    xi = MultiPoly.var(ring, variables, variables[i])
    xj = MultiPoly.var(ring, variables, variables[j])
    return xi - xj


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


def ratfun_sum(parts: Iterable[RatFun]) -> RatFun:
    """The normalized sum of rational functions.

    Numerators of parts with the same denominator are added first.  Each
    group's sum is then lifted once to the least common denominator, the
    per-pair maximum over nonzero groups, multiplying by powers
    ``(x_i - x_j)^k`` computed once per call; the total is normalized once.
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
    lcd: dict[tuple[int, int], int] = {}
    for key in sums:
        for pair, m in key:
            lcd[pair] = max(lcd.get(pair, 0), m)
    powers: dict[tuple[tuple[int, int], int], MultiPoly] = {}
    total: dict[tuple[int, ...], Scalar] = {}
    for key, num in sums.items():
        den = dict(key)
        for pair, m in lcd.items():
            need = m - den.get(pair, 0)
            if need:
                if (pair, need) not in powers:
                    powers[(pair, need)] = _difference(ring, variables, *pair) ** need
                num = num * powers[(pair, need)]
        for e, c in num.terms.items():
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


def qbinom_laurent(m: int, a: int) -> dict[int, int]:
    """Quantum binomial as a Laurent polynomial {exponent: coefficient}.

    ``prod_{i=1..a} [m+1-i]/[i]`` with ``[n] = q^{n-1} + q^{n-3} + ... +
    q^{1-n}``; computed exactly via the Gaussian binomial in q^2 and then
    recentered symmetrically.
    """
    if a < 0 or a > m:
        return {}
    # Gaussian binomial coefficient in variable t = q^2.
    num = [1]
    for k in range(1, a + 1):
        # multiply by (1 - t^(m - k + 1)) / (1 - t^k): do it polynomially.
        num = _polymul_dense(num, _cyclo_range(m - k + 1))
        num = _polydiv_dense(num, _cyclo_range(k))
    # num[d] is the coefficient of t^d; total t-degree a(m-a).
    # Recenter: q-exponent = 2d - a(m-a).
    shift = a * (m - a)
    return {2 * d - shift: c for d, c in enumerate(num) if c}


def _cyclo_range(k: int) -> list[int]:
    """1 + t + ... + t^{k-1}."""
    return [1] * k


def _polymul_dense(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polydiv_dense(a: list[int], b: list[int]) -> list[int]:
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = a[i + len(b) - 1] // b[-1]
        out[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):
        raise ValueError("inexact dense division")
    return out
