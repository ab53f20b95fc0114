"""Operators on movie-presented foams: half-Witt family, sl2 triple, p-DG.

An operator sends a decorated movie to a finite formal sum of movies with
the same undecorated shape, differing only in facet decorations.  The image
has one summand per decorated point (the decoration replaced by its image
under ``c * L_n``) and a bundle of summands per basic move.  Dots on the
complementary alphabet of a facet (thickness a inside, N-a outside) are
first-class citizens here: they are stored as two-block decorations.

Every operator has a name from :func:`parse_operator` and follows one move
rule: a basic move touches two blocks (inside and outside of the facet of a
cup, cap or saddle; the two thin facets of a digon or zip move) and goes to
``sum_k w_k p_k(first) p_{n-k}(second)``.  An operator is thus an index
pair ``(n, c)`` plus weights ``(w_0, w_n, w_k)`` per move kind, both read
from the name: ``L_n`` is ``(n, 1)``, and the sl2 triple restricts it, with
``(e, h, f) = (L_{-1}, 2 L_0, -L_1)``; the p-DG differential is ``f``.
Every application goes through one applier per skeleton, after one check
of the input.  The applier builds an operator's move images on its first
application: the weights of all moves on the same two blocks are summed,
and each block pair's summands are built once and merged by dot list.  It
keeps one rule table, in which each partition rule is computed once per
block shape.  A term's key is edited in place.  :func:`act_witt`,
:func:`act_sl2` and :func:`act_pdg` apply once, and :func:`apply_operator`
dispatches to them; an iterate or a structural check keeps one applier,
and a check applies each operator to its input once.

The scalar data of the family is an :class:`ActionParams` pack: a seam
constant ``s``, three index sequences ``nu1/nu2/nu3`` satisfying the Witt
recurrence, and three scalars ``t1/t2/t3`` that give the weights of the
sl2 triple.  The sequence ``nu3`` must vanish identically on movies
containing saddles, and several Witt weights are 1/2, so the full family
needs 2 invertible; the sl2 triple on saddle-free movies does not.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    CharTwoNonSpherical,
    InputError,
    NonSphericalWithNu3,
    TwoNotInvertible,
    WrongRing,
)
from .foamcore import (
    Decorate,
    EulerWalk,
    Movie,
    MoveTrace,
    compile_movie,
    enumerate_colorings,
    _strip_decorations,
)
from .foameval import (
    CheckReport,
    DecMap,
    DotShape,
    _ShapeTable,
    _dot_shapes,
    _facet_decorations,
    _orbit_poly,
    colored_eval,
    degree,
    evaluate,
)
from .polyring import (
    CoefRing,
    ElementaryBasis,
    MultiPoly,
    RatFun,
    Scalar,
    SymPoly,
    WittSequence,
    ratfun_sum,
    witt_act,
    witt_sequence_check,
    xvars,
)

# ---------------------------------------------------------------------------
# Parameter packs
# ---------------------------------------------------------------------------


def half_scalar(ring: CoefRing) -> Scalar:
    """The scalar 1/2 in the ring; raises :class:`TwoNotInvertible`."""
    if ring.kind == "Q":
        return Fraction(1, 2)
    if ring.kind == "Fp" and ring.p != 2:
        return pow(2, -1, ring.p)
    raise TwoNotInvertible(f"1/2 does not exist in {ring}")


def _has_half(ring: CoefRing) -> bool:
    return ring.kind == "Q" or (ring.kind == "Fp" and ring.p != 2)


@dataclass(frozen=True)
class ActionParams:
    """Scalar data parametrizing the operator family.

    ``nu1/nu2/nu3`` default to the zero sequence; ``t3`` defaults to 1/2
    when the ring has one (and to 0 otherwise).  ``spherical=False``
    declares that the pack will be used on movies with saddles, which
    forces ``nu3 = 0`` and ``t3 = 1/2``.
    """

    ring: CoefRing
    N: int
    s: Scalar = 0
    nu1: WittSequence | None = None
    nu2: WittSequence | None = None
    nu3: WittSequence | None = None
    t1: Scalar = 0
    t2: Scalar = 0
    t3: Scalar | None = None
    spherical: bool = True

    def __post_init__(self) -> None:
        if self.N < 1:
            raise InputError(f"N must be >= 1, got {self.N}")
        _set = object.__setattr__

        def scalar(name: str) -> None:
            value = getattr(self, name)
            try:
                _set(self, name, self.ring.normalize(value))
            except WrongRing as exc:
                raise InputError(f"{name} = {value} is not in {self.ring}: {exc}") from None

        for name in ("s", "t1", "t2"):
            scalar(name)
        for name in ("nu1", "nu2", "nu3"):
            seq = getattr(self, name)
            if seq is None:
                seq = WittSequence.zero(self.ring)
                _set(self, name, seq)
            if seq.ring != self.ring:
                raise InputError(f"{name} lives over {seq.ring}, pack over {self.ring}")
            ok, pair = witt_sequence_check(seq)
            if not ok:
                raise InputError(f"{name} violates the index recurrence at {pair}")
        if self.t3 is None:
            _set(self, "t3", half_scalar(self.ring) if _has_half(self.ring) else 0)
        else:
            scalar("t3")
        if not self.spherical:
            if not self.nu3.is_identically_zero():
                raise NonSphericalWithNu3("nu3 must vanish for packs used with saddles")
            half = half_scalar(self.ring)
            if self.t3 != half:
                raise InputError(f"t3 must be 1/2 for packs used with saddles, got {self.t3}")

    def t3bar(self) -> Scalar:
        return self.ring.add(1, self.ring.neg(self.t3))


def sl2_from_witt(params: ActionParams) -> ActionParams:
    """Fill in the sl2 scalars dictated by the half-Witt data.

    ``t1 = nu1(1) + s``, ``t2 = nu2(1) + s``, ``t3 = nu3(1) + 1/2``.
    """
    r = params.ring
    half = half_scalar(r)
    return ActionParams(
        ring=r,
        N=params.N,
        s=params.s,
        nu1=params.nu1,
        nu2=params.nu2,
        nu3=params.nu3,
        t1=r.add(params.nu1(1), params.s),
        t2=r.add(params.nu2(1), params.s),
        t3=r.add(params.nu3(1), half),
        spherical=params.spherical,
    )


# ---------------------------------------------------------------------------
# Formal sums of decorated movies
# ---------------------------------------------------------------------------


class _Skeleton:
    """The undecorated shape shared by all summands of a :class:`FoamSum`.

    Holds the decoration-free movie, its compiled complex, the coefficient
    ring and pigment count, and for every facet a representative (slice,
    edge) at which decorations are inserted when a summand is materialized
    as a movie.
    """

    __slots__ = ("movie", "complex", "ring", "N", "thickness", "rep", "has_saddle")

    def __init__(self, movie: Movie, ring: CoefRing, N: int):
        self.movie, self.ring, self.N = movie, ring, N
        self.complex = compile_movie(movie)
        self.thickness = {f.id: f.thickness for f in self.complex.facets.values()}
        self.has_saddle = any(tr.kind == "saddle" for tr in self.complex.traces)
        for f, a in self.thickness.items():
            if a > N:
                raise InputError(f"facet {f} has thickness {a} > N={N}")
        # representative (slice, edge) per facet: first appearance
        rep: dict[str, tuple[int, str]] = {}
        for t, snap in enumerate(self.complex.edge_facets):
            for e in sorted(snap):
                f = snap[e]
                if f not in rep:
                    rep[f] = (t, e)
        self.rep = rep


# The two rules below act on the orbit sums m_shape without expanding them
# (Macdonald, Symmetric Functions and Hall Polynomials, I.2): each changes
# one part v of one block to v + step, and the new orbit is hit once per
# part of the new block equal to v + step.


def _change_one_part(
    block: tuple[int, ...], step: int
) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """Yield ``(v, block', mult)`` once per distinct part ``v`` of ``block``.

    ``block'`` is ``block`` with one ``v`` changed to ``v + step``, sorted
    weakly decreasing, and ``mult`` counts the parts ``v + step`` in it.
    The new part is moved from the first ``v`` to its place in the sorted
    rest: left past smaller parts when raised, right past larger ones when
    lowered.
    """
    for i, v in enumerate(block):
        if i and block[i - 1] == v:
            continue
        w = v + step
        rest = block[:i] + block[i + 1:]
        j = i
        while j and rest[j - 1] < w:
            j -= 1
        while j < len(rest) and rest[j] > w:
            j += 1
        new = rest[:j] + (w,) + rest[j:]
        yield v, new, new.count(w)


def _dot_rule(shape: DotShape, k: int, hat: bool) -> list[tuple[DotShape, int]]:
    """``p_k`` of the inner block (outer for ``hat``) times ``m_shape``.

    Returns ``(shape', coefficient)`` pairs; ``k >= 1``.
    """
    lam, mu = shape
    if hat:
        return [((lam, new), mult) for _, new, mult in _change_one_part(mu, k)]
    return [((new, mu), mult) for _, new, mult in _change_one_part(lam, k)]


def _derivation_rule(shape: DotShape, n: int) -> dict[DotShape, int]:
    """``L_n = -sum z^{n+1} d/dz`` over both blocks applied to ``m_shape``."""
    lam, mu = shape
    out: dict[DotShape, int] = {}
    for v, new, mult in _change_one_part(lam, n):
        if v:
            key = (new, mu)
            out[key] = out.get(key, 0) - v * mult
    for v, new, mult in _change_one_part(mu, n):
        if v:
            key = (lam, new)
            out[key] = out.get(key, 0) - v * mult
    return out


class FoamSum:
    """A finite formal sum of decorated movies over a common skeleton.

    Terms are (coefficient, facet -> dot shape) where a dot shape is a
    monomial symmetric decoration; this is a linear basis of the
    block-symmetric decorations, so merging is exact and ``is_zero`` is
    decidable.
    """

    __slots__ = ("skeleton", "terms")

    def __init__(self, skeleton: _Skeleton, terms: Sequence[tuple[Scalar, DecMap]]):
        self.skeleton = skeleton
        self.terms = tuple(terms)

    @classmethod
    def from_movie(cls, mov: Movie, params: ActionParams) -> "FoamSum":
        """The movie as a formal sum; reads only ``params.ring`` and ``params.N``."""
        stripped, decorations = _strip_decorations(mov)
        return cls._decorated(_Skeleton(stripped, params.ring, params.N), decorations)

    @classmethod
    def _decorated(
        cls, skel: _Skeleton, decorations: Sequence[tuple[int, str, SymPoly]]
    ) -> "FoamSum":
        """The skeleton carrying ``decorations``, placed as
        ``_strip_decorations`` returns them, as a formal sum."""
        decs = _facet_decorations(skel.complex, decorations, skel.N, skel.ring)
        return cls._canonical(skel, [(1, decs)])

    @classmethod
    def _canonical(
        cls, skel: _Skeleton, raw: Iterable[tuple[Scalar, dict[str, MultiPoly]]]
    ) -> "FoamSum":
        ring = skel.ring
        acc: dict[DecMap, Scalar] = {}
        for coef, decmap in raw:
            for cc, key in _dot_shapes(ring.normalize(coef), decmap, skel.thickness, ring):
                cc = ring.add(acc.get(key, 0), cc) if key in acc else cc
                if cc == 0:
                    acc.pop(key, None)
                else:
                    acc[key] = cc
        return cls(skel, [(acc[k], k) for k in sorted(acc)])

    # -- queries ------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def movies(self) -> Iterator[tuple[Scalar, Movie]]:
        """Yield (coefficient, movie) pairs, decorations at fixed positions."""
        for coef, decmap in self.terms:
            yield coef, self._materialize(decmap)

    def _materialize(self, decmap: DecMap) -> Movie:
        skel = self.skeleton
        N = skel.N
        inserts: dict[int, list[Decorate]] = {}
        for f, shape in decmap:
            t, edge = skel.rep[f]
            a = skel.thickness[f]
            m = N - a
            poly = _orbit_poly(skel.ring, shape)
            sym = SymPoly(poly, (a, m) if m else (a,))
            inserts.setdefault(t, []).append(Decorate(edge, sym))
        moves: list = []
        for t, mv in enumerate(skel.movie.moves):
            moves.extend(inserts.pop(t, ()))
            moves.append(mv)
        for t in sorted(inserts):
            moves.extend(inserts[t])
        return Movie(skel.movie.input_web, tuple(moves))

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "FoamSum") -> None:
        a, b = self.skeleton, other.skeleton
        if a is not b and (
            a.movie != b.movie or a.ring != b.ring or a.N != b.N
        ):
            raise InputError("formal sums live over different skeletons")

    def _merge(self, other: "FoamSum", sign: int) -> "FoamSum":
        """``self + sign * other`` in one pass, zero sums dropped."""
        self._check(other)
        ring = self.skeleton.ring
        acc: dict[DecMap, Scalar] = {}
        for c, k in self.terms:
            s = ring.add(acc[k], c) if k in acc else c
            if s == 0:
                acc.pop(k, None)
            else:
                acc[k] = s
        for c, k in other.terms:
            s = ring.normalize(acc[k] + sign * c) if k in acc else ring.normalize(sign * c)
            if s == 0:
                acc.pop(k, None)
            else:
                acc[k] = s
        return FoamSum(self.skeleton, [(acc[k], k) for k in sorted(acc)])

    def __add__(self, other: "FoamSum") -> "FoamSum":
        return self._merge(other, 1)

    def __sub__(self, other: "FoamSum") -> "FoamSum":
        return self._merge(other, -1)

    def scale(self, c: Scalar) -> "FoamSum":
        ring = self.skeleton.ring
        c = ring.normalize(c)
        if c == 0:
            return FoamSum(self.skeleton, ())
        return FoamSum(self.skeleton, [(ring.mul(c, c0), d) for c0, d in self.terms])

    def value(self) -> MultiPoly:
        """Evaluate a closed formal sum to a symmetric polynomial.

        Each term's dot-shape map is evaluated on the skeleton, with the
        checks of :func:`~foamlab.foameval.evaluate`; no movie is built.
        """
        skel = self.skeleton
        if not self.terms:
            return MultiPoly.zero(skel.ring, xvars(skel.N))
        basis = ElementaryBasis(xvars(skel.N))
        table = _ShapeTable(skel.complex, skel.N, skel.ring, basis)
        return basis.from_e(table.combine(self.terms))

    def term_texts(self) -> Iterator[tuple[str, str]]:
        """Yield (coefficient, dots) texts per term.

        The dots text is ``f:<poly>, ...`` over the decorated facets, or ``1``.
        """
        ring = self.skeleton.ring
        for c, d in self.terms:
            yield str(c), ", ".join(f"{f}:{_orbit_poly(ring, s)}" for f, s in d) or "1"

    def __str__(self) -> str:
        return " + ".join(f"({c})*[{dots}]" for c, dots in self.term_texts()) or "0"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# The move rule and the generic applicator
# ---------------------------------------------------------------------------

# Each named operator acts on decorations and base coefficients as c * L_n:
# (e, h, f) = (L_{-1}, 2 L_0, -L_1), and the p-DG differential d is f.
OPERATOR_INDEX = {"e": (-1, 1), "h": (0, 2), "f": (1, -1), "d": (1, -1)}


def operator_index(name: str | int) -> tuple[int, int]:
    """``(n, c)`` for a name from :func:`parse_operator`; ``L:<n>`` is ``(n, 1)``, n >= -1."""
    if not isinstance(name, int):
        return OPERATOR_INDEX[name]
    if name < -1:
        raise InputError("operator index must be at least -1")
    return name, 1


# A local image is a list of (scalar, dots) summands; each dot (f, k, hat)
# multiplies in p_k of facet f's inner block (outer block for ``hat``).
Dots = tuple[tuple[str, int, bool], ...]
LocalImage = list[tuple[Scalar, Dots]]

# The weights (x, y, z) of a move kind under one operator.
Weights = Callable[[str], tuple[Scalar, Scalar, Scalar]]


Blocks = tuple[tuple[str, bool, int], tuple[str, bool, int]]


def _blocks(skel: _Skeleton, tr: MoveTrace) -> Blocks:
    """The two blocks ``(facet, hat, size)`` a basic move touches.

    They are the inside and the outside of the facet of a cup, cap or
    saddle, and the two thin facets of a digon or zip move.
    """
    if tr.kind in ("cup", "cap", "saddle"):
        (f,) = tr.facets
        (a,) = tr.thickness
        return (f, False, a), (f, True, skel.N - a)
    fa, fb, _ft = tr.facets
    a, b = tr.thickness
    return (fa, False, a), (fb, False, b)


def _block_image(
    ring: CoefRing, blocks: Blocks, n: int, xyz: tuple[Scalar, Scalar, Scalar]
) -> LocalImage:
    """The image ``sum_k w_k p_k(first) p_{n-k}(second)`` on two blocks.

    With ``(x, y, z) = xyz``, ``w_0 = x``, ``w_n = y`` and ``w_k = z`` in
    between; at ``n = 0`` the one summand has weight ``x + y - z``.  ``p_0``
    is the block size, so the two end summands carry one dot and weight
    ``x * |first|`` or ``y * |second|``, and the middle ones carry two dots
    and weight ``z``.  A dot on an empty block is 0, as :func:`_dot_rule`
    finds no part in it to raise.
    """
    x, y, z = xyz
    (f, f_hat, a), (g, g_hat, b) = blocks
    if n == 0:
        w = ring.mul(ring.normalize(x + y - z), a * b)
        return [(w, ())] if w != 0 else []
    out: LocalImage = []
    w = ring.mul(ring.normalize(x), a)
    if w != 0:
        out.append((w, ((g, n, g_hat),)))
    z = ring.normalize(z) if n > 1 else 0
    if z != 0:
        out += [(z, ((f, k, f_hat), (g, n - k, g_hat))) for k in range(1, n)]
    w = ring.mul(ring.normalize(y), b)
    if w != 0:
        out.append((w, ((f, n, f_hat),)))
    return out


def _images(skel: _Skeleton, n: int, weights: Weights) -> LocalImage:
    """The local images of the operator of index ``n`` on a skeleton.

    ``weights`` is read once per move kind, in trace order.  A move's image
    is linear in its weights and its dots depend only on its two blocks, so
    the weights of all moves on the same two blocks are summed and expanded
    once (in a closed ``compose(M, mirror(M))`` every cup meets its cap on
    one facet).  The summands of all blocks are merged by dot list, zero
    sums dropped.  At ``n = -1``, and for moves that change no facet, the
    image is empty.
    """
    if n == -1:
        return []
    ring = skel.ring
    read: dict[str, tuple[Scalar, Scalar, Scalar]] = {}
    summed: dict[Blocks, tuple[Scalar, Scalar, Scalar]] = {}
    for tr in skel.complex.traces:
        if tr.kind in ("assoc", "isotopy", "decorate"):
            continue
        if tr.kind not in read:
            read[tr.kind] = weights(tr.kind)
        x, y, z = read[tr.kind]
        key = _blocks(skel, tr)
        if key in summed:
            x0, y0, z0 = summed[key]
            x, y, z = x0 + x, y0 + y, z0 + z
        summed[key] = x, y, z
    acc: dict[Dots, Scalar] = {}
    for blocks, xyz in summed.items():
        for w, dots in _block_image(ring, blocks, n, xyz):
            acc[dots] = ring.add(acc[dots], w) if dots in acc else w
    return [(w, dots) for dots, w in acc.items() if w != 0]


# A rule table maps ``(shape, n)`` to the derivation rule's
# ``(shape', k)`` pairs, with ``shape'`` None where the part lowered was the
# last nonzero one (the decoration becomes 1 and its entry is dropped), and
# ``(shape, k, hat)`` to the dot rule's ``(shape', mult)`` pairs.  It is built
# once per structural check or bare application and dies with it.
Rules = dict[tuple, list[tuple[DotShape | None, int]]]


def _apply(S: FoamSum, n: int, c: int, images: LocalImage, rules: Rules) -> FoamSum:
    """Leibniz application of ``c * L_n`` in the dot-shape basis.

    Each decoration is replaced by its image under ``c * L_n``; each of
    ``images``, the operator's local images on ``S``'s skeleton, multiplies
    its power-sum dots in.  The partition rules are read from ``rules``
    and computed on a miss; a term's key is edited where it stands.
    """
    skel = S.skeleton
    ring, N = skel.ring, skel.N
    mul = ring.mul
    blank = {f: ((0,) * a, (0,) * (N - a)) for f, a in skel.thickness.items()}
    acc: dict[DecMap, Scalar] = {}

    def add(coef: Scalar, key: DecMap) -> None:
        if coef == 0:
            return
        s = acc.get(key)
        if s is None:
            acc[key] = coef
        elif (s := ring.add(s, coef)) == 0:
            del acc[key]
        else:
            acc[key] = s

    for coef, decs in S.terms:
        for i, (f, shape) in enumerate(decs):
            rule = rules.get((shape, n))
            if rule is None:
                rule = rules[shape, n] = [
                    (new if any(new[0]) or any(new[1]) else None, k)
                    for new, k in _derivation_rule(shape, n).items()
                ]
            head, tail = decs[:i], decs[i + 1:]
            for new, k in rule:
                add(mul(coef, c * k), head + tail if new is None else head + ((f, new),) + tail)
        for c_loc, dots in images:
            partial = [(mul(coef, c_loc), decs)]
            for f, k, hat in dots:
                step = []
                for cc, key in partial:
                    i = bisect_left(key, (f,))
                    if i < len(key) and key[i][0] == f:
                        shape, tail = key[i][1], key[i + 1:]
                    else:
                        shape, tail = blank[f], key[i:]
                    rule = rules.get((shape, k, hat))
                    if rule is None:
                        rule = rules[shape, k, hat] = _dot_rule(shape, k, hat)
                    head = key[:i]
                    for new, mult in rule:
                        step.append((cc if mult == 1 else mul(cc, mult), head + ((f, new),) + tail))
                partial = step
            for cc, key in partial:
                add(cc, key)
    return FoamSum(skel, [(acc[k], k) for k in sorted(acc)])


def _weights(params: ActionParams, name: str | int) -> Weights:
    """The weights of the operator ``name``; an index ``n < -1`` raises.

    ``L_n`` reads ``s``, ``nu1/nu2/nu3(n)`` and 1/2 one move kind at a time,
    so a sequence is read only at the kinds a movie has.  ``h`` and ``f``
    read ``t1/t2/t3``; ``d`` is ``f``, and so is ``e``, which has no images.
    """
    n, _ = operator_index(name)
    ring, s = params.ring, params.s
    t1, t2, t3 = params.t1, params.t2, params.t3
    if name == "h":
        # h = 2 L_0: one weight x + y - z = W per kind, with no 1/2 in it
        u, v = t1 + t2, 2 - t1 - t2
        W = {"cup": 1, "cap": 1, "saddle": -1,
             "digon_cup": u, "digon_cap": v, "zip": -v, "unzip": -u}
        return lambda kind: (W[kind], 0, 0)
    if isinstance(name, str):
        # f = -L_1 with t1, t2, t3 in place of nu1(1) + s, nu2(1) + s, nu3(1) + 1/2
        table = {
            "cup": (-t3, t3 - 1, 0), "cap": (t3 - 1, -t3, 0),
            "digon_cup": (-t2, -t1, 0), "digon_cap": (t2 - 1, t1 - 1, 0),
            "zip": (1 - t2, 1 - t1, 0), "unzip": (t2, t1, 0),
        }

        def weights(kind: str) -> tuple[Scalar, Scalar, Scalar]:
            if kind == "saddle":
                half = half_scalar(ring)
                return half, half, 0
            return table[kind]

        return weights

    def weights(kind: str) -> tuple[Scalar, Scalar, Scalar]:
        if kind == "saddle":
            if not params.nu3.is_identically_zero():
                raise NonSphericalWithNu3("nu3 must vanish identically on movies with saddles")
            w = -half_scalar(ring)
            return w, w, w
        if kind in ("cup", "cap"):
            nu = params.nu3(n) if kind == "cup" else -params.nu3(n)
            half = half_scalar(ring)
            return (half + nu, half - nu, half) if nu else (half, half, half)
        nu1, nu2 = params.nu1(n), params.nu2(n)
        # the seam constant z, added to nu2 and nu1 on a digon-cup or zip
        # and subtracted from them on a digon-cap or unzip
        if kind in ("digon_cup", "zip"):
            z = s if kind == "digon_cup" else s - 1
            return z + nu2, z + nu1, z
        z = 1 - s if kind == "digon_cap" else -s
        return z - nu2, z - nu1, z

    return weights


def _applier(skel: _Skeleton, params: ActionParams) -> Callable[[str | int, FoamSum], FoamSum]:
    """``apply(name, T)`` applies the operator ``name`` to a sum ``T`` over
    ``skel``; each operator's images are built, from ``_weights(params,
    name)``, on its first application and reused by the later ones, and
    every application reads one rule table."""
    images: dict[str | int, LocalImage] = {}
    rules: Rules = {}

    def apply(name: str | int, T: FoamSum) -> FoamSum:
        n, c = operator_index(name)
        if name not in images:
            images[name] = _images(skel, n, _weights(params, name))
        return _apply(T, n, c, images[name], rules)

    return apply


def _as_sum(
    target: Movie | FoamSum, params: ActionParams, name: str | int | None = None
) -> FoamSum:
    """``target`` as a formal sum over the pack's ring and N.

    With an operator ``name`` to apply, its index must be at least -1, and
    ``d`` needs a prime field, of odd characteristic on movies with saddles
    (a pack declared for saddles has 1/2, so p > 2).
    """
    if name is not None:
        operator_index(name)
    if name == "d" and params.ring.kind != "Fp":
        raise WrongRing("the p-DG differential is defined over prime fields")
    if isinstance(target, FoamSum):
        S, skel = target, target.skeleton
        if skel.ring != params.ring or skel.N != params.N:
            raise InputError(
                f"formal sum over {skel.ring} with N={skel.N}, pack over"
                f" {params.ring} with N={params.N}"
            )
    else:
        S = FoamSum.from_movie(target, params)
    if name == "d" and params.ring.p == 2 and S.skeleton.has_saddle:
        raise CharTwoNonSpherical("the differential needs p > 2 on movies with saddles")
    return S


def _act(name: str | int, params: ActionParams, target: Movie | FoamSum) -> FoamSum:
    """Apply the operator ``name`` once, after the checks of :func:`_as_sum`."""
    S = _as_sum(target, params, name)
    return _applier(S.skeleton, params)(name, S)


# ---------------------------------------------------------------------------
# The named operators
# ---------------------------------------------------------------------------


def act_witt(n: int, params: ActionParams, target: Movie | FoamSum) -> FoamSum:
    """Apply the n-th half-Witt operator (n >= -1) to a movie or sum."""
    return _act(n, params, target)


def act_sl2(gen: str, params: ActionParams, target: Movie | FoamSum) -> FoamSum:
    """Apply one of the sl2 generators ``e``, ``h``, ``f``."""
    if gen not in ("e", "h", "f"):
        raise InputError(f"unknown sl2 generator {gen!r}")
    return _act(gen, params, target)


def act_pdg(params: ActionParams, target: Movie | FoamSum) -> FoamSum:
    """The degree-2 differential with d^p = 0 over a prime field."""
    return _act("d", params, target)


def pdg_iterate(params: ActionParams, target: Movie | FoamSum, k: int) -> FoamSum:
    """Apply the p-DG differential ``k >= 0`` times; its images are built once."""
    if k < 0:
        raise InputError(f"cannot apply the differential {k} times")
    S = _as_sum(target, params, "d" if k else None)
    apply = _applier(S.skeleton, params)
    for _ in range(k):
        S = apply("d", S)
    return S


def parse_operator(op: str) -> str | int:
    """Validate an operator name: ``e``, ``h``, ``f``, ``d`` or ``L:<n>``.

    Returns the name itself, or the index ``n >= -1`` of a Witt operator;
    anything else raises :class:`InputError`.
    """
    if op in ("e", "h", "f", "d"):
        return op
    if op.startswith("L:"):
        try:
            n = int(op[2:])
        except ValueError:
            raise InputError(f"bad operator index in {op!r}") from None
        return operator_index(n)[0]
    raise InputError(f"unknown operator {op!r} (use L:<n>, e, h, f or d)")


def apply_operator(op: str, params: ActionParams, target: Movie | FoamSum) -> FoamSum:
    """Apply the operator named ``op`` (see :func:`parse_operator`)."""
    name = parse_operator(op)
    if isinstance(name, int):
        return act_witt(name, params, target)
    if name == "d":
        return act_pdg(params, target)
    return act_sl2(name, params, target)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def commutator_check(
    n: int, m: int, params: ActionParams, mov: Movie | FoamSum
) -> CheckReport:
    """Check [L_n, L_m] = (n-m) L_{n+m} on a movie, as formal sums.

    Each operator is applied to the movie once, first ``L_m``, then ``L_n``,
    then ``L_{n+m}``, and a result is reused where two indices coincide;
    ``L_{n+m}`` is applied even when ``n = m`` scales it by 0, so an index
    out of a sequence's range raises as it would without the reuse.
    """
    S = _as_sum(mov, params)
    L = _applier(S.skeleton, params)
    Lm = L(m, S)
    Ln = Lm if n == m else L(n, S)
    LnLm = L(n, Lm)
    lhs = LnLm - (LnLm if n == m else L(m, Ln))
    # n + m < -1 only happens for n = m = -1, where the bracket is trivially 0
    if n + m < -1:
        rhs = S.scale(0)
    else:
        rhs = (Lm if n == 0 else Ln if m == 0 else L(n + m, S)).scale(n - m)
    diff = lhs - rhs
    if diff.is_zero():
        return CheckReport(True)
    return CheckReport(False, None, f"[L_{n}, L_{m}] defect: {diff}")


def sl2_relations_check(params: ActionParams, mov: Movie | FoamSum) -> CheckReport:
    """Check [e,f] = h, [h,e] = 2e, [h,f] = -2f on a movie.

    Each generator is applied to the movie once, first ``f``, then ``e``,
    then ``h``: nine applications in all.
    """
    S = _as_sum(mov, params)
    op = _applier(S.skeleton, params)
    fS, eS, hS = op("f", S), op("e", S), op("h", S)
    for name, defect in (
        ("[e,f]-h", op("e", fS) - op("f", eS) - hS),
        ("[h,e]-2e", op("h", eS) - op("e", hS) - eS.scale(2)),
        ("[h,f]+2f", op("h", fS) - op("f", hS) + fS.scale(2)),
    ):
        if not defect.is_zero():
            return CheckReport(False, None, f"{name} defect: {defect}")
    return CheckReport(True)


# ---------------------------------------------------------------------------
# Compatibility with evaluation
# ---------------------------------------------------------------------------


def witt_act_ratfun(n: int, r: RatFun) -> RatFun:
    """The derivation ``-sum_i X_i^{n+1} d/dX_i`` on a difference-product ratio."""
    ring, vs = r.num.ring, r.num.vars
    num = witt_act(n, r.num)
    if r.den and n >= 0:
        corr = MultiPoly.zero(ring, vs)
        for (i, j), q in r.den.items():
            # (X_i^{n+1} - X_j^{n+1}) / (X_i - X_j), the two-variable
            # complete homogeneous polynomial of degree n
            h = MultiPoly.zero(ring, vs)
            for u in range(n + 1):
                exp = [0] * len(vs)
                exp[i], exp[j] = u, n - u
                h = h + MultiPoly(ring, vs, {tuple(exp): 1})
            corr = corr + h * q
        num = num + r.num * corr
    return RatFun(num, r.den)


def colored_compat_check(mov: Movie, n: int, params: ActionParams) -> CheckReport:
    """Per-coloring refinement of :func:`verify_compat`.

    Colorings transfer between a closed movie and every summand of its
    operator image (the facets are identical); for each coloring the summed
    colored value of the image must equal the derivation applied to the
    colored value, including the denominator corrections.
    """
    F = compile_movie(mov)
    walk = EulerWalk(F)
    S = act_witt(n, params, mov)
    terms = []
    for coef, m in S.movies():
        Ft = compile_movie(m)
        terms.append((coef, Ft, EulerWalk(Ft)))
    for col in enumerate_colorings(F, params.N):
        rhs = witt_act_ratfun(n, colored_eval(F, col, params.N, params.ring, walk))
        # the zero part gives the sum its alphabet when the image is empty
        parts = [RatFun(MultiPoly.zero(params.ring, xvars(params.N)))]
        parts += [
            colored_eval(Ft, col, params.N, params.ring, walk_t) * coef
            for coef, Ft, walk_t in terms
        ]
        lhs = ratfun_sum(parts)
        if lhs != rhs:
            return CheckReport(False, col, f"{lhs} != {rhs}")
    return CheckReport(True)


def verify_compat(
    mov: Movie, n: int, params: ActionParams
) -> CheckReport:
    """Check that evaluation intertwines the movie-level operator with the
    derivation on its value; for n = 0 additionally checks the degree
    eigenvalue -deg/2."""
    base = evaluate(mov, params.N, params.ring)
    S = act_witt(n, params, mov)
    lhs = S.value()
    rhs = witt_act(n, base.value)
    if lhs != rhs:
        return CheckReport(False, None, f"<L_{n} F> = {lhs} != L_{n}<F> = {rhs}")
    if n == 0 and not base.value.is_zero():
        d = degree(mov, params.N)
        if rhs != base.value * (-(d // 2)):
            return CheckReport(
                False, None, f"L_0 eigenvalue mismatch: {rhs} vs -{d // 2} * value"
            )
    return CheckReport(True)
