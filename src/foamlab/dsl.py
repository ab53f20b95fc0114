"""Textual description format for webs, movies, decorations and parameters.

One file may declare named webs, movies, decoration polynomials and
operator parameter packs.  Parsing produces a :class:`FoamFile` holding
the declarations as small syntax trees; webs and parameter packs can be
built immediately, while movies are realized on demand (decorations that
mention the complementary alphabet need the ambient number of pigments).

The printer emits a canonical normal form; parsing, printing and parsing
again is the identity on the syntax trees.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .actions import ActionParams
from .errors import InputError, WrongRing
from .foamcore import Edge, Movie, MovieBuilder, Vertex, Web, validate_web
from .polyring import (
    CoefRing,
    GF,
    MultiPoly,
    QQ,
    SymPoly,
    WittSequence,
    ZZ,
    complete_homogeneous,
    elementary,
    facet_vars,
    power_sum,
)

__all__ = [
    "FoamFile",
    "parse",
    "dumps",
    "normalize",
    "parse_pack",
    "parse_ring",
    "parse_scalar",
    "parse_witt_spec",
    "witt_spec_text",
]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[{}();,=^*/+\[\]:-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # "int" | "name" | "punct" | "arrow" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise InputError(
                f"line {line}, column {col}: unexpected character {text[pos]!r}"
            )
        kind = m.lastgroup
        tok_text = m.group()
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, tok_text, line, col))
        newlines = tok_text.count("\n")
        if newlines:
            line += newlines
            col = len(tok_text) - tok_text.rfind("\n")
        else:
            col += len(tok_text)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Stream:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0
        self.depth = 0  # open parentheses

    @property
    def cur(self) -> _Tok:
        return self.toks[self.i]

    def error(self, msg: str) -> InputError:
        t = self.cur
        return InputError(f"line {t.line}, column {t.col}: {msg}")

    def take(self, kind: str, text: str | None = None) -> _Tok:
        t = self.cur
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {t.text or 'end of file'!r}")
        self.i += 1
        return t

    def accept(self, kind: str, text: str | None = None) -> _Tok | None:
        t = self.cur
        if t.kind == kind and (text is None or t.text == text):
            self.i += 1
            return t
        return None

    def name(self) -> str:
        return self.take("name").text

    def integer(self) -> int:
        return int(self.take("int").text)


# ---------------------------------------------------------------------------
# Syntax trees
# ---------------------------------------------------------------------------

# Polynomial expressions are nested tuples:
#   ("int", n) ("sym", kind, k) with kind in {"e", "h", "p", "phat"}
#   ("X", i) ("ref", name) ("neg", x) ("pow", x, k)
#   ("sum", t1, t2, ...) ("mul", f1, f2, ...): the flat chains the grammar
#   writes, each at least two long; a subtracted term is stored negated
PolyExpr = tuple


@dataclass(frozen=True)
class EdgeDecl:
    id: str
    thickness: int


@dataclass(frozen=True)
class VertexDecl:
    id: str
    kind: str  # "merge" | "split"
    ins: tuple[str, ...]
    outs: tuple[str, ...]


@dataclass(frozen=True)
class WebDecl:
    name: str
    edges: tuple[EdgeDecl, ...]
    vertices: tuple[VertexDecl, ...]


@dataclass(frozen=True)
class MoveStmt:
    op: str
    args: tuple[int, ...] = ()
    on: tuple[str, ...] = ()
    out: str | None = None
    poly: PolyExpr | None = None


@dataclass(frozen=True)
class MovieDecl:
    name: str
    web: str  # "empty" or a web name
    moves: tuple[MoveStmt, ...]


@dataclass(frozen=True)
class ParamsDecl:
    name: str
    entries: tuple[tuple[str, str], ...]  # normalized key/value text pairs


@dataclass
class FoamFile:
    """Parsed declarations of a foam description file."""

    webs: dict[str, WebDecl] = field(default_factory=dict)
    movies: dict[str, MovieDecl] = field(default_factory=dict)
    polys: dict[str, PolyExpr] = field(default_factory=dict)
    params: dict[str, ParamsDecl] = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FoamFile):
            return NotImplemented
        return (
            self.webs == other.webs
            and self.movies == other.movies
            and self.polys == other.polys
            and self.params == other.params
        )

    # -- builders -----------------------------------------------------------

    def build_web(self, name: str) -> Web:
        if name == "empty":
            return Web.empty()
        if name not in self.webs:
            raise InputError(f"unknown web {name!r}")
        return _realize_web(self.webs[name])

    def build_movie(self, name: str, N: int | None = None) -> Movie:
        if name not in self.movies:
            raise InputError(f"unknown movie {name!r}")
        return _realize_movie(self, self.movies[name], N)

    def build_params(self, name: str) -> ActionParams:
        if name not in self.params:
            raise InputError(f"unknown parameter pack {name!r}")
        entries = self.params[name].entries
        texts = dict(entries)
        if len(texts) != len(entries):
            raise InputError(f"parameter pack {name!r} repeats a key")
        if "ring" not in texts or "N" not in texts:
            raise InputError(f"parameter pack {name!r} needs ring and N")
        return parse_pack(texts)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def parse(text: str) -> FoamFile:
    """Parse a foam description file; errors carry line and column."""
    s = _Stream(_tokenize(text))
    ff = FoamFile()
    while s.cur.kind != "eof":
        kw = s.take("name").text
        if kw == "web":
            decl = _parse_web(s)
            _declare(ff.webs, decl.name, decl, s)
        elif kw == "movie":
            decl = _parse_movie(s)
            _declare(ff.movies, decl.name, decl, s)
        elif kw == "poly":
            pname = s.name()
            if pname == "hat" or _SYM_ATOM.match(pname) or _X_ATOM.match(pname):
                s.i -= 1
                raise s.error(f"{pname!r} is an atom and cannot name a polynomial")
            s.take("punct", "=")
            expr = _parse_poly(s)
            s.take("punct", ";")
            _declare(ff.polys, pname, expr, s)
        elif kw == "params":
            decl = _parse_params(s)
            _declare(ff.params, decl.name, decl, s)
        else:
            s.i -= 1
            raise s.error(f"expected a declaration keyword, found {kw!r}")
    _check_references(ff)
    return ff


def _declare(table: dict, name: str, decl, s: _Stream) -> None:
    if name in table:
        raise s.error(f"duplicate declaration of {name!r}")
    table[name] = decl


def _parse_web(s: _Stream) -> WebDecl:
    name = s.name()
    s.take("punct", "{")
    edges: list[EdgeDecl] = []
    vertices: list[VertexDecl] = []
    while not s.accept("punct", "}"):
        kw = s.take("name").text
        if kw == "edge":
            eid = s.name()
            s.take("name", "thickness")
            k = s.integer()
            if s.accept("name", "orient"):
                s.take("name")  # direction word: accepted, not stored
            s.take("punct", ";")
            edges.append(EdgeDecl(eid, k))
        elif kw == "vertex":
            vid = s.name()
            kind = s.take("name").text
            if kind not in ("merge", "split"):
                s.i -= 1
                raise s.error(f"vertex kind must be merge or split, found {kind!r}")
            s.take("punct", "(")
            ins = [s.name()]
            while s.accept("punct", ","):
                ins.append(s.name())
            s.take("punct", ";")
            outs = [s.name()]
            while s.accept("punct", ","):
                outs.append(s.name())
            s.take("punct", ")")
            s.take("punct", ";")
            vertices.append(VertexDecl(vid, kind, tuple(ins), tuple(outs)))
        else:
            s.i -= 1
            raise s.error(f"expected 'edge' or 'vertex', found {kw!r}")
    return WebDecl(name, tuple(edges), tuple(vertices))


_MOVE_SHAPES = {
    # op: (number of integer args, number of 'on' edges, has '->' output)
    "cup": (1, 0, True),
    "cap": (1, 1, False),
    "saddle": (0, 2, False),
    "zip": (2, 2, False),
    "unzip": (0, 1, False),
    "digon_cup": (2, 1, False),
    "digon_cap": (0, 2, False),
    "assoc": (0, 1, False),
    "coassoc": (0, 1, False),
}


def _parse_movie(s: _Stream) -> MovieDecl:
    name = s.name()
    s.take("name", "on")
    web = s.name()
    s.take("punct", "{")
    moves: list[MoveStmt] = []
    while not s.accept("punct", "}"):
        op = s.take("name").text
        if op == "decorate":
            eid = s.name()
            s.take("name", "with")
            expr = _parse_poly(s)
            s.take("punct", ";")
            moves.append(MoveStmt("decorate", on=(eid,), poly=expr))
            continue
        if op not in _MOVE_SHAPES:
            s.i -= 1
            raise s.error(f"unknown move {op!r}")
        n_args, n_on, has_out = _MOVE_SHAPES[op]
        args: tuple[int, ...] = ()
        if n_args:
            s.take("punct", "(")
            got = [s.integer()]
            while s.accept("punct", ","):
                got.append(s.integer())
            s.take("punct", ")")
            if len(got) != n_args:
                raise s.error(f"{op} takes {n_args} thickness argument(s)")
            args = tuple(got)
        on: tuple[str, ...] = ()
        if n_on:
            s.take("name", "on")
            if n_on == 1:
                on = (s.name(),)
            else:
                s.take("punct", "(")
                ids = [s.name()]
                while s.accept("punct", ","):
                    ids.append(s.name())
                s.take("punct", ")")
                if len(ids) != n_on:
                    raise s.error(f"{op} acts on {n_on} edges")
                on = tuple(ids)
        out = None
        if has_out and s.accept("arrow"):
            out = s.name()
        s.take("punct", ";")
        moves.append(MoveStmt(op, args, on, out))
    return MovieDecl(name, web, tuple(moves))


def _parse_params(s: _Stream) -> ParamsDecl:
    name = s.name()
    s.take("punct", "{")
    entries: list[tuple[str, str]] = []
    while not s.accept("punct", "}"):
        key = s.take("name").text
        if key not in _PACK_KEYS:
            s.i -= 1
            raise s.error(f"unknown parameter key {key!r}")
        value = _parse_value_text(s)
        s.take("punct", ";")
        entries.append((key, value))
    return ParamsDecl(name, tuple(entries))


def _parse_value_text(s: _Stream) -> str:
    """A parameter value: everything up to the closing semicolon, normalized."""
    parts: list[str] = []
    depth = 0
    while True:
        t = s.cur
        if t.kind == "eof":
            raise s.error("unterminated parameter value")
        if t.kind == "punct" and t.text == ";" and depth == 0:
            break
        if t.kind == "punct" and t.text == "[":
            depth += 1
        if t.kind == "punct" and t.text == "]":
            depth -= 1
        parts.append(t.text)
        s.i += 1
    if not parts:
        raise s.error("empty parameter value")
    return "".join(parts)


# polynomial expressions: sum -> product -> power -> atom

_SYM_ATOM = re.compile(r"^(e|h|p)_(\d+)$")
# The most parentheses open at once, and the greatest height of a polynomial
# with its references expanded (a chain of terms or factors is one level):
# every recursive walk stays far inside Python's recursion limit.
_MAX_NESTING = 100
_X_ATOM = re.compile(r"^X_?(\d+)$")


def _parse_poly(s: _Stream) -> PolyExpr:
    terms = [_parse_product(s)]
    while True:
        if s.accept("punct", "+"):
            terms.append(_parse_product(s))
        elif s.accept("punct", "-"):
            terms.append(("neg", _parse_product(s)))
        else:
            return terms[0] if len(terms) == 1 else ("sum", *terms)


def _parse_product(s: _Stream) -> PolyExpr:
    negations = 0
    while s.accept("punct", "-"):
        negations += 1
    factors = [_parse_power(s)]
    while s.accept("punct", "*"):
        factors.append(_parse_power(s))
    expr = factors[0] if len(factors) == 1 else ("mul", *factors)
    for _ in range(negations):
        expr = ("neg", expr)
    return expr


def _parse_power(s: _Stream) -> PolyExpr:
    base = _parse_atom(s)
    if s.accept("punct", "^"):
        return ("pow", base, s.integer())
    return base


def _parse_atom(s: _Stream) -> PolyExpr:
    if s.accept("punct", "("):
        s.depth += 1
        if s.depth > _MAX_NESTING:
            raise s.error(f"parentheses nested more than {_MAX_NESTING} deep")
        expr = _parse_poly(s)
        s.take("punct", ")")
        s.depth -= 1
        return expr
    t = s.cur
    if t.kind == "int":
        s.i += 1
        return ("int", int(t.text))
    if t.kind == "name":
        s.i += 1
        if t.text == "hat":
            s.take("punct", "(")
            inner = s.take("name").text
            m = _SYM_ATOM.match(inner)
            if not m or m.group(1) != "p":
                raise s.error("hat(...) takes a power sum p_k")
            s.take("punct", ")")
            return ("sym", "phat", int(m.group(2)))
        m = _SYM_ATOM.match(t.text)
        if m:
            return ("sym", m.group(1), int(m.group(2)))
        m = _X_ATOM.match(t.text)
        if m:
            return ("X", int(m.group(1)))
        return ("ref", t.text)
    raise s.error(f"expected a polynomial atom, found {t.text or 'end of file'!r}")


def _check_references(ff: FoamFile) -> None:
    heights: dict[str, int | None] = {}
    for decl in ff.movies.values():
        if decl.web != "empty" and decl.web not in ff.webs:
            raise InputError(
                f"movie {decl.name!r} starts on undeclared web {decl.web!r}"
            )
        for mv in decl.moves:
            if mv.poly is not None:
                _check_poly_refs(ff, mv.poly, decl.name, heights)
    for name in ff.polys:
        _check_poly_refs(ff, ("ref", name), name, heights)


def _check_poly_refs(ff: FoamFile, expr: PolyExpr, where: str, heights: dict, level=1) -> int:
    """The height of ``expr``, ``level`` deep in the walk, with its
    references expanded; ``heights`` keeps each named polynomial's, None
    while it is being expanded.

    Raises :class:`InputError` for an unknown reference, a cycle of
    references, or a height above ``_MAX_NESTING``, which bounds every
    recursive walk over a polynomial.
    """
    if level > _MAX_NESTING:
        raise InputError(f"{where!r}: polynomial nested more than {_MAX_NESTING} deep")
    if expr[0] != "ref":
        subs = [sub for sub in expr[1:] if isinstance(sub, tuple)]
        height = 1 + max(
            (_check_poly_refs(ff, sub, where, heights, level + 1) for sub in subs), default=0
        )
    else:
        name = expr[1]
        if name not in ff.polys:
            raise InputError(f"{where!r} references unknown polynomial {name!r}")
        if name not in heights:
            heights[name] = None
            heights[name] = _check_poly_refs(ff, ff.polys[name], name, heights, level + 1)
        elif heights[name] is None:
            path = [n for n, h in heights.items() if h is None]
            cycle = " -> ".join(path[path.index(name):] + [name])
            raise InputError(f"polynomial {name!r} refers to itself: {cycle}")
        height = 1 + heights[name]
    if height > _MAX_NESTING:
        raise InputError(f"{where!r}: polynomial nested more than {_MAX_NESTING} deep")
    return height


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------


def _realize_web(decl: WebDecl) -> Web:
    tails: dict[str, str] = {}
    heads: dict[str, str] = {}
    for v in decl.vertices:
        for e in v.ins:
            heads[e] = v.id
        for e in v.outs:
            tails[e] = v.id
    edges = {
        e.id: Edge(e.id, e.thickness, tails.get(e.id), heads.get(e.id))
        for e in decl.edges
    }
    vertices = {
        v.id: Vertex(v.id, v.kind, v.ins, v.outs) for v in decl.vertices
    }
    web = Web(edges, vertices)
    validate_web(web)
    return web


def _uses_hat(ff: FoamFile, expr: PolyExpr, seen: set[str]) -> bool:
    """Whether ``expr`` mentions hat(p_k); the names in ``seen`` were read and do not."""
    tag = expr[0]
    if tag == "sym":
        return expr[1] == "phat"
    if tag == "ref":
        if expr[1] in seen:
            return False
        seen.add(expr[1])
        return _uses_hat(ff, ff.polys[expr[1]], seen)
    return any(_uses_hat(ff, sub, seen) for sub in expr[1:] if isinstance(sub, tuple))


def _realize_poly(
    ff: FoamFile, expr: PolyExpr, variables: tuple[str, ...], a: int, named: dict
) -> MultiPoly:
    """``expr`` over Z; ``named`` keeps each named polynomial realized so far."""
    inner = variables[:a]
    tag = expr[0]
    if tag == "int":
        return MultiPoly.const(ZZ, variables, expr[1])
    if tag == "sym":
        kind, k = expr[1], expr[2]
        if kind == "e":
            return elementary(ZZ, inner, k).extend(variables)
        if kind == "h":
            return complete_homogeneous(ZZ, inner, k).extend(variables)
        if kind == "p":
            return power_sum(ZZ, inner, k).extend(variables)
        return power_sum(ZZ, variables[a:], k).extend(variables)
    if tag == "X":
        raise InputError("the global alphabet cannot decorate a facet")
    if tag == "ref":
        name = expr[1]
        if name not in named:
            named[name] = _realize_poly(ff, ff.polys[name], variables, a, named)
        return named[name]
    parts = [
        _realize_poly(ff, sub, variables, a, named) for sub in expr[1:] if isinstance(sub, tuple)
    ]
    if tag == "sum":
        return sum(parts)
    if tag == "mul":
        return math.prod(parts)
    if tag == "neg":
        return -parts[0]
    return parts[0] ** expr[2]  # "pow"


def _realize_decoration(ff: FoamFile, expr: PolyExpr, a: int, N: int | None) -> SymPoly:
    """A decoration over Z; evaluation maps it into the coefficient ring."""
    blocks = (a,)
    if _uses_hat(ff, expr, set()):
        if N is None:
            raise InputError("decoration uses hat(p_k); pass the number of pigments")
        if N - a < 0:
            raise InputError(f"facet thickness {a} exceeds N={N}")
        blocks = (a, N - a)
    return SymPoly(_realize_poly(ff, expr, facet_vars(*blocks), a, {}), blocks)


def _realize_movie(ff: FoamFile, decl: MovieDecl, N: int | None) -> Movie:
    b = MovieBuilder(input_web=ff.build_web(decl.web))

    def edge(eid: str) -> str:
        if eid not in b.web.edges:
            raise InputError(
                f"movie {decl.name!r}: edge {eid!r} is not in the current slice"
            )
        return eid

    for mv in decl.moves:
        if mv.op == "cup":
            b.cup(mv.args[0], mv.out)
        elif mv.op == "cap":
            e = edge(mv.on[0])
            if b.web.edges[e].thickness != mv.args[0]:
                raise InputError(
                    f"movie {decl.name!r}: cap({mv.args[0]}) on edge {e!r} of"
                    f" thickness {b.web.edges[e].thickness}"
                )
            b.cap(e)
        elif mv.op == "zip":
            ea, eb = edge(mv.on[0]), edge(mv.on[1])
            for eid, want in zip((ea, eb), mv.args):
                if b.web.edges[eid].thickness != want:
                    raise InputError(
                        f"movie {decl.name!r}: zip thickness {want} != edge"
                        f" {eid!r} thickness {b.web.edges[eid].thickness}"
                    )
            b.zip(ea, eb)
        elif mv.op == "decorate":
            e = edge(mv.on[0])
            a = b.web.edges[e].thickness
            b.decorate(e, _realize_decoration(ff, mv.poly, a, N))
        else:  # saddle, unzip, digon_cup, digon_cap, assoc, coassoc
            getattr(b, mv.op)(*map(edge, mv.on), *mv.args)
    return b.movie()


# -- parameter packs --------------------------------------------------------


def parse_ring(text: str) -> CoefRing:
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    m = re.match(r"^F(\d+)$", text)
    if m:
        return GF(int(m.group(1)))
    raise InputError(f"unknown ring {text!r} (use Z, Q or F<p>)")


def parse_scalar(text: str):
    m = re.match(r"^(-?\d+)(?:/(\d+))?$", text)
    if not m:
        raise InputError(f"bad scalar {text!r}")
    if m.group(2) is None:
        return int(m.group(1))
    if int(m.group(2)) == 0:
        raise InputError(f"zero denominator in {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2)))


def parse_witt_spec(text: str, ring: CoefRing, name: str = "sequence") -> WittSequence:
    """``lin:<slope>`` or ``tab:[v_-1,v_0,...]`` sequence descriptions.

    A value outside ``ring`` raises :class:`InputError` naming ``name``.
    """
    try:
        if text.startswith("lin:"):
            return WittSequence.linear(ring, parse_scalar(text[4:]))
        if text.startswith("tab:"):
            body = text[4:]
            if not (body.startswith("[") and body.endswith("]")):
                raise InputError(f"bad table spec {text!r}")
            values = [parse_scalar(v) for v in body[1:-1].split(",") if v]
            return WittSequence.from_table(ring, values)
    except WrongRing as exc:
        raise InputError(f"{name} {text} is not over {ring}: {exc}") from None
    raise InputError(f"bad sequence spec {text!r} (use lin:<v> or tab:[...])")


def witt_spec_text(seq: WittSequence) -> str:
    if seq.kind == "linear":
        return f"lin:{seq.slope}"
    return "tab:[" + ",".join(str(seq(n)) for n in range(-1, seq.n_max + 1)) + "]"


# The keys of a pack, in a ``params`` block and on the command line.
_PACK_KEYS = ("ring", "N", "s", "t1", "t2", "t3", "nu1", "nu2", "nu3", "spherical")


def parse_pack(texts: dict[str, str]) -> ActionParams:
    """The pack written by ``texts``, a value text per key of ``_PACK_KEYS``.

    ``ring`` and ``N`` are required; a key left out takes the default of
    :class:`~foamlab.actions.ActionParams`.
    """
    ring = parse_ring(texts["ring"])
    n_text = texts["N"]
    if not re.fullmatch(r"-?\d+", n_text):
        raise InputError(f"N must be an integer, not {n_text!r}")
    kwargs: dict = {"ring": ring, "N": int(n_text)}
    for key in ("s", "t1", "t2", "t3"):
        if key in texts:
            kwargs[key] = parse_scalar(texts[key])
    for key in ("nu1", "nu2", "nu3"):
        if key in texts:
            kwargs[key] = parse_witt_spec(texts[key], ring, key)
    if "spherical" in texts:
        value = texts["spherical"]
        if value not in ("true", "false"):
            raise InputError(f"spherical must be true or false, not {value!r}")
        kwargs["spherical"] = value == "true"
    return ActionParams(**kwargs)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def dumps(ff: FoamFile) -> str:
    """Canonical text for a parsed file (declaration order preserved)."""
    blocks: list[str] = []
    for decl in ff.webs.values():
        lines = [f"web {decl.name} {{"]
        for e in decl.edges:
            lines.append(f"  edge {e.id} thickness {e.thickness};")
        for v in decl.vertices:
            ins = ",".join(v.ins)
            outs = ",".join(v.outs)
            lines.append(f"  vertex {v.id} {v.kind} ({ins};{outs});")
        lines.append("}")
        blocks.append("\n".join(lines))
    for name, expr in ff.polys.items():
        blocks.append(f"poly {name} = {poly_text(expr)};")
    for decl in ff.params.values():
        lines = [f"params {decl.name} {{"]
        for key, value in decl.entries:
            lines.append(f"  {key} {value};")
        lines.append("}")
        blocks.append("\n".join(lines))
    for decl in ff.movies.values():
        lines = [f"movie {decl.name} on {decl.web} {{"]
        for mv in decl.moves:
            lines.append(f"  {_move_text(mv)};")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _move_text(mv: MoveStmt) -> str:
    if mv.op == "decorate":
        return f"decorate {mv.on[0]} with {poly_text(mv.poly)}"
    parts = [mv.op]
    if mv.args:
        parts.append("(" + ",".join(str(a) for a in mv.args) + ")")
    text = "".join(parts)
    if mv.on:
        if len(mv.on) == 1:
            text += f" on {mv.on[0]}"
        else:
            text += " on (" + ",".join(mv.on) + ")"
    if mv.out is not None:
        text += f" -> {mv.out}"
    return text


# The tags parenthesized as a term of a sum or the operand of a negation, as
# a factor of a product, and as the base of a power.
_TERM = ("sum",)
_FACTOR = ("sum", "neg", "mul")
_BASE = ("sum", "neg", "mul", "pow")


def poly_text(expr: PolyExpr, wrapped: tuple[str, ...] = ()) -> str:
    """``expr`` as the grammar writes it, in parentheses when its tag is in
    ``wrapped``."""
    tag = expr[0]
    if tag in wrapped:
        return f"({poly_text(expr)})"
    if tag == "int":
        return str(expr[1])
    if tag == "sym":
        if expr[1] == "phat":
            return f"hat(p_{expr[2]})"
        return f"{expr[1]}_{expr[2]}"
    if tag == "X":
        return f"X_{expr[1]}"
    if tag == "ref":
        return expr[1]
    if tag == "sum":
        return poly_text(expr[1], _TERM) + "".join(
            f" - {poly_text(t[1], _TERM)}" if t[0] == "neg" else f" + {poly_text(t, _TERM)}"
            for t in expr[2:]
        )
    if tag == "mul":
        return "*".join(poly_text(factor, _FACTOR) for factor in expr[1:])
    if tag == "neg":
        return f"-{poly_text(expr[1], _TERM)}"
    return f"{poly_text(expr[1], _BASE)}^{expr[2]}"  # "pow"


def normalize(text: str) -> str:
    """The canonical form of a file: parse it and print it back."""
    return dumps(parse(text))
