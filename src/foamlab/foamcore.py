"""Webs, movie-presented foams, and their compiled combinatorial complexes.

A *web* is a closed oriented trivalent graph whose edges carry a thickness;
at every vertex two thin edges of thicknesses a and b meet one thick edge of
thickness a+b (merge: thin in, thick out; split: thick in, thin out).
Vertex-free circle edges are allowed.

A foam is presented as a *movie*: an input web and a list of basic moves,
each rewriting the current slice locally.  Compiling a movie produces a
:class:`FoamComplex` that records the stratification of the swept surface:

* facets (maximal sheets between seams) with exact compact-surface Euler
  characteristics, thicknesses and decorations,
* bindings (maximal seam arcs/circles where two thin sheets meet a thick
  one) with slot-ordered side data used for seam-sign bookkeeping,
* singular points (from reassociation moves) where four seams meet.

Euler characteristics are accumulated additively over the canonical
stratified cell decomposition of the movie: every slab contributes the
compactly-supported Euler characteristic of its open pieces and every
internal interface contributes that of its web cells.  This is exact for
closed movies; for movies with boundary the tallies are relative to the
boundary web (only closed movies are ever evaluated).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    BoundaryMismatch,
    InputError,
    PatternMismatch,
    SeamSignInconsistent,
    WebInvalid,
)
from .polyring import MultiPoly, SymPoly

# ---------------------------------------------------------------------------
# Webs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    id: str
    thickness: int
    tail: str | None  # vertex id, None for circle edges
    head: str | None

    @property
    def is_circle(self) -> bool:
        return self.tail is None and self.head is None


@dataclass(frozen=True)
class Vertex:
    id: str
    kind: str  # "merge" | "split"
    ins: tuple[str, ...]  # slot-ordered incoming edge ids
    outs: tuple[str, ...]  # slot-ordered outgoing edge ids


class Web:
    """An immutable web slice: edges and trivalent split/merge vertices."""

    __slots__ = ("edges", "vertices")

    def __init__(self, edges: Mapping[str, Edge] = (), vertices: Mapping[str, Vertex] = ()):
        self.edges = dict(edges)
        self.vertices = dict(vertices)

    @classmethod
    def empty(cls) -> "Web":
        return cls()

    @classmethod
    def circle(cls, thickness: int, edge_id: str = "c") -> "Web":
        return cls({edge_id: Edge(edge_id, thickness, None, None)})

    def is_empty(self) -> bool:
        return not self.edges and not self.vertices

    def __eq__(self, other) -> bool:
        if not isinstance(other, Web):
            return NotImplemented
        return self.edges == other.edges and self.vertices == other.vertices

    def __hash__(self):
        return hash(
            (tuple(sorted(self.edges.items(), key=lambda kv: kv[0])),
             tuple(sorted(self.vertices.items(), key=lambda kv: kv[0])))
        )

    def with_changes(
        self,
        drop_edges: Iterable[str] = (),
        drop_vertices: Iterable[str] = (),
        add_edges: Iterable[Edge] = (),
        add_vertices: Iterable[Vertex] = (),
    ) -> "Web":
        drop_edges, drop_vertices = set(drop_edges), set(drop_vertices)
        edges = {k: v for k, v in self.edges.items() if k not in drop_edges}
        vertices = {k: v for k, v in self.vertices.items() if k not in drop_vertices}
        for e in add_edges:
            if e.id in edges:
                raise PatternMismatch(f"edge id {e.id} already present")
            edges[e.id] = e
        for v in add_vertices:
            if v.id in vertices:
                raise PatternMismatch(f"vertex id {v.id} already present")
            vertices[v.id] = v
        return Web(edges, vertices)

    def replace_edge_endpoint_refs(self, old_edge: str, new_edge: str, at: Iterable[str]) -> "Web":
        """Rewrite vertex slot references from one edge id to another."""
        vertices = dict(self.vertices)
        for vid in at:
            v = vertices[vid]
            vertices[vid] = Vertex(
                v.id,
                v.kind,
                tuple(new_edge if e == old_edge else e for e in v.ins),
                tuple(new_edge if e == old_edge else e for e in v.outs),
            )
        return Web(self.edges, vertices)


def validate_web(w: Web) -> None:
    """Raise :class:`WebInvalid` describing the first violated condition."""
    for e in w.edges.values():
        if e.thickness < 1:
            raise WebInvalid(f"edge {e.id}: thickness must be >= 1")
        if (e.tail is None) != (e.head is None):
            raise WebInvalid(f"edge {e.id}: half-attached edge")
        for vid in (e.tail, e.head):
            if vid is not None and vid not in w.vertices:
                raise WebInvalid(f"edge {e.id}: missing vertex {vid}")
    for v in w.vertices.values():
        if v.kind == "merge":
            if len(v.ins) != 2 or len(v.outs) != 1:
                raise WebInvalid(f"vertex {v.id}: merge must have two in, one out")
        elif v.kind == "split":
            if len(v.ins) != 1 or len(v.outs) != 2:
                raise WebInvalid(f"vertex {v.id}: split must have one in, two out")
        else:
            raise WebInvalid(f"vertex {v.id}: unknown kind {v.kind!r}")
        for eid in v.ins:
            e = w.edges.get(eid)
            if e is None or e.head != v.id:
                raise WebInvalid(f"vertex {v.id}: edge {eid} is not incoming")
        for eid in v.outs:
            e = w.edges.get(eid)
            if e is None or e.tail != v.id:
                raise WebInvalid(f"vertex {v.id}: edge {eid} is not outgoing")
        t_in = sum(w.edges[e].thickness for e in v.ins)
        t_out = sum(w.edges[e].thickness for e in v.outs)
        if t_in != t_out:
            raise WebInvalid(
                f"vertex {v.id}: flow violation {t_in} != {t_out} (FlowViolation)"
            )
    # Count incidences: every edge endpoint must be registered in a slot.
    slot_count: dict[str, int] = {}
    for v in w.vertices.values():
        for eid in v.ins + v.outs:
            slot_count[eid] = slot_count.get(eid, 0) + 1
    for e in w.edges.values():
        expected = (0 if e.tail is None else 1) + (0 if e.head is None else 1)
        if e.tail == e.head and e.tail is not None:
            expected = 2
        if slot_count.get(e.id, 0) != expected:
            raise WebInvalid(f"edge {e.id}: endpoint/slot mismatch")


def check_planarity(w: Web, rotations: Mapping[str, tuple[str, str, str]]) -> bool:
    """Check that an explicit rotation system embeds each component in S^2.

    ``rotations`` gives, per vertex, the cyclic (counterclockwise) order of
    its three incident edge ids.  Circle components are ignored (always
    planar).  Returns True iff every connected component with vertices has
    Euler characteristic 2 under the rotation system.  Raises
    :class:`InputError` unless ``rotations`` orders exactly the incident
    edges of every vertex.
    """
    # (edge, end) with end in {"tail", "head"}, the edges at each vertex,
    # and the components over vertices
    darts = []
    at: dict[str, list[str]] = {vid: [] for vid in w.vertices}
    uf = _UF()
    for vid in w.vertices:
        uf.make(vid)
    for e in w.edges.values():
        if not e.is_circle:
            darts += [(e.id, "tail"), (e.id, "head")]
            at[e.tail].append(e.id)
            at[e.head].append(e.id)
            uf.union(e.tail, e.head)
    for vid in sorted(set(rotations) | set(at)):
        edges = sorted(at.get(vid, ()))
        if vid not in at or sorted(rotations.get(vid, ())) != edges:
            raise InputError(
                f"rotation {rotations.get(vid)} at {vid!r} does not order its edges {edges}"
            )
    # next dart around a vertex per rotation
    succ = {}
    for vid, order in rotations.items():
        incident = []
        for eid in order:
            e = w.edges[eid]
            end = "tail" if e.tail == vid else "head"
            # loops at a vertex appear twice; disambiguate by multiplicity
            if (eid, end) in incident:
                end = "head" if end == "tail" else "tail"
            incident.append((eid, end))
        for k, d in enumerate(incident):
            succ[d] = incident[(k + 1) % 3]
    # faces = orbits of d -> succ[flip(d)]
    seen = set()
    faces = 0
    for d in darts:
        if d not in seen:
            faces += 1
            while d not in seen:
                seen.add(d)
                d = succ[(d[0], "head" if d[1] == "tail" else "tail")]
    n_comp = len({uf.find(v) for v in w.vertices})
    return len(w.vertices) - len(darts) // 2 + faces == 2 * n_comp


# ---------------------------------------------------------------------------
# Basic moves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cup:
    thickness: int
    out_edge: str


@dataclass(frozen=True)
class Cap:
    edge: str


@dataclass(frozen=True)
class Saddle:
    edge1: str
    edge2: str
    out1: str
    out2: str | None = None


@dataclass(frozen=True)
class Zip:
    edge_a: str
    edge_b: str
    merge_v: str
    split_v: str
    thick_edge: str
    out_a1: str
    out_a2: str
    out_b1: str
    out_b2: str


@dataclass(frozen=True)
class Unzip:
    thick_edge: str
    out_a: str
    out_b: str


@dataclass(frozen=True)
class DigonCup:
    edge: str
    a: int
    b: int
    split_v: str
    merge_v: str
    edge_a: str
    edge_b: str
    out_low: str
    out_high: str


@dataclass(frozen=True)
class DigonCap:
    edge_a: str
    edge_b: str
    out_edge: str


@dataclass(frozen=True)
class Assoc:
    """Reassociation of two adjacent merge vertices across their middle edge."""

    mid_edge: str
    out_mid: str


@dataclass(frozen=True)
class Coassoc:
    """Reassociation of two adjacent split vertices across their middle edge."""

    mid_edge: str
    out_mid: str


@dataclass(frozen=True)
class Decorate:
    edge: str
    poly: SymPoly  # blocks (inner, outer); outer may be empty


@dataclass(frozen=True)
class Isotopy:
    note: str = ""


# A PEP 604 union, not typing.Union: typing caches its unions process-wide,
# which would keep every imported copy of these classes alive.
BasicMove = (
    Cup | Cap | Saddle | Zip | Unzip | DigonCup | DigonCap | Assoc | Coassoc | Decorate | Isotopy
)


def _get_edge(w: Web, eid: str) -> Edge:
    e = w.edges.get(eid)
    if e is None:
        raise PatternMismatch(f"edge {eid} not in slice")
    return e


def _get_vertex(w: Web, vid: str) -> Vertex:
    v = w.vertices.get(vid)
    if v is None:
        raise PatternMismatch(f"vertex {vid} not in slice")
    return v


_REASSOC_TEXTS = {
    Assoc: (
        "assoc middle edge must join two vertices",
        "assoc requires two merge vertices",
        "assoc: middle edge must be the full output of v1",
        "assoc: middle edge must feed v2",
        "assoc requires three distinct thin edges",
    ),
    Coassoc: (
        "coassoc middle edge must join two vertices",
        "coassoc requires two split vertices",
        "coassoc: middle edge must be the full input of v2",
        "coassoc: middle edge must come from v1",
        "coassoc requires three distinct thin edges",
    ),
}


def _reversed(w: Web) -> Web:
    """The web with every arrow turned round: merges become splits and back."""
    kinds = {"merge": "split", "split": "merge"}
    return Web(
        {k: Edge(e.id, e.thickness, e.head, e.tail) for k, e in w.edges.items()},
        {k: Vertex(v.id, kinds.get(v.kind, v.kind), v.outs, v.ins) for k, v in w.vertices.items()},
    )


def _reassoc_pattern(w: Web, m: Assoc | Coassoc) -> tuple[Vertex, Vertex, str, str, str]:
    """The merge vertices ``v1`` and ``v2`` at the tail and head of
    ``m.mid_edge``, the inputs ``x, y`` of ``v1`` and the other input ``z``
    of ``v2``, reporting a mismatch in the texts of ``m``'s move."""
    text = _REASSOC_TEXTS[type(m)]
    g = _get_edge(w, m.mid_edge)
    if g.is_circle:
        raise PatternMismatch(text[0])
    v1 = _get_vertex(w, g.tail)
    v2 = _get_vertex(w, g.head)
    if v1.kind != "merge" or v2.kind != "merge":
        raise PatternMismatch(text[1])
    if v1.outs != (m.mid_edge,):
        raise PatternMismatch(text[2])
    if m.mid_edge not in v2.ins:
        raise PatternMismatch(text[3])
    x_id, y_id = v1.ins
    z_id = v2.ins[1] if v2.ins[0] == m.mid_edge else v2.ins[0]
    if len({x_id, y_id, z_id}) != 3:
        raise PatternMismatch(text[4])
    return v1, v2, x_id, y_id, z_id


def _reassociate(w: Web, m: Assoc | Coassoc) -> Web:
    """Reassociate two adjacent merge vertices across their middle edge,
    reporting a mismatch in the texts of ``m``'s move."""
    v1, v2, x_id, y_id, z_id = _reassoc_pattern(w, m)
    if v2.ins[0] == m.mid_edge:
        # (x+y)+z -> x+(y+z)
        ins1, ins2, kept = (y_id, z_id), (x_id, m.out_mid), x_id
    else:
        # z+(x+y) -> (z+x)+y
        ins1, ins2, kept = (z_id, x_id), (m.out_mid, y_id), y_id
    new_g = Edge(m.out_mid, w.edges[ins1[0]].thickness + w.edges[ins1[1]].thickness,
                 v1.id, v2.id)
    new = w.with_changes(
        drop_edges=[m.mid_edge], drop_vertices=[v1.id, v2.id], add_edges=[new_g],
        add_vertices=[Vertex(v1.id, "merge", ins1, (m.out_mid,)),
                      Vertex(v2.id, "merge", ins2, v2.outs)],
    )
    # z now ends at v1 instead of v2; the kept edge moves to v2
    edges = dict(new.edges)
    edges[z_id] = replace(edges[z_id], head=v1.id)
    edges[kept] = replace(edges[kept], head=v2.id)
    return Web(edges, new.vertices)


def _unzip_pattern(w: Web, thick_edge: str) -> tuple[Vertex, Vertex]:
    """The merge and the split vertex that an unzip of ``thick_edge``
    removes; their slots pair the merge's inputs with the split's outputs."""
    t = _get_edge(w, thick_edge)
    if t.is_circle:
        raise PatternMismatch("unzip requires an edge between two vertices")
    mv = _get_vertex(w, t.tail)
    sv = _get_vertex(w, t.head)
    if mv.kind != "merge" or sv.kind != "split":
        raise PatternMismatch("unzip requires a merge-to-split edge")
    if mv.outs != (thick_edge,) or sv.ins != (thick_edge,):
        raise PatternMismatch("unzip pattern does not match")
    if [w.edges[e].thickness for e in mv.ins] != [w.edges[e].thickness for e in sv.outs]:
        raise PatternMismatch("unzip slot thicknesses do not match")
    return mv, sv


def _digon_pattern(w: Web, edge_a: str, edge_b: str) -> tuple[Vertex, Vertex]:
    """The split and the merge vertex between which ``edge_a`` and
    ``edge_b`` run side by side, in that slot order: the digon a digon-cap
    removes."""
    da = _get_edge(w, edge_a)
    db = _get_edge(w, edge_b)
    if da.tail != db.tail or da.head != db.head or da.tail is None:
        raise PatternMismatch("digon-cap requires a parallel digon pair")
    sv = _get_vertex(w, da.tail)
    mv = _get_vertex(w, da.head)
    if sv.kind != "split" or mv.kind != "merge":
        raise PatternMismatch("digon-cap requires split-to-merge digon")
    if sv.outs != (edge_a, edge_b) or mv.ins != (edge_a, edge_b):
        raise PatternMismatch("digon-cap slot order does not match")
    return sv, mv


Fixup = tuple[str, str, str | None]  # (old edge, new edge, vertex whose slots change)


def _cut(
    e: Edge, first: str, second: str, into: str, out_of: str, move: str
) -> tuple[list[Edge], list[Fixup]]:
    """The arcs that replace ``e`` when ``move`` cuts it open, and their
    fix-ups: ``first`` runs from ``e``'s tail into the vertex ``into`` and
    ``second`` from the vertex ``out_of`` to ``e``'s head.  A circle
    becomes the one arc ``first`` from ``out_of`` round to ``into``."""
    if e.is_circle:
        if first != second:
            raise PatternMismatch(f"{move} on a circle must reuse one arc id")
        return [Edge(first, e.thickness, out_of, into)], []
    return (
        [Edge(first, e.thickness, e.tail, into), Edge(second, e.thickness, out_of, e.head)],
        [(e.id, first, e.tail), (e.id, second, e.head)],
    )


def _rejoin(w: Web, lo: str, hi: str, out: str) -> tuple[Edge, list[Fixup]]:
    """The edge ``out`` that joins ``lo``, which ran into a vertex being
    removed, to ``hi``, which ran out of one, and its fix-ups; a circle
    when ``lo`` and ``hi`` are one edge."""
    a, b = w.edges[lo], w.edges[hi]
    if lo == hi:
        return Edge(out, a.thickness, None, None), []
    return Edge(out, a.thickness, a.tail, b.head), [(lo, out, a.tail), (hi, out, b.head)]


def _rewired(w: Web, fixups: list[Fixup], **changes) -> Web:
    """``w`` with ``changes`` made, then each fix-up ``(old, new, v)``
    applied: the slots of vertex ``v`` hold ``new`` where they held
    ``old``."""
    new = w.with_changes(**changes)
    for old, fresh, at in fixups:
        if at is not None:
            new = new.replace_edge_endpoint_refs(old, fresh, [at])
    return new


def apply_move(w: Web, m: BasicMove) -> Web:
    """Apply a basic move to a web slice, returning the new slice."""
    if isinstance(m, (Decorate, Isotopy)):
        if isinstance(m, Decorate):
            _get_edge(w, m.edge)
        return w

    if isinstance(m, Cup):
        if m.thickness < 1:
            raise PatternMismatch("cup thickness must be >= 1")
        return w.with_changes(add_edges=[Edge(m.out_edge, m.thickness, None, None)])

    if isinstance(m, Cap):
        e = _get_edge(w, m.edge)
        if not e.is_circle:
            raise PatternMismatch(f"cap requires a circle edge, got {m.edge}")
        return w.with_changes(drop_edges=[m.edge])

    if isinstance(m, Saddle):
        e1 = _get_edge(w, m.edge1)
        e2 = _get_edge(w, m.edge2)
        if e1.thickness != e2.thickness:
            raise PatternMismatch("saddle requires equal thicknesses")
        th = e1.thickness
        if m.edge1 == m.edge2:
            # a circle splits into two circles, an interval splits off a circle
            outs = [Edge(m.out1, th, e1.tail, e1.head), Edge(m.out2, th, None, None)]
            fixups = [(m.edge1, m.out1, e1.tail), (m.edge1, m.out1, e1.head)]
        elif e1.is_circle or e2.is_circle:
            # a circle merges into the other edge, circle or interval
            seg = e2 if e1.is_circle else e1
            outs = [Edge(m.out1, th, seg.tail, seg.head)]
            fixups = [(seg.id, m.out1, seg.tail), (seg.id, m.out1, seg.head)]
        else:
            # two interval edges: cross the connections
            outs = [Edge(m.out1, th, e1.tail, e2.head), Edge(m.out2, th, e2.tail, e1.head)]
            fixups = [(m.edge1, m.out1, e1.tail), (m.edge2, m.out1, e2.head),
                      (m.edge2, m.out2, e2.tail), (m.edge1, m.out2, e1.head)]
        return _rewired(w, fixups, drop_edges=[m.edge1, m.edge2], add_edges=outs)

    if isinstance(m, Zip):
        if m.edge_a == m.edge_b:
            raise PatternMismatch("zip requires two distinct edges")
        ea = _get_edge(w, m.edge_a)
        eb = _get_edge(w, m.edge_b)
        arcs_a, fix_a = _cut(ea, m.out_a1, m.out_a2, m.merge_v, m.split_v, "zip")
        arcs_b, fix_b = _cut(eb, m.out_b1, m.out_b2, m.merge_v, m.split_v, "zip")
        thick = Edge(m.thick_edge, ea.thickness + eb.thickness, m.merge_v, m.split_v)
        return _rewired(
            w, fix_a + fix_b, drop_edges=[m.edge_a, m.edge_b],
            add_edges=[thick, *arcs_a, *arcs_b],
            add_vertices=[Vertex(m.merge_v, "merge", (m.out_a1, m.out_b1), (m.thick_edge,)),
                          Vertex(m.split_v, "split", (m.thick_edge,), (m.out_a2, m.out_b2))],
        )

    if isinstance(m, Unzip):
        mv, sv = _unzip_pattern(w, m.thick_edge)
        out_a, fix_a = _rejoin(w, mv.ins[0], sv.outs[0], m.out_a)
        out_b, fix_b = _rejoin(w, mv.ins[1], sv.outs[1], m.out_b)
        return _rewired(
            w, fix_a + fix_b, drop_edges={m.thick_edge, *mv.ins, *sv.outs},
            drop_vertices=[mv.id, sv.id], add_edges=[out_a, out_b],
        )

    if isinstance(m, DigonCup):
        e = _get_edge(w, m.edge)
        if e.thickness != m.a + m.b:
            raise PatternMismatch(
                f"digon-cup on {m.edge}: thickness {e.thickness} != {m.a}+{m.b}"
            )
        arcs, fixups = _cut(e, m.out_low, m.out_high, m.split_v, m.merge_v, "digon-cup")
        return _rewired(
            w, fixups, drop_edges=[m.edge],
            add_edges=[Edge(m.edge_a, m.a, m.split_v, m.merge_v),
                       Edge(m.edge_b, m.b, m.split_v, m.merge_v), *arcs],
            add_vertices=[Vertex(m.split_v, "split", (m.out_low,), (m.edge_a, m.edge_b)),
                          Vertex(m.merge_v, "merge", (m.edge_a, m.edge_b), (m.out_high,))],
        )

    if isinstance(m, DigonCap):
        sv, mv = _digon_pattern(w, m.edge_a, m.edge_b)
        lo, hi = sv.ins[0], mv.outs[0]
        out, fixups = _rejoin(w, lo, hi, m.out_edge)
        return _rewired(
            w, fixups, drop_edges={m.edge_a, m.edge_b, lo, hi},
            drop_vertices=[sv.id, mv.id], add_edges=[out],
        )

    if isinstance(m, Assoc):
        return _reassociate(w, m)

    if isinstance(m, Coassoc):
        # coassociation is association with every arrow turned round
        return _reversed(_reassociate(_reversed(w), m))

    raise PatternMismatch(f"unknown move {m!r}")


# ---------------------------------------------------------------------------
# Movies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Movie:
    input_web: Web
    moves: tuple[BasicMove, ...]

    def slices(self) -> list[Web]:
        out = [self.input_web]
        for mv in self.moves:
            out.append(apply_move(out[-1], mv))
        return out

    @property
    def output_web(self) -> Web:
        return self.slices()[-1]

    def is_closed(self) -> bool:
        return self.input_web.is_empty() and self.output_web.is_empty()

    def validate(self) -> None:
        validate_web(self.input_web)
        for w in self.slices()[1:]:
            validate_web(w)


def _strip_decorations(mov: Movie) -> tuple[Movie, tuple[tuple[int, str, SymPoly], ...]]:
    """Split a movie into its undecorated movie and its decorations.

    Each decoration comes back as ``(t, edge, poly)``: it sits on ``edge`` of
    slice ``t`` of the undecorated movie.  A decorate move changes no web and
    creates no facet, so both movies compile to the same facet ids and the
    decoration lies on facet ``edge_facets[t][edge]`` of the undecorated
    complex.
    """
    moves: list[BasicMove] = []
    decorations: list[tuple[int, str, SymPoly]] = []
    for mv in mov.moves:
        if isinstance(mv, Decorate):
            decorations.append((len(moves), mv.edge, mv.poly))
        else:
            moves.append(mv)
    return Movie(mov.input_web, tuple(moves)), tuple(decorations)


class MovieBuilder:
    """Incrementally builds a movie with deterministic fresh ids."""

    def __init__(self, input_web: Web | None = None):
        self.web = input_web if input_web is not None else Web.empty()
        self.input_web = self.web
        self.moves: list[BasicMove] = []
        self._n = 0

    def fresh(self, kind: str) -> str:
        self._n += 1
        return f"{kind}{self._n}"

    def _push(self, m: BasicMove) -> BasicMove:
        self.web = apply_move(self.web, m)
        self.moves.append(m)
        return m

    # -- convenience wrappers ----------------------------------------------
    def cup(self, thickness: int, out_edge: str | None = None) -> str:
        m = Cup(thickness, out_edge or self.fresh("e"))
        self._push(m)
        return m.out_edge

    def cap(self, edge: str) -> None:
        self._push(Cap(edge))

    def saddle(self, e1: str, e2: str) -> tuple[str, str | None]:
        a = self.web.edges[e1]
        b = self.web.edges[e2]
        if e1 == e2:
            m = Saddle(e1, e2, self.fresh("e"), self.fresh("e"))
        elif a.is_circle or b.is_circle:
            m = Saddle(e1, e2, self.fresh("e"), None)
        else:
            m = Saddle(e1, e2, self.fresh("e"), self.fresh("e"))
        self._push(m)
        return m.out1, m.out2

    def zip(self, ea: str, eb: str) -> Zip:
        a = self.web.edges[ea]
        b = self.web.edges[eb]
        a1 = self.fresh("e")
        a2 = a1 if a.is_circle else self.fresh("e")
        b1 = self.fresh("e")
        b2 = b1 if b.is_circle else self.fresh("e")
        m = Zip(ea, eb, self.fresh("v"), self.fresh("v"), self.fresh("e"), a1, a2, b1, b2)
        self._push(m)
        return m

    def unzip(self, thick_edge: str) -> Unzip:
        m = Unzip(thick_edge, self.fresh("e"), self.fresh("e"))
        self._push(m)
        return m

    def digon_cup(self, edge: str, a: int, b: int) -> DigonCup:
        e = self.web.edges[edge]
        low = self.fresh("e")
        high = low if e.is_circle else self.fresh("e")
        m = DigonCup(edge, a, b, self.fresh("v"), self.fresh("v"),
                     self.fresh("e"), self.fresh("e"), low, high)
        self._push(m)
        return m

    def digon_cap(self, ea: str, eb: str) -> DigonCap:
        m = DigonCap(ea, eb, self.fresh("e"))
        self._push(m)
        return m

    def assoc(self, mid_edge: str) -> Assoc:
        m = Assoc(mid_edge, self.fresh("e"))
        self._push(m)
        return m

    def coassoc(self, mid_edge: str) -> Coassoc:
        m = Coassoc(mid_edge, self.fresh("e"))
        self._push(m)
        return m

    def decorate(self, edge: str, poly: SymPoly) -> None:
        self._push(Decorate(edge, poly))

    def movie(self) -> Movie:
        return Movie(self.input_web, tuple(self.moves))


# -- movie algebra ----------------------------------------------------------


def _rename_movie(m: Movie, keep: set[str], tag: str) -> Movie:
    """Rename every edge/vertex id not in ``keep`` by suffixing ``tag``."""

    def r(x: str | None) -> str | None:
        if x is None or x in keep:
            return x
        return f"{x}{tag}"

    def r_web(w: Web) -> Web:
        return Web(
            {
                r(e.id): Edge(r(e.id), e.thickness, r(e.tail), r(e.head))
                for e in w.edges.values()
            },
            {
                r(v.id): Vertex(
                    r(v.id), v.kind, tuple(r(e) for e in v.ins), tuple(r(e) for e in v.outs)
                )
                for v in w.vertices.values()
            },
        )

    def r_move(mv: BasicMove) -> BasicMove:
        if isinstance(mv, (Decorate, Isotopy)):
            return replace(mv, edge=r(mv.edge)) if isinstance(mv, Decorate) else mv
        kwargs = {}
        for f in mv.__dataclass_fields__:
            val = getattr(mv, f)
            if isinstance(val, str) and f not in ("a", "b"):
                kwargs[f] = r(val)
            else:
                kwargs[f] = val
        return type(mv)(**kwargs)

    return Movie(r_web(m.input_web), tuple(r_move(mv) for mv in m.moves))


def compose(a: Movie, b: Movie) -> Movie:
    """Concatenate movies; requires output(a) == input(b) (same ids)."""
    webs = a.slices()
    out = webs[-1]
    if out != b.input_web:
        raise BoundaryMismatch("output of the first movie != input of the second")
    interface_ids = set(out.edges) | set(out.vertices)
    used = set()
    for w in webs:
        used |= set(w.edges) | set(w.vertices)
    tag = "'"
    while True:
        b2 = _rename_movie(b, interface_ids, tag)
        internal = set()
        for w in b2.slices():
            internal |= set(w.edges) | set(w.vertices)
        if not (internal - interface_ids) & used:
            break
        tag += "'"
    return Movie(a.input_web, a.moves + b2.moves)


def mirror(m: Movie) -> Movie:
    """Time-reverse a movie: each move is replaced by its reverse.

    The reversal swaps cup/cap, zip/unzip and digon-cup/digon-cap, reading
    an unzip's or digon-cap's vertices and slots from the slice before it
    with the pattern readers of :func:`apply_move`.  A saddle reverses to a
    saddle, and a reassociation to the same move on its new middle edge,
    which gives back the old middle edge's id.  Decorations are preserved
    on the same facet.
    """
    webs = m.slices()
    rev: list[BasicMove] = []
    for idx in range(len(m.moves) - 1, -1, -1):
        mv = m.moves[idx]
        before = webs[idx]
        if isinstance(mv, (Decorate, Isotopy)):
            rev.append(mv)
        elif isinstance(mv, Cup):
            rev.append(Cap(mv.out_edge))
        elif isinstance(mv, Cap):
            rev.append(Cup(before.edges[mv.edge].thickness, mv.edge))
        elif isinstance(mv, Saddle):
            if mv.out2 is None:
                # a merge reverses to a self-saddle, whose first output is
                # the interval when one of the merged edges was an interval
                e1, e2 = mv.edge1, mv.edge2
                if before.edges[e1].is_circle and not before.edges[e2].is_circle:
                    e1, e2 = e2, e1
                rev.append(Saddle(mv.out1, mv.out1, e1, e2))
            elif mv.edge1 == mv.edge2:
                rev.append(Saddle(mv.out1, mv.out2, mv.edge1, None))
            else:
                rev.append(Saddle(mv.out1, mv.out2, mv.edge1, mv.edge2))
        elif isinstance(mv, Zip):
            rev.append(Unzip(mv.thick_edge, mv.edge_a, mv.edge_b))
        elif isinstance(mv, Unzip):
            mvx, svx = _unzip_pattern(before, mv.thick_edge)
            (a1, b1), (a2, b2) = mvx.ins, svx.outs
            rev.append(Zip(mv.out_a, mv.out_b, mvx.id, svx.id, mv.thick_edge, a1, a2, b1, b2))
        elif isinstance(mv, DigonCup):
            rev.append(DigonCap(mv.edge_a, mv.edge_b, mv.edge))
        elif isinstance(mv, DigonCap):
            svx, mvx = _digon_pattern(before, mv.edge_a, mv.edge_b)
            rev.append(DigonCup(
                mv.out_edge, before.edges[mv.edge_a].thickness,
                before.edges[mv.edge_b].thickness, svx.id, mvx.id,
                mv.edge_a, mv.edge_b, svx.ins[0], mvx.outs[0],
            ))
        elif isinstance(mv, (Assoc, Coassoc)):
            rev.append(type(mv)(mv.out_mid, mv.mid_edge))
        else:
            raise PatternMismatch(f"cannot mirror {mv!r}")
    return Movie(webs[-1], tuple(rev))


# ---------------------------------------------------------------------------
# Compilation to a foam complex
# ---------------------------------------------------------------------------


class _UF:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def make(self, x: str) -> str:
        self.parent.setdefault(x, x)
        return x

    def find(self, x: str) -> str:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> str:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the lexicographically earlier label as root for determinism
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra
        return ra


@dataclass
class Facet:
    id: str
    thickness: int
    chi: int
    decorations: tuple[SymPoly, ...]


@dataclass
class Binding:
    id: str
    is_circle: bool
    segments: tuple[tuple[str, str, str], ...]  # (sideA facet, sideB facet, thick facet)
    endpoints: tuple[str, ...]  # singular vertex ids (intervals)
    boundary: bool  # True if the binding reaches the movie boundary

    @property
    def sideA(self) -> str:
        return self.segments[0][0]

    @property
    def sideB(self) -> str:
        return self.segments[0][1]

    @property
    def thick(self) -> str:
        return self.segments[0][2]

    def thin_thicknesses(self, facets: Mapping[str, Facet]) -> tuple[int, int]:
        return facets[self.sideA].thickness, facets[self.sideB].thickness


@dataclass
class SingularVertex:
    id: str
    facets: tuple[str, ...]  # six incident facet ids (with repetition allowed)
    bindings: tuple[str, ...]  # four incident binding ids
    thin_thicknesses: tuple[int, int, int]  # (a, b, c) of the local model


@dataclass
class MoveTrace:
    """Facet roles of one basic move, for per-slice bookkeeping."""

    kind: str  # cup|cap|saddle|zip|unzip|digon_cup|digon_cap|assoc|decorate|isotopy
    index: int
    facets: tuple[str, ...] = ()  # role order documented per kind
    thickness: tuple[int, ...] = ()


@dataclass
class FoamComplex:
    facets: dict[str, Facet]
    bindings: dict[str, Binding]
    vertices: dict[str, SingularVertex]
    traces: tuple[MoveTrace, ...]
    closed: bool
    # per-slice resolution of web edges to facet ids (one dict per slice)
    edge_facets: tuple[dict[str, str], ...] = ()

    def facet_ids(self) -> list[str]:
        return sorted(self.facets, key=lambda s: int(s[1:]))

    def to_record(self) -> dict:
        return {
            "facets": {
                f.id: {
                    "thickness": f.thickness,
                    "euler": f.chi,
                    "decorations": [str(d.poly) for d in f.decorations],
                }
                for f in self.facets.values()
            },
            "bindings": {
                b.id: {
                    "kind": "circle" if b.is_circle else "interval",
                    "segments": [list(s) for s in b.segments],
                    "endpoints": list(b.endpoints),
                }
                for b in self.bindings.values()
            },
            "vertices": {
                v.id: {"facets": list(v.facets), "bindings": list(v.bindings)}
                for v in self.vertices.values()
            },
        }


class _BindingRec:
    __slots__ = ("segments", "endpoints", "open_ends")

    def __init__(self):
        self.segments: list[tuple[str, str, str]] = []
        self.endpoints: list[str] = []
        self.open_ends: set[str] = set()


def compile_movie(mov: Movie) -> FoamComplex:
    """Compile a movie into its stratified foam complex.

    Facet Euler characteristics are exact compact-surface values for closed
    movies (and relative to the boundary web otherwise).
    """
    webs = mov.slices()
    T = len(mov.moves)
    uf = _UF()
    facet_of: dict[str, str] = {}  # current edge id -> facet label
    chi: dict[str, int] = {}
    thick_of: dict[str, int] = {}
    decs: dict[str, list[SymPoly]] = {}
    label_order: list[str] = []
    n_label = 0

    def new_facet(thickness: int) -> str:
        nonlocal n_label
        n_label += 1
        lbl = f"F{n_label:04d}"
        uf.make(lbl)
        chi[lbl] = 0
        thick_of[lbl] = thickness
        decs[lbl] = []
        label_order.append(lbl)
        return lbl

    def bump(lbl: str, d: int) -> None:
        chi[lbl] = chi.get(lbl, 0) + d

    # seed facets for a nonempty input web
    for e in webs[0].edges.values():
        facet_of[e.id] = new_facet(e.thickness)

    buf = _UF()  # binding union-find
    brecs: dict[str, _BindingRec] = {}
    n_bind = 0
    binding_of_vertex: dict[str, str] = {}

    def new_binding(segment: tuple[str, str, str], *ends: str) -> str:
        """A binding with one segment, open at the web vertices ``ends``."""
        nonlocal n_bind
        n_bind += 1
        bid = f"b{n_bind:04d}"
        buf.make(bid)
        rec = _BindingRec()
        rec.segments.append(segment)
        rec.open_ends |= set(ends)
        brecs[bid] = rec
        for v in ends:
            binding_of_vertex[v] = bid
        return bid

    def binding_join(segment: tuple[str, str, str], u: str, v: str) -> None:
        """Close the seam between the web vertices ``u`` and ``v`` with
        ``segment``, joining the bindings open at them."""
        r1, r2 = buf.find(binding_of_vertex.pop(u)), buf.find(binding_of_vertex.pop(v))
        root = buf.union(r1, r2)
        rec = brecs[root]
        if r1 != r2:
            o = brecs.pop(r2 if root == r1 else r1)
            rec.segments += o.segments
            rec.endpoints += o.endpoints
            rec.open_ends |= o.open_ends
        rec.segments.append(segment)
        rec.open_ends -= {u, v}

    # seed boundary seam arcs for vertices already present in the input web
    for v in webs[0].vertices.values():
        if v.kind == "merge":
            ea, eb = v.ins
            et = v.outs[0]
        else:
            et = v.ins[0]
            ea, eb = v.outs
        new_binding((facet_of[ea], facet_of[eb], facet_of[et]), v.id)

    sing: dict[str, SingularVertex] = {}
    n_sing = 0
    traces: list[MoveTrace] = []
    snapshots: list[dict[str, str]] = [dict(facet_of)]
    taken: set[str] = set()  # the edges the current move consumes

    # A move takes every edge it consumes before it gives any edge out, so
    # an output may reuse the id of an edge the move consumes.
    def take(e: str) -> str:
        taken.add(e)
        return facet_of.pop(e)

    def die(e: str) -> str:
        """The facet of a consumed edge that the move closes off."""
        lbl = take(e)
        bump(lbl, +1)
        return lbl

    def born(e: str, thickness: int) -> str:
        """A new facet for the output edge ``e``."""
        lbl = new_facet(thickness)
        facet_of[e] = lbl
        bump(lbl, +1)
        return lbl

    def rejoin(lo: str, hi: str) -> str:
        """The facet of the edges ``lo`` and ``hi`` that the move joins."""
        lbl = take(lo)
        return lbl if lo == hi else uf.union(lbl, take(hi))

    def keep(lbl: str, circle: bool, *outs: str) -> None:
        """The output edges ``outs`` of a cut or rejoined edge keep facet
        ``lbl``; its slab piece counts 0 when a circle sweeps it and 1 when
        an interval does."""
        for out in outs:
            facet_of[out] = lbl
        bump(lbl, 0 if circle else 1)

    for t, mv in enumerate(mov.moves):
        before = webs[t]
        after = webs[t + 1]
        taken.clear()

        # move-local contributions and facet tracking
        if isinstance(mv, (Decorate, Isotopy)):
            if isinstance(mv, Decorate):
                lbl = facet_of[mv.edge]
                decs[uf.find(lbl)].append(mv.poly)
                traces.append(MoveTrace("decorate", t, (lbl,)))
            else:
                traces.append(MoveTrace("isotopy", t))
        elif isinstance(mv, Cup):
            traces.append(MoveTrace("cup", t, (born(mv.out_edge, mv.thickness),),
                                    (mv.thickness,)))
        elif isinstance(mv, Cap):
            traces.append(MoveTrace("cap", t, (die(mv.edge),),
                                    (before.edges[mv.edge].thickness,)))
        elif isinstance(mv, Saddle):
            root = rejoin(mv.edge1, mv.edge2)
            outs = [
                out
                for out in (mv.out1, mv.out2)
                if out is not None and out in after.edges
            ]
            # slab piece value: (number of interval output strands) - 1
            bump(root, sum(1 for o in outs if not after.edges[o].is_circle) - 1)
            for out in outs:
                facet_of[out] = root
            traces.append(MoveTrace("saddle", t, (root,), (before.edges[mv.edge1].thickness,)))
        elif isinstance(mv, Zip):
            ea = before.edges[mv.edge_a]
            eb = before.edges[mv.edge_b]
            fa, fb = take(mv.edge_a), take(mv.edge_b)
            ft = born(mv.thick_edge, ea.thickness + eb.thickness)
            keep(fa, ea.is_circle, mv.out_a1, mv.out_a2)
            keep(fb, eb.is_circle, mv.out_b1, mv.out_b2)
            new_binding((fa, fb, ft), mv.merge_v, mv.split_v)
            traces.append(MoveTrace("zip", t, (fa, fb, ft),
                                    (ea.thickness, eb.thickness)))
        elif isinstance(mv, Unzip):
            mvx, svx = _unzip_pattern(before, mv.thick_edge)
            (a1, b1), (a2, b2) = mvx.ins, svx.outs
            ft, fa, fb = die(mv.thick_edge), rejoin(a1, a2), rejoin(b1, b2)
            keep(fa, a1 == a2, mv.out_a)
            keep(fb, b1 == b2, mv.out_b)
            binding_join((fa, fb, ft), mvx.id, svx.id)
            traces.append(MoveTrace("unzip", t, (fa, fb, ft),
                                    (before.edges[a1].thickness, before.edges[b1].thickness)))
        elif isinstance(mv, DigonCup):
            e = before.edges[mv.edge]
            ft = take(mv.edge)
            fa, fb = born(mv.edge_a, mv.a), born(mv.edge_b, mv.b)
            keep(ft, e.is_circle, mv.out_low, mv.out_high)
            new_binding((fa, fb, ft), mv.split_v, mv.merge_v)
            traces.append(MoveTrace("digon_cup", t, (fa, fb, ft), (mv.a, mv.b)))
        elif isinstance(mv, DigonCap):
            svx, mvx = _digon_pattern(before, mv.edge_a, mv.edge_b)
            lo, hi = svx.ins[0], mvx.outs[0]
            fa, fb, ft = die(mv.edge_a), die(mv.edge_b), rejoin(lo, hi)
            keep(ft, lo == hi, mv.out_edge)
            binding_join((fa, fb, ft), svx.id, mvx.id)
            traces.append(MoveTrace("digon_cap", t, (fa, fb, ft),
                                    (before.edges[mv.edge_a].thickness,
                                     before.edges[mv.edge_b].thickness)))
        elif isinstance(mv, (Assoc, Coassoc)):
            # coassociation is association on the slices with every arrow
            # turned round, where the middle edge runs from v2 to v1
            turned = isinstance(mv, Coassoc)
            rb, ra = (_reversed(before), _reversed(after)) if turned else (before, after)
            v1, v2, x_id, y_id, z_id = _reassoc_pattern(rb, mv)
            w_id = v2.outs[0]
            f_old = die(mv.mid_edge)
            f_new = born(mv.out_mid, after.edges[mv.out_mid].thickness)
            seg_v1 = (*(facet_of[e] for e in ra.vertices[v1.id].ins), f_new)
            seg_v2 = (*(facet_of[e] for e in ra.vertices[v2.id].ins), facet_of[w_id])
            # bindings are numbered from the middle edge's tail in the movie
            ends = [(v1.id, seg_v1), (v2.id, seg_v2)]
            if turned:
                ends.reverse()
            n_sing += 1
            sid = f"s{n_sing:04d}"
            old = [binding_of_vertex.pop(v) for v, _ in ends]
            for b in old:
                rec = brecs[buf.find(b)]
                rec.open_ends -= {v1.id, v2.id}
                rec.endpoints.append(sid)
            new = [new_binding(seg, v) for v, seg in ends]
            for b in new:
                brecs[b].endpoints.append(sid)
            thin = sorted(before.edges[e].thickness for e in (x_id, y_id, z_id))
            sing[sid] = SingularVertex(
                sid,
                (facet_of[x_id], facet_of[y_id], facet_of[z_id], facet_of[w_id], f_old, f_new),
                (*(buf.find(b) for b in old), *new),
                tuple(thin),
            )
            traces.append(MoveTrace("assoc", t))
        else:
            raise PatternMismatch(f"cannot compile move {mv!r}")

        # slab product contributions of the edges the move leaves unchanged
        for e in before.edges.values():
            if e.id not in taken and not e.is_circle:
                bump(snapshots[-1][e.id], +1)

        # internal interface contribution
        if t < T - 1:
            for e in after.edges.values():
                if not e.is_circle:
                    bump(facet_of[e.id], -1)
        snapshots.append(dict(facet_of))

    # resolve facets
    root_chi: dict[str, int] = {}
    root_dec: dict[str, list[SymPoly]] = {}
    root_first: dict[str, int] = {}
    for idx, lbl in enumerate(label_order):
        root = uf.find(lbl)
        root_chi[root] = root_chi.get(root, 0) + chi[lbl]
        root_dec.setdefault(root, []).extend(decs[lbl])
        root_first.setdefault(root, idx)
        if thick_of[root] != thick_of[lbl]:
            raise PatternMismatch("internal error: facet thickness clash")
    roots = sorted(root_chi, key=lambda r: root_first[r])
    facet_name = {r: f"f{k + 1}" for k, r in enumerate(roots)}

    def fname(lbl: str) -> str:
        return facet_name[uf.find(lbl)]

    facets = {
        facet_name[r]: Facet(facet_name[r], thick_of[r], root_chi[r], tuple(root_dec[r]))
        for r in roots
    }

    closed = mov.input_web.is_empty() and webs[-1].is_empty()
    bindings: dict[str, Binding] = {}
    bname = {}
    for k, (bid, rec) in enumerate(sorted(brecs.items())):
        name = f"b{k + 1}"
        bname[bid] = name
        bindings[name] = Binding(
            name,
            is_circle=not rec.endpoints and not rec.open_ends,
            segments=tuple((fname(a), fname(b), fname(c)) for a, b, c in rec.segments),
            endpoints=tuple(sorted(rec.endpoints)),
            boundary=bool(rec.open_ends),
        )
    vertices = {
        v.id: SingularVertex(
            v.id,
            tuple(fname(f) for f in v.facets),
            tuple(bname[buf.find(b)] for b in v.bindings),
            v.thin_thicknesses,
        )
        for v in sing.values()
    }
    named_traces = tuple(
        MoveTrace(tr.kind, tr.index, tuple(fname(f) for f in tr.facets), tr.thickness)
        for tr in traces
    )
    edge_facets = tuple(
        {e: fname(lbl) for e, lbl in snap.items()} for snap in snapshots
    )
    return FoamComplex(facets, bindings, vertices, named_traces, closed, edge_facets)


# ---------------------------------------------------------------------------
# Colorings
# ---------------------------------------------------------------------------

Coloring = dict  # facet id -> frozenset of pigments


def _colex_subsets(pigments: Sequence[int], k: int) -> Iterator[frozenset[int]]:
    """The ``k``-subsets of the increasing ``pigments`` in colex order, one
    at a time.

    Colex order compares the largest elements first, so it is the order of
    the subsets' bitmasks (bit ``i`` for ``pigments[i]``) as integers; each
    mask's successor with ``k`` bits set is Gosper's step.  Since
    ``pigments`` increases, the subsets of a set of pigments come in the
    order they have among all subsets of ``1..N``.
    """
    if k == 0:
        yield frozenset()
        return
    n = len(pigments)
    m, stop = (1 << k) - 1, 1 << n
    while m < stop:
        yield frozenset(pigments[i] for i in range(n) if m >> i & 1)
        low = m & -m
        up = m + low
        m = up | ((m ^ up) >> 2) // low


def enumerate_colorings(F: FoamComplex, N: int) -> Iterator[Coloring]:
    """Yield admissible pigment assignments in deterministic order.

    Backtracking over facets in id order, candidate subsets in colex order,
    pruning on every fully-assigned binding constraint.  A facet's
    candidates are read off its colored binding partners: a thick facet
    whose two thin facets are colored can only be their union, a thin
    facet whose sibling and thick facet are colored only the difference,
    and otherwise only pigments inside every colored thick partner and
    outside every colored sibling can be used.  Every candidate is still
    checked against all of the facet's constraints.
    """
    ids = F.facet_ids()
    constraints = []  # (A, B, thick)
    for b in F.bindings.values():
        for seg in {tuple(s) for s in b.segments}:
            constraints.append(seg)
    by_facet: dict[str, list[tuple[str, str, str]]] = {}
    for c in constraints:
        for f in c:
            by_facet.setdefault(f, []).append(c)

    assignment: dict[str, frozenset[int]] = {}
    pigments = frozenset(range(1, N + 1))

    def consistent(f: str) -> bool:
        for (A, B, TH) in by_facet.get(f, ()):  # noqa: N806
            ca, cb, ct = assignment.get(A), assignment.get(B), assignment.get(TH)
            if ca is not None and cb is not None:
                if ca & cb:
                    return False
                if ct is not None and (ca | cb) != ct:
                    return False
            if ct is not None:
                if ca is not None and not ca <= ct:
                    return False
                if cb is not None and not cb <= ct:
                    return False
        return True

    def candidates(f: str, k: int) -> Iterable[frozenset[int]]:
        # f itself is not assigned, so a role that f also plays reads None
        allowed = pigments
        for (A, B, TH) in by_facet.get(f, ()):  # noqa: N806
            ca, cb, ct = assignment.get(A), assignment.get(B), assignment.get(TH)
            if f == TH:
                only = ca | cb if ca is not None and cb is not None else None
            else:
                sibling = cb if f == A else ca
                if ct is None:
                    if sibling is not None:
                        allowed -= sibling
                    continue
                if sibling is None:
                    allowed &= ct
                    continue
                only = ct - sibling
            if only is not None:
                return (only,) if len(only) == k else ()
        return _colex_subsets(sorted(allowed), k)

    def rec(i: int) -> Iterator[Coloring]:
        if i == len(ids):
            yield dict(assignment)
            return
        f = ids[i]
        k = F.facets[f].thickness
        if k > N:
            return
        for s in candidates(f, k):
            assignment[f] = s
            if consistent(f):
                yield from rec(i + 1)
        assignment.pop(f, None)

    yield from rec(0)


def _components(F: FoamComplex) -> list[FoamComplex]:
    """The connected components of a foam, as sub-complexes in facet order.

    Facets are joined when they share a binding segment or a singular
    vertex.  A component holds its facets, bindings and singular vertices
    under their ids in ``F``, with the move traces and slice edges on its
    facets; a closed foam's components are closed.  The empty foam has none.
    """
    uf = _UF()
    for f in F.facets:
        uf.make(f)
    for b in F.bindings.values():
        for a, bb, th in b.segments:
            uf.union(a, bb)
            uf.union(a, th)
    for v in F.vertices.values():
        for f in v.facets[1:]:
            uf.union(v.facets[0], f)
    members: dict[str, set[str]] = {}
    for f in F.facet_ids():
        members.setdefault(uf.find(f), set()).add(f)
    return [
        FoamComplex(
            {f: facet for f, facet in F.facets.items() if f in S},
            {k: b for k, b in F.bindings.items() if b.sideA in S},
            {k: v for k, v in F.vertices.items() if v.facets[0] in S},
            tuple(tr for tr in F.traces if tr.facets and tr.facets[0] in S),
            F.closed,
            tuple({e: f for e, f in snap.items() if f in S} for snap in F.edge_facets),
        )
        for S in members.values()
    ]


# ---------------------------------------------------------------------------
# Colored Euler-characteristic data
# ---------------------------------------------------------------------------


class EulerWalk:
    """Every Euler characteristic and seam sign of one foam's colorings.

    Built once from a compiled foam, a walk reads a coloring through its
    pigment types: the type of a pigment is the bitmask of the facets whose
    color holds it, bit ``k`` for the ``k``-th facet in id order.  The
    monochrome surface of pigment ``i`` is the facets of its type, and the
    bichrome surface of ``(i, j)`` is the facets whose color holds exactly
    one of them, the bits of ``type(i) ^ type(j)``.  One tally gives the
    Euler characteristic of either: the facets' ``chi``, minus one for each
    interval seam on the surface, plus one for each singular vertex on it.
    A seam lies on the monochrome surface when its thick facet does, and on
    the bichrome surface when any of its three facets does.

    Both numbers, and the seam signs of a pair, depend on the types alone,
    so :meth:`read` tallies each distinct type and pair of types once per
    walk.  It keeps every ``chi`` by type and every ``(chi, theta_plus)``
    by type pair for the walk's life; a pair that raises is not kept, so
    each read of it raises anew, naming its own pigments.  ``canonical``
    holds what an evaluator derives from the foam as its colorings ask,
    per N and ring (``foameval`` keeps each facet's decorations on the
    canonical alphabet there, their products at each color and each power
    of a difference).
    """

    def __init__(self, F: FoamComplex):
        ids = F.facet_ids()
        bit = {f: 1 << k for k, f in enumerate(ids)}
        self.bits = [(f, bit[f]) for f in ids]
        self.chis = [(bit[f], F.facets[f].chi) for f in ids]
        intervals = [b for b in F.bindings.values() if not b.is_circle]
        self.thick = [bit[b.thick] for b in intervals]
        self.seams = [bit[b.sideA] | bit[b.sideB] | bit[b.thick] for b in intervals]
        self.vertices = [sum({bit[f] for f in v.facets}) for v in F.vertices.values()]
        # (binding, first segment's sideA and sideB bits, each segment's sideA bit)
        self.bindings = [
            (b, bit[b.sideA], bit[b.sideB], [bit[seg[0]] for seg in b.segments])
            for b in F.bindings.values()
        ]
        self.canonical: dict = {}
        self._euler: dict[int, int] = {}
        self._bichrome: dict[tuple[int, int], tuple[int, int]] = {}

    def types(self, c: Coloring, N: int) -> list[int]:
        """The types of pigments ``1..N`` under ``c``: for each, the facets
        whose color holds it, as a bitmask."""
        types = [0] * (N + 1)
        for f, b in self.bits:
            for p in c[f]:
                if 0 < p <= N:
                    types[p] |= b
        return types[1:]

    def _tally(self, x: int, seams: list[int]) -> int:
        """Euler characteristic of the surface of the facets in ``x``; an
        interval seam lies on it when its mask in ``seams`` meets ``x``."""
        total = 0
        for b, chi in self.chis:
            if x & b:
                total += chi
        for m in seams:
            if x & m:
                total -= 1
        for m in self.vertices:
            if x & m:
                total += 1
        return total

    def euler(self, t: int) -> int:
        """Euler characteristic of the monochrome surface of type ``t``."""
        return self._tally(t, self.thick)

    def bichrome(self, s: int, t: int, i: int, j: int) -> tuple[int, int]:
        """``(chi, positive-circle count)`` of pigments ``i < j`` of types ``s``, ``t``.

        A binding separates ``i`` and ``j`` when its first segment has one on
        each thin side.  Separating circles are the separating circle
        bindings and the chains of separating interval bindings through
        singular vertices; a circle is positive iff ``i`` holds the sideA
        facet of every segment, and ``SeamSignInconsistent`` is raised for
        mixed signs (circles first, in binding order) or for a vertex where
        an odd number of separating intervals meet.
        """
        chi = self._tally(s ^ t, self.seams)
        theta_plus = 0
        intervals = []
        for rec in self.bindings:
            b, a, bb, _ = rec
            if (s & a and t & bb) or (t & a and s & bb):
                if not b.is_circle:
                    intervals.append(rec)
                elif self._seam_sign([rec], s, i, j):
                    theta_plus += 1
        # chain interval bindings through singular vertices
        adj: dict[str, list] = {}
        for rec in intervals:
            for v in rec[0].endpoints:
                adj.setdefault(v, []).append(rec)
        for v, recs in adj.items():
            if len(recs) != 2:
                raise SeamSignInconsistent(f"separating seam has odd valence at vertex {v}")
        seen: set[str] = set()
        for rec in intervals:
            if rec[0].id in seen:
                continue
            comp = [rec]
            seen.add(rec[0].id)
            frontier = [rec]
            while frontier:
                cur = frontier.pop()
                for v in cur[0].endpoints:
                    for nb in adj[v]:
                        if nb[0].id not in seen:
                            seen.add(nb[0].id)
                            comp.append(nb)
                            frontier.append(nb)
            if self._seam_sign(comp, s, i, j):
                theta_plus += 1
        return chi, theta_plus

    @staticmethod
    def _seam_sign(comp: list, s: int, i: int, j: int) -> bool:
        signs = {bool(s & a) for _, _, _, firsts in comp for a in firsts}
        if len(signs) != 1:
            raise SeamSignInconsistent(
                f"mixed seam signs for pigments ({i},{j}) on bindings "
                f"{[rec[0].id for rec in comp]}"
            )
        return signs.pop()

    def read(self, types: Sequence[int]) -> tuple[list[int], Iterator[tuple[int, int, int, int]]]:
        """One coloring's walk, from its pigment types.

        Returns ``chi_i`` of each pigment ``i = 1..N``, and an iterator of
        ``(i, j, chi_ij, theta_plus_ij)`` over the pairs ``i < j`` in
        lexicographic order, which raises a pair's ``SeamSignInconsistent``
        when it reaches that pair.
        """
        euler = self._euler
        for t in types:
            if t not in euler:
                euler[t] = self.euler(t)
        return [euler[t] for t in types], self._pairs(types)

    def _pairs(self, types: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
        data = self._bichrome
        for i, s in enumerate(types, 1):
            for j in range(i + 1, len(types) + 1):
                key = (s, types[j - 1])
                found = data.get(key)
                if found is None:
                    found = data[key] = self.bichrome(s, key[1], i, j)
                yield (i, j) + found


def monochrome_euler(F: FoamComplex, c: Coloring, i: int) -> int:
    """Euler characteristic of the closed surface of facets containing i,
    read from one :class:`EulerWalk` of ``F``."""
    if i < 1:
        raise ValueError("pigments are numbered from 1")
    walk = EulerWalk(F)
    return walk.euler(walk.types(c, i)[i - 1])


@dataclass
class LocalCounts:
    """Slice tallies for one coloring and one ordered pigment pair (i, j)."""

    U: int = 0  # cups with i in the facet color, j outside
    A: int = 0  # caps likewise
    V: int = 0  # digon-cups with i in the first thin facet, j in the second
    Lam: int = 0  # digon-caps likewise
    Z: int = 0  # zips likewise
    Y: int = 0  # unzips likewise
    S: int = 0  # saddles with i in the facet color, j outside


def local_counts(F: FoamComplex, c: Coloring, i: int, j: int) -> LocalCounts:
    out = LocalCounts()
    for tr in F.traces:
        if tr.kind in ("cup", "cap", "saddle"):
            col = c[tr.facets[0]]
            if i in col and j not in col:
                if tr.kind == "cup":
                    out.U += 1
                elif tr.kind == "cap":
                    out.A += 1
                else:
                    out.S += 1
        elif tr.kind in ("digon_cup", "digon_cap", "zip", "unzip"):
            ca, cb = c[tr.facets[0]], c[tr.facets[1]]
            if i in ca and j in cb:
                if tr.kind == "digon_cup":
                    out.V += 1
                elif tr.kind == "digon_cap":
                    out.Lam += 1
                elif tr.kind == "zip":
                    out.Z += 1
                else:
                    out.Y += 1
    return out


def bichrome_data(F: FoamComplex, c: Coloring, i: int, j: int) -> tuple[int, int]:
    """(chi of the bichrome surface, positive-circle count), read from one
    :class:`EulerWalk` of ``F``.

    The bichrome surface consists of facets whose color contains exactly one
    of i, j.  Separating circles are the components of the union of bindings
    whose two thin sides carry i and j on opposite sides; a circle is
    *positive* iff the i-carrying thin facet sits in the first slot along
    the whole circle (``SeamSignInconsistent`` otherwise).
    """
    if not i < j:
        raise ValueError("pigments must satisfy i < j")
    if i < 1:
        raise ValueError("pigments are numbered from 1")
    walk = EulerWalk(F)
    types = walk.types(c, j)
    return walk.bichrome(types[i - 1], types[j - 1], i, j)
