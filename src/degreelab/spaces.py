"""Finite base objects: carriers with tracked maps, and assemblies.

Two base categories live here.  The first has finite sets of normal-form
terms as objects ("carriers") and graph-backed maps as morphisms; a map whose
realizer field is present is computable, i.e. the realizer is an oracle-free
term tracking the graph.  Maps without realizers are plain finite functions,
which is what the Set-based orders reindex along.  The second category has
assemblies (finite point sets with a total naming relation into the term
algebra) and pairs (realizer, pointmap) as morphisms, where the realizer acts
on names and the pointmap may be non-computable.

Point ids are opaque: strings, terms, or tuples of points.  Everything is
kept in a single canonical order so that downstream choice functions and
counterexamples are reproducible.

The key view reads both categories alike.  A key is a point of a carrier or
a naming pair (name, point) of an assembly; a graph (a map's mapping, a
morphism's pointmap) sends the keys of its source to points of its target,
and `key_image` sends keys to keys.  With `keys`, `pair_key`, `split_key`,
`pair_point`, `split_point`, `product` (one `Product` for both kinds) and
`map_like`, one body builds a table or a map out of a product of either.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import verdicts
from .pca import FST, ID, Pca, SND, apply, compose, fanout, is_computable, is_normal
from .terms import App, K, Term, is_closed, pair_term, split_pair, to_text
from .verdicts import Verdict


class SpaceError(ValueError):
    """Structural error in a carrier, assembly, or morphism."""


class SpaceTimeout(SpaceError):
    """A realizer ran out of fuel on a name: undecided, not ill-formed."""


Point = object  # Term | str | int | tuple of points | frozenset of terms


def point_key(p: Point):
    """Canonical total order across the point kinds we store."""
    if isinstance(p, Term):
        return (0, p.size, to_text(p))
    if isinstance(p, str):
        return (1, p)
    if isinstance(p, (int, bool)):
        return (2, int(p))
    if isinstance(p, tuple):
        return (3, tuple(point_key(q) for q in p))
    if isinstance(p, frozenset):
        return (4, tuple(sorted(point_key(q) for q in p)))
    raise SpaceError(f"unsupported point: {p!r}")


def point_text(p: Point) -> str:
    """Canonical rendering of a point for reports."""
    if isinstance(p, Term):
        return to_text(p)
    if isinstance(p, str):
        return p
    if isinstance(p, (int, bool)):
        return str(p)
    if isinstance(p, tuple):
        return "(" + ", ".join(point_text(q) for q in p) + ")"
    if isinstance(p, frozenset):
        return "[" + ", ".join(point_text(q) for q in sorted(p, key=point_key)) + "]"
    raise SpaceError(f"unsupported point: {p!r}")


@dataclass(frozen=True)
class FinSet:
    """A finite set of points in canonical order."""

    points: tuple

    def __post_init__(self):
        ordered = tuple(sorted(self.points, key=point_key))
        members = frozenset(ordered)  # not a field: equality, hash and repr read points
        if len(members) != len(ordered):
            raise SpaceError("duplicate points")
        object.__setattr__(self, "points", ordered)
        object.__setattr__(self, "_members", members)

    def __contains__(self, p: Point) -> bool:
        return p in self._members

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def is_carrier(self) -> bool:
        return all(isinstance(p, Term) for p in self.points)


def carrier(pca: Pca, elements: Iterable[Term]) -> FinSet:
    """A carrier: a finite set of closed terms in normal form."""
    elems = tuple(elements)
    for t in elems:
        if not isinstance(t, Term) or not is_closed(t):
            raise SpaceError(f"carrier element must be a closed term: {t!r}")
        if not is_normal(pca, t):
            raise SpaceError(f"carrier element not in normal form: {to_text(t)}")
    return FinSet(elems)


def terminal_carrier(pca: Pca, element: Term | None = None) -> FinSet:
    """The one-point carrier; defaults to the identity combinator S K K."""
    return carrier(pca, [ID if element is None else element])


@dataclass(frozen=True)
class FinMap:
    """A map between finite point sets, stored as its graph.

    When `realizer` is present the map is a morphism of the computable base
    category: the realizer is an oracle-free term with realizer.x reducing to
    mapping[x] for every source element (all of which must then be terms).
    """

    source: FinSet
    target: FinSet
    mapping: Mapping[Point, Point]
    realizer: Term | None = None

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))
        got = set(self.mapping)
        if got != set(self.source.points):
            missing = [point_text(p) for p in self.source if p not in got]
            extra = [point_text(p) for p in got if p not in self.source]
            raise SpaceError(f"graph not total on source (missing {missing}, extra {extra})")
        for p, q in self.mapping.items():
            if q not in self.target:
                raise SpaceError(f"graph value {point_text(q)} outside target")
        if self.realizer is not None:
            if not is_computable(self.realizer):
                raise SpaceError(f"realizer {to_text(self.realizer)} is not computable")
            if not self.source.is_carrier:
                raise SpaceError("realizer given but source elements are not terms")

    def __call__(self, p: Point) -> Point:
        return self.mapping[p]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((self.source, self.target, tuple(sorted(self.mapping.items(), key=lambda kv: point_key(kv[0])))))

    def check_realizer(self, pca: Pca, fuel: int | None = None) -> None:
        """Raise unless the realizer tracks the graph on every source element
        (SpaceTimeout when it runs out of fuel on the first one it misses)."""
        if self.realizer is None:
            raise SpaceError("map has no realizer")
        for x in self.source:
            out = apply(pca, self.realizer, x, fuel)
            if not out.is_defined or out.term != self.mapping[x]:
                error = SpaceTimeout if out.status == "timeout" else SpaceError
                raise error(
                    f"realizer {to_text(self.realizer)} does not track the graph at {point_text(x)}: got {out!r}"
                )

    def is_surjective(self) -> bool:
        return set(self.mapping.values()) == set(self.target.points)

    def fiber(self, q: Point) -> tuple:
        """Preimage of q, from the stored graph, in canonical order."""
        return tuple(p for p in self.source if self.mapping[p] == q)


def identity_map(obj: FinSet) -> FinMap:
    realizer = ID if obj.is_carrier else None
    return FinMap(obj, obj, {p: p for p in obj}, realizer)


def compose_maps(g: FinMap, f: FinMap) -> FinMap:
    """g after f.  A realizer is synthesized when both factors have one."""
    if f.target != g.source:
        raise SpaceError("composition mismatch: target of first is not source of second")
    realizer = None if f.realizer is None or g.realizer is None else compose(g.realizer, f.realizer)
    return FinMap(f.source, g.target, {p: g.mapping[f.mapping[p]] for p in f.source}, realizer)


def constant_map(source: FinSet, target: FinSet, value: Point) -> FinMap:
    realizer = None
    if source.is_carrier and isinstance(value, Term) and is_computable(value):
        realizer = App(K, value)
    return FinMap(source, target, {p: value for p in source}, realizer)


@dataclass(frozen=True)
class Product:
    """Binary product of two carriers or of two assemblies, with its projections."""

    left: object  # FinSet | Assembly
    right: object
    object: object
    fst: object  # FinMap | ExtMorphism
    snd: object


def carrier_product(pca: Pca, X: FinSet, Y: FinSet) -> Product:
    """The product carrier of pair terms, with projections tracked by the
    derived projection combinators."""
    if not (X.is_carrier and Y.is_carrier):
        raise SpaceError("carrier_product needs carriers of terms")
    elems = {}
    for x in X:
        for y in Y:
            t = pair_term(x, y)
            if not is_normal(pca, t):
                raise SpaceError(f"pairing of {to_text(x)}, {to_text(y)} is not normal")
            elems[t] = (x, y)
    obj = FinSet(tuple(elems))
    fst = FinMap(obj, X, {t: xy[0] for t, xy in elems.items()}, FST)
    snd = FinMap(obj, Y, {t: xy[1] for t, xy in elems.items()}, SND)
    return Product(X, Y, obj, fst, snd)


def pairing_map(pca: Pca, f, g, prod):
    """The mediating map <f, g> into a product of carriers or of assemblies:
    each key goes to the pair term, or the pair, of its two images."""
    if f.source != g.source:
        raise SpaceError("pairing needs a common source")
    graph = {key: pair_point(prod.object, f(key), g(key)) for key in keys(f.source)}
    realizer = None if f.realizer is None or g.realizer is None else fanout(f.realizer, g.realizer)
    return map_like(f, f.source, prod.object, graph, realizer)


# ---------------------------------------------------------------------------
# Assemblies


@dataclass(frozen=True)
class Assembly:
    """A finite point set with a total naming relation into the term algebra."""

    points: tuple
    naming: tuple  # pairs (name: Term, point)

    def __post_init__(self):
        pts = tuple(sorted(self.points, key=point_key))
        if len(set(pts)) != len(pts):
            raise SpaceError("duplicate assembly points")
        rel = tuple(sorted(set(self.naming), key=lambda pr: (point_key(pr[0]), point_key(pr[1]))))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "naming", rel)
        named = {x for _, x in rel}
        for name, x in rel:
            if not isinstance(name, Term):
                raise SpaceError("assembly names must be terms")
            if x not in set(pts):
                raise SpaceError(f"naming mentions unknown point {point_text(x)}")
        for x in pts:
            if x not in named:
                raise SpaceError(f"point {point_text(x)} has no name (naming must be total)")

    def names_of(self, x: Point) -> tuple[Term, ...]:
        return tuple(n for n, y in self.naming if y == x)

    def points_of(self, name: Term) -> tuple:
        return tuple(y for n, y in self.naming if n == name)

    @property
    def support(self) -> tuple[Term, ...]:
        seen = []
        for n, _ in self.naming:
            if n not in seen:
                seen.append(n)
        return tuple(sorted(seen, key=point_key))

    @property
    def is_modest(self) -> bool:
        """No name realizes two points."""
        return all(len(self.points_of(n)) == 1 for n in self.support)

    @property
    def is_partitioned(self) -> bool:
        """Every point has exactly one name."""
        return all(len(self.names_of(x)) == 1 for x in self.points)


def assembly(pca: Pca, points: Iterable[Point], naming: Iterable[tuple[Term, Point]]) -> Assembly:
    naming = tuple(naming)
    for name, _ in naming:
        if not is_closed(name):
            raise SpaceError(f"assembly name must be closed: {to_text(name)}")
        if not is_normal(pca, name):
            raise SpaceError(f"assembly name not in normal form: {to_text(name)}")
    return Assembly(tuple(points), naming)


@dataclass(frozen=True)
class ExtMorphism:
    """A morphism of the extended assembly category: a computable realizer
    acting on names, plus a pointwise (possibly non-computable) map on the
    naming relation."""

    source: Assembly
    target: Assembly
    realizer: Term
    pointmap: Mapping[tuple[Term, Point], Point]

    def __post_init__(self):
        if not is_computable(self.realizer):
            raise SpaceError(f"ext realizer {to_text(self.realizer)} is not computable")
        object.__setattr__(self, "pointmap", dict(self.pointmap))
        keys = set(self.pointmap)
        need = set(self.source.naming)
        if keys != need:
            raise SpaceError("pointmap must be total on the naming relation of the source")
        for key, y in self.pointmap.items():
            if y not in set(self.target.points):
                raise SpaceError(f"pointmap value {point_text(y)} outside target points")

    def __call__(self, key: tuple[Term, Point]) -> Point:
        return self.pointmap[key]

    def __hash__(self):
        return hash((self.source, self.target, self.realizer, frozenset(self.pointmap.items())))

    def induced(self, pca: Pca, name: Term, x: Point, fuel: int | None = None) -> tuple[Term, Point]:
        """The induced map on naming pairs: (p, x) -> (realizer.p, pointmap(p, x))."""
        out = apply(pca, self.realizer, name, fuel)
        if not out.is_defined:
            error = SpaceTimeout if out.status == "timeout" else SpaceError
            raise error(f"realizer undefined on name {to_text(name)}: {out!r}")
        return out.term, self.pointmap[(name, x)]


def ext_check(pca: Pca, m: ExtMorphism, fuel: int | None = None) -> Verdict:
    """Verify the defining condition: realizer.p names pointmap(p, x) for
    every naming pair (p, x) of the source."""
    timeouts = []
    for name, x in m.source.naming:
        out = apply(pca, m.realizer, name, fuel)
        if out.status == "timeout":
            timeouts.append((to_text(name), point_text(x)))
            continue
        if not out.is_defined:
            return verdicts.refuted((to_text(name), point_text(x), "realizer undefined"))
        y = m.pointmap[(name, x)]
        if (out.term, y) not in set(m.target.naming):
            return verdicts.refuted((to_text(name), point_text(x), to_text(out.term), point_text(y)))
    if timeouts:
        return verdicts.unknown(tuple(timeouts))
    return verdicts.holds(m)


def ext_identity(X: Assembly) -> ExtMorphism:
    return ExtMorphism(X, X, ID, {(n, x): x for n, x in X.naming})


def ext_compose(pca: Pca, g: ExtMorphism, f: ExtMorphism, fuel: int | None = None) -> ExtMorphism:
    """Composite morphism: realizers compose in the term algebra, pointmaps
    compose through the induced map on naming pairs."""
    if f.target != g.source:
        raise SpaceError("ext composition mismatch")
    realizer = compose(g.realizer, f.realizer)
    pointmap = {}
    for name, p in f.source.naming:
        mid_name, mid_point = f.induced(pca, name, p, fuel)
        pointmap[(name, p)] = g.pointmap[(mid_name, mid_point)]
    return ExtMorphism(f.source, g.target, realizer, pointmap)


def ext_equal(pca: Pca, m1: ExtMorphism, m2: ExtMorphism, fuel: int | None = None) -> bool | None:
    """Pointmaps compared extensionally, realizers by their action on names;
    None when they agree except where a realizer ran out of fuel on a name."""
    if m1.source != m2.source or m1.target != m2.target:
        return False
    if dict(m1.pointmap) != dict(m2.pointmap):
        return False
    agreed: bool | None = True
    for name, _ in m1.source.naming:
        o1 = apply(pca, m1.realizer, name, fuel)
        o2 = apply(pca, m2.realizer, name, fuel)
        if o1.status == "timeout" or o2.status == "timeout":
            agreed = None
        elif o1 != o2:
            return False
    return agreed


def ext_product(pca: Pca, X: Assembly, Y: Assembly) -> Product:
    """Product assembly: points are pairs, and a pair term names a pair of
    points exactly when its components name the components."""
    points = tuple((x, y) for x in X.points for y in Y.points)
    naming = []
    for p, x in X.naming:
        for q, y in Y.naming:
            t = pair_term(p, q)
            if not is_normal(pca, t):
                raise SpaceError(f"pair name {to_text(t)} is not normal")
            naming.append((t, (x, y)))
    obj = Assembly(points, tuple(naming))
    fst = ExtMorphism(obj, X, FST, {(n, xy): xy[0] for n, xy in obj.naming})
    snd = ExtMorphism(obj, Y, SND, {(n, xy): xy[1] for n, xy in obj.naming})
    return Product(X, Y, obj, fst, snd)


def assembly_to_carrier(asm: Assembly) -> FinSet:
    """The carrier underlying a partitioned modest assembly: its names."""
    if not (asm.is_modest and asm.is_partitioned):
        raise SpaceError("only partitioned modest assemblies embed as carriers")
    return FinSet(asm.support)


def carrier_to_assembly(pca: Pca, X: FinSet) -> Assembly:
    """A carrier as a partitioned modest assembly: each term names itself."""
    if not X.is_carrier:
        raise SpaceError("need a carrier of terms")
    return assembly(pca, tuple(X.points), tuple((t, t) for t in X.points))


# ---------------------------------------------------------------------------
# The key view: carriers and assemblies read alike


def keys(obj) -> tuple:
    """The keys of a carrier or an assembly, in canonical order."""
    if isinstance(obj, FinSet):
        return obj.points
    if isinstance(obj, Assembly):
        return obj.naming
    raise SpaceError(f"not a base object: {obj!r}")


def key_image(pca: Pca, m, key, fuel: int | None = None):
    """The key m sends key to: the graph value of a carrier map, the induced
    naming pair of an assembly morphism (which runs its realizer)."""
    if isinstance(m, ExtMorphism):
        return m.induced(pca, *key, fuel)
    return m.mapping[key]


def pair_key(a, b):
    """The product key over two factor keys: the pair term <x, y> of two
    carrier points, or (<p, q>, (x, y)) of two naming pairs (p, x), (q, y)."""
    if isinstance(a, Term):
        return pair_term(a, b)
    return pair_term(a[0], b[0]), (a[1], b[1])


def split_key(key):
    """The two factor keys of a product key, inverse to pair_key."""
    if isinstance(key, Term):
        return split_pair(key)
    (p, q), (x, y) = split_pair(key[0]), key[1]
    return (p, x), (q, y)


def pair_point(obj, a, b):
    """The point over a and b of the product obj: <a, b> in a carrier, (a, b) in an assembly."""
    return pair_term(a, b) if isinstance(obj, FinSet) else (a, b)


def split_point(obj, p):
    """The two factor points of a point of the product obj, inverse to pair_point."""
    return split_pair(p) if isinstance(obj, FinSet) else p


def product(pca: Pca, X, Y):
    """The product of two carriers or of two assemblies, with its projections."""
    return (ext_product if isinstance(X, Assembly) else carrier_product)(pca, X, Y)


def map_like(m, source, target, graph: Mapping, realizer: Term | None):
    """A map of m's kind from source to target, rebuilt from a graph on the
    keys of source: a carrier map or an assembly morphism."""
    if isinstance(m, ExtMorphism):
        return ExtMorphism(source, target, realizer, graph)
    return FinMap(source, target, graph, realizer)


def product_components(obj):
    """Recover the two factors of a product carrier from its pair terms, or of
    a product assembly from its pair names and pair points."""
    if isinstance(obj, FinSet):
        lefts, rights = set(), set()
        for t in obj:
            parts = split_pair(t)
            if parts is None:
                raise SpaceError(f"{to_text(t)} is not a pair term")
            lefts.add(parts[0])
            rights.add(parts[1])
        return FinSet(tuple(lefts)), FinSet(tuple(rights))
    lpoints, rpoints = set(), set()
    lnaming, rnaming = set(), set()
    for name, pt in obj.naming:
        if not isinstance(pt, tuple) or len(pt) != 2:
            raise SpaceError("product assembly points must be pairs")
        parts = split_pair(name)
        if parts is None:
            raise SpaceError(f"{to_text(name)} is not a pair name")
        lpoints.add(pt[0])
        rpoints.add(pt[1])
        lnaming.add((parts[0], pt[0]))
        rnaming.add((parts[1], pt[1]))
    return Assembly(tuple(lpoints), tuple(lnaming)), Assembly(tuple(rpoints), tuple(rnaming))


# fst/snd extraction paths up to depth 3, shortest first and fst before snd
_PROJECTION_PATHS = tuple(
    path for depth in range(4) for path in itertools.product(("fst", "snd"), repeat=depth)
)


def projection_path(m) -> tuple[str, ...] | None:
    """The shortest fst/snd extraction path that m follows, if one exists.

    m is a carrier map or an assembly morphism, read as (name, point, image)
    cases: the pair terms of a carrier name themselves, while an assembly
    morphism follows its pair names and pair points together.  The empty
    path is the identity, so it needs the source to be the target (an
    inclusion follows it on every case).  Composites of projections are
    matched up to depth 3, which keeps the membership test for the
    projection class decidable at desk scale.
    """
    if isinstance(m, ExtMorphism):
        cases = [(name, pt, img) for (name, pt), img in m.pointmap.items()]
    elif m.source.is_carrier:
        cases = [(t, None, m.mapping[t]) for t in m.source]
    else:
        return None
    for path in _PROJECTION_PATHS:
        if (path or m.source == m.target) and all(_extract(name, pt, path) == img for name, pt, img in cases):
            return path
    return None


def _extract(name: Term, pt, path: tuple[str, ...]):
    """Follow path through a pair name and its pair point, where a None
    point stands for the name itself; None when a step finds no pair."""
    for side in path:
        parts = split_pair(name)
        if parts is None or not (pt is None or isinstance(pt, tuple)):
            return None
        i = 0 if side == "fst" else 1
        name, pt = parts[i], (None if pt is None else pt[i])
    return name if pt is None else pt


# ---------------------------------------------------------------------------
# Pullbacks of finite graphs (for the completion machinery)


@dataclass(frozen=True)
class PullbackSquare:
    """A pullback of f along h in the category of finite point sets.

    apex = {(a, x) : h(a) = f(x)} with to_source = snd-ish leg into f.source
    and to_reindexed = fst-ish leg into h.source; f' = to_reindexed is the
    pulled-back copy of f and h' = to_source the pulled-back copy of h.
    """

    f: FinMap
    h: FinMap
    apex: FinSet
    f_prime: FinMap  # apex -> h.source
    h_prime: FinMap  # apex -> f.source


def pullback(f: FinMap, h: FinMap) -> PullbackSquare:
    if f.target != h.target:
        raise SpaceError("pullback needs a cospan (common target)")
    pts = tuple((a, x) for a in h.source for x in f.source if h.mapping[a] == f.mapping[x])
    apex = FinSet(pts)
    f_prime = FinMap(apex, h.source, {p: p[0] for p in pts})
    h_prime = FinMap(apex, f.source, {p: p[1] for p in pts})
    return PullbackSquare(f, h, apex, f_prime, h_prime)


def is_pullback(square: PullbackSquare) -> bool:
    """The square commutes and its apex is in bijection with the canonical
    fiber product."""
    for p in square.apex:
        if square.h.mapping[square.f_prime.mapping[p]] != square.f.mapping[square.h_prime.mapping[p]]:
            return False
    canon = {(a, x) for a in square.h.source for x in square.f.source if square.h.mapping[a] == square.f.mapping[x]}
    got = {(square.f_prime.mapping[p], square.h_prime.mapping[p]) for p in square.apex}
    return len(square.apex) == len(canon) and got == canon
