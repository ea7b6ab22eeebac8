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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from . import verdicts
from .pca import FST, ID, PAIR, Pca, SND, abstract_all, apply, is_computable, is_normal
from .terms import App, K, Term, Var, ap, is_closed, pair_term, split_pair, to_text
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


def compose_maps(g: FinMap, f: FinMap, realizer: Term | None = None) -> FinMap:
    """g after f.  A realizer is synthesized when both factors have one."""
    if f.target != g.source:
        raise SpaceError("composition mismatch: target of first is not source of second")
    if realizer is None and f.realizer is not None and g.realizer is not None:
        realizer = abstract_all(("x",), App(g.realizer, App(f.realizer, Var("x"))))
    return FinMap(f.source, g.target, {p: g.mapping[f.mapping[p]] for p in f.source}, realizer)


def constant_map(source: FinSet, target: FinSet, value: Point) -> FinMap:
    realizer = None
    if source.is_carrier and isinstance(value, Term) and is_computable(value):
        realizer = App(K, value)
    return FinMap(source, target, {p: value for p in source}, realizer)


@dataclass(frozen=True)
class CarrierProduct:
    """Binary product of carriers, with its projections."""

    left: FinSet
    right: FinSet
    object: FinSet
    fst: FinMap
    snd: FinMap


def carrier_product(pca: Pca, X: FinSet, Y: FinSet) -> CarrierProduct:
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
    return CarrierProduct(X, Y, obj, fst, snd)


def pairing_map(pca: Pca, f: FinMap, g: FinMap, product: CarrierProduct) -> FinMap:
    """The mediating map <f, g> into a carrier product."""
    if f.source != g.source:
        raise SpaceError("pairing needs a common source")
    mapping = {z: pair_term(f.mapping[z], g.mapping[z]) for z in f.source}
    realizer = None
    if f.realizer is not None and g.realizer is not None:
        x = Var("x")
        realizer = abstract_all(("x",), ap(PAIR, App(f.realizer, x), App(g.realizer, x)))
    return FinMap(f.source, product.object, mapping, realizer)


def projection_side(m) -> str | None:
    """"fst"/"snd" when m projects pairs onto a component: the pair terms of
    a carrier map's source, or the point pairs of an assembly morphism's
    naming relation, whose names must be pair terms too.

    Elements whose two components coincide are consistent with either side,
    so sides are intersected across the source.
    """
    if isinstance(m, ExtMorphism):
        cases = [(img, pt if isinstance(pt, tuple) and len(pt) == 2 and split_pair(name) else None)
                 for (name, pt), img in m.pointmap.items()]
    elif m.source.is_carrier:
        cases = [(m.mapping[t], split_pair(t)) for t in m.source]
    else:
        return None
    consistent = {"fst", "snd"}
    for img, pair in cases:
        if pair is None:
            return None
        consistent &= {side for side, part in zip(("fst", "snd"), pair) if img == part}
    if not consistent:
        return None
    return "fst" if "fst" in consistent else "snd"


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
    x = Var("x")
    realizer = abstract_all(("x",), App(g.realizer, App(f.realizer, x)))
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


@dataclass(frozen=True)
class AssemblyProduct:
    left: Assembly
    right: Assembly
    object: Assembly
    fst: ExtMorphism
    snd: ExtMorphism


def ext_product(pca: Pca, X: Assembly, Y: Assembly) -> AssemblyProduct:
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
    return AssemblyProduct(X, Y, obj, fst, snd)


def ext_pairing_morphism(pca: Pca, f: ExtMorphism, g: ExtMorphism, product: AssemblyProduct) -> ExtMorphism:
    """The mediating morphism <f, g> into a product assembly."""
    if f.source != g.source:
        raise SpaceError("ext pairing needs a common source")
    x = Var("x")
    realizer = abstract_all(("x",), ap(PAIR, App(f.realizer, x), App(g.realizer, x)))
    pointmap = {
        (n, z): (f.pointmap[(n, z)], g.pointmap[(n, z)])
        for n, z in f.source.naming
    }
    return ExtMorphism(f.source, product.object, realizer, pointmap)


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


def product_components(obj: FinSet) -> tuple[FinSet, FinSet]:
    """Recover the two factors of a product carrier from its pair terms."""
    lefts, rights = set(), set()
    for t in obj:
        parts = split_pair(t)
        if parts is None:
            raise SpaceError(f"{to_text(t)} is not a pair term")
        lefts.add(parts[0])
        rights.add(parts[1])
    return FinSet(tuple(lefts)), FinSet(tuple(rights))


def ext_product_components(obj: Assembly) -> tuple[Assembly, Assembly]:
    """Recover the two factors of a product assembly."""
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


def projection_path(m: FinMap, max_depth: int = 3) -> tuple[str, ...] | None:
    """A fst/snd extraction path realizing the graph, if one exists.

    The empty path is the identity.  Composites of projections are matched up
    to max_depth, which keeps the membership test for the projection class
    decidable at desk scale.
    """
    if not m.source.is_carrier:
        return None

    def extract(t: Term, path: tuple[str, ...]) -> Term | None:
        for side in path:
            parts = split_pair(t)
            if parts is None:
                return None
            t = parts[0] if side == "fst" else parts[1]
        return t

    paths: list[tuple[str, ...]] = [()]
    for depth in range(max_depth):
        paths = paths + [p + (s,) for p in paths if len(p) == depth for s in ("fst", "snd")]
    for path in sorted(set(paths), key=lambda q: (len(q), q)):
        if all(extract(t, path) == m.mapping[t] for t in m.source):
            return path
    return None


def ext_projection_path(m: ExtMorphism, max_depth: int = 3) -> tuple[str, ...] | None:
    """Like projection_path, on the pointmap of an assembly morphism."""

    def extract(name: Term, pt, path):
        for side in path:
            parts = split_pair(name)
            if parts is None or not isinstance(pt, tuple):
                return None
            if side == "fst":
                name, pt = parts[0], pt[0]
            else:
                name, pt = parts[1], pt[1]
        return pt

    paths: list[tuple[str, ...]] = [()]
    for depth in range(max_depth):
        paths = paths + [p + (s,) for p in paths if len(p) == depth for s in ("fst", "snd")]
    for path in sorted(set(paths), key=lambda q: (len(q), q)):
        ok = True
        for name, pt in m.source.naming:
            if extract(name, pt, path) != m.pointmap[(name, pt)]:
                ok = False
                break
        if ok:
            return path
    return None


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
