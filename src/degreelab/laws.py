"""Built-in property suites.

Each suite checks one family of algebraic laws over deterministic desk-scale
instances and reports grouped counts.  Suites are pure: each runs its cases
in a fixed order into one tally, so rerunning one yields the same records.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from itertools import product as iproduct

from . import isomorphisms as iso
from .completions import (
    EXISTS,
    FORALL,
    FULL,
    CompletionObject,
    CompletionWitness,
    beck_chevalley_check,
    comp_le,
    comp_reindex,
    pure_pullback_of_projection,
)
from .doctrines import (
    ALLOW_EMPTY,
    NONEMPTY,
    ORDERS,
    Bounded,
    CheckError,
    DialecticaWitness,
    ExtStrong,
    ExtendedPredicate,
    ForwardBackward,
    MassFamily,
    Predicate,
    TrackedFamily,
    UndecidedError,
    Uniform,
    check_le,
    exists_along_medvedev,
    forall_along,
    implication_adjunction_witness,
    lattice_element,
    lattice_law_witness,
    reindex,
    transpose_pure_forall,
    untranspose_pure_forall,
)
from .pca import (
    FST,
    ID,
    PAIR,
    Pca,
    SND,
    apply,
    bracket_abstract,
    enumerate_computable,
    is_computable,
    is_normal,
    normalize,
)
from .search import (
    UNKNOWN,
    SearchBudget,
    all_graphs,
    assignments,
    first_holding,
    forward_map_candidates,
    images_of,
    search_completion_witness,
    search_witness,
)
from .spaces import (
    ExtMorphism,
    FinMap,
    FinSet,
    SpaceError,
    SpaceTimeout,
    assembly,
    carrier,
    carrier_product,
    ext_check,
    ext_compose,
    ext_equal,
    ext_identity,
    ext_product,
    keys,
    pairing_map,
    pullback,
)
from .terms import (
    App,
    K,
    Oracle,
    S,
    Var,
    ap,
    enumerate_over,
    pair_term,
    subst,
    term_key,
    to_text,
)
from .verdicts import Verdict

O1 = Oracle("o1")


@dataclass(frozen=True)
class LawRecord:
    suite: str
    case: str
    checked: int
    violations: int
    unknowns: int

    @property
    def status(self) -> str:
        if self.violations:
            return "refuted"
        if self.unknowns:
            return "unknown"
        return "holds"

    def machine_line(self) -> str:
        return (
            f"law {self.suite} {self.case} checked {self.checked} "
            f"violations {self.violations} unknowns {self.unknowns} -> {self.status}"
        )


@dataclass
class SuiteReport:
    suite: str
    records: list

    @property
    def violations(self) -> int:
        return sum(r.violations for r in self.records)

    @property
    def unknowns(self) -> int:
        return sum(r.unknowns for r in self.records)

    @property
    def checked(self) -> int:
        return sum(r.checked for r in self.records)


class _Tally:
    """Accumulates (checked, violations, unknowns) per named case."""

    def __init__(self, suite: str):
        self.suite = suite
        self.order: list[str] = []
        self.counts: dict[str, list[int]] = {}

    def add(self, case: str, ok) -> None:
        """Count one case: ok is a Verdict, or True, False or None (unknown)."""
        if isinstance(ok, Verdict):
            ok = _outcome(ok)
        if case not in self.counts:
            self.counts[case] = [0, 0, 0]
            self.order.append(case)
        c = self.counts[case]
        c[0] += 1
        if ok is None:
            c[2] += 1
        elif not ok:
            c[1] += 1

    def report(self) -> SuiteReport:
        recs = [
            LawRecord(self.suite, case, *self.counts[case]) for case in self.order
        ]
        return SuiteReport(self.suite, recs)


def _outcome(v: Verdict) -> bool | None:
    """Whether a verdict holds; None when it is unknown."""
    return None if v.unknown else v.holds


# ---------------------------------------------------------------------------
# Suite 1: the defining combinator laws


def suite_pca_laws(pca: Pca, fuel: int | None = None) -> SuiteReport:
    # The enumeration contains divergent combinations; a tight step budget
    # keeps them cheap while deciding every convergent case identically.
    fuel = 200 if fuel is None else fuel
    terms = enumerate_computable(3)
    small = terms[:22]  # the size <= 2 prefix
    t = _Tally("pca-laws")
    # each shared subterm is built once: (b c) per suite, (a c), (K a) and
    # (S a) per a, (S a b) per (a, b)
    applied = {b: [App(b, c) for c in small] for b in small}
    for a in terms:
        na = normalize(pca, a, fuel)
        ka, sa = App(K, a), App(S, a)
        for b in terms:
            # k a is defined; k a b reduces to a whenever a normalizes
            out = normalize(pca, App(ka, b), fuel)
            if na.is_defined:
                if out.status == "timeout" or na.status == "timeout":
                    t.add("k-law", None)
                else:
                    t.add("k-law", out.is_defined and out.term == na.term)
        a_on = [App(a, c) for c in small]
        for b in small:
            sab = App(sa, b)
            for c, ac, bc in zip(small, a_on, applied[b]):
                rhs = normalize(pca, App(ac, bc), fuel)
                if rhs.status == "timeout":
                    # the chain only does one more step than the
                    # contractum, so it cannot settle either
                    t.add("s-law", None)
                    continue
                lhs = normalize(pca, App(sab, c), fuel)
                if lhs.status == "timeout":
                    t.add("s-law", None)
                else:
                    t.add("s-law", lhs == rhs)
    return t.report()


# ---------------------------------------------------------------------------
# Suite 2: bracket abstraction soundness


def suite_bracket_abstraction(pca: Pca, fuel: int | None = None) -> SuiteReport:
    fuel = 300 if fuel is None else fuel
    x = Var("x")
    args = enumerate_computable(2)
    t = _Tally("bracket-abstraction")
    for body in enumerate_over((x, K, S), 3):
        abstracted = bracket_abstract("x", body)
        for b in args:
            wanted = normalize(pca, subst(body, "x", b), fuel)
            if wanted.status == "timeout":
                t.add("substitution", None)
                continue
            applied = normalize(pca, App(abstracted, b), fuel)
            if applied.status == "timeout":
                t.add("substitution", None)
            else:
                t.add("substitution", applied == wanted)
    return t.report()


# ---------------------------------------------------------------------------
# Suite 3: pairing laws


def _settled(out, ok: bool) -> bool | None:
    """ok, or None (unknown) when the evaluation ran out of fuel."""
    return None if out.status == "timeout" else ok


def suite_pairing(pca: Pca, fuel: int | None = None) -> SuiteReport:
    pool = [t for t in enumerate_over((K, S, O1), 2) if is_normal(pca, t)]
    t = _Tally("pairing")
    for a in pool:
        for b in pool:
            made = normalize(pca, ap(PAIR, a, b), fuel)
            t.add("pair-defined", _settled(made, made.is_defined))
            if not made.is_defined:
                continue
            t.add("pair-shape", made.term == pair_term(a, b))
            f = normalize(pca, App(FST, made.term), fuel)
            s = normalize(pca, App(SND, made.term), fuel)
            t.add("fst-inverse", _settled(f, f.is_defined and f.term == a))
            t.add("snd-inverse", _settled(s, s.is_defined and s.term == b))
    return t.report()


# ---------------------------------------------------------------------------
# Suite 4: the uniform mass-fiber co-Heyting algebra


def _singleton_instances(pca: Pca):
    base = carrier(pca, [K])
    universe = carrier(pca, [K, S, O1])
    items = sorted(universe.points, key=term_key)
    fams = [MassFamily(base, {K: frozenset(vals)}) for size in range(3) for vals in combinations(items, size)]
    return base, universe, fams


def suite_medvedev_coheyting(pca: Pca, fuel: int | None = None) -> SuiteReport:
    base, universe, fams = _singleton_instances(pca)
    budget = SearchBudget(witness_size=3, fuel=fuel)
    bottom = lattice_element(pca, "bottom", "M", universe=universe, base=base)
    top = lattice_element(pca, "top", "M", base=base)
    t = _Tally("medvedev-coheyting")
    for phi in fams:
        for psi in fams:
            w = lattice_law_witness(pca, "bottom_le")
            t.add("bottom-least", check_le(pca, "M", bottom, phi, w, fuel))
            w = lattice_law_witness(pca, "le_top")
            t.add("top-greatest", check_le(pca, "M", phi, top, w, fuel))
            meet = lattice_element(pca, "meet", "M", phi, psi)
            t.add("meet-below-left", check_le(pca, "M", meet, phi, lattice_law_witness(pca, "meet_left"), fuel))
            t.add("meet-below-right", check_le(pca, "M", meet, psi, lattice_law_witness(pca, "meet_right"), fuel))
            join = lattice_element(pca, "join", "M", phi, psi)
            t.add("join-above-left", check_le(pca, "M", phi, join, lattice_law_witness(pca, "join_left"), fuel))
            t.add("join-above-right", check_le(pca, "M", psi, join, lattice_law_witness(pca, "join_right"), fuel))
            for rho in fams:
                lw = search_witness(pca, "M", rho, phi, budget)
                rw = search_witness(pca, "M", rho, psi, budget)
                if lw.found and rw.found:
                    wm = lattice_law_witness(pca, "meet_intro", w_left=lw.witness, w_right=rw.witness)
                    t.add("meet-greatest-lower", check_le(pca, "M", rho, meet, wm, fuel))
                lw2 = search_witness(pca, "M", phi, rho, budget)
                rw2 = search_witness(pca, "M", psi, rho, budget)
                if lw2.found and rw2.found:
                    wj = lattice_law_witness(pca, "join_intro", w_left=lw2.witness, w_right=rw2.witness)
                    t.add("join-least-upper", check_le(pca, "M", join, rho, wj, fuel))
                # subtraction adjunction, both transports
                sub = lattice_element(pca, "subtract", "M", phi, psi, universe=universe, fuel=fuel)
                psi_or_rho = lattice_element(pca, "join", "M", psi, rho)
                found_sub = search_witness(pca, "M", sub, rho, budget)
                if found_sub.found:
                    we = lattice_law_witness(pca, "subtract_elim", w=found_sub.witness)
                    t.add("subtract-to-join", check_le(pca, "M", phi, psi_or_rho, we, fuel))
                found_join = search_witness(pca, "M", phi, psi_or_rho, budget)
                if found_join.found:
                    wi = lattice_law_witness(pca, "subtract_intro", w=found_join.witness)
                    extra = set(universe.points)
                    for x in rho.base:
                        for d in sorted(rho.values[x], key=term_key):
                            out = apply(pca, wi.term, d, fuel)
                            if out.is_defined:
                                extra.add(out.term)
                    enlarged = FinSet(tuple(extra))
                    sub1 = lattice_element(pca, "subtract", "M", phi, psi, universe=enlarged, fuel=fuel)
                    t.add("join-to-subtract", check_le(pca, "M", sub1, rho, wi, fuel))
    return t.report()


# ---------------------------------------------------------------------------
# Suite 5: the non-uniform implication adjunction, bounded


def suite_muchnik_heyting(pca: Pca, fuel: int | None = None) -> SuiteReport:
    base, universe, fams = _singleton_instances(pca)
    bound = 5
    t = _Tally("muchnik-heyting")
    for phi, psi, rho in iproduct(fams, repeat=3):
        imp = lattice_element(pca, "implies", "Mw", phi, psi, bound=bound, fuel=fuel)
        meet = lattice_element(pca, "meet", "Mw", phi, rho)
        lhs = check_le(pca, "Mw", rho, imp, Bounded(bound), fuel)
        rhs = check_le(pca, "Mw", meet, psi, Bounded(bound), fuel)
        if lhs.unknown or rhs.unknown:
            t.add("adjunction-agreement", None)
        else:
            t.add("adjunction-agreement", lhs.holds == rhs.holds)
        if lhs.holds:
            try:
                table = search_witness(pca, "Mw", rho, imp, SearchBudget(bound, fuel)).witness
                tw = implication_adjunction_witness(pca, "imp_to_meet", phi, psi, rho, table, bound, fuel)
                t.add("transport-to-meet", check_le(pca, "Mw", meet, psi, tw, fuel))
            except (UndecidedError, CheckError):
                t.add("transport-to-meet", None)
    return t.report()


# ---------------------------------------------------------------------------
# Suite 6: adjunction biconditionals


def _small_carriers(pca):
    return [
        carrier(pca, [K]),
        carrier(pca, [S]),
        carrier(pca, [K, S]),
        carrier(pca, [K, O1]),
    ]


def _family_palette(base):
    """Deterministic small selection of mass families over the base."""
    opts = [frozenset(), frozenset([K]), frozenset([S]), frozenset([K, S]), frozenset([O1])]
    return [MassFamily(base, values) for values in assignments(base.points, [opts] * len(base))]


def suite_adjoints(pca: Pca, fuel: int | None = None) -> SuiteReport:
    carriers = _small_carriers(pca)
    budget = SearchBudget(witness_size=3, fuel=fuel)
    t = _Tally("adjoint-suites")
    for Y, X in iproduct(carriers, repeat=2):
        for f in all_graphs(Y, X):
            phis = _family_palette(Y)[:: max(1, len(Y) * 2 - 1)]
            psis = _family_palette(X)[:: max(1, len(X) * 2 - 1)]
            for phi in phis:
                fa = forall_along(pca, "M", f, phi, fuel)
                for psi in psis:
                    up = search_witness(pca, "M", psi, fa, budget)
                    down = search_witness(pca, "M", reindex(pca, "M", f, psi), phi, budget)
                    # the same witness term serves both sides of the adjunction
                    if up.found:
                        t.add("forall-transpose", check_le(pca, "M", reindex(pca, "M", f, psi), phi, up.witness, fuel))
                    if down.found:
                        t.add("forall-untranspose", check_le(pca, "M", psi, fa, down.witness, fuel))
                    unknown = UNKNOWN in (up.status, down.status)
                    t.add("forall-both-or-neither", None if unknown else up.found == down.found)
                if f.is_surjective():
                    ex = exists_along_medvedev(pca, f, phi)
                    for psi in psis:
                        up = search_witness(pca, "M", ex, psi, budget)
                        down = search_witness(pca, "M", phi, reindex(pca, "M", f, psi), budget)
                        if up.found:
                            t.add("exists-transpose", check_le(pca, "M", phi, reindex(pca, "M", f, psi), up.witness, fuel))
                        if down.found:
                            t.add("exists-untranspose", check_le(pca, "M", ex, psi, down.witness, fuel))
    _pure_forall_cases(pca, fuel, t)
    return t.report()


def _uniform_candidates(pca, g):
    """Projection-shaped and constant candidates plus the small enumeration."""
    cands = [Uniform(SND), Uniform(FST), Uniform(ID)]
    values = set()
    for v in g.values.values():
        values |= v
    for v in sorted(values, key=term_key):
        if is_computable(v):
            cands.append(Uniform(App(K, v)))
    cands.extend(Uniform(u) for u in enumerate_computable(2))
    return cands


def _first_holding(pca, doc, lhs, rhs, cands, fuel):
    """The first candidate that holds; else False, or None (undecided) when
    the search is unknown: a candidate's check ran out of fuel, or a
    candidate was malformed."""
    out = first_holding(cands, lambda w: check_le(pca, doc, lhs, rhs, w, fuel), SearchBudget(0, fuel))
    return out.witness if out.found else (None if out.status == UNKNOWN else False)


def _any_of(*outcomes):
    """Three-valued disjunction: a success beats an unknown."""
    if any(outcomes):
        return True
    return None if None in outcomes else False


def _pure_forall_cases(pca, fuel, t):
    X = carrier(pca, [K, S])
    Z = carrier(pca, [K])
    prod = carrier_product(pca, X, Z)
    weights = [frozenset([K]), frozenset([S]), frozenset([K, S])]
    f_opts = [MassFamily(prod.object, values, NONEMPTY)
              for values in assignments(prod.object.points, [weights] * len(prod.object))]
    f_opts = f_opts[:: max(1, len(f_opts) // 12)]
    for fam in f_opts:
        fa = forall_along(pca, "dW", prod.snd, fam, fuel)
        g_opts = [fa, MassFamily(Z, {K: frozenset([pair_term(K, K)])}, NONEMPTY)]
        for g in g_opts:
            cands = _uniform_candidates(pca, g)
            up = _first_holding(pca, "dW", g, fa, cands, fuel)
            if up:
                b = transpose_pure_forall(pca, up)
                t.add("pure-forall-transpose", check_le(pca, "dW", reindex(pca, "dW", prod.snd, g), fam, b, fuel))
            down = _first_holding(pca, "dW", reindex(pca, "dW", prod.snd, g), fam, cands, fuel)
            if down:
                d = untranspose_pure_forall(pca, down)
                t.add("pure-forall-untranspose", check_le(pca, "dW", g, fa, d, fuel))
            t.add("pure-forall-decided", _any_of(up, down))
    # assembly variants share the transposition combinators
    A = assembly(pca, ["x", "y"], [(K, "x"), (S, "y"), (pair_term(K, K), "y")])
    B = assembly(pca, ["z"], [(K, "z")])
    aprod = ext_product(pca, A, B)
    for doc in ("drW", "dextW"):
        vals, policy = {}, ORDERS[doc].policy
        toggle = True
        for key in aprod.object.naming:
            vals[key] = frozenset([K]) if toggle or policy == NONEMPTY else frozenset()
            toggle = not toggle
        fam = MassFamily(aprod.object, vals, policy)
        fa = forall_along(pca, doc, aprod.snd, fam, fuel)
        cands = [Uniform(SND), Uniform(FST), Uniform(ID)]
        up = _first_holding(pca, doc, fa, fa, cands, fuel)
        if up:
            b = transpose_pure_forall(pca, up)
            t.add(f"pure-forall-{doc}-transpose",
                  check_le(pca, doc, reindex(pca, doc, aprod.snd, fa), fam, b, fuel))
        down = _first_holding(pca, doc, reindex(pca, doc, aprod.snd, fa), fam, cands, fuel)
        if down:
            d = untranspose_pure_forall(pca, down)
            t.add(f"pure-forall-{doc}-untranspose",
                  check_le(pca, doc, fa, fa, d, fuel))
        t.add(f"pure-forall-{doc}-decided", _any_of(up))


# ---------------------------------------------------------------------------
# Suite 7: Beck-Chevalley squares


def suite_beck_chevalley(pca: Pca, fuel: int | None = None) -> SuiteReport:
    carriers = [carrier(pca, [K]), carrier(pca, [K, S])]
    t = _Tally("beck-chevalley")
    for A, X, Ap in iproduct(carriers, repeat=3):
        for f in all_graphs(X, A):
            for h in all_graphs(Ap, A):
                square = pullback(f, h)
                for phi in _family_palette(f.source)[:: max(1, len(f.source) * 3)]:
                    v = beck_chevalley_check(pca, "M", FORALL, square, phi, fuel)
                    t.add("mass-forall", v)
    # pure existential squares over realized maps
    budget = SearchBudget(witness_size=4, fuel=fuel)
    X = carrier(pca, [K, S])
    Y = carrier(pca, [K])
    prod = carrier_product(pca, X, Y)
    fam_opts = _family_palette(prod.object)[:: max(1, 5 ** len(prod.object) // 6)]
    for Ap in (carrier(pca, [K]), carrier(pca, [K, S])):
        for m in forward_map_candidates(pca, Ap, X, budget):
            square = pure_pullback_of_projection(pca, prod.fst, m)
            for fam in fam_opts:
                fam2 = MassFamily(fam.base, fam.values, ALLOW_EMPTY)
                v = beck_chevalley_check(pca, "dW", EXISTS, square, fam2, fuel)
                t.add("pure-exists", v)
    return t.report()


# ---------------------------------------------------------------------------
# Suite 8: the order isomorphisms with two-way transport


def _tracked_objects(pca, doc):
    """Universal completion objects over a one-point carrier."""
    X = carrier(pca, [K])
    sources = [carrier(pca, []), carrier(pca, [K]), carrier(pca, [K, S])]
    values = [K, S, O1]
    objects = []
    for Y in sources:
        for f in all_graphs(Y, X):
            for alpha in assignments(Y.points, [values] * len(Y)):
                objects.append(CompletionObject(FORALL, FULL, doc, f, TrackedFamily(Y, alpha)))
    return objects


def suite_isomorphisms(pca: Pca, fuel: int | None = None) -> SuiteReport:
    t = _Tally("isomorphism-suites")
    _iso_universal(pca, fuel, t, "medvedev", _tracked_objects(pca, "T")[::3])
    _iso_universal(pca, fuel, t, "muchnik", _tracked_objects(pca, "Tw")[::4])
    _iso_weihrauch(pca, fuel, t, "weihrauch")
    _iso_weihrauch(pca, fuel, t, "strong")
    _iso_realizer(pca, fuel, t, "realizer")
    _iso_realizer(pca, fuel, t, "extended")
    _extpred_cases(pca, t)
    _iso_universal(pca, fuel, t, "dialectica", _mass_objects(pca)[::3])
    _two_step_case(pca, fuel, t)
    return t.report()


def _iso_universal(pca, fuel, t, name, objects):
    """Round trips through the concrete order, the two searches' agreement,
    and each found witness transported across and re-checked."""
    row = iso.EQUIVALENCES[name]
    budget = SearchBudget(witness_size=2, fuel=fuel)
    for o in objects:
        c = row.from_completion(pca, o)
        back = row.to_completion(pca, c, row.completion)
        t.add(f"{name}-roundtrip", row.from_completion(pca, back) == c)
    for o1 in objects:
        for o2 in objects:
            c1, c2 = row.from_completion(pca, o1), row.from_completion(pca, o2)
            cw = search_completion_witness(pca, o1, o2, budget)
            mw = search_witness(pca, row.concrete, c1, c2, budget)
            unknown = UNKNOWN in (cw.status, mw.status)
            t.add(f"{name}-search-agreement", None if unknown else cw.found == mw.found)
            if cw.found:
                fwd = row.forward(pca, o1, o2, cw.witness, fuel)
                t.add(f"{name}-preserve", check_le(pca, row.concrete, c1, c2, fwd, fuel))
            if mw.found:
                back_w = row.backward(pca, o1, o2, mw.witness, fuel)
                t.add(f"{name}-reflect", comp_le(pca, o1, o2, back_w, fuel))


def _pred_palette(base, index, opts, policy):
    """Every predicate on base x index with values from opts, and the empty
    value too under ALLOW_EMPTY, keyed by pairs of base and index keys."""
    if policy == ALLOW_EMPTY:
        opts = [frozenset(), *opts]
    cells = [(a, b) for a in keys(base) for b in keys(index)]
    return [Predicate(base, index, table, policy) for table in assignments(cells, [opts] * len(cells))]


def _iso_weihrauch(pca, fuel, t, name):
    row = iso.EQUIVALENCES[name]
    doc = row.concrete
    X = carrier(pca, [K])
    indexes = [carrier(pca, [K]), carrier(pca, [K, S])]
    budget = SearchBudget(witness_size=3, fuel=fuel)
    preds = []
    for Y in indexes:
        preds.extend(_pred_palette(X, Y, [frozenset([K]), frozenset([S]), frozenset([K, S])], NONEMPTY)
                     [:: max(1, 3 ** len(Y) - 2)])
    for F in preds:
        obj = row.to_completion(pca, F, row.completion)
        t.add(f"{doc}-roundtrip", row.from_completion(pca, obj) == F)
    for F in preds:
        for G in preds:
            found = search_witness(pca, doc, F, G, budget)
            if found.found:
                _reflect_preserve(pca, fuel, t, row, F, G, found.witness)


def _reflect_preserve(pca, fuel, t, row, F, G, w):
    """A witness of F <= G carried into the completion order and back, each
    image re-checked."""
    lo, ro = row.to_completion(pca, F, row.completion), row.to_completion(pca, G, row.completion)
    cw = row.backward(pca, lo, ro, w, fuel)
    t.add(f"{row.concrete}-reflect", comp_le(pca, lo, ro, cw, fuel))
    t.add(f"{row.concrete}-preserve", check_le(pca, row.concrete, F, G, row.forward(pca, lo, ro, cw, fuel), fuel))


def _iso_realizer(pca, fuel, t, name):
    row = iso.EQUIVALENCES[name]
    doc = row.concrete
    X = assembly(pca, ["u"], [(K, "u")])
    Y = assembly(pca, ["a", "b"], [(K, "a"), (S, "b")])
    preds = _pred_palette(X, Y, [frozenset([K]), frozenset([S])], ORDERS[doc].policy)[:: 3]
    for F in preds:
        obj = row.to_completion(pca, F, row.completion)
        t.add(f"{doc}-roundtrip", row.from_completion(pca, obj) == F)
    # a reflexive reduction and its transport both ways
    w = ForwardBackward(ext_product(pca, X, Y).snd, SND)
    for F in preds:
        t.add(f"{doc}-reflexive", check_le(pca, doc, F, F, w, fuel))
        _reflect_preserve(pca, fuel, t, row, F, F, w)


def _extpred_cases(pca, t):
    """The not-not-dense flag survives the assembly construction."""
    dom = carrier(pca, [K])
    f = ExtendedPredicate(dom, {K: frozenset([frozenset([K]), frozenset([S])])})
    asm, fam = iso.ext_pred_to_assembly(pca, f)
    t.add("extpred-assembly-dense", fam.policy == NONEMPTY)
    g = ExtendedPredicate(dom, {K: frozenset([frozenset()])})
    asm2, fam2 = iso.ext_pred_to_assembly(pca, g)
    t.add("extpred-assembly-top", fam2.policy == ALLOW_EMPTY and len(asm2.points) == 1)


def _mass_objects(pca):
    X = carrier(pca, [K])
    sources = [carrier(pca, [K]), carrier(pca, [K, S])]
    opts = [frozenset([K]), frozenset([S]), frozenset([K, S])]
    objects = []
    for Y in sources:
        for f in all_graphs(Y, X):
            for alpha in assignments(Y.points, [opts] * len(Y)):
                objects.append(CompletionObject(EXISTS, FULL, "M", f, MassFamily(Y, alpha)))
    return objects


def _two_step_case(pca, fuel, t):
    """The existential completion of the universal completion of T agrees
    with the dialectica order through the composed maps."""
    X = carrier(pca, [K])
    Y = carrier(pca, [K, S])
    inner_leg = all_graphs(Y, X)[0]
    alpha = TrackedFamily(Y, {K: K, S: S})
    inner = CompletionObject(FORALL, FULL, "T", inner_leg, alpha)
    obj = CompletionObject(EXISTS, FULL, "T", all_graphs(X, X)[0], inner)
    D1 = iso.two_step_to_dialectica(pca, obj)
    outer_h = all_graphs(X, X)[0]
    reindexed = comp_reindex(pca, outer_h, obj.payload, fuel)
    med = FinMap(reindexed.leg.source, Y, {pt: pt[1] for pt in reindexed.leg.source})
    w = CompletionWitness(outer_h, CompletionWitness(med, Uniform(ID)))
    v = comp_le(pca, obj, obj, w, fuel)
    t.add("two-step-reflexive", v)
    if v.holds:
        dwit = iso.two_step_transport_forward(pca, obj, obj, w, fuel)
        t.add("two-step-transport", check_le(pca, "D", D1, D1, dwit, fuel))


# ---------------------------------------------------------------------------
# Suite 9: extended strong reducibility against the pointwise choice order


def _extended_palette(pca, dom):
    opts = [
        frozenset(),
        frozenset([frozenset()]),
        frozenset([frozenset([K])]),
        frozenset([frozenset([S])]),
        frozenset([frozenset([K]), frozenset([S])]),
        frozenset([frozenset(), frozenset([K])]),
    ]
    return [ExtendedPredicate(dom, table) for table in assignments(dom.points, [opts] * len(dom))]


def suite_extsw_dialectica(pca: Pca, fuel: int | None = None) -> SuiteReport:
    dom = carrier(pca, [K, S])
    preds = _extended_palette(pca, dom)[:: 5]
    shifts = _distinct_actions(pca, dom, bound=5, fuel=fuel)
    hs = enumerate_computable(2)
    t = _Tally("extsw-dialectica")
    dial = [iso.extended_to_dialectica(f) for f in preds]
    by_text = lambda s: sorted(map(to_text, s))
    keys = [[(p, a) for p in f.effective_dom for a in sorted(f.table[p], key=by_text)] for f in preds]
    offers = [{y: sorted(g.table[y], key=by_text) for y in g.dom if g.table[y]} for g in preds]
    # Each shift of G by k onto dom, the one base of every F, is built once,
    # just before its pairs run, and dropped after them; a rejected shift
    # skips its pairs.  The tallies do not depend on the order of the pairs.
    for (j, g), k in iproduct(enumerate(preds), shifts):
        try:
            Gk = iso.dialectica_shift(pca, dial[j], k, dom, fuel)
        except CheckError:
            continue
        for i, f in enumerate(preds):
            F = dial[i]
            images = images_of(pca, k, f.effective_dom, offers[j], fuel)
            if images is None:
                continue
            image = dict(zip(f.effective_dom, images))
            options = [offers[j][image[p]] for p, _ in keys[i]]
            for choice in islice(assignments(keys[i], options), 4):
                for h in hs[:8]:
                    ws = ExtStrong(k, choice, h)
                    wd = DialecticaWitness(choice, h)
                    a_side = check_le(pca, "extsW", f, g, ws, fuel)
                    b_side = check_le(pca, "D", F, Gk, wd, fuel)
                    if a_side.unknown or b_side.unknown:
                        t.add("per-witness-agreement", None)
                    else:
                        t.add("per-witness-agreement", a_side.holds == b_side.holds)
    return t.report()


def _distinct_actions(pca, dom, bound, fuel):
    """Computable terms up to the bound, deduplicated by their action on dom."""
    seen = set()
    out = []
    for t in enumerate_computable(bound):
        key = tuple((o.status, o.term) for o in (apply(pca, t, p, fuel) for p in dom))
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# Suite 10: category laws for the extended assembly category


def _test_assemblies(pca):
    a1 = assembly(pca, ["p"], [(K, "p")])
    a2 = assembly(pca, ["x", "y"], [(K, "x"), (S, "y"), (pair_term(K, K), "y")])
    a3 = assembly(pca, ["a", "b", "c"], [(K, "a"), (S, "b"), (pair_term(K, S), "c")])
    return [a1, a2, a3]


def _morphism_library(pca, assemblies, fuel):
    lib = {}
    for src in assemblies:
        for tgt in assemblies:
            out = [ ]
            if src == tgt:
                out.append(ext_identity(src))
            # constant morphisms to each computably named point
            for name, pt in tgt.naming:
                if is_computable(name):
                    realizer = App(K, name)
                    out.append(ExtMorphism(src, tgt, realizer,
                                           {key: pt for key in src.naming}))
            lib[(id(src), id(tgt))] = out
    return lib


def _ext_compose(pca, g, f, fuel):
    """ext_compose, or None when a realizer runs out of fuel on a name (or g
    or f is already None)."""
    if g is None or f is None:
        return None
    try:
        return ext_compose(pca, g, f, fuel)
    except SpaceTimeout:
        return None


def _ext_equal(pca, m1, m2, fuel):
    return None if m1 is None or m2 is None else ext_equal(pca, m1, m2, fuel)


def _ext_check(pca, m, fuel):
    if m is None:
        return None
    return _outcome(ext_check(pca, m, fuel))


def _all_of(*outcomes):
    """Three-valued conjunction: a violation beats an unknown."""
    if any(o is False for o in outcomes):
        return False
    return None if None in outcomes else True


def suite_extasm_category(pca: Pca, fuel: int | None = None) -> SuiteReport:
    assemblies = _test_assemblies(pca)
    lib = _morphism_library(pca, assemblies, fuel)
    t = _Tally("extasm-category")
    for src in assemblies:
        for mid in assemblies:
            for f in lib[(id(src), id(mid))]:
                t.add("well-formed", _ext_check(pca, f, fuel))
                left = _ext_compose(pca, ext_identity(mid), f, fuel)
                right = _ext_compose(pca, f, ext_identity(src), fuel)
                t.add("identity-laws", _all_of(_ext_equal(pca, left, f, fuel),
                                               _ext_equal(pca, right, f, fuel)))
                for tgt in assemblies:
                    for g in lib[(id(mid), id(tgt))]:
                        gf = _ext_compose(pca, g, f, fuel)
                        t.add("composite-well-formed", _ext_check(pca, gf, fuel))
                        for last in assemblies:
                            for h in lib[(id(tgt), id(last))]:
                                one = _ext_compose(pca, h, gf, fuel)
                                two = _ext_compose(pca, _ext_compose(pca, h, g, fuel), f, fuel)
                                t.add("associativity", _ext_equal(pca, one, two, fuel))
    # product universal property on a 2x2 instance
    X, Y = assemblies[1], assemblies[1]
    Z = assemblies[0]
    prod = ext_product(pca, X, Y)
    t.add("projections-check", _all_of(_ext_check(pca, prod.fst, fuel), _ext_check(pca, prod.snd, fuel)))
    for f in lib[(id(Z), id(X))]:
        for g in lib[(id(Z), id(Y))]:
            med = pairing_map(pca, f, g, prod)
            t.add("mediator-checks", _ext_check(pca, med, fuel))
            t.add("triangle-left", _ext_equal(pca, _ext_compose(pca, prod.fst, med, fuel), f, fuel))
            t.add("triangle-right", _ext_equal(pca, _ext_compose(pca, prod.snd, med, fuel), g, fuel))
            # uniqueness: any pointmap for the same realizer satisfying both
            # triangles is the canonical one; an alternative that runs out of
            # fuel leaves it unknown
            others = unsure = 0
            for xpt in prod.object.points:
                candidate = dict(med.pointmap)
                for key in candidate:
                    alt = dict(candidate)
                    alt[key] = xpt
                    if alt == dict(med.pointmap):
                        continue
                    try:
                        alt_m = ExtMorphism(Z, prod.object, med.realizer, alt)
                    except SpaceError:
                        continue
                    well_formed = _ext_check(pca, alt_m, fuel)
                    if well_formed is False:
                        continue
                    same = _all_of(
                        well_formed,
                        _ext_equal(pca, _ext_compose(pca, prod.fst, alt_m, fuel), f, fuel),
                        _ext_equal(pca, _ext_compose(pca, prod.snd, alt_m, fuel), g, fuel))
                    if same:
                        others += 1
                    elif same is None:
                        unsure += 1
            t.add("mediator-unique", False if others else None if unsure else True)
    return t.report()


# ---------------------------------------------------------------------------
# Registry and reports


SUITES = {
    "pca-laws": suite_pca_laws,
    "bracket-abstraction": suite_bracket_abstraction,
    "pairing": suite_pairing,
    "medvedev-coheyting": suite_medvedev_coheyting,
    "muchnik-heyting": suite_muchnik_heyting,
    "adjoint-suites": suite_adjoints,
    "beck-chevalley": suite_beck_chevalley,
    "isomorphism-suites": suite_isomorphisms,
    "extsw-dialectica": suite_extsw_dialectica,
    "extasm-category": suite_extasm_category,
}


def run_suites(names=None, pca: Pca | None = None, fuel: int | None = None) -> list[SuiteReport]:
    if pca is None:
        pca = Pca(oracles={"o1": {}})
    picked = list(SUITES) if not names else list(names)
    out = []
    for name in picked:
        if name not in SUITES:
            raise CheckError(f"unknown suite {name!r}")
        out.append(SUITES[name](pca, fuel))
    return out


def machine_format(reports) -> str:
    lines = []
    for rep in reports:
        lines.append(f"suite {rep.suite}")
        for rec in rep.records:
            lines.append(rec.machine_line())
        lines.append(f"total {rep.suite} violations {rep.violations} unknowns {rep.unknowns}")
    return "\n".join(lines) + "\n"
