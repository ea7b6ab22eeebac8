"""Command-line front end.

Subcommands: check, search, lattice, complete, iso, laws.  Exit status for
claim-running commands: 0 when every claim Holds, 1 when any is Refuted, 2
when any is Unknown, 3 on input errors.  The machine format is a subset of
the instance grammar, so reports and found witnesses re-parse, including
forward maps out of undeclared product assemblies (rW and tW witnesses).
Each declaration a command prints (a found or transported witness with the
objects and map it needs, a claim, a family, an assembly) is first declared
in the loaded instance and then printed by the instance's printer of its kind,
under the first name the loaded file leaves free (``c_found``, else
``c_found_2``, ...), so the output appended to the file re-parses.
``--time-cap`` caps each search on its own: ``complete`` runs one search per
ordered pair of objects, so the command as a whole has no cap.  ``complete``
prints each pair whose search ended unknown as a ``// unknown i <= j`` line,
draws Hasse edges from the decided pairs only, and exits 2 when any pair is
unknown.

The argument parser is built once per process, on the first ``main`` call
(not at import), and reused by every later call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time

from . import isomorphisms as iso
from .completions import CompletionObject, comp_le
from .doctrines import (
    ALLOW_EMPTY,
    ASSEMBLY,
    ORDERS,
    CheckError,
    DialecticaWitness,
    ForwardBackward,
    MassFamily,
    TrackedFamily,
    Uniform,
    check_le,
)
from .instance import (
    OBJECTS,
    Instance,
    InstanceError,
    declared_name,
    format_decl,
    format_result,
    format_table,
    format_terms,
    parse_instance,
)
from .pca import Pca, PcaError
from .search import UNKNOWN, SearchBudget, SearchOutcome, assignments, search_completion_witness, search_witness
from .spaces import Assembly, FinMap, FinSet, SpaceError, carrier_product, point_text
from .verdicts import Verdict

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InstanceError, CheckError, SpaceError, PcaError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one: parsing reads it and writes only the fresh namespace it returns."""
    p = argparse.ArgumentParser(prog="degreelab",
                                description="witness-certified reducibility workbench")
    p.add_argument("--fuel", type=int, default=None,
                   help="reduction step budget (default: the instance's fuel)")
    p.add_argument("--witness-size", type=int, default=7, help="witness term size bound")
    p.add_argument("--time-cap", type=float, default=None, help="wall clock cap per search (s)")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    sub = p.add_subparsers(required=True)

    c = sub.add_parser("check", help="verify claims in an instance file")
    c.add_argument("file")
    c.add_argument("claims", nargs="*", help="claim names (default: all)")
    c.set_defaults(handler=cmd_check)

    s = sub.add_parser("search", help="search a witness for a claim")
    s.add_argument("file")
    s.add_argument("claim")
    s.set_defaults(handler=cmd_search)

    l = sub.add_parser("lattice", help="materialize lattice operations and laws")
    l.add_argument("file")
    l.add_argument("--doc", choices=("M", "Mw"), default="M")
    l.add_argument("--op", required=True,
                   choices=("bottom", "top", "meet", "join", "subtract", "implies", "law"))
    l.add_argument("--law", help="law id when --op law")
    l.add_argument("--args", dest="operands", nargs="*", default=[],
                   help="family names (or witness names for laws)")
    l.add_argument("--base", help="carrier name for bottom/top")
    l.add_argument("--universe", help="universe name for bottom/subtract")
    l.add_argument("--bound", type=int, default=5, help="inner search bound for implies")
    l.add_argument("--claim", help="claim name a synthesized law witness should certify")
    l.set_defaults(handler=cmd_lattice)

    m = sub.add_parser("complete", help="materialize a completion fiber and its order")
    m.add_argument("file")
    m.add_argument("--object", required=True, help="carrier the fiber sits over")
    m.add_argument("--doc", default="T")
    m.add_argument("--kind", choices=("exists", "forall"), default="forall")
    m.add_argument("--klass", choices=("full", "pure"), default="full")
    m.add_argument("--universe", help="universe for payload values (default: the object)")
    m.add_argument("--index-bound", type=int, default=1, help="max index carrier size")
    m.set_defaults(handler=cmd_complete)

    i = sub.add_parser("iso", help="apply an isomorphism map and transport a witness")
    i.add_argument("file")
    i.add_argument("--map", required=True, dest="mapname",
                   choices=(*iso.EQUIVALENCES, "extpred", "extsw_d"))
    i.add_argument("--direction", choices=("forward", "backward"), default="forward")
    i.add_argument("--claim", help="claim to transport")
    i.add_argument("--object", help="object name for object-map-only commands")
    i.set_defaults(handler=cmd_iso)

    w = sub.add_parser("laws", help="run the built-in property suites")
    w.add_argument("suites", nargs="*", help="suite names (default: all)")
    w.set_defaults(handler=cmd_laws)
    return p


def _load(args) -> Instance:
    with open(args.file) as fh:
        text = fh.read()
    inst = parse_instance(text)
    if args.fuel is not None and args.fuel != inst.fuel:
        inst.pca = Pca(oracles=inst.pca.oracles, default_fuel=args.fuel)
        inst.fuel = args.fuel
    return inst


def _run_claim(inst: Instance, claim, fuel: int) -> Verdict:
    lhs = inst.element(claim.lhs)
    rhs = inst.element(claim.rhs)
    w = inst.witnesses[claim.witness]
    if claim.doc == "comp":
        if not isinstance(lhs, CompletionObject) or not isinstance(rhs, CompletionObject):
            raise CheckError(f"claim {claim.name}: <=_comp relates completion objects")
        return comp_le(inst.pca, lhs, rhs, w, fuel)
    return check_le(inst.pca, claim.doc, lhs, rhs, w, fuel)


def _claim(inst: Instance, name: str):
    claim = next((c for c in inst.claims if c.name == name), None)
    if claim is None:
        raise InstanceError(f"unknown claim {name!r}")
    return claim


def _exit_code(v: Verdict) -> int:
    return EXIT_OK if v.holds else (EXIT_REFUTED if v.refuted else EXIT_UNKNOWN)


def _emit_verdicts(args, named_verdicts, elapsed) -> int:
    worst = EXIT_OK
    lines = []
    for name, v in named_verdicts:
        if v.refuted:
            worst = max(worst, EXIT_REFUTED)
        elif v.unknown:
            worst = max(worst, EXIT_UNKNOWN)
        if args.format == "machine":
            lines.append(format_result(name, v.status, v.counterexample, len(v.unknowns)))
        else:
            line = f"claim {name}: {v.status.upper()}"
            if v.counterexample:
                line += f"  counterexample {v.counterexample}"
            if v.unknowns:
                line += f"  timeouts at {list(v.unknowns)[:3]}"
            if v.notes:
                line += "  [" + "; ".join(v.notes) + "]"
            lines.append(line)
    if args.format == "human":
        lines.append(f"checked {len(named_verdicts)} claim(s) in {elapsed:.3f}s")
    print("\n".join(lines))
    return worst


def cmd_check(args) -> int:
    inst = _load(args)
    picked = inst.claims
    if args.claims:
        by_name = {c.name: c for c in inst.claims}
        missing = [n for n in args.claims if n not in by_name]
        if missing:
            raise InstanceError(f"unknown claims: {missing}")
        picked = [by_name[n] for n in args.claims]
    start = time.monotonic()
    verdicts = [_run_claim(inst, c, inst.fuel) for c in picked]
    elapsed = time.monotonic() - start
    return _emit_verdicts(args, list(zip((c.name for c in picked), verdicts)), elapsed)


def cmd_search(args) -> int:
    inst = _load(args)
    claim = _claim(inst, args.claim)
    if claim.doc == "comp":
        raise InstanceError("search over completion claims is not supported here")
    lhs = inst.element(claim.lhs)
    rhs = inst.element(claim.rhs)
    budget = SearchBudget(args.witness_size, inst.fuel, args.time_cap)
    start = time.monotonic()
    outcome = search_witness(inst.pca, claim.doc, lhs, rhs, budget)
    elapsed = time.monotonic() - start
    print(_render_search(args, inst, claim, outcome, elapsed))
    if outcome.found:
        return EXIT_OK
    return EXIT_UNKNOWN if outcome.status == "unknown" else EXIT_REFUTED


def _render_search(args, inst, claim, outcome: SearchOutcome, elapsed) -> str:
    lines = []
    if outcome.found:
        found = inst.free_name(f"{claim.name}_found")
        lines.extend(_declare_witness(inst, found, outcome.witness))
        check = inst.free_name(f"{claim.name}_check")
        lines.append(_declare(inst, "claim", check, dataclasses.replace(claim, name=check, witness=found)))
    lines.append(format_result(claim.name, outcome.status))
    if outcome.status == "exhausted":
        lines.append(f"// no witness up to size {outcome.bound}; "
                     f"{outcome.failures} candidates failed")
    elif outcome.status == "unknown":
        if outcome.clock_stopped:
            lines.append(f"// stopped by the time cap of {args.time_cap}s after {outcome.checked} candidates checked")
        else:
            lines.append(f"// {outcome.timeouts} candidates timed out within the budget")
    if outcome.malformed:
        lines.append(f"// {outcome.malformed} candidates were malformed")
    if args.format == "human":
        lines.append(f"// budget size {outcome.bound}, fuel {inst.fuel}, {elapsed:.3f}s")
    return "\n".join(lines)


def _declare(inst: Instance, kind: str, name: str, value) -> str:
    """Declare ``value`` in ``inst`` as ``kind name``, or under the first
    free ``name_2``, ``name_3``, ... when ``name`` is taken, so the printed
    declaration re-parses after the loaded file; print the declaration."""
    name = inst.free_name(name)
    inst.declare(kind, name, value)
    return format_decl(inst, kind, name, value)


def _declare_witness(inst: Instance, name: str, w) -> list[str]:
    """Declare ``w`` as ``name`` in ``inst``, after the forward map ``name_k``
    of a forward-backward witness and its source and target (``name_src``,
    ``name_tgt``) unless ``inst`` declares them already; the printed lines.
    Each name taken already is replaced as `_declare` does."""
    name = inst.free_name(name)
    lines = []
    if isinstance(w, ForwardBackward):
        k = w.forward
        for obj, suffix in ((k.source, "_src"), (k.target, "_tgt")):
            try:
                declared_name(inst, obj, OBJECTS)
            except InstanceError:
                lines.append(_declare(inst, "carrier" if isinstance(obj, FinSet) else "assembly", name + suffix, obj))
        lines.append(_declare(inst, "morphism" if isinstance(k, FinMap) else "extmorphism", f"{name}_k", k))
    lines.append(_declare(inst, "witness", name, w))
    return lines


def cmd_lattice(args) -> int:
    from .doctrines import lattice_element, lattice_law_witness

    inst = _load(args)
    if args.op == "law":
        if not args.law:
            raise InstanceError("--op law needs --law")
        kwargs = {}
        names = list(args.operands)
        if args.law in ("meet_intro", "join_intro"):
            if len(names) != 2:
                raise InstanceError(f"law {args.law} takes two prerequisite witness names")
            kwargs["w_left"], kwargs["w_right"] = (inst.lookup("witness", n) for n in names)
        elif args.law in ("subtract_elim", "subtract_intro"):
            if len(names) != 1:
                raise InstanceError(f"law {args.law} takes one prerequisite witness name")
            kwargs["w"] = inst.lookup("witness", names[0])
        w = lattice_law_witness(inst.pca, args.law, **kwargs)
        lines = _declare_witness(inst, f"{args.law}_witness", w)
        verdict = None
        if args.claim:
            claim = _claim(inst, args.claim)
            verdict = check_le(inst.pca, claim.doc, inst.element(claim.lhs),
                               inst.element(claim.rhs), w, inst.fuel)
            lines.append(format_result(args.claim, verdict.status))
        print("\n".join(lines))
        return EXIT_OK if verdict is None else _exit_code(verdict)
    universe = inst.lookup("universe", args.universe) if args.universe else None
    base = inst.lookup("carrier", args.base) if args.base else None
    fams = [inst.lookup("family", n) for n in args.operands]
    out = lattice_element(inst.pca, args.op, args.doc, *fams,
                          universe=universe, bound=args.bound, base=base, fuel=inst.fuel)
    print(_declare(inst, "family", f"{args.op}_result", out))
    for note in out.notes:
        print(f"// {note}")
    return EXIT_OK


def cmd_complete(args) -> int:
    inst = _load(args)
    if args.index_bound < 0:
        raise InstanceError(f"index bound must be non-negative, not {args.index_bound}")
    A = inst.lookup("carrier", args.object)
    uni = inst.lookup("universe", args.universe) if args.universe else A
    # the orders of families over a carrier that take uniform witnesses
    docs = [doc for doc, o in ORDERS.items() if Uniform in o.shapes and o.base != ASSEMBLY]
    if args.doc not in docs:
        raise InstanceError(f"complete supports payload doctrines {', '.join(docs)}")
    order = ORDERS[args.doc]
    tracked = order.family is TrackedFamily
    # legs and tracked payloads list their values in text order, mass payloads in point order;
    # legs are walked, not listed, so the cap below refuses before later legs are built
    if args.klass == "full":
        targets = sorted(A.points, key=point_text)
        legs = (FinMap(Y, A, graph) for Y in inst.carriers.values() if len(Y) <= args.index_bound
                for graph in assignments(Y.points, [targets] * len(Y)))
    else:
        legs = (carrier_product(inst.pca, A, Y).fst for Y in inst.carriers.values()
                if 0 < len(Y) <= args.index_bound)
    if tracked:
        opts = sorted(uni.points, key=point_text)
    else:  # a nonempty payload takes no empty value
        opts = [frozenset([u]) for u in uni.points]
        if order.policy == ALLOW_EMPTY:
            opts.insert(0, frozenset())
    objects = []
    for leg in legs:
        if len(objects) + len(opts) ** len(leg.source) > 400:  # refused before the leg's objects are built
            raise InstanceError("completion fiber too large; lower --index-bound or shrink the universe")
        for values in assignments(leg.source.points, [opts] * len(leg.source)):
            payload = TrackedFamily(leg.source, values) if tracked else MassFamily(leg.source, values, order.policy)
            objects.append(CompletionObject(args.kind, args.klass, args.doc, leg, payload))
    budget = SearchBudget(args.witness_size, inst.fuel, args.time_cap)
    n = len(objects)
    # order[i][j]: True when a witness was found, False when exhausted, None when unknown
    order = [[True] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                out = search_completion_witness(inst.pca, objects[i], objects[j], budget)
                order[i][j] = None if out.status == UNKNOWN else out.found
    lines = [f"// completion fiber over {args.object}: {n} objects"]
    for i, obj in enumerate(objects):
        show = point_text if isinstance(obj.payload, TrackedFamily) else format_terms
        lines.append(f"// object {i}: leg {{ {format_table(obj.leg.mapping)} }} "
                     f"payload {{ {format_table(obj.payload.values, show)} }}")
    unknown = [f"// unknown {i} <= {j}" for i in range(n) for j in range(n) if order[i][j] is None]
    lines.extend(unknown)
    for i in range(n):
        for j in range(n):
            # Hasse: drop edges implied by transitivity through a third object,
            # reading decided pairs only
            if i != j and order[i][j] and not any(
                    order[i][k] and order[k][j] and order[k][i] is order[j][k] is False
                    for k in range(n) if k not in (i, j)):
                lines.append(f"hasse {i} <= {j}")
    print("\n".join(lines))
    return EXIT_UNKNOWN if unknown else EXIT_OK


def cmd_iso(args) -> int:
    """Run one row of `iso.EQUIVALENCES`: check that the claim lies in the
    row's order, gate its witness, transport it and re-check the transported
    one.  extpred and extsw_d are the two maps outside the table."""
    inst = _load(args)
    if args.mapname == "extpred":
        return _iso_extpred(args, inst)
    if not args.claim:
        raise InstanceError("this direction needs --claim")
    claim = _claim(inst, args.claim)
    if args.mapname == "extsw_d":
        return _iso_extsw_d(inst, claim)
    row = iso.EQUIVALENCES[args.mapname]
    pca, fuel = inst.pca, inst.fuel
    lhs, rhs = inst.element(claim.lhs), inst.element(claim.rhs)
    forward = args.direction == "forward"
    if forward:
        ok = claim.doc == "comp" and getattr(lhs, "doc", None) == getattr(rhs, "doc", None) == row.completion
        wanted = f"<=_comp claims over {row.completion}"
    else:
        ok, wanted = claim.doc == row.concrete, f"<=_{row.concrete} claims"
    if not ok:
        raise InstanceError(f"--map {args.mapname} --direction {args.direction} takes {wanted}")
    gate = _run_claim(inst, claim, fuel)
    if not gate.holds:
        raise InstanceError(f"input witness does not hold ({gate.status})")
    w = inst.witnesses[claim.witness]
    if forward:
        c1, c2 = row.from_completion(pca, lhs), row.from_completion(pca, rhs)
        new_w = row.forward(pca, lhs, rhs, w, fuel)
        v = check_le(pca, row.concrete, c1, c2, new_w, fuel)
        lines = _declare_witness(inst, f"{claim.name}_transported", new_w)
    else:
        o1, o2 = row.to_completion(pca, lhs, row.completion), row.to_completion(pca, rhs, row.completion)
        v = comp_le(pca, o1, o2, row.backward(pca, o1, o2, w, fuel), fuel)
        lines = [f"// canonical completion objects built from {claim.lhs} and {claim.rhs}"]
    lines.append(format_result(claim.name, v.status))
    print("\n".join(lines))
    return _exit_code(v)


def _iso_extpred(args, inst) -> int:
    if not args.object:
        raise InstanceError("--map extpred needs --object (an extended predicate)")
    if args.object not in inst.extpredicates:
        raise InstanceError(f"unknown extended predicate {args.object!r}")
    f = inst.extpredicates[args.object]
    asm, fam = iso.ext_pred_to_assembly(inst.pca, f)
    # the points are solution sets; they are printed as ids p0, p1, ..., in point order
    ids = {x: f"p{i}" for i, x in enumerate(asm.points)}
    named = Assembly(tuple(ids.values()), tuple((n, ids[x]) for n, x in asm.naming))
    print(_declare(inst, "assembly", f"{args.object}_assembly", named))
    values = {(n, ids[x]): v for (n, x), v in fam.values.items()}
    print(_declare(inst, "family", f"{args.object}_family", MassFamily(named, values, fam.policy)))
    return EXIT_OK


def _iso_extsw_d(inst, claim) -> int:
    """An extsW claim against the pointwise choice order on the shifted
    relation predicate, with the same choice and backward term."""
    if claim.doc != "extsW":
        raise InstanceError("extsw_d transports extsW claims")
    gate = _run_claim(inst, claim, inst.fuel)
    f, g = inst.element(claim.lhs), inst.element(claim.rhs)
    w = inst.witnesses[claim.witness]
    F = iso.extended_to_dialectica(f)
    G = iso.extended_to_dialectica(g)
    Gk = iso.dialectica_shift(inst.pca, G, w.forward, F.base, inst.fuel)
    v = check_le(inst.pca, "D", F, Gk, DialecticaWitness(dict(w.choice), w.backward), inst.fuel)
    agree = gate.status == v.status
    print(format_result(f"{claim.name}_extsw", gate.status))
    print(format_result(f"{claim.name}_pointwise", v.status))
    print(format_result(f"{claim.name}_agreement", "holds" if agree else "refuted"))
    return _exit_code(gate) if agree else EXIT_REFUTED


def cmd_laws(args) -> int:
    from .laws import machine_format, run_suites

    reports = run_suites(args.suites or None, fuel=args.fuel)
    if args.format == "machine":
        sys.stdout.write(machine_format(reports))
    else:
        for rep in reports:
            print(f"suite {rep.suite}: checked {rep.checked}, "
                  f"violations {rep.violations}, unknowns {rep.unknowns}")
            for rec in rep.records:
                print("  " + rec.machine_line())
    return EXIT_OK if all(r.violations == 0 for r in reports) else EXIT_REFUTED


if __name__ == "__main__":
    sys.exit(main())
