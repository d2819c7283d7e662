"""Command line front end.

Subcommands cover the whole pipeline: `translate` and `chain` work on
formulas, `doctrine` loads or receives a finite doctrine and audits it,
`dial` builds completed fibres, `principles` runs the rule checkers,
and `examples` generates the two stock doctrine families.  Each
command declares only the flags its handler reads, so a flag that would
change nothing is a usage error.  All JSON output is deterministic: fixed
key order, no timestamps, and a fixed default for the one sampled scan
(`dial complete --seed`).

Exit status: 0 when every requested check passes, 1 when a check fails
(the report still goes to stdout), 2 for usage and input errors, 3 for
an internal fault (one ``error: internal:`` line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .dial import (
    DEFAULT_QUAD_CAP,
    build_dial_fibre,
    check_preorder,
    dial_leq,
)
from .doctrine import (
    DoctrineDataError,
    DoctrineError,
    AdjointFailure,
    adjoint_along,
    check_doctrine,
    doctrine_from_json,
    doctrine_to_json,
    kripke_doctrine,
    mor_key,
    powerset_doctrine,
    quantifier_structure,
    universe_note,
)
from .fincat import CapExceeded
from .fol import (
    FolDepthError,
    FolError,
    Implies,
    Signature,
    formula_to_latex,
    formula_to_text,
    parse_formula,
    sort_to_text,
)
from .freeness import FreenessAnalyzer
from .posets import PosetError, antichain_poset, chain_poset
from .principles import RULES, run_suite
from .transform import implication_chain, translate

DEFAULT_SEED = 0


class CliError(Exception):
    """Input or usage problem: exit status 2."""


# ---------------------------------------------------------------------------
# Input loading


def _read_text(path: str | None) -> tuple[str, str]:
    if path in (None, "-"):
        try:
            return sys.stdin.read(), "<stdin>"
        except OSError as exc:
            raise CliError(f"cannot read input: <stdin>: {exc}") from None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(), path
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise CliError(f"cannot read input: {path}: {reason}") from None


def _load_doctrine(args):
    """The doctrine named by ``--doctrine`` (default stdin), capped by ``--cap``."""
    if args.cap is not None and args.cap < 1:
        raise CliError("--cap must be positive")
    text, src = _read_text(args.doctrine)
    kwargs = {} if args.cap is None else {"cap": args.cap}
    try:
        return doctrine_from_json(json.loads(text), **kwargs)
    except (json.JSONDecodeError, DoctrineDataError) as exc:
        raise CliError(f"malformed doctrine JSON: {src}: {exc}") from None


def _load_signature(path: str | None) -> Signature | None:
    if path is None:
        return None
    text, src = _read_text(path)
    try:
        return Signature.from_json(json.loads(text))
    except (json.JSONDecodeError, FolError) as exc:
        raise CliError(f"cannot read input: {src}: not a signature: {exc}") from None


def _find_object(D, name: str):
    for obj in D.universe:
        if obj.name == name:
            return obj
    names = ", ".join(o.name for o in D.universe)
    raise CliError(f"no object named {name!r} in the universe ({names})")


# ---------------------------------------------------------------------------
# Formula subcommands


def _render(phi, latex: bool) -> str:
    return formula_to_latex(phi) if latex else formula_to_text(phi)


def cmd_translate(args):
    sig = _load_signature(args.sig)
    phi = parse_formula(args.formula, sig)
    form = translate(phi, sig)
    latex = args.format == "latex"
    payload = {
        "command": "translate",
        "input": _render(phi, latex),
        "witnesses": [{"name": v.name, "sort": sort_to_text(v.sort)}
                      for v in form.witnesses],
        "counters": [{"name": v.name, "sort": sort_to_text(v.sort)}
                     for v in form.counters],
        "matrix": _render(form.matrix, latex),
        "formula": _render(form.as_formula(), latex),
    }
    lines = [payload["formula"]]
    return 0, payload, lines


def cmd_chain(args):
    sig = _load_signature(args.sig)
    phi = parse_formula(args.formula, sig)
    if not isinstance(phi, Implies):
        raise CliError("chain needs an implication at the top level")
    latex = args.format == "latex"
    psi_d = translate(phi.left, sig)
    phi_d = translate(phi.right, sig)
    steps = implication_chain(psi_d, phi_d)
    payload = {
        "command": "chain",
        "input": _render(phi, latex),
        "steps": [
            {"index": s.index,
             "justification": list(s.justification),
             "formula": _render(s.formula, latex)}
            for s in steps
        ],
    }
    lines = []
    for s in payload["steps"]:
        tag = ", ".join(s["justification"]) or "start"
        lines.append(f"({s['index']}) [{tag}] {s['formula']}")
    return 0, payload, lines


# ---------------------------------------------------------------------------
# Doctrine subcommands


def cmd_doctrine_check(args):
    D = _load_doctrine(args)
    laws = check_doctrine(D)
    ex = quantifier_structure(D, "exists")
    fa = quantifier_structure(D, "forall")
    passed = laws.passed and ex.passed and fa.passed
    payload = {
        "command": "doctrine check",
        "doctrine": D.name,
        "passed": passed,
        "laws": {
            "passed": laws.passed,
            "counts": laws.counts,
            "violations": laws.violations,
            "notes": laws.notes,
        },
        "quantifiers": {
            d.direction: {
                "passed": d.passed,
                "adjoints": len(d.witnesses),
                "failures": [{"along": f.along, "reason": f.reason}
                             for f in d.failures],
                "beckChevalley": {
                    "passed": d.bc.passed,
                    "squares": d.bc.squares,
                    "equalityFailures": d.bc.equality_failures,
                    "inequalityFailures": d.bc.inequality_failures,
                    "skipped": d.bc.skipped,
                },
            }
            for d in (ex, fa)
        },
        "note": universe_note(D),
    }
    lines = [f"doctrine check: {D.name}"]
    lines.append(_verdict_line("fibre and reindexing laws", laws.passed))
    for d in (ex, fa):
        lines.append(_verdict_line(f"{d.direction} adjoints with Beck-Chevalley", d.passed))
        for f in d.failures:
            lines.append(f"  failure along {f.along}: {f.reason}")
        lines += [f"  {v}" for v in d.bc.equality_failures + d.bc.inequality_failures]
        lines += [f"  skipped: {s}" for s in d.bc.skipped]
    lines += [f"  {v}" for v in laws.violations]
    lines += [f"  note: {n}" for n in laws.notes]
    lines.append(f"verdict: {'pass' if passed else 'fail'}")
    return (0 if passed else 1), payload, lines


def cmd_doctrine_adjoints(args):
    D = _load_doctrine(args)
    rows = []
    failures = 0
    for a in D.universe:
        for b in D.universe:
            try:
                p = D.product(a, b)
            except CapExceeded as exc:
                rows.append({"product": f"{a.name}*{b.name}", "skipped": str(exc)})
                continue
            row = {"product": f"{a.name}*{b.name}", "along": mor_key(p.proj_left)}
            for direction in ("exists", "forall"):
                res = adjoint_along(D, p.proj_left, direction)
                if isinstance(res, AdjointFailure):
                    failures += 1
                    row[direction] = {"found": False, "reason": res.reason}
                else:
                    row[direction] = {
                        "found": True,
                        "monotone": res.monotone,
                        "lawPairs": res.pairs_checked,
                    }
            rows.append(row)
    passed = failures == 0
    payload = {
        "command": "doctrine adjoints",
        "doctrine": D.name,
        "passed": passed,
        "projections": rows,
        "note": universe_note(D),
    }
    lines = [f"doctrine adjoints: {D.name}"]
    for row in rows:
        if "skipped" in row:
            lines.append(f"  {row['product']}: skipped ({row['skipped']})")
            continue
        parts = []
        for direction in ("exists", "forall"):
            cell = row[direction]
            parts.append(f"{direction}: " + ("certified" if cell["found"]
                                             else f"missing ({cell['reason']})"))
        lines.append(f"  along {row['along']}: " + "; ".join(parts))
    lines.append(f"verdict: {'pass' if passed else 'fail'}")
    return (0 if passed else 1), payload, lines


def _side_conditions(D, analyzer):
    tops = {}
    bottoms = {}
    failures = []
    for obj in D.universe:
        fib = D.fibre(obj)
        rep = analyzer.existential_free_report(obj, fib.top())
        tops[obj.name] = rep.passed
        if not rep.passed and rep.failing:
            failures.append({
                "condition": "top existential-free",
                "object": obj.name,
                "witness": _failing_json(D, rep.failing),
            })
        ex_ok = analyzer.is_existential_free(obj, fib.bottom())
        rep2 = None
        if ex_ok:
            rep2 = analyzer.universal_free_report(obj, fib.bottom())
        bottoms[obj.name] = bool(ex_ok and rep2 is not None and rep2.passed)
        if not bottoms[obj.name]:
            entry = {"condition": "bottom quantifier-free", "object": obj.name}
            if rep2 is not None and rep2.failing:
                entry["witness"] = _failing_json(D, rep2.failing)
            else:
                entry["witness"] = {"reason": "bottom is not existential-free"}
            failures.append(entry)
    return {"topExistentialFree": tops, "bottomQuantifierFree": bottoms,
            "failures": failures}


def _failing_json(D, failing):
    obj_name, mkey, pulled, split = failing
    obj = next(o for o in D.universe if o.name == obj_name)
    fib = D.fibre(obj)
    entry = {
        "object": obj_name,
        "pullbackAlong": mkey,
        "pulledPredicate": fib.describe(pulled),
        "pulledIndex": fib.index(pulled),
    }
    if split.failure is not None:
        partner_name, beta = split.failure
        partner = next(o for o in D.universe if o.name == partner_name)
        pfib = D.fibre(D.product(obj, partner).obj)
        entry["partner"] = partner_name
        entry["cover"] = pfib.describe(beta)
        entry["coverIndex"] = pfib.index(beta)
    return entry


def cmd_doctrine_godel(args):
    D = _load_doctrine(args)
    analyzer = FreenessAnalyzer(D)
    rep = analyzer.godel_report()
    side = _side_conditions(D, analyzer)
    parts = rep.parts()
    payload = {
        "command": "doctrine godel",
        "doctrine": D.name,
        "passed": rep.passed,
        "parts": parts,
        "details": {
            "closureNotes": rep.closure.notes,
            "existentialFreeWitnesses": len(rep.enough_existential_free.witnesses),
            "stabilityChecked": rep.stability.checked,
            "universalFreeWitnesses": (
                len(rep.enough_universal_free.witnesses)
                if rep.enough_universal_free is not None else None),
            "failures": _godel_failures(rep),
        },
        "sideConditions": side,
        "note": rep.note,
    }
    lines = [f"doctrine godel: {D.name}"]
    for name, ok in parts.items():
        lines.append(_verdict_line(name, ok))
    for obj, ok in side["topExistentialFree"].items():
        if not ok:
            lines.append(f"  side condition: top over {obj} is not existential-free")
    for obj, ok in side["bottomQuantifierFree"].items():
        if not ok:
            lines.append(f"  side condition: bottom over {obj} is not quantifier-free")
    lines.append(f"verdict: {'pass' if rep.passed else 'fail'}")
    return (0 if rep.passed else 1), payload, lines


def _godel_failures(rep):
    out = [{"part": "cartesian closed",
            "detail": f"{kind} {name} is not in the declared universe"}
           for kind, names in (("product", rep.closure.missing_products),
                               ("exponential", rep.closure.missing_exponentials))
           for name in names]
    for part, coll in (("enough existential-free", rep.enough_existential_free),
                       ("subdoctrine enough universal-free", rep.enough_universal_free)):
        if coll is None:
            continue
        for f in coll.failures:
            out.append({"part": part, "detail": str(f)})
    for f in rep.stability.failures:
        out.append({"part": "stability under forall", "detail": str(f)})
    for d in (rep.exists_structure, rep.forall_structure):
        for f in d.failures:
            out.append({"part": f"{d.direction} structure",
                        "detail": f"{f.along}: {f.reason}"})
    return out


def cmd_doctrine_free(args):
    D = _load_doctrine(args)
    analyzer = FreenessAnalyzer(D)
    if args.predicate is not None:
        return _free_single(D, analyzer, args.predicate)
    rows = []
    for obj in D.universe:
        fib = D.fibre(obj)
        els = fib.elements()
        ex = [a for a in els if analyzer.is_existential_free(obj, a)]
        qf = [a for a in ex if analyzer.is_universal_free(obj, a)]
        rows.append({
            "object": obj.name,
            "predicates": len(els),
            "existentialFree": len(ex),
            "quantifierFree": len(qf),
            "topExistentialFree": fib.top() in ex,
            "bottomQuantifierFree": fib.bottom() in qf,
        })
    payload = {
        "command": "doctrine free",
        "doctrine": D.name,
        "census": rows,
        "note": universe_note(D),
    }
    lines = [f"doctrine free: {D.name}"]
    for r in rows:
        lines.append(
            f"  {r['object']}: {r['existentialFree']}/{r['predicates']} existential-free, "
            f"{r['quantifierFree']}/{r['predicates']} quantifier-free")
    return 0, payload, lines


def _free_single(D, analyzer, spec_text):
    if ":" not in spec_text:
        raise CliError("predicate selector must look like OBJECT:ELEMENT")
    obj_name, el_text = spec_text.split(":", 1)
    obj = _find_object(D, obj_name)
    fib = D.fibre(obj)
    els = fib.elements()
    alpha = None
    if el_text.isdigit() and int(el_text) < len(els):
        alpha = els[int(el_text)]
    else:
        for a in els:
            if fib.describe(a) == el_text:
                alpha = a
                break
    if alpha is None:
        raise CliError(f"no predicate {el_text!r} in the fibre over {obj_name}"
                       " (use an index or the exact set notation)")
    ex_rep = analyzer.existential_free_report(obj, alpha)
    un_rep = analyzer.universal_free_report(obj, alpha)
    payload = {
        "command": "doctrine free",
        "doctrine": D.name,
        "object": obj.name,
        "predicate": fib.describe(alpha),
        "index": fib.index(alpha),
        "existentialFree": ex_rep.passed,
        "universalFreeInSubdoctrine": un_rep.passed,
        "quantifierFree": ex_rep.passed and un_rep.passed,
        "failures": [
            {"kind": rep.kind, "witness": _failing_json(D, rep.failing)}
            for rep in (ex_rep, un_rep)
            if not rep.passed and rep.failing
        ],
    }
    lines = [f"doctrine free: {D.name}, {obj.name}:{fib.describe(alpha)}"]
    lines.append(_verdict_line("existential-free", ex_rep.passed))
    lines.append(_verdict_line("universal-free in the subdoctrine", un_rep.passed))
    return 0, payload, lines


# ---------------------------------------------------------------------------
# Completion subcommand


def _parse_bounds(text):
    if text is None:
        return None
    try:
        sizes = {int(p) for p in text.split(",") if p.strip()}
    except ValueError:
        raise CliError(f"bounds must be a comma-separated list of sizes, not {text!r}") from None
    if not sizes or min(sizes) < 1:
        raise CliError("bounds must name positive carrier sizes")
    return sizes


def cmd_dial_complete(args):
    for flag, value, least in (("--quad-cap", args.quad_cap, 1), ("--list", args.list, 0),
                               ("--pairs", args.pairs, 0)):
        if value < least:
            raise CliError(f"{flag} must be at least {least}")
    D = _load_doctrine(args)
    base = _find_object(D, args.fibre) if args.fibre else D.universe[0]
    bounds = _parse_bounds(args.bound)
    universe = None
    if bounds is not None:
        universe = tuple(o for o in D.universe if len(o) in bounds)
        if not universe:
            raise CliError("no universe object has a size within the bounds")
    fib = build_dial_fibre(D, base, quad_cap=args.quad_cap, universe=universe)
    rep = check_preorder(D, fib, seed=args.seed)
    n = len(fib.quads)
    classes = len(fib.classes())
    listed = min(n, args.list)
    quads = [q.to_json(D) for q in fib.quads[:listed]]
    matrix = None
    notes = list(fib.notes)
    if n <= args.list:
        matrix = [[1 if fib.leq(i, j) else 0 for j in range(n)] for i in range(n)]
    else:
        notes.append(f"quadruple list and matrix truncated to {listed} of {n}")
    pairs = []
    for i in range(n):
        if len(pairs) >= args.pairs:
            break
        for j in range(n):
            if i == j or not fib.leq(i, j):
                continue
            p = dial_leq(D, fib.quads[i], fib.quads[j])
            if p is None:
                raise DoctrineError(f"order matrix cell ({i}, {j}) has no witness pair")
            pairs.append({"from": i, "to": j, "pair": p.to_json()})
            if len(pairs) >= args.pairs:
                break
    payload = {
        "command": "dial complete",
        "doctrine": D.name,
        "fibre": base.name,
        "quadruples": quads,
        "enumerated": n,
        "total": fib.total,
        "classes": classes,
        "matrix": matrix,
        "witnessPairs": pairs,
        "preorder": {
            "passed": rep.passed,
            "reflexiveFailures": list(rep.reflexive_failures),
            "transitiveFailures": [list(t) for t in rep.transitive_failures],
            "compositionsChecked": rep.compositions_checked,
            "compositionFailures": [list(t) for t in rep.composition_failures],
        },
        "notes": notes,
    }
    lines = [f"dial complete: {D.name}, fibre over {base.name}"]
    lines.append(f"  quadruples: {n} of {fib.total}, {classes} order classes")
    lines.append(_verdict_line("reflexive and transitive with composed witnesses",
                               rep.passed))
    lines.append(f"verdict: {'pass' if rep.passed else 'fail'}")
    return (0 if rep.passed else 1), payload, lines


# ---------------------------------------------------------------------------
# Principles subcommand


def cmd_principles(args):
    if args.jobs != 1:
        raise CliError("--jobs: parallel rule runs were removed; use 1")
    D = _load_doctrine(args)
    mode = "diagnostic" if args.diagnostic else "strict"
    rules = [args.rule] if args.rule else list(RULES)
    reports = [r.to_json() for r in run_suite(D, mode=mode, rules=rules)]
    passed = all(r["verdict"] == "pass" for r in reports)
    payload = {
        "command": "principles",
        "doctrine": D.name,
        "mode": mode,
        "passed": passed,
        "reports": reports,
        "note": universe_note(D),
    }
    lines = [f"principles: {D.name} ({mode} mode)"]
    for r in reports:
        tally = (f"{r['instances']} instances, {r['vacuous']} vacuous, "
                 f"{len(r['violations'])} violations")
        lines.append(_verdict_line(f"{r['rule']}: {r['verdict']} ({tally})",
                                   r["verdict"] == "pass"))
    lines.append(f"verdict: {'pass' if passed else 'fail'}")
    return (0 if passed else 1), payload, lines


# ---------------------------------------------------------------------------
# Example generators


def _parse_sizes(text):
    try:
        sizes = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise CliError(f"sizes must be comma-separated integers, not {text!r}") from None
    if not sizes:
        raise CliError("sizes must name at least one carrier")
    if min(sizes) < 1:
        raise CliError("carrier sizes must be positive")
    return sizes


def _parse_frame(text):
    for prefix, maker in (("chain", chain_poset), ("antichain", antichain_poset)):
        if text.startswith(prefix) and text[len(prefix):].isdigit():
            n = int(text[len(prefix):])
            if n < 1:
                break
            return maker(n)
    raise CliError(f"unknown frame {text!r}; use chainN or antichainN")


def cmd_examples(args):
    sizes = _parse_sizes(args.sizes)
    if args.family == "powerset":
        D = powerset_doctrine(sizes)
    else:
        D = kripke_doctrine(_parse_frame(args.frame), sizes)
    payload = doctrine_to_json(D)
    if args.out:
        text = json.dumps(payload, indent=2) + "\n"
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc.strerror or exc}") from None
        return 0, None, [f"wrote {D.name} to {args.out}"]
    lines = [f"{D.name}: " + ", ".join(
        f"{o.name} ({len(o)})" for o in D.universe)]
    return 0, payload, lines


# ---------------------------------------------------------------------------
# Plumbing


def _verdict_line(label: str, ok: bool) -> str:
    return f"{'PASS' if ok else 'FAIL'} {label}"


def _format_flag(p, formats):
    p.add_argument("--format", choices=formats, default="json",
                   help="output format (default %(default)s)")


def _doctrine_flags(p):
    """The flags of every command that reads a doctrine."""
    p.add_argument("--doctrine", help="doctrine JSON path (default: stdin)")
    p.add_argument("--cap", type=int, default=None,
                   help="bound on carrier products and fibre enumerations")
    _format_flag(p, ("json", "text"))


class _Parser(argparse.ArgumentParser):
    """A parser that rejects an argument it does not declare itself, so a
    flag a command does not take is reported against that command's
    usage rather than handed back to the parser above it."""

    def parse_known_args(self, args=None, namespace=None):
        ns, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return ns, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call.

    Each command's parser declares exactly the flags its handler reads,
    spelt out in full: an abbreviation such as ``--size`` for ``--sizes``
    is a usage error, not a second spelling.  Its ``handler`` default is
    the handler's name, looked up in this module when ``main`` dispatches,
    so a function replaced on the module after the parser was built is the
    one that runs.
    """
    parser = _Parser(
        prog="dialectica",
        description="Dialectica translation and finite doctrine checkers.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, what, extra in (
            ("translate", "formula", "Dialectica interpretation of one formula"),
            ("chain", "implication", "six-step derivation chain for an implication")):
        p = sub.add_parser(name, help=extra, allow_abbrev=False)
        p.add_argument("--formula", required=True, help=f"{what} text")
        p.add_argument("--sig", help="signature JSON (default: inferred)")
        _format_flag(p, ("json", "text", "latex"))
        p.set_defaults(handler=f"cmd_{name}")

    p = sub.add_parser("doctrine", help="audit a finite doctrine")
    dsub = p.add_subparsers(dest="action", required=True, metavar="action")
    for name, extra in (
            ("check", "order, lattice, and reindexing laws"),
            ("adjoints", "certified quantifiers along projections"),
            ("free", "existential- and quantifier-free census"),
            ("godel", "the five characterisation conditions")):
        q = dsub.add_parser(name, help=extra, allow_abbrev=False)
        _doctrine_flags(q)
        if name == "free":
            q.add_argument("--predicate", help="single predicate as OBJECT:ELEMENT")
        q.set_defaults(handler=f"cmd_doctrine_{name}")

    p = sub.add_parser("dial", help="Dialectica completion")
    dsub = p.add_subparsers(dest="action", required=True, metavar="action")
    q = dsub.add_parser("complete", help="build one completed fibre and check its order",
                        allow_abbrev=False)
    _doctrine_flags(q)
    q.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the sampled composition checks (default %(default)s)")
    q.add_argument("--fibre", help="base object name (default: first in the universe)")
    q.add_argument("--bound", help="comma-separated carrier sizes for U and X")
    q.add_argument("--quad-cap", type=int, default=DEFAULT_QUAD_CAP,
                   help="bound on enumerated quadruples (default %(default)s)")
    q.add_argument("--list", type=int, default=128,
                   help="bound on listed quadruples and matrix size (default %(default)s)")
    q.add_argument("--pairs", type=int, default=8,
                   help="witness pairs to include (default %(default)s)")
    q.set_defaults(handler="cmd_dial_complete")

    p = sub.add_parser("principles", help="logical rule checkers over one doctrine",
                       allow_abbrev=False)
    _doctrine_flags(p)
    p.add_argument("--rule", choices=tuple(RULES),
                   help="single rule (default: the whole suite)")
    p.add_argument("--diagnostic", action="store_true",
                   help="drop rule preconditions to exhibit failures")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; only 1 is allowed")
    p.set_defaults(handler="cmd_principles")

    p = sub.add_parser("examples", help="generate a stock doctrine")
    esub = p.add_subparsers(dest="family", required=True, metavar="family")
    for fam, extra in (("powerset", "subset doctrine over finite carriers"),
                       ("kripke", "up-set doctrine over a finite frame")):
        q = esub.add_parser(fam, help=extra, allow_abbrev=False)
        q.add_argument("--sizes", default="2,2",
                       help="comma-separated carrier sizes (default %(default)s)")
        if fam == "kripke":
            q.add_argument("--frame", default="chain2",
                           help="chainN or antichainN (default %(default)s)")
        q.add_argument("--out", help="write the doctrine JSON to this path")
        _format_flag(q, ("json", "text"))
        q.set_defaults(handler="cmd_examples")

    return parser


def _emit(code: int, payload, lines, fmt: str) -> int:
    try:
        if fmt == "text":
            for line in lines:
                sys.stdout.write(line + "\n")
        elif payload is not None:
            sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        sys.stderr.close()
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, lines = globals()[args.handler](args)
        return _emit(code, payload, lines, args.format)
    except CapExceeded as exc:
        print(f"error: cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (FolDepthError, RecursionError):
        print("error: formula nested too deeply", file=sys.stderr)
        return 2
    except FolError as exc:
        print(f"error: formula: {exc}", file=sys.stderr)
        return 2
    except (CliError, PosetError, DoctrineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of the input
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
