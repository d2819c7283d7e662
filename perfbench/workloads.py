"""Workload catalogue: stock inputs, op lists and known answers.

An op is one in-process ``dialectica.cli.main(argv)`` call or one theorem
check (``dial.check_theorem2``/``check_theorem4`` have no CLI verb).  Every
op reads its doctrine from the JSON file written at set-up, so per-doctrine
state starts cold in every op, as in a user's invocation.  Every cap, list
bound, pair count and seed an op depends on is pinned here, so a later
change to a library default changes neither the work nor the expected
output.
"""
from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, NamedTuple

import hostspeed

DOCTRINES = ("powerset-2x2", "powerset-2x3", "kripke-chain2-2x2",
             "kripke-antichain2-2x2")
POW, POW23, CHAIN, ANTI = DOCTRINES

# `dial complete --seed` is drawn from this range, so the digest table can
# hold every op a run may issue.  The theorem-2 seed stays at criterion 3's
# 0: its samples set the op's cost, which must not vary with the run seed.
OP_SEEDS = 4
T2_SEED = 0

DIAL_FIBRES = ((POW, "1"), (POW, "A"), (POW, "B"), (CHAIN, "1"), (ANTI, "1"))
# `--list` covers every enumerated quadruple, so the matrix is printed and
# the emitted pairs can be counted against it.
COMPLETE_FLAGS = ("--quad-cap", "84", "--list", "128", "--pairs", "8")
# `--pairs` exceeds the cells of a 48-quadruple fibre: every found pair is
# built, revalidated and encoded.
CERTIFY_FLAGS = ("--quad-cap", "48", "--list", "128", "--pairs", "1000000")
THEOREM_BASES = tuple((d, b) for d in (POW, CHAIN) for b in ("1", "A", "B"))
T2_SAMPLES = 200
T4_QUAD_CAP = 4096

# Known answers (acceptance criteria 3 to 7 of the library's gate).
FIBRE_TOTALS = {
    (POW, "1"): 82, (POW, "A"): 1092, (POW, "B"): 1092,
    (CHAIN, "1"): 363, (CHAIN, "A"): 333, (CHAIN, "B"): 333,
    (ANTI, "1"): 1092, (ANTI, "A"): 1040, (ANTI, "B"): 1040,
}
T4_COUNTS = {
    (POW, "1"): (4, 82), (POW, "A"): (16, 1092), (POW, "B"): (16, 1092),
    (CHAIN, "1"): (9, 363), (CHAIN, "A"): (81, 333), (CHAIN, "B"): (81, 333),
}
# |P(I)| on fibres of doctrines that pass `godel`, checked when unsampled.
CLASSES = {(POW, "1"): 2, (CHAIN, "1"): 3}
SKOLEM_INSTANCES = {POW: 2266}
CHAIN_LABELS = [[], ["ClassicalEquiv"], ["IPStar"], ["IntuitionisticEquiv"],
                ["MP"], ["AC", "AC"]]

SIGNATURE = {
    "sorts": ["U", "V"],
    "predicates": [{"name": "p", "args": ["U"]}, {"name": "q", "args": ["V"]},
                   {"name": "r", "args": ["U", "V"]}, {"name": "s0", "args": []}],
    "functions": [{"name": "cU", "args": [], "result": "U"},
                  {"name": "cV", "args": [], "result": "V"},
                  {"name": "fUV", "args": ["U"], "result": "V"},
                  {"name": "hUU", "args": ["U"], "result": "U"}],
}
POOL_SEED = 2109
POOL_SIZE = 300
FORMATS = ("json", "text", "latex")
OPERATORS = {"and": "&", "or": "|", "imp": "->"}


class Workload(NamedTuple):
    """One workload: the doctrines it reads, one pass of ops (as groups run
    in turn, each shuffled), and the nominal time of a pass at the seed
    commit, which sizes a run."""

    doctrines: tuple
    make_pass: Callable
    pass_s: float
    formulas: bool = False


# -- op constructors -------------------------------------------------------


def cli_op(argv, key=None):
    return {"key": key or " ".join(argv), "argv": list(argv)}


def dial_op(doctrine, fibre, flags, seed):
    return cli_op(["dial", "complete", "--doctrine", f"{doctrine}.json",
                   "--fibre", fibre, *flags, "--seed", str(seed)])


def theorem_op(number, doctrine, base):
    op = {"theorem": number, "doctrine": doctrine, "base": base}
    if number == 2:
        op.update(samples=T2_SAMPLES, seed=T2_SEED)
        op["key"] = f"theorem2 {doctrine} {base} samples={T2_SAMPLES} seed={T2_SEED}"
    else:
        op["quad_cap"] = T4_QUAD_CAP
        op["key"] = f"theorem4 {doctrine} {base} quad_cap={T4_QUAD_CAP}"
    return op


def audit_ops(doctrine):
    ops = [cli_op(["doctrine", action, "--doctrine", f"{doctrine}.json"])
           for action in ("check", "adjoints", "godel")]
    ops.append(cli_op(["principles", "--doctrine", f"{doctrine}.json",
                       "--jobs", "1"]))
    return ops


DIAGNOSTIC_OP = cli_op(["principles", "--diagnostic", "--doctrine",
                        f"{ANTI}.json", "--jobs", "1"])


def formula_op(index, text, verb, fmt):
    return cli_op([verb, "--sig", "sig.json", "--format", fmt, "--formula", text],
                  key=f"{verb} --format {fmt} f{index:03d}")


# -- one pass per workload -------------------------------------------------


def _dial_pass(flags, theorems):
    # The `dial complete` ops run back to back, then the theorem checks, so
    # ops of similar cost share a stretch of the run and a machine whose
    # speed drifts mid-run does not reorder them around the median.
    def make(rng, pool):
        ops = [dial_op(d, f, flags, rng.randrange(OP_SEEDS)) for d, f in DIAL_FIBRES]
        if not theorems:
            return [ops]
        return [ops, [theorem_op(n, d, b) for d, b in THEOREM_BASES for n in (4, 2)]]
    return make


def _audit_pass(rng, pool):
    # The 2x2 doctrines' light ops run in four rounds, and each round runs
    # them back to back.  Their medians then come from the same four
    # stretches of the run, so a machine that speeds up or slows down
    # mid-run does not reorder them, and their copies give the median and
    # the tail a steady rank next to the heavy powerset-2x3 ops.
    light = [op for d in (POW, CHAIN, ANTI) for op in audit_ops(d)]
    check, adjoints, godel, principles = audit_ops(POW23)
    return [light, [check, adjoints], light, [godel, DIAGNOSTIC_OP], light, [principles],
            light]


def _formula_pass(rng, pool):
    # Every pool formula goes through both verbs once per pass, so the
    # pass's cost profile, and with it the tail, does not depend on how
    # often a sample happens to draw the few deepest formulas; the seed
    # picks each op's output format and the order.
    return [[formula_op(i, text, verb, rng.choice(FORMATS))
             for i, text in enumerate(pool) for verb in ("translate", "chain")]]


WORKLOADS = {
    "dial-complete": Workload((POW, CHAIN, ANTI), _dial_pass(COMPLETE_FLAGS, True), 11.5),
    "dial-certify": Workload((POW, CHAIN, ANTI), _dial_pass(CERTIFY_FLAGS, False), 3.0),
    "doctrine-audit": Workload((POW, CHAIN, ANTI, POW23), _audit_pass, 28.0),
    "formulas": Workload((), _formula_pass, 2.5, formulas=True),
}

MIN_OPS = 11  # a tail percentile needs at least ten ops beyond it


def build_passes(workload: str, seed: int, seconds: float, pool=()) -> list:
    """The run's op list: one pass of ops drawn from the seed, repeated
    with each of its groups in a fresh shuffled order per pass.

    The pass count comes from `seconds` and the workload's nominal pass
    time with the host-speed gauge's share added, never from a clock, so
    the work done is fixed for a given workload, seed and run length."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    groups = w.make_pass(rng, pool)
    size = sum(map(len, groups))
    count = max(round(seconds / (w.pass_s * (1 + hostspeed.SHARE))), -(-MIN_OPS // size))
    return [[op for g in groups for op in rng.sample(g, len(g))] for _ in range(count)]


def catalogue(pool=()) -> list:
    """Every distinct op any run can issue; the digest table covers these."""
    ops = []
    for flags in (COMPLETE_FLAGS, CERTIFY_FLAGS):
        ops += [dial_op(d, f, flags, s) for d, f in DIAL_FIBRES for s in range(OP_SEEDS)]
    for d, b in THEOREM_BASES:
        ops += [theorem_op(4, d, b), theorem_op(2, d, b)]
    ops += [op for d in (POW, CHAIN, ANTI, POW23) for op in audit_ops(d)]
    ops.append(DIAGNOSTIC_OP)
    ops += [formula_op(i, text, verb, fmt) for i, text in enumerate(pool)
            for verb in ("translate", "chain") for fmt in FORMATS]
    return ops


# -- generated inputs ------------------------------------------------------


def make_doctrine(name: str):
    from dialectica.doctrine import kripke_doctrine, powerset_doctrine
    from dialectica.posets import antichain_poset, chain_poset

    if name == POW:
        return powerset_doctrine((2, 2))
    if name == POW23:
        return powerset_doctrine((2, 3))
    frame = chain_poset(2) if name == CHAIN else antichain_poset(2)
    return kripke_doctrine(frame, (2, 2))


def _term(rng, sort, scope, depth=2):
    names = [n for n, s in scope if s == sort]
    picks = ["var", "var"] if names else []
    picks += ["const"] + (["fn"] if depth > 0 else [])
    pick = rng.choice(picks)
    if pick == "var":
        return rng.choice(names)
    if pick == "const":
        return "c" + sort
    inner = _term(rng, "U", scope, depth - 1)
    return f"{'hUU' if sort == 'U' else 'fUV'}({inner})"


def _atom(rng, scope):
    k = rng.randrange(6)
    if k == 0:
        return f"p({_term(rng, 'U', scope)})"
    if k == 1:
        return f"q({_term(rng, 'V', scope)})"
    if k == 2:
        return f"r({_term(rng, 'U', scope)}, {_term(rng, 'V', scope)})"
    return ("s0", "true", "false")[k - 3]


def _formula(rng, depth, scope, budget):
    """A formula nested `depth` connectives deep along one spine.

    `budget` limits quantifiers and implications/negations: the
    Dialectica translation grows exponentially in both, and the
    workload measures parsing and translation, not that growth."""
    if depth <= 0:
        return _atom(rng, scope)
    kinds = ["and", "or"]
    if budget["quant"]:
        kinds += ["exists", "forall"]
    if budget["imp"]:
        kinds += ["imp", "not"]
    k = rng.choice(kinds)
    if k in ("exists", "forall"):
        budget["quant"] -= 1
        name = f"v{budget['next']}"
        budget["next"] += 1
        sort = rng.choice(("U", "V"))
        body = _formula(rng, depth - 1, scope + [(name, sort)], budget)
        return f"({k} {name}:{sort}. {body})"
    if k == "not":
        budget["imp"] -= 1
        return f"~{_formula(rng, depth - 1, scope, budget)}"
    if k == "imp":
        budget["imp"] -= 1
    deep = _formula(rng, depth - 1, scope, budget)
    shallow = _formula(rng, rng.randrange(2), scope, budget)
    left, right = (deep, shallow) if rng.random() < 0.5 else (shallow, deep)
    return f"({left} {OPERATORS[k]} {right})"


def formula_pool(size: int = POOL_SIZE) -> list:
    """Implications (so `chain` applies) with nesting depth drawn from a
    spread that favours shallow formulas."""
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(size):
        depth = min(10, 1 + int(rng.expovariate(1 / 3)))
        budget = {"quant": 3, "imp": 1, "next": 0}
        split = rng.randrange(depth + 1)
        left = _formula(rng, split, [], budget)
        pool.append(f"{left} -> {_formula(rng, depth - split, [], budget)}")
    return pool


def write_inputs(workload: str, seed: int, seconds: float, out: Path) -> None:
    """Set-up: the stock doctrine JSON, the signature and the op list."""
    from dialectica.doctrine import doctrine_to_json

    w = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    for name in w.doctrines:
        text = json.dumps(doctrine_to_json(make_doctrine(name)), indent=2) + "\n"
        (out / f"{name}.json").write_text(text, encoding="utf-8")
    pool = ()
    if w.formulas:
        (out / "sig.json").write_text(json.dumps(SIGNATURE) + "\n", encoding="utf-8")
        pool = formula_pool()
    passes = build_passes(workload, seed, seconds, pool)
    (out / "ops.json").write_text(json.dumps({"passes": passes}), encoding="utf-8")


# -- known answers ---------------------------------------------------------


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def check_output(op, code, out) -> str | None:
    """Known-answer check of one op's exit status and stdout; returns the
    reason it fails, or None."""
    if "theorem" in op:
        rep = json.loads(out)
        where = (op["doctrine"], op["base"])
        if code != 0:
            return f"theorem check returned {code}"
        if op["theorem"] == 2:
            if rep["checked"] != op["samples"] or rep["mismatches"]:
                return "theorem 2: prenex order and witness search disagree"
            return None
        counts = (rep["embedding_checked"], rep["surjectivity_checked"])
        if counts != T4_COUNTS[where]:
            return f"theorem 4 counts {counts}, expected {T4_COUNTS[where]}"
        if rep["embedding_failures"] or rep["surjectivity_failures"] or rep["prenex_missing"]:
            return "theorem 4 failed"
        return None
    argv = op["argv"]
    verb = argv[0]
    fmt = _flag(argv, "--format") or "json"
    doctrine = (_flag(argv, "--doctrine") or "").removesuffix(".json")
    want = 0
    if verb == "principles" and doctrine == ANTI:
        want = 1
    if code != want:
        return f"exit status {code}, expected {want}"
    if fmt == "text":
        lines = out.splitlines()
        if verb == "translate" and len(lines) != 1:
            return "translate text is not one line"
        if verb == "chain" and [line.split("]")[0] for line in lines] != [
                f"({i}) [{', '.join(lab) or 'start'}" for i, lab in enumerate(CHAIN_LABELS)]:
            return "chain steps or labels differ from criterion 2"
        return None
    p = json.loads(out)
    if verb == "translate":
        return None if p["command"] == "translate" else "not a translate report"
    if verb == "chain":
        if [s["justification"] for s in p["steps"]] != CHAIN_LABELS:
            return "chain steps or labels differ from criterion 2"
        return None
    if verb == "dial":
        return _check_dial(argv, p, doctrine)
    if verb == "principles":
        if "--diagnostic" in argv:
            return None
        failed = [r["rule"] for r in p["reports"] if r["verdict"] == "hypothesis-failed"]
        if doctrine == ANTI and len(failed) != 3:
            return f"expected three hypothesis-failed rules, got {failed}"
        skolem = next(r for r in p["reports"] if r["rule"] == "skolemisation")
        if doctrine in SKOLEM_INSTANCES and skolem["instances"] != SKOLEM_INSTANCES[doctrine]:
            return f"skolemisation instances {skolem['instances']}"
        return None
    if not p["passed"]:
        return f"{p['command']} did not pass"
    if argv[1] == "godel" and doctrine == ANTI and p["sideConditions"]["topExistentialFree"]["1"]:
        return "top over 1 reported existential-free on the antichain frame"
    return None


def _check_dial(argv, p, doctrine):
    where = (doctrine, _flag(argv, "--fibre"))
    if p["total"] != FIBRE_TOTALS[where]:
        return f"fibre total {p['total']}, expected {FIBRE_TOTALS[where]}"
    if not p["preorder"]["passed"] or not p["preorder"]["compositionsChecked"]:
        return "preorder check failed"
    if p["enumerated"] == p["total"] and where in CLASSES and p["classes"] != CLASSES[where]:
        return f"{p['classes']} order classes, expected {CLASSES[where]}"
    if p["matrix"] is None:
        return "matrix missing"
    found = sum(map(sum, p["matrix"])) - len(p["matrix"])
    want = min(found, int(_flag(argv, "--pairs")))
    if len(p["witnessPairs"]) != want:
        return f"{len(p['witnessPairs'])} witness pairs, expected {want}"
    return None
