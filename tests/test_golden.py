"""Golden outputs of the audits that no benchmark workload runs.

The CLI audits are pinned on generator-free replays of the three 2x2
stock doctrines: the sha256 of stdout and the exit status of each run.
The quantifier-structure reports are pinned on two hand-built tabular
doctrines whose quantifiers along A -> 1 are missing: both of them in
"gap", only the universal one in "lopsided".  Each pin was recorded
before the audits' unread report fields were deleted, so they hold the
outputs of those audits fixed through that change.  The three
`doctrine check` pins were recorded again when Beck-Chevalley came to note
a carrier it cannot read once per (B, A1, A2), not once per map: each
direction's skip list on these replays went from 44 notes to 16.
"""
import hashlib
import json

import pytest

from dialectica import cli
from dialectica.doctrine import (
    PosetFibre,
    TabularDoctrine,
    doctrine_to_json,
    kripke_doctrine,
    mor_from_key,
    powerset_doctrine,
    quantifier_structure,
)
from dialectica.fincat import FinMor, fin_obj, identity, unit_obj
from dialectica.posets import antichain_poset, chain_poset

STOCK = {
    "powerset-2x2": lambda: powerset_doctrine((2, 2)),
    "kripke-chain2-2x2": lambda: kripke_doctrine(chain_poset(2), (2, 2)),
    "kripke-antichain2-2x2": lambda: kripke_doctrine(antichain_poset(2), (2, 2)),
}

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# (doctrine, argv) -> (exit status, sha256 of stdout)
CLI_GOLDEN = {
    ("powerset-2x2", "doctrine check"):
        (1, "e02a4be32c61547ee3f7ddf18e1f8c55b9e67860f4eb72037bc147308d2cab47"),
    ("powerset-2x2", "doctrine adjoints"):
        (1, "dc7d4102384b10ab6a775c05afda14186e165e34c73fd824afe5b2835917d6eb"),
    ("powerset-2x2", "doctrine godel"): (2, EMPTY),
    ("powerset-2x2", "principles"): (2, EMPTY),
    ("powerset-2x2", "principles --diagnostic"): (2, EMPTY),
    ("kripke-chain2-2x2", "doctrine check"):
        (1, "585ab50f869e2bf71e6970a05d0de060f940600bc4f13f7f225a287ec74b11b3"),
    ("kripke-chain2-2x2", "doctrine adjoints"):
        (1, "7732d5f384a5e1d55a6d41f8b0b585d339199f9fa9d46405ff0b26cc746423d3"),
    ("kripke-chain2-2x2", "doctrine godel"): (2, EMPTY),
    ("kripke-chain2-2x2", "principles"): (2, EMPTY),
    ("kripke-chain2-2x2", "principles --diagnostic"): (2, EMPTY),
    ("kripke-antichain2-2x2", "doctrine check"):
        (1, "b23a43dc7f9dc20fbb0349bffd83429b82646e4817b7ab90b1757cef2fbdcd21"),
    ("kripke-antichain2-2x2", "doctrine adjoints"):
        (1, "58638ae21ec76672343962c622d8a9a4cb32247cd04c17a2a129ef3d04d4fab6"),
    ("kripke-antichain2-2x2", "doctrine godel"): (2, EMPTY),
    ("kripke-antichain2-2x2", "principles"): (2, EMPTY),
    ("kripke-antichain2-2x2", "principles --diagnostic"): (2, EMPTY),
}


@pytest.fixture(scope="module")
def replays(tmp_path_factory):
    """Path of the generator-free JSON of each stock doctrine."""
    root = tmp_path_factory.mktemp("replays")
    paths = {}
    for name, make in STOCK.items():
        data = doctrine_to_json(make())
        del data["generator"]
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    return paths


@pytest.mark.parametrize("name, command", sorted(CLI_GOLDEN),
                         ids=lambda v: v.replace(" ", "-"))
def test_replay_audit_output_is_pinned(capsys, replays, name, command):
    code = cli.main([*command.split(), "--doctrine", str(replays[name])])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CLI_GOLDEN[name, command]


def _two_point_doctrine(name, fib_1, fib_a, along_t):
    """A tabular doctrine over 1 and A = {a0, a1}, with the given fibres
    and t: A -> 1 reindexing by ``along_t``."""
    A, one = fin_obj("A", ["a0", "a1"]), unit_obj()
    fibres = {one: PosetFibre(one, *fib_1), A: PosetFibre(A, *fib_a)}
    return TabularDoctrine(name, (one, A), fibres, {
        identity(one): tuple(range(len(fib_1[0]))),
        identity(A): tuple(range(len(fib_a[0]))),
        FinMor(A, one, ((), ())): along_t,
    })


GAP = _two_point_doctrine("gap", (("x", "y"), [0b01, 0b10]),
                          (("x", "y"), [0b01, 0b10]), (0, 0))
# over 1 a chain lo < hi, over A two atoms under a top; t sends lo to the
# atom x and hi to top, so exists along t exists and forall does not
LOPSIDED = _two_point_doctrine("lopsided", (("lo", "hi"), [0b11, 0b10]),
                               (("x", "y", "top"), [0b101, 0b110, 0b100]), (0, 2))

# (doctrine, direction) -> (adjoints that fail for want of a value,
#                           sha256 of the report summary)
STRUCTURE_GOLDEN = {
    ("gap", "exists"): (["1*A->1#0", "A*1->1#0"],
                        "748c9dbe2fdc559f4a26a3277d0554c4104fabe835179c76aee342a9fd508e0b"),
    ("gap", "forall"): (["1*A->1#0", "A*1->1#0"],
                        "41dd4e63c09a5f77fd71583e51f8afcefddad50f057b58721372617f2f1a9ea6"),
    ("lopsided", "exists"): ([],
                             "fe8adfbf416341be48e83eac9db4914c8b5ad2959ba3fd883354541a10f73cfc"),
    ("lopsided", "forall"): (["1*A->1#0", "A*1->1#0"],
                             "beff8898d6cc11f8c41d835158bb9c7cc3252437d5b0fa64303fd9e729938212"),
}


def _table(D, w) -> list:
    """The certified quantifier table of witness w, read back from D along
    the projection it names."""
    objs = {o.name: o for o in D.universe}
    objs.update((p.obj.name, p.obj) for p in (D.product(a, b) for a in D.universe
                                              for b in D.universe))
    f = mor_from_key(w.along, objs)
    along = D.exists_along if w.direction == "exists" else D.forall_along
    return sorted((alpha, along(f, alpha)) for alpha in D.fibre(f.dom).elements())


def _summary(D, rep) -> str:
    return json.dumps({
        "passed": rep.passed,
        "failures": [[f.direction, f.along, f.alpha, f.reason] for f in rep.failures],
        # True where the witness's monotone flag stood: the law implies it
        "witnesses": [[w.direction, w.along, _table(D, w), True,
                       w.pairs_checked] for w in rep.witnesses],
        "bc": [rep.bc.direction, rep.bc.squares, rep.bc.equality_failures,
               rep.bc.inequality_failures, rep.bc.skipped, rep.bc.passed],
    })


@pytest.mark.parametrize("D", (GAP, LOPSIDED), ids=lambda d: d.name)
@pytest.mark.parametrize("direction", ("exists", "forall"))
def test_quantifier_structure_is_pinned(D, direction):
    rep = quantifier_structure(D, direction)
    no_value, digest = STRUCTURE_GOLDEN[D.name, direction]
    assert [f.along for f in rep.failures if " value for " in f.reason] == no_value
    assert not rep.passed
    assert hashlib.sha256(_summary(D, rep).encode()).hexdigest() == digest
