"""Mutation fuzz guard of the JSON input loaders.

One to three leaves or keys of a stock input are replaced, deleted or
renamed, and the command that reads it must keep the exit status
contract: 0 or 1 with a report on stdout, or 2 with one ``error:`` line
on stderr and nothing on stdout; never 3 and never a traceback.  The
runs are derandomised and keep no example database, so every run tries
the same inputs (`conftest.py` keeps Hypothesis's other cache out of the
work tree).
"""
import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialectica import cli
from dialectica.doctrine import doctrine_to_json, kripke_doctrine
from dialectica.posets import chain_poset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CHAIN2 = doctrine_to_json(kripke_doctrine(chain_poset(2), (2, 2)))
REPLAY = {k: v for k, v in CHAIN2.items() if k != "generator"}
GENERATOR = {"generator": CHAIN2["generator"]}
DOCTRINE_ARGV = ("doctrine", "adjoints")
SIG_ARGV = ("translate", "--sig", "-", "--formula", "forall u:U. r(u, fUV(hUU(u))) & s0")

VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.sampled_from([0.5, "", "A->A#0"]),
    st.text(alphabet="ABUVab01*", max_size=3), st.lists(st.integers(-1, 3), max_size=3),
    st.just({}), st.just([["a0"]]))
KEYS = st.sampled_from(["", "name", "elements", "pairs", "args", "*", "?name", "A", "x"])


@pytest.fixture(scope="module")
def signature():
    """The signature file of the benchmark's `formulas` workload."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
    return workloads.SIGNATURE


def _slots(node) -> list:
    """Every (container, key) pair below node, in document order."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, value in items:
        out.append((node, key))
        out.extend(_slots(value))
    return out


def _mutate(data, doc):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(doc)
        if not slots:
            break
        node, key = data.draw(st.sampled_from(slots))
        ops = ("value", "delete", "rename") if isinstance(node, dict) else ("value", "delete")
        op = data.draw(st.sampled_from(ops))
        if op == "value":
            node[key] = data.draw(VALUES)
        elif op == "delete":
            del node[key]
        else:
            node[data.draw(KEYS)] = node.pop(key)
    return doc


def _run(argv, text: str):
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", ["chain2", "chain2-replay", "generator-frame", "signature"])
@settings(derandomize=True, database=None, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_input_keeps_the_exit_contract(signature, name, data):
    base = {"chain2": CHAIN2, "chain2-replay": REPLAY,
            "generator-frame": GENERATOR, "signature": signature}[name]
    argv = SIG_ARGV if name == "signature" else DOCTRINE_ARGV
    code, out, err = _run(argv, json.dumps(_mutate(data, base)))
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert out
