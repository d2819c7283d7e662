import itertools
import random
import re

import pytest

from dialectica.posets import (
    FinitePoset,
    PosetError,
    antichain_poset,
    chain_poset,
    poset_violations,
)


class TestConstruction:
    def test_chain(self):
        p = chain_poset(3)
        assert p.elements == ("w0", "w1", "w2")
        assert p.leq("w0", "w2") and not p.leq("w2", "w0")
        assert poset_violations(len(p), p.up) == []

    def test_antichain(self):
        p = antichain_poset(3)
        for a, b in itertools.product(p, p):
            assert p.leq(a, b) == (a == b)

    def test_pairs_by_label_or_index(self):
        """Pairs are element indices only; the label reading is gone."""
        by_index = FinitePoset("ab", [(0, 0), (1, 1), (0, 1)])
        assert by_index.leq("a", "b") and not by_index.leq("b", "a")

    @pytest.mark.parametrize("pair", [(0, 2), (-1, 0), (0,), (0, 1, 1)],
                             ids=["out-of-range", "negative", "short", "long"])
    def test_pair_must_be_two_indices_in_range(self, pair):
        with pytest.raises(PosetError, match=fr"pair \[{', '.join(map(str, pair))}\]"):
            FinitePoset("ab", [(0, 0), (1, 1), pair])

    def test_duplicates_rejected(self):
        with pytest.raises(PosetError):
            FinitePoset(["w", "w"], [])

    def test_missing_reflexivity_rejected(self):
        with pytest.raises(PosetError):
            FinitePoset("ab", [(0, 1)])

    def test_antisymmetry_rejected(self):
        with pytest.raises(PosetError):
            FinitePoset("ab", [(0, 0), (1, 1), (0, 1), (1, 0)])

    def test_transitivity_rejected(self):
        """Every poset is validated when built; the error names the break."""
        pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]
        with pytest.raises(PosetError, match=r"^transitivity fails through 0 <= 1$"):
            FinitePoset("abc", pairs)

    def test_violation_listing_names_indices(self):
        up = [0b001, 0b010, 0b100]
        assert poset_violations(3, [0, 0b010, 0b100])[0] == "not reflexive at 0"
        assert poset_violations(3, up) == []

    def test_violations_follow_the_definitions(self):
        """On random relations over up to 5 points the listing is the one
        the three laws give when read pair by pair and triple by triple."""
        rng = random.Random("poset-violations")
        for _ in range(2000):
            n = rng.randrange(6)
            density = rng.random()
            up = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
            leq = [[bool((up[i] >> j) & 1) for j in range(n)] for i in range(n)]
            want = [f"not reflexive at {i}" for i in range(n) if not leq[i][i]]
            want += [f"antisymmetry fails on {i}, {j}" for i in range(n)
                     for j in range(i + 1, n) if leq[i][j] and leq[j][i]]
            want += [f"transitivity fails through {i} <= {j}" for i in range(n)
                     for j in range(n)
                     if leq[i][j] and any(leq[j][k] and not leq[i][k] for k in range(n))]
            assert poset_violations(n, up) == want, up


class TestShapeLabel:
    def test_named_shapes(self):
        assert chain_poset(2).shape_label() == "chain2"
        assert antichain_poset(2).shape_label() == "antichain2"
        assert chain_poset(1).shape_label() == "antichain1"

    def test_vee_is_neither(self):
        vee = FinitePoset("abc", [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)])
        assert vee.shape_label() == "poset3-2e"


class TestJson:
    def test_round_trip(self):
        for p in (chain_poset(3), antichain_poset(2),
                  FinitePoset("abc", [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)])):
            assert FinitePoset.from_json(p.to_json()) == p

    def test_from_json_rejects_a_broken_order(self):
        """A hand-written frame that breaks antisymmetry is rejected on
        load, as it is when built."""
        data = {"elements": ["a", "b"], "pairs": [[0, 0], [1, 1], [0, 1], [1, 0]]}
        with pytest.raises(PosetError, match=r"^antisymmetry fails on 0, 1$"):
            FinitePoset.from_json(data)

    @pytest.mark.parametrize("data,message", [
        ({"elements": [7, 8], "pairs": []}, "elements[0]: expected a string, got 7"),
        ({"elements": ["a"], "pairs": [[0, True]]}, "pairs[0][1]: expected an integer, got true"),
        ({"elements": ["a"]}, "pairs: expected an array, got nothing"),
        ({"elements": ["a"], "pairs": [[0, 0]], "top": 0}, "top: unknown key"),
    ], ids=["label-not-a-string", "index-a-bool", "no-pairs", "unknown-key"])
    def test_from_json_checks_the_frame_shape(self, data, message):
        with pytest.raises(PosetError, match=f"^{re.escape(message)}$"):
            FinitePoset.from_json(data)
