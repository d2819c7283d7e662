import itertools

import pytest

from dialectica.fincat import (
    CapExceeded,
    CategoryError,
    Exponential,
    FinMor,
    FinObj,
    FnEl,
    compose,
    enumerate_morphisms,
    exponential,
    fin_obj,
    identity,
    morphism_index,
    product,
    product_n,
    unit_obj,
)

A = fin_obj("A", ["a0", "a1"])
B = fin_obj("B", ["b0", "b1", "b2"])
C = fin_obj("C", ["c0", "c1"])


def terminal_map(a):
    return FinMor(a, unit_obj(), ((),) * len(a))


class TestObjects:
    def test_equality_ignores_name(self):
        assert fin_obj("A", ["a0", "a1"]) == fin_obj("Z", ["a0", "a1"])

    def test_hash_is_kept_and_equality_ignores_names(self):
        twin = FinObj("Z", A.elements)
        assert hash(A) == hash(A.elements) == hash(twin)
        assert A == twin and A == A and A != C
        assert {A: 1}[twin] == 1

    def test_duplicates_rejected(self):
        with pytest.raises(CategoryError):
            fin_obj("D", ["d", "d"])

    def test_empty_needs_arity(self):
        with pytest.raises(CategoryError):
            FinObj("E", ())
        assert len(FinObj("E", (), arity=1)) == 0

    def test_unit(self):
        u = unit_obj()
        assert len(u) == 1 and u.arity == 0


class TestMorphisms:
    def test_table_validated(self):
        with pytest.raises(CategoryError):
            FinMor(A, B, (("b0",),))
        with pytest.raises(CategoryError):
            FinMor(A, B, (("zz",), ("b0",)))

    def test_identity_compose(self):
        f = FinMor(A, B, (("b1",), ("b2",)))
        assert compose(f, identity(A)) == f
        assert compose(identity(B), f) == f

    def test_compose_associative(self):
        for f in enumerate_morphisms(A, B):
            for g in enumerate_morphisms(B, C):
                for h in enumerate_morphisms(C, A):
                    assert compose(h, compose(g, f)) == compose(compose(h, g), f)

    def test_enumeration_order_and_index(self):
        mors = enumerate_morphisms(A, B)
        assert len(mors) == 9
        assert mors[0].table == (("b0",), ("b0",))
        assert mors[1].table == (("b0",), ("b1",))
        for i, f in enumerate(mors):
            assert morphism_index(f) == i

    def test_index_table(self):
        for dom, cod in ((A, B), (B, A), (unit_obj(), C), (FinObj("E", (), arity=1), A)):
            for f in enumerate_morphisms(dom, cod):
                assert f.idx == tuple(cod.elements.index(v) for v in f.table)

    def test_built_from_an_index_table(self):
        for f in enumerate_morphisms(A, B):
            g = FinMor(A, B, idx=f.idx)
            assert g == f and g.table == f.table and g(("a1",)) == f(("a1",))
        for bad in ((0,), (0, 3), (-1, 0)):
            with pytest.raises(CategoryError):
                FinMor(A, B, idx=bad)

    def test_equality_ignores_carrier_names(self):
        A2, B2 = fin_obj("X", ["a0", "a1"]), fin_obj("Y", ["b0", "b1", "b2"])
        for f in enumerate_morphisms(A, B):
            g = FinMor(A2, B2, f.table)
            assert f == g and hash(f) == hash(g)
        assert FinMor(A, B, (("b0",), ("b1",))) != FinMor(A, B, (("b1",), ("b0",)))
        assert len(set(enumerate_morphisms(A, B))) == 9

    def test_cap(self):
        big = fin_obj("G", [f"g{i}" for i in range(13)])
        with pytest.raises(CapExceeded):
            enumerate_morphisms(big, big, cap=100)


class TestProduct:
    def test_elements_lexicographic(self):
        p = product(A, B)
        assert p.obj.elements[:4] == (
            ("a0", "b0"),
            ("a0", "b1"),
            ("a0", "b2"),
            ("a1", "b0"),
        )
        assert len(p.obj) == 6

    def test_projections(self):
        p = product(A, B)
        for e in p.obj:
            assert p.proj_left(e) == e[:1]
            assert p.proj_right(e) == e[1:]

    def test_universal_property_exhaustive(self):
        p = product(A, C)
        for f in enumerate_morphisms(B, A):
            for g in enumerate_morphisms(B, C):
                h = p.pair(f, g)
                assert compose(p.proj_left, h) == f
                assert compose(p.proj_right, h) == g
                mediators = [
                    m
                    for m in enumerate_morphisms(B, p.obj)
                    if compose(p.proj_left, m) == f and compose(p.proj_right, m) == g
                ]
                assert mediators == [h]

    def test_strict_associativity(self):
        left = product(product(A, B).obj, C).obj
        right = product(A, product(B, C).obj).obj
        assert left == right

    def test_unit_neutral(self):
        assert product(A, unit_obj()).obj == A
        assert product(unit_obj(), A).obj == A

    def test_product_order(self):
        p = product(A, B)
        for s, e in enumerate(p.obj.elements):
            assert e == A.elements[s // len(B)] + B.elements[s % len(B)]
            assert p.proj_left(e) == e[:1] and p.proj_right(e) == e[1:]
        assert product(product(A, B).obj, C).obj.name == product_n([A, B, C])[0].name
        assert product(product(A, B).obj, C).obj == product_n([A, B, C])[0]

    def test_a_doctrine_keeps_products_by_name(self):
        """Equal carriers with other names get their own product, named
        after them, from a doctrine's product table."""
        from dialectica.doctrine import powerset_doctrine

        D = powerset_doctrine((2, 3))
        twin = FinObj("C", A.elements)
        ab, cb = D.product(A, B), D.product(twin, B)
        assert (ab.obj.name, cb.obj.name) == ("A*B", "C*B")
        assert ab.obj == cb.obj and ab is not cb
        assert D.product(FinObj("A", A.elements), B) is ab
        assert D.product(twin, B) is cb

    def test_product_n_projections(self):
        obj, projs = product_n([A, B, C])
        assert len(obj) == 12
        for e in obj:
            assert projs[0](e) == e[:1]
            assert projs[1](e) == e[1:2]
            assert projs[2](e) == e[2:]

    def test_terminal(self):
        t = terminal_map(B)
        assert all(t(e) == () for e in B)
        assert enumerate_morphisms(B, unit_obj()) == [t]


class TestExponential:
    def test_size_and_order(self):
        e = exponential(A, C)
        assert len(e.obj) == 4
        first = e.obj.elements[0][0]
        assert isinstance(first, FnEl)
        assert first(("c0",)) == ("a0",) and first(("c1",)) == ("a0",)
        second = e.obj.elements[1][0]
        assert second(("c0",)) == ("a0",) and second(("c1",)) == ("a1",)

    def test_ev(self):
        e = exponential(A, C)
        for el in e.ev_dom:
            fn, arg = el[0], el[1:]
            assert e.ev(el) == fn(arg)

    def test_curry_uncurry_bijection(self):
        e = exponential(A, C)
        p = product(B, C)
        for g in enumerate_morphisms(p.obj, A):
            h = e.curry(g, B)
            evh = compose(e.ev, _times_id(h, C, e.ev_dom))
            assert evh == g

    def test_curry_unique(self):
        e = exponential(A, C)
        p = product(unit_obj(), C)
        for g in enumerate_morphisms(p.obj, A):
            h = e.curry(g, unit_obj())
            others = [
                m
                for m in enumerate_morphisms(unit_obj(), e.obj)
                if compose(e.ev, _times_id(m, C, e.ev_dom)) == g
            ]
            assert others == [h]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            exponential(B, B, cap=8)


def _times_id(h: FinMor, a: FinObj, ev_dom: FinObj) -> FinMor:
    """h x id_a : dom(h) x A -> cod(h) x A, targeted at the given product object."""
    p = product(h.dom, a)
    k = h.dom.arity
    return FinMor(p.obj, ev_dom, tuple(h(e[:k]) + e[k:] for e in p.obj))
