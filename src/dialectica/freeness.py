"""Splitting and freeness analysis of doctrine predicates.

A predicate splits existentially when every way of covering it by a
quantified predicate over a product admits a choice map realising the
cover; it is existential-free when all of its reindexings split.  Dual
notions hold for the universal quantifier.  These verdicts, relative to
a declared universe of carriers, drive the layered characterisation
checked by `godel_report`: closure of the base, quantifier structure,
enough existential-free predicates, stability of freeness under the
universal quantifier, and enough universal-free predicates inside the
existential-free part.

The doctrine decides each cover (`D.choice_index`).  Where its
quantifiers along a projection act on each point of the base separately
(``D.pointwise``), so does the choice of a witness, and a predicate is
free exactly when each of its columns is prime: no cover of the column
by a row of columns, one per partner element, misses it in every
component.  `FreenessAnalyzer` keeps one bitmask of prime columns per
kind and partner size, and reads each such verdict from it.  A failure
a report prints, and every verdict on any other doctrine, is found by
one walk over the maps into the carrier (`first_failing_map`).
"""
from __future__ import annotations

from dataclasses import dataclass

from .doctrine import base_closure, mor_key, quantifier_structure, universe_note, up_columns
from .fincat import CapExceeded, check_map_count

_DIRECTION = {"existential": "exists", "universal": "forall"}


def _join_primes(cands, cols, n: int) -> int:
    """Bitmask over the column values: bit c, for c in ``cols``, is set
    when every n-tuple (n >= 1) from ``cands`` whose union contains c has
    a component that contains c.  Such a tuple fails only with all of its
    components among those missing c, and only their parts inside c
    count, so the unions of up to n of those parts are grown until one is
    c or they stop growing."""
    out = 0
    for c in cols:
        parts = {v & c for v in cands if c & ~v}
        unions = parts
        for _ in range(n - 1):
            if c in unions:
                break
            grown = {u | v for u in unions for v in parts}
            if grown == unions:
                break
            unions = grown
        if c not in unions:
            out |= 1 << c
    return out


@dataclass
class SplittingReport:
    """Whether every cover has a choice map; ``failure`` is (partner
    name, cover) of the first cover without one."""
    passed: bool
    failure: tuple | None


@dataclass
class FreeReport:
    kind: str
    obj: str
    alpha: object
    passed: bool
    failing: tuple | None


@dataclass
class EnoughReport:
    kind: str
    passed: bool
    witnesses: list
    failures: list
    notes: list


@dataclass
class StabilityReport:
    passed: bool
    failures: list
    checked: int
    notes: list


@dataclass
class PrenexWitness:
    obj: object
    alpha: object
    u_obj: object
    x_obj: object
    beta: object
    gamma: object


@dataclass
class GodelReport:
    name: str
    passed: bool
    closure: object
    exists_structure: object
    forall_structure: object
    enough_existential_free: EnoughReport
    stability: StabilityReport
    enough_universal_free: EnoughReport | None
    note: str

    def parts(self) -> dict:
        out = {
            "cartesian_closed": self.closure.passed,
            "existential_universal": (self.exists_structure.passed
                                      and self.forall_structure.passed),
            "enough_existential_free": self.enough_existential_free.passed,
            "existential_free_stable_under_forall": self.stability.passed,
        }
        if self.enough_universal_free is not None:
            out["subdoctrine_enough_universal_free"] = self.enough_universal_free.passed
        return out


class FreenessAnalyzer:
    """Memoised splitting, freeness and presentation search over one
    doctrine.  All quantification over carriers and maps ranges over the
    declared universe; reports carry that caveat.

    Existential splitting covers by every predicate over the product;
    universal splitting, hence universal freeness, covers only by the
    existential-free ones: it is judged inside that subdoctrine."""

    def __init__(self, D):
        self.D = D
        self._by_size = tuple(sorted(D.universe, key=lambda o: (len(o), o.name)))
        # A pointwise verdict is read per column when every universe object
        # has a point, so every column of alpha is pulled back somewhere
        # and every partner row can be filled; otherwise it is walked.
        self._columnwise = bool(D.pointwise and D.universe and all(map(len, D.universe)))
        # Splitting reports and existential-free lists are kept per
        # `D._carrier_key` (a carrier's size, on a concrete doctrine);
        # free reports per name, since they print the carrier's name.
        self._split: dict = {}
        self._free: dict = {}
        self._verdicts: dict = {}
        self._primes: dict = {}
        self._free_elements: dict = {}

    # -- splitting ---------------------------------------------------

    def existential_splitting(self, A, alpha) -> SplittingReport:
        return self._splitting("existential", A, alpha)

    def _splitting(self, kind, A, alpha) -> SplittingReport:
        """The cover scan: every cover over A x B, B in the universe, and
        a choice map for each (`D.choice_index`).  Free verdicts read per
        column skip it; every other verdict, and every failing report,
        comes from it."""
        key = (kind, self.D._carrier_key(A), alpha)
        hit = self._split.get(key)
        if hit is not None:
            return hit
        D = self.D
        fib_a = D.fibre(A)
        failure = None
        for B in D.universe:
            p = D.product(A, B)
            image = self._image(kind, p)
            betas = (D.fibre(p.obj).elements() if kind == "existential"
                     else self.exfree_elements(p.obj))
            for beta in betas:
                if kind == "existential":
                    if not fib_a.leq(alpha, image(beta)):
                        continue
                else:
                    if not fib_a.leq(image(beta), alpha):
                        continue
                if D.choice_index(kind, A, B, p, alpha, beta) is None:
                    failure = (B.name, beta)
                    break
            if failure:
                break
        report = SplittingReport(failure is None, failure)
        self._split[key] = report
        return report

    def _image(self, kind, p):
        """The quantifier of ``kind`` along p's left projection, read
        through `D.along`, so each value is asked of D once."""
        return self.D.along(_DIRECTION[kind], p.proj_left)

    # -- freeness ----------------------------------------------------

    def is_existential_free(self, I, alpha) -> bool:
        return self._passes("existential", I, alpha)

    def is_universal_free(self, I, alpha) -> bool:
        return self._passes("universal", I, alpha)

    def existential_free_report(self, I, alpha) -> FreeReport:
        return self._free_report("existential", I, alpha)

    def universal_free_report(self, I, alpha) -> FreeReport:
        return self._free_report("universal", I, alpha)

    def _passes(self, kind, I, alpha) -> bool:
        """The free verdict: read per column (`_verdict`) where it can
        be, elsewhere the report's."""
        if self._columnwise:
            return self._verdict(kind, I, alpha)
        return self._free_report(kind, I, alpha).passed

    def _verdict_key(self, kind, I, alpha):
        """Everything a free verdict read per column depends on: the
        kind, |I| (through the cap on maps into I) and the set of alpha's
        columns, as a bitmask over the column values."""
        nw = self.D.nw
        full = (1 << nw) - 1
        n = len(I)
        cols = 0
        for s in range(0, n * nw, nw):
            cols |= 1 << (alpha >> s & full)
        return kind, n, cols

    def _verdict(self, kind, I, alpha) -> bool:
        """The free verdict read per column, decided once per
        `_verdict_key` by the prime columns (`_column_verdict`).  A
        CapExceeded is raised, never kept."""
        key = self._verdict_key(kind, I, alpha)
        hit = self._verdicts.get(key)
        if hit is None:
            hit = self._verdicts[key] = self._column_verdict(kind, I, alpha, key[2])
        return hit

    def _column_verdict(self, kind, I, alpha, cols) -> bool:
        """Whether alpha is free, read from its column set ``cols``: the
        pullbacks of alpha along maps into I are the tuples over its
        columns, a tuple splits at partner B exactly when each of its
        columns is prime at |B| (`_prime_columns`), and every column
        lands in some tuple.  The checks `first_failing_map` makes run in
        its order, so a cap raises as its walk does: per universe
        object A the count of maps A -> I, then for the first map, the
        constant one, alpha's first column at every point, each
        partner's product and the cap check of its covers (their count,
        or the list of existential-free ones), until that column fails."""
        D = self.D
        c0 = alpha & ((1 << D.nw) - 1)
        for A in D.universe:
            check_map_count(A, I, D.cap)
            if not len(I):
                continue
            for B in D.universe:
                obj = D.product(A, B).obj
                if kind == "existential":
                    D.fibre(obj).count()
                else:
                    self.exfree_elements(obj)
                if not self._prime_columns(kind, len(B)) >> c0 & 1:
                    return False
            if cols & ~self._prime_columns(kind):
                return False
        return True

    def _prime_columns(self, kind, n=None) -> int:
        """Bitmask over the ``2**nw`` column values of the columns prime
        for ``kind`` at partner size n, or at every partner size of the
        universe when n is None.  A column c is existentially prime at n
        when every n-tuple of up-set columns whose union contains c has a
        component containing c: covers range over the whole fibre.  It is
        universally prime at n when every n-tuple of existentially prime
        up-set columns whose intersection lies in c has a component inside
        c: covers range over the existential-free predicates.  By
        complement, that is the existential test on the complements.
        Only the up-set columns, the columns of predicates, are tabled."""
        key = kind, n
        hit = self._primes.get(key)
        if hit is None:
            D = self.D
            if n is None:
                hit = -1
                for B in D.universe:
                    hit &= self._prime_columns(kind, len(B))
            elif kind == "existential":
                ups = up_columns(D.frame.up, D.nw)
                hit = _join_primes(ups, ups, n)
            else:
                ups, full = up_columns(D.frame.up, D.nw), (1 << D.nw) - 1
                ex = self._prime_columns("existential")
                flipped = _join_primes([full ^ v for v in ups if ex >> v & 1],
                                       [full ^ v for v in ups], n)
                hit = sum(1 << v for v in ups if flipped >> (full ^ v) & 1)
            self._primes[key] = hit
        return hit

    def _free_report(self, kind, I, alpha) -> FreeReport:
        """alpha is free when f*alpha splits for every f: A -> I, A in
        the universe; `failing` is (A, key of the first such f in
        `enumerate_morphisms` order whose pullback does not split, the
        pullback, its splitting report).

        Where the verdict is read per column, a passing report is built
        with no walk; only a failure a report prints is walked to its
        first failing map."""
        key = (kind, I.name, I.elements, alpha)
        hit = self._free.get(key)
        if hit is not None:
            return hit
        if self._columnwise and self._verdict(kind, I, alpha):
            return FreeReport(kind, I.name, alpha, True, None)
        failing = self.first_failing_map(kind, I, alpha)
        report = FreeReport(kind, I.name, alpha, failing is None, failing)
        self._free[key] = report
        return report

    def first_failing_map(self, kind, I, alpha):
        """The free-report failure found by pulling alpha back along the
        maps A -> I of `D.morphisms`, in `enumerate_morphisms` order, or
        None."""
        D = self.D
        for A in D.universe:
            for f in D.morphisms(A, I):
                pulled = D.reindex_el(f, alpha)
                rep = self._splitting(kind, A, pulled)
                if not rep.passed:
                    return (A.name, mor_key(f), pulled, rep)
        return None

    def exfree_elements(self, obj) -> tuple:
        key = self.D._carrier_key(obj)
        hit = self._free_elements.get(key)
        if hit is None:
            hit = tuple(a for a in self.D.fibre(obj).elements()
                        if self.is_existential_free(obj, a))
            self._free_elements[key] = hit
        return hit

    def quantifier_free(self, I, alpha) -> bool:
        """Existential-free, and universal-free within the subdoctrine of
        existential-free predicates."""
        return (self.is_existential_free(I, alpha)
                and self.is_universal_free(I, alpha))

    # -- enough free predicates ---------------------------------------

    def enough_existential_free(self) -> EnoughReport:
        """Every predicate must be a quantified image of an
        existential-free predicate over some product with the universe."""
        return self._enough("existential")

    def enough_universal_free_sub(self) -> EnoughReport:
        """Inside the existential-free part, every predicate must be a
        universally quantified image of a universal-free one."""
        return self._enough("universal")

    def _enough(self, kind) -> EnoughReport:
        """For each target alpha over I, the first existential-free beta
        over I x A, partners A in size order, whose image along the
        projection is alpha (and, for "universal", that is universal-free).
        Each partner's product and existential-free list is decided once
        per (I, A), so a partner over the cap is noted once."""
        D = self.D
        existential = kind == "existential"
        witnesses: list = []
        failures: list = []
        notes: list = []
        for I in D.universe:
            try:
                alphas = D.fibre(I).elements() if existential else self.exfree_elements(I)
            except CapExceeded as exc:
                notes.append(f"fibre over {I.name} skipped: {exc}")
                continue
            partners = []
            for A in self._by_size:
                try:
                    p = D.product(I, A)
                    partners.append((A, p.obj, self._image(kind, p),
                                     self.exfree_elements(p.obj)))
                except CapExceeded as exc:
                    notes.append(f"{I.name} x {A.name} skipped: {exc}")
            for alpha in alphas:
                found = None
                for A, obj, image, betas in partners:
                    try:
                        for beta in betas:
                            if image(beta) == alpha and (
                                    existential or self.is_universal_free(obj, beta)):
                                found = (I.name, alpha, A.name, beta)
                                break
                    except CapExceeded as exc:
                        notes.append(f"{I.name} x {A.name} skipped: {exc}")
                    if found:
                        break
                if found:
                    witnesses.append(found)
                else:
                    failures.append((I.name, alpha))
        return EnoughReport(kind, not failures, witnesses, failures, notes)

    def stability_under_forall(self) -> StabilityReport:
        """Quantifying an existential-free predicate universally along a
        projection must land on an existential-free predicate."""
        D = self.D
        failures: list = []
        notes: list = []
        checked = 0
        for A in D.universe:
            for B in D.universe:
                try:
                    p = D.product(A, B)
                    betas = self.exfree_elements(p.obj)
                except CapExceeded as exc:
                    notes.append(f"{A.name} x {B.name} skipped: {exc}")
                    continue
                image = self._image("universal", p)
                for beta in betas:
                    checked += 1
                    gamma = image(beta)
                    if not self.is_existential_free(A, gamma):
                        failures.append((A.name, B.name, beta, gamma))
        return StabilityReport(not failures, failures, checked, notes)

    # -- presentations -------------------------------------------------

    def prenex(self, I, alpha):
        """Smallest presentation of alpha as an existential image of a
        universal image of a predicate free for both quantifiers.
        Partners are searched through the universe in size order, and
        both quantifiers are read through `D.along`."""
        D = self.D
        skipped: list = []
        for U in self._by_size:
            try:
                p_iu = D.product(I, U)
                image = D.along("exists", p_iu.proj_left)
                gammas = [g for g in self.exfree_elements(p_iu.obj) if image(g) == alpha]
            except CapExceeded as exc:
                skipped.append(str(exc))
                continue
            if not gammas:
                continue
            for X in self._by_size:
                try:
                    p3 = D.product(p_iu.obj, X)
                    betas = self.exfree_elements(p3.obj)
                except CapExceeded as exc:
                    skipped.append(str(exc))
                    continue
                image = D.along("forall", p3.proj_left)
                for gamma in gammas:
                    for beta in betas:
                        if image(beta) != gamma:
                            continue
                        if self.is_universal_free(p3.obj, beta):
                            return PrenexWitness(I, alpha, U, X,
                                                 beta, gamma)
        return None

    # -- the characterisation ------------------------------------------

    def godel_report(self, skolem_only: bool = False) -> GodelReport:
        D = self.D
        closure = base_closure(D)
        ex_struct = quantifier_structure(D, "exists")
        fa_struct = quantifier_structure(D, "forall")
        enough_ex = self.enough_existential_free()
        stab = self.stability_under_forall()
        enough_un = None if skolem_only else self.enough_universal_free_sub()
        passed = (closure.passed and ex_struct.passed and fa_struct.passed
                  and enough_ex.passed and stab.passed
                  and (enough_un is None or enough_un.passed))
        return GodelReport(D.name, passed, closure, ex_struct, fa_struct,
                           enough_ex, stab, enough_un, universe_note(D))

    def skolem_report(self) -> GodelReport:
        return self.godel_report(skolem_only=True)
