"""Per-layer tracing installed from outside the library.

Wrappers replace each traced function wherever the ``dialectica`` package
holds a reference to it: module globals (including names imported into
another module, such as ``cli.build_dial_fibre``), dict values such as
``principles.RULES``, and class attributes for methods.  A span's self
time is its duration minus the time covered by its child spans; counts
are taken at the same boundaries.  Spans are aggregated per metric key in
memory, and nothing is printed or written while ops run, so stdout stays
byte-identical.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict


def _kernel_wide(name):
    """Whether a kernel call's masks exceed one machine word, mirroring the
    dispatcher's routing: such calls go to the pure lane in every build."""
    from dialectica import _kernels as K

    word = K._WORD

    def reindex(alpha, fmap, nw):
        return len(fmap) * nw > word or alpha.bit_length() > word

    def quantify(alpha, fibs, nw):
        return len(fibs) * nw > word or alpha.bit_length() > word

    def imp(a, b, ne, nw, upmasks):
        return ne * nw > word

    def gap(alpha, beta, na, nb, nw):
        return na * nb * nw > word

    def witness(alpha, beta, ni, nu, nx, nv, ny, nw):
        return ni * nu * nx * nw > word or ni * nv * ny * nw > word

    return {"reindex_mask": reindex, "exists_image": quantify,
            "forall_preimage": quantify, "imp_mask": imp, "exists_gap_g": gap,
            "forall_gap_g": gap, "witness_pair": witness}[name]


# (module, attribute path, metric key, span?)  Keys without a span only
# count calls; their time stays with the enclosing span.
TARGETS = [
    ("dialectica._kernels", "witness_pair", "kernels.witness_pair", True),
    ("dialectica._kernels", "reindex_mask", "kernels.reindex_mask", True),
    ("dialectica._kernels", "exists_image", "kernels.quantify", True),
    ("dialectica._kernels", "forall_preimage", "kernels.quantify", True),
    ("dialectica._kernels", "exists_gap_g", "kernels.gap_g", True),
    ("dialectica._kernels", "forall_gap_g", "kernels.gap_g", True),
    ("dialectica._kernels", "imp_mask", "kernels.imp_mask", True),
    ("dialectica.fincat", "product", "fincat.product", True),
    ("dialectica.fincat", "product_n", "fincat.product", True),
    ("dialectica.fincat", "FinObj.__init__", "fincat.finobj", False),
    ("dialectica.fincat", "FinMor.__init__", "fincat.finmor", False),
    ("dialectica.fincat", "enumerate_morphisms", "fincat.enumerate_morphisms", True),
    ("dialectica.doctrine", "ConcreteDoctrine.reindex_el", "doctrine.reindex_el", True),
    ("dialectica.doctrine", "TabularDoctrine.reindex_el", "doctrine.reindex_el", True),
    ("dialectica.doctrine", "ConcreteDoctrine.exists_along", "doctrine.quantify", True),
    ("dialectica.doctrine", "ConcreteDoctrine.forall_along", "doctrine.quantify", True),
    ("dialectica.doctrine", "TabularDoctrine.exists_along", "doctrine.quantify", True),
    ("dialectica.doctrine", "TabularDoctrine.forall_along", "doctrine.quantify", True),
    ("dialectica.doctrine", "MaskFibre.elements", "doctrine.fibre_elements", True),
    ("dialectica.doctrine", "PosetFibre.elements", "doctrine.fibre_elements", True),
    ("dialectica.doctrine", "doctrine_from_json", "doctrine.load", True),
    ("dialectica.doctrine", "check_doctrine", "doctrine.audit", True),
    ("dialectica.doctrine", "adjoint_along", "doctrine.audit", True),
    ("dialectica.doctrine", "beck_chevalley", "doctrine.audit", True),
    ("dialectica.doctrine", "quantifier_structure", "doctrine.audit", True),
    ("dialectica.freeness", "FreenessAnalyzer.is_existential_free", "freeness.free_test", True),
    ("dialectica.freeness", "FreenessAnalyzer.is_universal_free", "freeness.free_test", True),
    ("dialectica.freeness", "FreenessAnalyzer.quantifier_free", "freeness.free_test", True),
    ("dialectica.freeness", "FreenessAnalyzer.prenex", "freeness.prenex", True),
    ("dialectica.freeness", "FreenessAnalyzer.godel_report", "freeness.godel_report", True),
    ("dialectica.principles", "check_skolemisation", "principles.skolem", True),
    ("dialectica.principles", "check_ip_rule", "principles.ip", True),
    ("dialectica.principles", "check_modified_markov", "principles.mmr", True),
    ("dialectica.principles", "check_markov", "principles.markov", True),
    ("dialectica.principles", "check_counterexample_property", "principles.cex", True),
    ("dialectica.principles", "check_rule_of_choice", "principles.choice", True),
    ("dialectica.dial", "dial_leq", "dial.dial_leq", True),
    ("dialectica.dial", "pair_is_valid", "dial.pair_is_valid", True),
    ("dialectica.dial", "enumerate_quads", "dial.enumerate_quads", False),
    ("dialectica.dial", "build_dial_fibre", "dial.build_dial_fibre", True),
    ("dialectica.dial", "check_preorder", "dial.check_preorder", True),
    ("dialectica.dial", "check_theorem2", "dial.theorem2", True),
    ("dialectica.dial", "check_theorem4", "dial.theorem4", True),
    ("dialectica.fol", "parse_formula", "fol.parse_formula", True),
    ("dialectica.fol", "formula_to_text", "fol.render", True),
    ("dialectica.fol", "formula_to_latex", "fol.render", True),
    ("dialectica.fol", "sort_to_text", "fol.render", True),
    ("dialectica.transform", "translate", "transform.translate", True),
    ("dialectica.transform", "implication_chain", "transform.implication_chain", True),
    ("dialectica.cli", "main", "cli", True),
]

# Callers whose use of a found pair goes beyond its existence.
PAIR_CONSUMERS = ("dial.check_preorder", "cli")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [key, time covered by child spans] per open span
        self._patched = []  # (container, name, original)
        self._originals = {}  # id(original) -> (original, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _hook(self, key, name):
        """Counts taken from a call's arguments or result, or None."""
        counts = self.counts
        if key.startswith("kernels."):
            wide = _kernel_wide(name)

            def hook(args, result, parent):
                if wide(*args):
                    counts["kernels.wide_calls"] += 1
            return hook
        if key == "dial.dial_leq":
            def hook(args, result, parent):
                if result is not None:
                    counts["dial.found"] += 1
                    if parent in PAIR_CONSUMERS:
                        counts["dial.pairs_used"] += 1
            return hook
        if key == "dial.enumerate_quads":
            def hook(args, result, parent):
                counts["dial.enumerated"] += len(result[0])
                counts["dial.total"] += result[1]
            return hook
        if key.startswith("principles."):
            def hook(args, result, parent):
                counts["principles.instances"] += result.instances
            return hook
        return None

    def _wrap(self, fn, key, span, hook):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[key] += 1
                if hook is not None:
                    hook(args, result, stack[-1][0] if stack else None)
                return result
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[key] += elapsed - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(args, result, parent)
            return result
        return spanned

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("dialectica.cli")  # imports every layer
        for modname, path, key, span in TARGETS:
            owner = sys.modules[modname]
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = vars(owner)[name]
            wrapper = self._wrap(fn, key, span, self._hook(key, name))
            self._originals[id(fn)] = (fn, wrapper)
        for container, name, value in self._references():
            fn, wrapper = self._originals[id(value)]
            self._patched.append((container, name, fn))
            _assign(container, name, wrapper)

    def uninstall(self) -> None:
        for container, name, fn in reversed(self._patched):
            _assign(container, name, fn)
        self._patched.clear()

    def self_check(self) -> list:
        """Places that still hold an unwrapped original of a traced function,
        and originals no wrapper was installed for."""
        left = [f"{_label(c)}.{n}" for c, n, _ in self._references()]
        patched = {id(fn) for _, _, fn in self._patched}
        left += [f"{fn.__module__}.{fn.__qualname__} (never patched)"
                 for fn, _ in self._originals.values() if id(fn) not in patched]
        return left

    def _references(self):
        """Every (container, name, value) in the package whose value is a
        traced original: module globals, module-level dicts and class
        attributes of the package's own classes."""
        found = []
        originals = self._originals
        for modname, mod in list(sys.modules.items()):
            if modname != "dialectica" and not modname.startswith("dialectica."):
                continue
            for name, value in list(vars(mod).items()):
                if id(value) in originals:
                    found.append((mod, name, value))
                elif isinstance(value, dict):
                    found += [(value, k, v) for k, v in value.items() if id(v) in originals]
                elif isinstance(value, type) and value.__module__ == modname:
                    found += [(value, k, v) for k, v in vars(value).items()
                              if id(v) in originals]
        return found

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        c, s, n = self.calls, self.self_s, self.counts
        found, leq = n["dial.found"], c["dial.dial_leq"]
        out = {}
        for key in ("kernels.witness_pair", "kernels.reindex_mask", "kernels.quantify",
                    "kernels.gap_g"):
            out[f"{key}.calls"] = c[key]
            out[f"{key}.s"] = s[key]
        out["kernels.imp_mask.calls"] = c["kernels.imp_mask"]
        out["kernels.wide_calls"] = n["kernels.wide_calls"]
        out["fincat.product.calls"] = c["fincat.product"]
        out["fincat.product.s"] = s["fincat.product"]
        out["fincat.finobj.built"] = c["fincat.finobj"]
        out["fincat.finmor.built"] = c["fincat.finmor"]
        for key in ("fincat.enumerate_morphisms", "doctrine.reindex_el",
                    "doctrine.quantify"):
            out[f"{key}.calls"] = c[key]
            out[f"{key}.s"] = s[key]
        for key in ("doctrine.fibre_elements", "doctrine.load", "doctrine.audit"):
            out[f"{key}.s"] = s[key]
        for key in ("freeness.free_test", "freeness.prenex"):
            out[f"{key}.calls"] = c[key]
            out[f"{key}.s"] = s[key]
        out["freeness.godel_report.s"] = s["freeness.godel_report"]
        for rule in ("skolem", "ip", "mmr", "markov", "cex", "choice"):
            out[f"principles.{rule}.s"] = s[f"principles.{rule}"]
        out["principles.instances"] = n["principles.instances"]
        out["dial.dial_leq.calls"] = leq
        out["dial.dial_leq.s"] = s["dial.dial_leq"]
        out["dial.found_ratio"] = _ratio(found, leq)
        out["dial.pair_is_valid.calls"] = c["dial.pair_is_valid"]
        out["dial.pair_is_valid.s"] = s["dial.pair_is_valid"]
        out["dial.pairs_used_ratio"] = _ratio(n["dial.pairs_used"], found)
        for key in ("build_dial_fibre", "check_preorder", "theorem2", "theorem4"):
            out[f"dial.{key}.s"] = s[f"dial.{key}"]
        out["dial.sampled_ratio"] = _ratio(n["dial.enumerated"], n["dial.total"])
        out["fol.parse_formula.calls"] = c["fol.parse_formula"]
        out["fol.parse_formula.s"] = s["fol.parse_formula"]
        out["fol.render.s"] = s["fol.render"]
        out["transform.translate.calls"] = c["transform.translate"]
        out["transform.translate.s"] = s["transform.translate"]
        out["transform.implication_chain.s"] = s["transform.implication_chain"]
        out["cli.self.s"] = s["cli"]
        return out

    def ratio_bases(self) -> dict:
        n, c = self.counts, self.calls
        return {
            "dial.found_ratio": (n["dial.found"], c["dial.dial_leq"]),
            "dial.pairs_used_ratio": (n["dial.pairs_used"], n["dial.found"]),
            "dial.sampled_ratio": (n["dial.enumerated"], n["dial.total"]),
        }


def _ratio(num, den):
    return num / den if den else 0.0


def _assign(container, name, value):
    if isinstance(container, dict):
        container[name] = value
    else:
        setattr(container, name, value)


def _label(container):
    return getattr(container, "__name__", type(container).__name__)
