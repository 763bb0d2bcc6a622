"""Outside-in tracer: spans around calls into `subgf`'s public functions.

No file of the package changes.  `Tracer.install` replaces each listed
function by a wrapper in every `subgf` module that holds it (a function
imported with `from .x import y` is bound in several modules), and each
listed method on its class.  Spans stay in memory as
(name, start, end, parent, op) columns and are summarised or written out
when the run ends.  A target missing from the package (renamed or deleted by a later
change) is skipped and reports zero calls.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute) pairs; "Class.method" wraps a method on its class and a
# bare class name wraps its construction (__init__).
TARGETS = (
    ("cli", "main"),
    ("substitutions", "pf_data"),
    ("substitutions", "fixed_point_seed"),
    ("substitutions", "aperiodicity_verdict"),
    ("substitutions", "fixed_word_prefix"),
    ("periodicity", "detect_period"),
    ("periodicity", "verify_witness"),
    ("genfun", "series_verdict"),
    ("genfun", "position_series"),
    ("genfun", "rational_form_from_witness"),
    ("geometric", "natural_lengths"),
    ("geometric", "classify_two_letter"),
    ("geometric", "endpoint_sequence"),
    ("geometric", "geometric_identity_ok"),
    ("realroots", "SturmChain"),
    ("realroots", "SturmChain.variations"),
    ("realroots", "SturmChain.sign_at"),
    ("realroots", "isolate_max_root"),
    ("realroots", "certify_positive"),
    ("realroots", "nudge_off_root"),
    ("fibonacci", "pair_polynomials"),
    ("fibonacci", "positivity_bound"),
    ("serialize", "canonical_dumps"),
    ("serialize", "value_decimal"),
)
LAYERS = tuple(dict.fromkeys(module for module, _ in TARGETS))
PACKAGE = "subgf"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    def __init__(self):
        # one column per span field, in flat arrays: per-span lists would be
        # tens of thousands of objects for the garbage collector to scan,
        # slowing the traced code itself
        self._names: list[str] = []  # by wrapper: the "name" column's ids
        self._columns = {
            "name": array("i"), "start": array("d"), "end": array("d"),
            "parent": array("i"), "op": array("i"),
        }
        self.op = -1
        self.overhead_s = 0.0  # time inside the wrappers, outside the wrapped calls
        self.letters = 0  # sum of n over fixed_word_prefix calls
        self.period_hits = 0  # detect_period calls that returned a witness
        self.chain_members = 0  # Sturm chain members built
        self.chain_max_bits = 0  # largest |coefficient| bit length in a chain
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, attr in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            if home is None:
                continue
            name = span_name(module_name, attr)
            owner_name, _, method = attr.partition(".")
            owner = getattr(home, owner_name, None)
            if owner is None:
                continue
            if method or isinstance(owner, type):
                cls, method = owner, method or "__init__"
                original = cls.__dict__.get(method)
                if original is None:
                    continue
                self._set(cls, method, self._wrap(name, original))
                continue
            wrapper = self._wrap(name, owner)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is owner:
                        self._set(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    def _set(self, obj, key: str, value) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def _wrap(self, name: str, func):
        cols, stack = self._columns, self._stack
        name_id = len(self._names)
        self._names.append(name)
        add_name, add_parent, add_op = (
            cols["name"].append, cols["parent"].append, cols["op"].append
        )
        starts, ends = cols["start"], cols["end"]
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            enter = clock()
            index = len(starts)
            add_name(name_id)
            add_parent(stack[-1] if stack else -1)
            add_op(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if after is not None:
                after(args, kwargs, result)
            self.overhead_s += (start - enter) + (clock() - end)
            return result

        return traced

    @property
    def spans(self) -> list[tuple]:
        """(name, start, end, parent, op) per span, in call order."""
        c = self._columns
        names = [self._names[i] for i in c["name"]]
        return list(zip(names, c["start"], c["end"], c["parent"], c["op"]))

    # -- counters -----------------------------------------------------------

    def _after_substitutions_fixed_word_prefix(self, args, kwargs, result):
        self.letters += len(result)

    def _after_periodicity_detect_period(self, args, kwargs, result):
        self.period_hits += result is not None

    def _after_realroots_SturmChain(self, args, kwargs, result):
        chain = getattr(args[0], "_chain", ())
        self.chain_members += len(chain)
        for member in chain:
            if member:
                bits = int(max(max(member), -min(member))).bit_length()
                self.chain_max_bits = max(self.chain_max_bits, bits)

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-function and per-layer metrics (see `summarise`), plus the
        counters."""
        out = summarise(self.spans)
        prefix_s = out["substitutions.fixed_word_prefix.total_s"]
        out["substitutions.fixed_word_prefix.letters"] = self.letters
        out["substitutions.fixed_word_prefix.letters_per_s"] = (
            self.letters / prefix_s if prefix_s else 0.0
        )
        detect = out["periodicity.detect_period.calls"]
        out["periodicity.detect_period.hit_ratio"] = (
            self.period_hits / detect if detect else 0.0
        )
        out["realroots.sturm.members"] = self.chain_members
        out["realroots.sturm.max_coeff_bits"] = self.chain_max_bits
        return out


def summarise(spans) -> dict[str, float]:
    """Metrics of a span list [name, start, end, parent, op].

    `<name>.calls`, `<name>.total_s` and `<name>.self_s` for every target, and
    `layer.<module>.total_s` and `layer.<module>.self_s` for every layer.
    Self time is a span's duration minus the durations of its direct
    children (spans of one thread nest, so the children never overlap).  A
    total counts only the outermost span of each nest of the same name (or,
    for a layer, of the same module), so recursion and a layer calling
    itself are not counted twice.
    """
    n = len(spans)
    duration = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += duration[i]
    out: dict[str, float] = {}
    for module, attr in TARGETS:
        name = span_name(module, attr)
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for layer in LAYERS:
        out[f"layer.{layer}.total_s"] = 0.0
        out[f"layer.{layer}.self_s"] = 0.0
    layer_of = lambda name: name.split(".", 1)[0]  # noqa: E731
    totals = defaultdict(float)
    for i, (name, _, _, parent, _) in enumerate(spans):
        layer = layer_of(name)
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += duration[i] - child[i]
        out[f"layer.{layer}.self_s"] += duration[i] - child[i]
        same_name = same_layer = False
        j = parent
        while j >= 0 and not same_name:
            ancestor = spans[j][0]
            same_name = ancestor == name
            same_layer = same_layer or layer_of(ancestor) == layer
            j = spans[j][3]
        if not same_name:
            totals[f"{name}.total_s"] += duration[i]
        if not same_layer:
            totals[f"layer.{layer}.total_s"] += duration[i]
    out.update(totals)
    return out
