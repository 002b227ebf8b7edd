"""Outside-in layer tracing for the benchmark.

`install` wraps the public functions of each nilcone layer from the
benchmark's own code; the library is not edited.  A function imported with
`from .reps import build_irrep` is a second reference to the same object, so
every `nilcone.*` module attribute (and every class attribute, such as
`QPoly.__rmul__ = __mul__`) that holds a traced function is rebound.

Each wrapped call opens a frame on a stack.  When it returns, its self time
is its duration minus the durations of the wrapped calls made inside it, and
that duration is charged to the enclosing frame.  Calls of non-hot functions
are also kept as spans (id, parent id, name, item, start, end) in memory,
the first SPAN_LIMIT of them, and written out by `Tracer.write_spans` at the
end.  Hot functions, called hundreds of thousands of times, keep only
aggregates, so memory stays bounded.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

SPAN_LIMIT = 200_000

# One row per traced function: (layer.qualified_name, key arity, hot, the
# per-layer metrics reported for it, the workloads on which it must record at
# least one call).  A key arity k > 0 records repeat_frac: the share of calls
# whose first k arguments were already seen in this process, which is the
# work an in-memory memo could save.  Hot functions keep aggregates only.
FS = ("filtration-sweep",)
HR = ("hom-routes",)
CT = ("character-tables",)
CC = ("cli-cold",)
CALLS_SELF = ("calls", "self_s")
TRACED = (
    ("roots.build_datum", 0, False, ("self_s",), CT + FS),
    ("roots.RootDatum.root_coordinates", 0, True, CALLS_SELF, CT + FS),
    ("roots.RootDatum.dominant_conjugate", 0, True, CALLS_SELF, FS),
    ("characters.weight_multiplicity", 0, True, CALLS_SELF, CT),
    ("characters.tensor_decompose", 0, False, CALLS_SELF, HR + CT),
    ("characters.restrict_to_levi", 0, False, CALLS_SELF, CT),
    ("characters.weyl_dimension", 0, True, CALLS_SELF, HR + CT),
    ("characters.irreducible_character", 2, False,
     CALLS_SELF + ("repeat_frac",), HR + CT),
    ("qpoly.QPoly.__add__", 0, True, CALLS_SELF, CT),
    ("qpoly.QPoly.__mul__", 0, True, CALLS_SELF, CT),
    ("qpoly.product_truncated", 0, False, CALLS_SELF, CT),
    ("qanalog.lusztig_q_analog", 3, True, CALLS_SELF + ("repeat_frac",),
     CT + FS),
    ("qanalog.graded_mult_in_nilcone", 2, False,
     CALLS_SELF + ("repeat_frac",), CT + HR),
    ("qanalog.p_bk_polynomial", 0, True, CALLS_SELF, FS),
    ("qanalog.hilbert_series_nilcone", 0, False, ("self_s",), CT),
    ("qanalog.hilbert_series_complete_intersection", 0, False, ("self_s",),
     CT),
    ("reps.build_irrep", 2, False, CALLS_SELF + ("repeat_frac",), FS + HR),
    ("reps.MatrixRep.validate", 0, False, CALLS_SELF, FS),
    ("reps.fraction_solve", 0, True, CALLS_SELF, FS),
    ("reps.bk_filtration", 0, True, CALLS_SELF, FS),
    ("reps.int_columns_rank", 0, True, CALLS_SELF, FS + HR),
    ("reps.centralizer_and_exponents", 0, False, CALLS_SELF, HR + CT),
    ("homspaces.hom_profile_kostant", 0, False, CALLS_SELF, HR),
    ("homspaces.hom_profile_slice", 0, False, CALLS_SELF, HR),
    ("homspaces.adjunction_check", 0, False, CALLS_SELF, HR),
    ("sl2.table_rows", 0, False, ("self_s",), CC),
    ("sl2.hom_complex_profile", 0, False, ("self_s",), CC),
    ("cache.fetch", 0, False, CALLS_SELF + ("hit_frac",), CC),
    ("cache.store", 0, False, CALLS_SELF, CC),
    ("cli.run", 0, False, ("self_s",), CC),
)
FIELDS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
          "repeat_frac": ("ratio", "lower"), "hit_frac": ("ratio", "higher")}
# Measured by the parent around the traced functions: cli-cold's child
# import and process times and per-pass call latency, the tracing overhead
# as traced vs. untraced items_per_s, and the host-speed probe.
OTHER_METRICS = (
    ("cli.import_s", "s", "lower"),
    ("cli.process_s", "s", "lower"),
    ("cli.write_pass.call_p50_ms", "ms", "lower"),
    ("cli.read_pass.call_p50_ms", "ms", "lower"),
    ("cli.write_pass_s", "s", "lower"),
    ("cli.read_pass_s", "s", "lower"),
    ("trace.untraced_items_per_s", "1/s", "higher"),
    ("trace.traced_items_per_s", "1/s", "higher"),
    ("host.probe_ms", "ms", "lower"),
)


def per_layer_spec():
    """[(metric name, unit, better)] of every per-layer metric, in order."""
    out = []
    for name, _, _, fields, _ in TRACED:
        for field in fields:
            unit, better = FIELDS[field]
            out.append(("%s.%s" % (name, field), unit, better))
    return out + list(OTHER_METRICS)


def _norm(value):
    """Hashable form of an argument; a RootDatum stands for its preset."""
    name = getattr(value, "name", None)
    if isinstance(name, str) and hasattr(value, "cartan"):
        return name
    if isinstance(value, (list, tuple)):
        return tuple(_norm(v) for v in value)
    return value


class Tracer:
    """Per-function call counts, self times, repeats and span records."""

    def __init__(self):
        self.names = []
        self.stats = {}     # name -> [calls, self_s, repeats, hits]
        self.stack = []     # open frames: [time in wrapped children, span id]
        self.spans = []
        self.item = -1      # index of the benchmark item being run
        self._next_id = 0

    def wrap(self, name, fn, key_arity=0, record=True):
        stats = self.stats.setdefault(name, [0, 0.0, 0, 0])
        seen = set()
        name_index = len(self.names)
        self.names.append(name)
        stack = self.stack
        spans = self.spans
        is_fetch = name == "cache.fetch"

        def wrapper(*args, **kwargs):
            if key_arity:
                key = _norm(args[:key_arity])
                if key in seen:
                    stats[2] += 1
                else:
                    seen.add(key)
            parent = stack[-1][1] if stack else -1
            if record:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                stats[0] += 1
                stats[1] += duration - frame[0]
                if record and len(spans) < SPAN_LIMIT:
                    spans.append((span_id, parent, name_index, self.item,
                                  start, end))
            if is_fetch and result is not None:
                stats[3] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def summary(self):
        """{name: {"calls", "self_s", "repeats", "hits"}} for every function."""
        return {name: {"calls": s[0], "self_s": s[1], "repeats": s[2],
                       "hits": s[3]}
                for name, s in self.stats.items()}

    def write_spans(self, path):
        """One JSON line per span: [id, parent id, name, item, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, idx, item, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, self.names[idx], item,
                                     round(start, 7), round(end, 7)]))
                fh.write("\n")


def install(tracer):
    """Wrap every traced function at every binding.

    Raises LookupError when a traced function no longer exists, so a renamed
    layer function is reported instead of silently going unmeasured.
    """
    for name, _, _, _, _ in TRACED:
        importlib.import_module("nilcone." + name.split(".")[0])
    modules = [m for n, m in sys.modules.items()
               if n == "nilcone" or n.startswith("nilcone.")]
    for name, key_arity, hot, _, _ in TRACED:
        layer, qualname = name.split(".", 1)
        owner = sys.modules["nilcone." + layer]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            namespaces = [getattr(owner, cls_name)]
            original = vars(namespaces[0]).get(attr)
        else:
            namespaces = modules
            original = vars(owner).get(qualname)
        if original is None:
            raise LookupError("traced function %s not found" % name)
        wrapped = tracer.wrap(name, original, key_arity, record=not hot)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapped)
