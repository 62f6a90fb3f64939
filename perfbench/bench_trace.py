"""Traced runs: timing wrappers on the package's public functions.

The wrappers live here, not in the package.  Modules bind names with
`from ... import`, so each wrapper replaces the function in every
`supercusp` module namespace that holds it, and `Tracer.uninstall` puts the
originals back.  Spans are kept in memory: (name, start, end, parent,
spec, outermost), where `outermost` is false for a span nested in another
span of the same name, so inclusive times never count a call twice.
"""

import contextlib
import functools
import importlib
import sys
import time

LAYERS = ("rootdata", "padic", "casetable", "galois", "correspond", "exact")

# (module, function, span name)
FUNCTIONS = (
    ("rootdata", "root_system", "rootdata.root_system"),
    ("padic", "enumerate_inner_forms", "padic.forms"),
    ("padic", "inner_forms_by_token", "padic.forms"),
    ("padic", "supports_with_cuspidals", "padic.supports"),
    ("padic", "formal_degree", "padic.fdeg"),
    ("casetable", "rows_for_host", "casetable.rows"),
    ("galois", "kac_points", "galois.params"),
    ("galois", "inner_torsion_strings", "galois.strings"),
    ("galois", "local_factors", "galois.gamma"),
    ("galois", "hii_check", "galois.hii"),
    ("correspond", "compute_invariants", "correspond.invariants"),
    ("correspond", "full_report", "correspond.report"),
)

# (module, class, method, span name): counted at the class boundary
METHODS = (
    ("rootdata", "SimpleGroup", "__init__", "rootdata.group"),
    ("exact", "RatFunc", "__post_init__", "exact.ratfunc_new"),
    ("exact", "Cyclo", "__mul__", "exact.cyclo_mul"),
)

# Every per-layer metric: unit, better direction, and the end-to-end metric
# and workload it should move.
LAYER_METRICS = {
    "rootdata.root_system_s": ("s", "lower", "wall_s on rank and isogeny, and the slowest spec"),
    "rootdata.root_systems_built": ("count", "lower", "wall_s on rank and isogeny, and the slowest spec"),
    "rootdata.root_system_hit_ratio": ("ratio", "higher", "wall_s on rank and isogeny, and the slowest spec"),
    "rootdata.group_s": ("s", "lower", "wall_s on isogeny"),
    "rootdata.groups_built": ("count", "lower", "wall_s on isogeny"),
    "padic.forms_s": ("s", "lower", "wall_s on isogeny"),
    "padic.supports_s": ("s", "lower", "wall_s on isogeny"),
    "padic.supports_per_form": ("ratio", "lower", "wall_s on isogeny"),
    "padic.fdeg_s": ("s", "lower", "wall_s on isogeny and rank"),
    "casetable.rows_s": ("s", "lower", "wall_s on isogeny"),
    "casetable.rows_calls": ("count", "lower", "wall_s on isogeny"),
    "galois.params_s": ("s", "lower", "wall_s on isogeny"),
    "galois.strings_s": ("s", "lower", "wall_s on gamma, and the slowest spec"),
    "galois.strings_built": ("count", "lower", "wall_s on gamma, and the slowest spec"),
    "galois.gamma_s": ("s", "lower", "wall_s on gamma, and the slowest spec"),
    "galois.gamma_calls": ("count", "lower", "wall_s on gamma, and the slowest spec"),
    "galois.gamma_useful_ratio": ("ratio", "higher", "wall_s on gamma, and the slowest spec"),
    "galois.hii_s": ("s", "lower", "wall_s on gamma, and the slowest spec"),
    "correspond.invariants_s": ("s", "lower", "wall_s on isogeny"),
    "correspond.json_s": ("s", "lower", "wall_s on isogeny and gamma"),
    "correspond.report_s": ("s", "lower", "wall_s on isogeny"),
    "correspond.hii_checked": ("count", "higher", "HII coverage on gamma (not a time)"),
    "correspond.max_spec_s": ("s", "lower", "wall_s on every workload; untraced, depends on spec order"),
    "exact.ratfunc_new": ("count", "lower", "wall_s on gamma"),
    "exact.cyclo_mul": ("count", "lower", "wall_s on gamma"),
    **{f"{layer}.self_s": ("s", "lower", "wall_s on the workload the layer dominates")
       for layer in LAYERS},
    "trace.wall_s": ("s", "lower", "traced pass, measured and not scaled; the base of the two shares below"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s, both scaled"),
    "trace.unaccounted_s": ("s", "lower", "none: traced wall_s that no layer span covers"),
    "trace.accounted_share": ("ratio", "higher", "none: share of traced wall_s in layer spans"),
    "host.ref_s": ("s", "lower", "none: median time of the calibration chunk, shows host speed"),
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.spec = -1
        self._stack = []
        self._active = {}
        self._restore = []
        self.forms = 0
        self.weight_sets = set()
        self._caches = {}

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.spec, depth == 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    @contextlib.contextmanager
    def span(self, name):
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)

    def _wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def _count_forms(self, args, kwargs, result):
        self.forms += len(result)

    def _note_weights(self, args, kwargs, result):
        weights = args[0] if args else kwargs["weights"]
        self.weight_sets.add(tuple(sorted(repr(w) for w in weights)))

    # -- installing --------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"supercusp.{m}") for m in LAYERS}
        observers = {"inner_forms_by_token": self._count_forms,
                     "local_factors": self._note_weights}
        package = [mod for key, mod in list(sys.modules.items())
                   if key == "supercusp" or key.startswith("supercusp.")]
        for mod_name, fn_name, span_name in FUNCTIONS:
            orig = getattr(mods[mod_name], fn_name)
            if hasattr(orig, "cache_info"):
                self._caches[fn_name] = orig
            wrapper = self._wrap(span_name, orig, observers.get(fn_name))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))
        for mod_name, cls_name, meth, span_name in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(span_name, orig))
            self._restore.append((cls, meth, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summarising -------------------------------------------------------

    def summary(self, wall_s):
        """Per-layer metrics of the pass, given its traced wall time."""
        inclusive, calls, child = {}, {}, [0.0] * len(self.spans)
        for name, start, end, parent, _, outer in self.spans:
            calls[name] = calls.get(name, 0) + 1
            if outer:
                inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] += end - start
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, *_), kids in zip(self.spans, child):
            layer_self[name.split(".")[0]] += (end - start) - kids
        accounted = sum(layer_self.values())
        rs = self._caches["root_system"].cache_info()
        strings = self._caches["inner_torsion_strings"].cache_info()
        gamma_calls = calls.get("galois.gamma", 0)
        out = {
            "rootdata.root_system_s": inclusive.get("rootdata.root_system", 0.0),
            "rootdata.root_systems_built": rs.misses,
            "rootdata.root_system_hit_ratio": rs.hits / max(1, rs.hits + rs.misses),
            "rootdata.group_s": inclusive.get("rootdata.group", 0.0),
            "rootdata.groups_built": calls.get("rootdata.group", 0),
            "padic.forms_s": inclusive.get("padic.forms", 0.0),
            "padic.supports_s": inclusive.get("padic.supports", 0.0),
            "padic.supports_per_form":
                calls.get("padic.supports", 0) / max(1, self.forms),
            "padic.fdeg_s": inclusive.get("padic.fdeg", 0.0),
            "casetable.rows_s": inclusive.get("casetable.rows", 0.0),
            "casetable.rows_calls": calls.get("casetable.rows", 0),
            "galois.params_s": inclusive.get("galois.params", 0.0),
            "galois.strings_s": inclusive.get("galois.strings", 0.0),
            "galois.strings_built": strings.misses,
            "galois.gamma_s": inclusive.get("galois.gamma", 0.0),
            "galois.gamma_calls": gamma_calls,
            # no call wastes nothing: a workload without the gamma path reads 1
            "galois.gamma_useful_ratio":
                len(self.weight_sets) / gamma_calls if gamma_calls else 1.0,
            "galois.hii_s": inclusive.get("galois.hii", 0.0),
            "correspond.invariants_s": inclusive.get("correspond.invariants", 0.0),
            "correspond.json_s": inclusive.get("correspond.json", 0.0),
            "correspond.report_s": inclusive.get("correspond.report", 0.0),
            "exact.ratfunc_new": calls.get("exact.ratfunc_new", 0),
            "exact.cyclo_mul": calls.get("exact.cyclo_mul", 0),
            "trace.wall_s": wall_s,
            "trace.unaccounted_s": wall_s - accounted,
            "trace.accounted_share": accounted / wall_s,
        }
        out.update({f"{layer}.self_s": v for layer, v in layer_self.items()})
        return out
