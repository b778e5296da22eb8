"""Per-layer tracing of sbolab from outside, without editing `src/`.

`install()` replaces the public functions and methods of the seven layer
modules (and the few private helpers named in `EXTRA`) by timing wrappers,
both in the defining module and wherever another sbolab module imported
them by name.  Every wrapped call pushes a frame; on return its duration
minus the time of its wrapped children is added to the layer's self time.
Boundary calls (module-level functions that are not in `HOT`) are also
kept as spans (name, start, end, parent) up to `MAX_SPANS`; the hot
scalar-level calls are only aggregated, since a kernel check makes
millions of them.
"""

import functools
import inspect
import sys
import time

LAYERS = ("paramfield", "linalg", "sbolattice", "kernelcalc", "monogenics",
          "cliffspin", "cli")

# private helpers that carry a named per-layer metric
EXTRA = {"sbolattice": ("_solve",), "kernelcalc": ("_normalize", "_on_line"),
         "monogenics": ("_bruteforce_block",)}

# cheap predicates, constructors and formatting left unwrapped: their cost
# is below the wrapper's own and they are attributed to their caller
SKIP = {"is_zero", "coerce", "has_gammas", "is_const", "sort_key"}
# constructors whose count or result size is a metric
INIT_WRAPPED = {"paramfield.ParamScalar", "kernelcalc.KernelExpr"}
DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__neg__", "__truediv__", "__rtruediv__", "__pow__",
           "__eq__"}

# module-level functions called too often to keep one span per call
HOT = {"paramfield.rat", "paramfield.evaluate", "paramfield.poly_gcd",
       "paramfield.poly_divexact", "paramfield.pochhammer",
       "cliffspin.zeta_gen_apply", "cliffspin.zeta_action", "cliffspin.gamma",
       "cliffspin.spin_dim", "monogenics.dirac", "kernelcalc.as_matrix"}

MAX_SPANS = 100000

GAUSS_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "inverse")

# qualified name -> (call counter, timer); a timer sums inclusive time over
# the outermost active call of any callable that shares it
METRICS = {
    "paramfield.ParamScalar.__init__": ("paramfield.paramscalar_new",
                                        "paramfield.paramscalar_new_s"),
    "paramfield.poly_gcd": ("paramfield.poly_gcd_calls", "paramfield.poly_gcd_s"),
    "paramfield.evaluate": ("paramfield.evaluate_calls", "paramfield.evaluate_s"),
    "paramfield.ParamPoly.subs_lam": (None, "paramfield.affine_subs_s"),
    "paramfield.ParamPoly.shift": (None, "paramfield.affine_subs_s"),
    "paramfield.ParamScalar.subs_lam": (None, "paramfield.affine_subs_s"),
    "paramfield.ParamScalar.shift": (None, "paramfield.affine_subs_s"),
    "linalg.eliminate": ("linalg.eliminate_calls", "linalg.eliminate_s"),
    "linalg.solve_in_span": (None, "linalg.solve_in_span_s"),
    "sbolattice.build_system": ("sbolattice.build_system_calls",
                                "sbolattice.build_system_s"),
    "sbolattice.solve_dimension": ("sbolattice.sectors_solved", None),
    "kernelcalc.make_family": (None, "kernelcalc.make_family_s"),
    "kernelcalc._normalize": (None, "kernelcalc.normalize_s"),
    "kernelcalc.mult_zeta": (None, "kernelcalc.mult_zeta_s"),
    "kernelcalc.mult_xn": (None, "kernelcalc.mult_xn_s"),
    "kernelcalc.KernelExpr.__sub__": (None, "kernelcalc.compare_s"),
    "kernelcalc.KernelExpr.__eq__": (None, "kernelcalc.compare_s"),
    "monogenics.monogenic_basis": (None, "monogenics.monogenic_basis_s"),
    "monogenics.branch_embed": ("monogenics.branch_embed_calls",
                                "monogenics.branch_embed_s"),
    "monogenics.mult_coordinate_split": (None, "monogenics.coordinate_split_s"),
    "monogenics._bruteforce_block": (None, "monogenics.bruteforce_s"),
    "cliffspin.zeta_gen_apply": ("cliffspin.zeta_gen_apply_calls",
                                 "cliffspin.zeta_gen_apply_s"),
    "cliffspin.Spinor.scale": ("cliffspin.spinor_scale_calls", None),
    "cli.main": ("cli.main_calls", None),
}
for _op in GAUSS_OPS:
    METRICS["paramfield.GaussianRational." + _op] = ("paramfield.gauss_ops", None)


def _entry_bits(v):
    return max(v.re.numerator.bit_length(), v.re.denominator.bit_length(),
               v.im.numerator.bit_length(), v.im.denominator.bit_length())


class Tracer:
    """Frame stack, per-layer self times, counters and boundary spans."""

    def __init__(self):
        self.clock = time.perf_counter
        # frame: [wrapped-children seconds, qualified name, first child
        # seconds, span index]; the root frame collects untraced time
        self.stack = [[0.0, "", None, -1]]
        self.self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
        self.counts = {}
        self.timers = {}
        self.active = {}
        self.names = []
        self.name_idx = {}
        self.spans = []
        self.dropped_spans = 0
        self.hook_s = 0.0
        self.max_entry_bits = 0

    def count(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def _span_start(self, qual, start):
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return -1
        idx = self.name_idx.get(qual)
        if idx is None:
            idx = self.name_idx[qual] = len(self.names)
            self.names.append(qual)
        self.spans.append([idx, start, 0.0, self.stack[-1][3]])
        return len(self.spans) - 1

    def wrap(self, fn, layer, qual, keep_span):
        """Timing wrapper for one callable of one layer."""
        counter, timer = METRICS.get(qual, (None, None))
        hook = _HOOKS.get(qual)
        stack, self_s, clock, tracer = self.stack, self.self_s, self.clock, self
        counts, active, timers = self.counts, self.active, self.timers

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            parent = stack[-1]
            t0 = clock()
            frame = [0.0, qual, None,
                     tracer._span_start(qual, t0) if keep_span else -1]
            stack.append(frame)
            if timer is not None:
                active[timer] = active.get(timer, 0) + 1
            try:
                res = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[0]
                parent[0] += dur
                if parent[2] is None:
                    parent[2] = dur
                if frame[3] >= 0:
                    tracer.spans[frame[3]][2] = t1
                if counter is not None:
                    counts[counter] = counts.get(counter, 0) + 1
                if timer is not None:
                    depth = active[timer] - 1
                    active[timer] = depth
                    if depth == 0:
                        timers[timer] = timers.get(timer, 0.0) + dur
            if hook is not None:
                hook(tracer, args, kw, res, dur, frame)
                spent = clock() - t1
                tracer.hook_s += spent
                parent[0] += spent
            return res
        return wrapper

    def root(self, name):
        """Context manager for one benchmark check: the traced unit of work."""
        return _Root(self, name)

    def report(self):
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "timers": dict(self.timers),
                "checks_s": self.timers.get("bench.checks_s", 0.0),
                "hook_s": self.hook_s, "max_entry_bits": self.max_entry_bits,
                "spans": len(self.spans), "dropped_spans": self.dropped_spans}

    def span_dump(self):
        return {"names": self.names, "columns": ["name", "start", "end", "parent"],
                "spans": self.spans, "dropped": self.dropped_spans}


class _Root:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.t0 = tr.clock()
        self.frame = [0.0, "bench." + self.name, None,
                      tr._span_start("bench." + self.name, self.t0)]
        tr.stack.append(self.frame)

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = tr.clock()
        tr.stack.pop()
        dur = t1 - self.t0
        tr.self_s["bench"] += dur - self.frame[0]
        tr.timers["bench.checks_s"] = tr.timers.get("bench.checks_s", 0.0) + dur
        if self.frame[3] >= 0:
            tr.spans[self.frame[3]][2] = t1
        return False


# -- hooks: counters read from arguments and results, outside the timing ----

def _eliminate_hook(tr, args, kw, res, dur, frame):
    rows, ncols = args[0], args[1]
    pivots, prows = res
    tr.count("linalg.matrix_rows", len(rows))
    tr.count("linalg.matrix_cols", ncols)
    tr.count("linalg.pivots", len(pivots))
    tr.count("linalg.fill_entries", sum(len(r) for r in prows))
    bits = max((_entry_bits(v) for r in prows for v in r.values()), default=0)
    tr.max_entry_bits = max(tr.max_entry_bits, bits)


def _build_system_hook(tr, args, kw, res, dur, frame):
    tr.count("sbolattice.constraint_rows", len(res.constraints))


def _solve_dimension_hook(tr, args, kw, res, dur, frame):
    # children are _solve(depth d), build_system(d + 1), _solve(d + 1)
    first = frame[2] or 0.0
    tr.timers["sbolattice.restabilize_s"] = (
        tr.timers.get("sbolattice.restabilize_s", 0.0) + dur - first)


def _kernel_init_hook(tr, args, kw, res, dur, frame):
    # res is None for __init__; the constructed object is args[0]
    terms = args[0].terms
    tr.count("kernelcalc.kernel_terms", len(terms))
    tr.count("kernelcalc.coeff_entries",
             sum(len(v) if isinstance(v, dict) else 1 for v in terms.values()))


def _cli_main_hook(tr, args, kw, res, dur, frame):
    argv = list(args[0] if args else kw.get("argv") or [])
    if argv and argv[0] == "multiplicity":
        sector = argv[argv.index("--sector") + 1] if "--sector" in argv else "both"
        tr.count("cli.sectors_requested", 2 if sector == "both" else 1)


_HOOKS = {"linalg.eliminate": _eliminate_hook,
          "sbolattice.build_system": _build_system_hook,
          "sbolattice.solve_dimension": _solve_dimension_hook,
          "kernelcalc.KernelExpr.__init__": _kernel_init_hook,
          "cli.main": _cli_main_hook}


def _is_wrappable_function(obj, modname):
    if inspect.isfunction(obj):
        return obj.__module__ == modname and not inspect.isgeneratorfunction(obj)
    # functools.lru_cache objects
    return hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == modname


def install():
    """Wrap every layer of the imported sbolab package; returns the Tracer."""
    tracer = Tracer()
    mods = {layer: sys.modules["sbolab." + layer] for layer in LAYERS}
    replaced = {}
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") and name not in EXTRA.get(layer, ()):
                continue
            qual = "%s.%s" % (layer, name)
            if _is_wrappable_function(obj, mod.__name__):
                w = tracer.wrap(obj, layer, qual, qual not in HOT)
                replaced[id(obj)] = w
                setattr(mod, name, w)
            elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                  and not issubclass(obj, BaseException)):
                _wrap_class(tracer, obj, layer, qual)
    # rebind names that other sbolab modules imported with `from ... import`
    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            w = replaced.get(id(obj))
            if w is not None and obj is not w:
                setattr(mod, name, w)
    return tracer


def _wrap_class(tracer, cls, layer, qual_cls):
    for name, attr in list(vars(cls).items()):
        if name.startswith("__"):
            if name not in DUNDERS:
                continue
            if name == "__init__" and qual_cls not in INIT_WRAPPED:
                continue
        elif name.startswith("_") or name in SKIP:
            continue
        qual = "%s.%s" % (qual_cls, name)
        if isinstance(attr, staticmethod):
            setattr(cls, name, staticmethod(
                tracer.wrap(attr.__func__, layer, qual, False)))
        elif inspect.isfunction(attr):
            setattr(cls, name, tracer.wrap(attr, layer, qual, False))
