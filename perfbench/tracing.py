'''Span tracing of loopgas's layers, installed from outside the package.

``Tracer.install()`` wraps every public function, and every public method
(``__init__`` included) of every public class but the value type Path, of
each layer module.  A
function is wrapped in the module that defines it and also in every
loopgas module that imported it by name (``loop_mc.v_total`` is looked up
in ``loop_mc``, not in ``interactions``).  ``numpy.linalg.eigh`` is wrapped
too, so the exact oracles' eigendecompositions get spans of their own.
``uninstall()`` restores every original.

A span is (function, parent span, request, start, end), held in typed
arrays; request -1 marks set-up.  The wrappers pass arguments and results
through untouched and draw no random numbers, so traced and untraced runs
give bit-identical estimates.  A few boundaries carry a hook that reads
an argument or the result to count work (loops per total, samples, hard
core kills); hooks only read.
'''

import importlib
import inspect
import math
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "lattice", "paths", "interactions", "loop_mc", "cluster",
          "quantum_oracle", "largemass", "perturbative", "field_oracle")
EIGH = "numpy.linalg.eigh"

# Value types whose accessors run inside other layers' kernels (Path.segments
# inside the pair interaction): their time belongs to the caller's layer.
UNWRAPPED_CLASSES = ("paths.Path",)
HK_FUNCS = ("lattice.HeatKernel.table", "lattice.HeatKernel.at_origin",
            "lattice.HeatKernel.matrix", "lattice.heat_kernel")
PAIR_FUNCS = ("interactions.v_cl_pair", "interactions.v_ginibre_pair")
TOTAL_FUNCS = ("interactions.v_total", "interactions.v_total_largemass")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self, open_target=None):
        self.names, self.layer_of = [], []
        self.fn, self.parent, self.req = array("i"), array("i"), array("i")
        self.t0, self.t1 = array("d"), array("d")
        self.stack = [-1]
        self.request = -1
        self.open_target = open_target
        self.counts = {}
        self.blocks = set()
        self.z_estimates = []
        self.hk_cache_sizes = {}
        self._patches = []

    # -- recording ---------------------------------------------------------
    def _count(self, key, amount=1):
        if self.request >= 0:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _parent_name(self):
        sid = self.stack[-1]
        return self.names[self.fn[sid]] if sid >= 0 else None

    def _wrap(self, func, name):
        idx = len(self.names)
        self.names.append(name)
        self.layer_of.append(name.split(".")[0] if name != EIGH else EIGH)
        hook = _HOOKS.get(name)
        fn, parent, req, t0, t1, stack = (self.fn, self.parent, self.req,
                                          self.t0, self.t1, self.stack)
        tracer = self

        def traced(*args, **kwargs):
            sid = len(fn)
            fn.append(idx)
            parent.append(stack[-1])
            req.append(tracer.request)
            t1.append(0.0)
            stack.append(sid)
            t0.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                t1[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------
    def install(self):
        modules = {layer: importlib.import_module(f"loopgas.{layer}")
                   for layer in LAYERS}
        wrapped = {}    # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(obj, f"{layer}.{attr}")
                    wrapped[id(obj)] = wrapper
                    self._patch(mod, attr, wrapper)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and f"{layer}.{attr}" not in UNWRAPPED_CLASSES):
                    self._wrap_class(obj, f"{layer}.{attr}")
        # names imported from another layer module
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
        self._patch(np.linalg, "eigh", self._wrap(np.linalg.eigh, EIGH))

    def _wrap_class(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, (staticmethod, classmethod)):
                self._patch(cls, attr, type(obj)(self._wrap(obj.__func__,
                                                            name)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(obj, name))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------
    def metrics(self, traced_latencies, untraced_latencies):
        '''Per-layer metrics: loop-phase figures per request, set-up
        figures in seconds.  The tracing overhead is the median over
        requests of traced / untraced latency, minus 1, so a one-off cost
        of the first request (a cache filling) does not count as overhead.'''
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        loop = np.frombuffer(self.req, dtype=np.int32) >= 0
        dur = np.frombuffer(self.t1) - np.frombuffer(self.t0)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        names = np.array(self.names + ["<benchmark>"])
        layers = np.array(self.layer_of + ["<benchmark>"])
        fname = names[fn]
        flayer = layers[fn]
        # function of each span's parent; -1 (no parent) indexes "<benchmark>"
        pfn = np.where(has_parent, fn[np.maximum(parent, 0)], -1)
        player = layers[pfn]
        pname = names[pfn]
        per = max(len(traced_latencies), 1)
        counts = self.counts

        def calls(sel):
            return int(np.count_nonzero(sel & loop))

        def ratio(a, b):
            return float(a) / float(b) if b else 0.0

        m = {}
        for layer in LAYERS:
            in_layer = flayer == layer
            m[f"{layer}.self_s"] = float(self_time[in_layer & loop].sum()) / per
            m[f"{layer}.setup_s"] = float(self_time[in_layer & ~loop].sum())

        # lattice: heat-kernel work happens mostly in set-up, so its
        # counts cover set-up and loop together
        hk = np.isin(fname, HK_FUNCS)
        m["lattice.hk_calls"] = int(np.count_nonzero(hk))
        table_calls = int(np.count_nonzero(fname == "lattice.HeatKernel.table"))
        m["lattice.hk_cache_hit"] = ratio(
            table_calls - counts.get("hk_table_miss", 0), table_calls)

        # paths
        is_loop = fname == "paths.LoopIntensity.sample_loop"
        is_walk = fname == "paths.sample_free_walk"
        bridge = is_walk & (pname == "paths.LoopIntensity.sample_loop")
        loops, walks = calls(is_loop), calls(is_walk)
        m["paths.loops"] = loops / per
        m["paths.walks"] = walks / per
        m["paths.bridge_accept"] = ratio(loops, calls(bridge))
        m["paths.loops_per_s"] = ratio(loops, dur[is_loop & loop].sum())

        # interactions
        pairs = np.isin(fname, PAIR_FUNCS)
        totals = np.isin(fname, TOTAL_FUNCS)
        n_totals = calls(totals)
        m["interactions.pair_calls"] = calls(pairs) / per
        m["interactions.total_calls"] = n_totals / per
        m["interactions.loops_per_total"] = ratio(
            counts.get("loops_in_totals", 0), n_totals)
        m["interactions.totals_per_s"] = ratio(n_totals,
                                               dur[totals & loop].sum())
        m["interactions.inf_frac"] = ratio(counts.get("interaction_inf", 0),
                                           counts.get("interaction_entries", 0))

        # loop_mc
        opens = is_walk & loop & (pname != "paths.LoopIntensity.sample_loop")
        m["loop_mc.samples"] = counts.get("mc_samples", 0) / per
        m["loop_mc.open_hit_frac"] = ratio(counts.get("open_hits", 0),
                                           np.count_nonzero(opens))
        if self.z_estimates:
            z = np.array(self.z_estimates)
            pooled_se = math.sqrt(float(np.sum(z[:, 1] ** 2))) / len(z)
            m["loop_mc.denom_z"] = ratio(float(z[:, 0].mean()), pooled_se)
        else:
            m["loop_mc.denom_z"] = 0.0

        # cluster
        m["cluster.ursell_calls"] = calls(fname == "cluster.ursell") / per
        m["cluster.ess_frac"] = ratio(counts.get("ess_sum", 0.0),
                                      counts.get("ess_samples", 0))

        # quantum_oracle
        eigh_q = (fname == EIGH) & (player == "quantum_oracle") & loop
        build = (fname == "quantum_oracle.BoseBlocks.hamiltonian_block") & loop
        n_eig = int(np.count_nonzero(eigh_q))
        m["quantum_oracle.blocks"] = len(self.blocks) / per
        m["quantum_oracle.eig_calls"] = n_eig / per
        m["quantum_oracle.eig_per_block"] = ratio(n_eig, len(self.blocks))
        m["quantum_oracle.build_s"] = float(dur[build].sum()) / per
        m["quantum_oracle.eigh_s"] = float(dur[eigh_q].sum()) / per
        m["quantum_oracle.max_block_dim"] = counts.get("max_block_dim", 0)
        m["quantum_oracle.eigh_flops"] = counts.get("eigh_dim3", 0) / per

        # largemass, perturbative, field_oracle
        m["largemass.occupation_fields"] = counts.get(
            "occupation_fields", 0) / per
        m["perturbative.calls"] = calls(
            (flayer == "perturbative") & (player != "perturbative")) / per
        m["field_oracle.samples"] = counts.get("field_samples", 0) / per

        m["trace.overhead_frac"] = float(np.median(
            np.array(traced_latencies) / np.array(untraced_latencies))) - 1.0
        return m

    def save(self, path):
        '''Write the spans (with parent links) and function names.'''
        np.savez(path, names=np.array(self.names),
                 fn=np.frombuffer(self.fn, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 request=np.frombuffer(self.req, dtype=np.int32),
                 start=np.frombuffer(self.t0), end=np.frombuffer(self.t1))


# -- counting hooks: they read arguments and results, never change them --

def _hk_table(tracer, args, kwargs, result):
    # a call that grew the instance's cache computed a new table (a miss)
    hk = args[0]
    size = len(hk._cache)
    if size > tracer.hk_cache_sizes.get(id(hk), 0):
        tracer.counts["hk_table_miss"] = tracer.counts.get("hk_table_miss", 0) + 1
    tracer.hk_cache_sizes[id(hk)] = size


def _interaction_entry(tracer, args, kwargs, result):
    if tracer.request < 0:
        return
    parent = tracer._parent_name()
    if parent is None or not parent.startswith("interactions."):
        tracer._count("interaction_entries")
        if math.isinf(result):
            tracer._count("interaction_inf")


def _total(tracer, args, kwargs, result):
    tracer._count("loops_in_totals", len(args[0]))
    _interaction_entry(tracer, args, kwargs, result)


def _run_mc(tracer, args, kwargs, result):
    tracer._count("mc_samples", _arg(args, kwargs, 1, "n_samples"))


def _free_walk(tracer, args, kwargs, result):
    if (tracer.open_target is not None and tracer.request >= 0
            and tracer._parent_name() != "paths.LoopIntensity.sample_loop"
            and result.end == tracer.open_target):
        tracer._count("open_hits")


def _rel_partition(tracer, args, kwargs, result):
    if tracer.request >= 0:
        tracer.z_estimates.append((result.mean, result.std_error))


def _estimate_x(tracer, args, kwargs, result):
    n = _arg(args, kwargs, 3, "n_samples")
    tracer._count("ess_sum", sum(result["ess"]) / n)
    tracer._count("ess_samples", len(result["ess"]))


def _hamiltonian_block(tracer, args, kwargs, result):
    if tracer.request >= 0:
        blocks, n = args[0], _arg(args, kwargs, 1, "n")
        tracer.blocks.add((tracer.request, id(blocks.params), n))


def _eigh(tracer, args, kwargs, result):
    parent = tracer._parent_name()
    if tracer.request >= 0 and parent and parent.startswith("quantum_oracle."):
        dim = int(np.shape(args[0])[0])
        tracer._count("eigh_dim3", dim ** 3)
        if dim > tracer.counts.get("max_block_dim", 0):
            tracer.counts["max_block_dim"] = dim


def _occupation_sum(tracer, args, kwargs, result):
    # the size of the occupation-field grid that occupation_sum sums over
    from loopgas import largemass
    params, Q = args[0], _arg(args, kwargs, 1, "Q_fixed")
    n = params.torus.n_sites
    if params.R == 1:
        q = np.zeros(n) if Q is None else np.asarray(Q)
        fields = 0 if np.any(q > 1) else 2 ** int(np.count_nonzero(q == 0))
    else:
        fields = (largemass._site_cap(params)[0] + 1) ** n
    tracer._count("occupation_fields", fields)


def _field_sample(tracer, args, kwargs, result):
    size = _arg(args, kwargs, 2, "size")
    tracer._count("field_samples", 1 if size is None else int(size))


_HOOKS = {
    "lattice.HeatKernel.table": _hk_table,
    "interactions.v_cl_pair": _interaction_entry,
    "interactions.v_ginibre_pair": _interaction_entry,
    "interactions.v_lm": _interaction_entry,
    "interactions.v_total": _total,
    "interactions.v_total_largemass": _total,
    "loop_mc.run_mc": _run_mc,
    "loop_mc.estimate_rel_partition": _rel_partition,
    "paths.sample_free_walk": _free_walk,
    "cluster.estimate_X": _estimate_x,
    "quantum_oracle.BoseBlocks.hamiltonian_block": _hamiltonian_block,
    EIGH: _eigh,
    "largemass.occupation_sum": _occupation_sum,
    "field_oracle.GaussianField.sample": _field_sample,
}
