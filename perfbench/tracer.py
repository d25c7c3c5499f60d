"""Spans around khinsphere's public functions, and the per-layer numbers derived from them.

``Tracer.install`` replaces every module-level binding of each wrapped function
object in every loaded ``khinsphere`` module, so that calls made through an
alias (``verify.H``, ``sample.product_moment``, ``cli.hyp2f1``, the package
namespace) and recursive calls (``exp_power_tail`` calls itself for omega < 0)
all pass through the wrapper.  Private kernels (``_jj_vec``, ``_abs_sums``,
``_panel_quad``) are not wrapped; their time is their caller's self time.

Spans are kept in memory as parallel arrays (name, start, end, parent, op,
tag, failed) and written out once the run ends.
"""
from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

# (module, function) pairs wrapped in the traced run, grouped by layer
LAYERS = {
    "L0": [("specfun", "gamma"), ("specfun", "hyp2f1")],
    "L1": [("constants", "c_two"), ("constants", "c_inf"),
           ("oscillatory", "series_mul"), ("oscillatory", "exp_power_tail"),
           ("oscillatory", "tail_abs_pow"), ("oscillatory", "tail_product"),
           ("quad", "F"), ("quad", "G"), ("quad", "U"), ("quad", "H"), ("quad", "H_tilde"),
           ("quad", "product_moment")],
    "L2": [("verify", name) for name in (
        "verify_H_regions", "verify_H_tilde_region", "verify_U_less_G", "verify_ind_base",
        "verify_small_lemmas", "verify_bisubharmonic", "verify_table2", "verify_table3",
        "verify_interpolation_tilde", "h_sign_chart")]
          + [("phase", "q_star"), ("phase", "verify_appendix_claims"), ("phase", "asymptotic_check"),
             ("sample", "polydisc_slice_volume"), ("sample", "check_khinchin"),
             ("sample", "estimate_moment")],
}
WRAPPED = [pair for pairs in LAYERS.values() for pair in pairs]

# span tags for product_moment, from the query's inputs
TAG_N8PLUS, TAG_SMALL_WEIGHT = 1, 2


def product_moment_tag(args, kwargs) -> int:
    query = args[0] if args else kwargs["query"]
    amps = [abs(a) for a in query.coeffs if a != 0.0]
    tag = TAG_N8PLUS if len(amps) >= 8 else 0
    if min(amps) < 0.1 * max(amps):
        tag |= TAG_SMALL_WEIGHT
    return tag


TAGGERS = {"quad.product_moment": product_moment_tag}


class Tracer:
    """Records one span per call of each wrapped function while installed."""

    package = "khinsphere"

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.failed = array("b")
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def _modules(self):
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == self.package or key.startswith(self.package + "."))]

    def install(self) -> None:
        """Wrap each function and rebind every module-level alias of it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        by_id = {}
        for mod_name, fn_name in WRAPPED:
            fn = getattr(sys.modules[f"{self.package}.{mod_name}"], fn_name)
            label = f"{mod_name}.{fn_name}"
            self.name_ids.setdefault(label, len(self.names))
            if label not in self.names:
                self.names.append(label)
            by_id[id(fn)] = (fn, self._wrap(fn, self.name_ids[label], TAGGERS.get(label)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name_id: int, tagger):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.tag.append(tagger(args, kwargs) if tagger is not None else 0)
            self.failed.append(0)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            ok = False
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                if not ok:
                    self.failed[idx] = 1

        return traced

    # -- results --------------------------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as plain lists (times in ns)."""
        return {"names": list(self.names), "name": list(self.name), "start": list(self.start),
                "end": list(self.end), "parent": list(self.parent), "op": list(self.op),
                "tag": list(self.tag), "failed": list(self.failed)}


def span_stats(spans: dict) -> dict[str, dict[str, float]]:
    """Per function: calls, busy seconds (s), self seconds (self_s), failed, tagged busy time.

    Busy time counts only spans with no ancestor of the same function, so a
    recursive call is not counted twice; self time is each span's duration
    minus the durations of its direct children, summed over all spans.
    """
    name, start, end, parent = spans["name"], spans["start"], spans["end"], spans["parent"]
    tag, failed = spans["tag"], spans["failed"]
    n = len(name)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    out = {label: {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0, "tagged_s": {}}
           for label in spans["names"]}
    for i in range(n):
        st = out[spans["names"][name[i]]]
        st["calls"] += 1
        st["self_s"] += (dur[i] - child[i]) * 1e-9
        st["failed"] += failed[i]
        j = parent[i]
        while j >= 0 and name[j] != name[i]:
            j = parent[j]
        if j < 0:  # outermost span of this function
            st["s"] += dur[i] * 1e-9
            for bit in (TAG_N8PLUS, TAG_SMALL_WEIGHT):
                if tag[i] & bit:
                    st["tagged_s"][bit] = st["tagged_s"].get(bit, 0.0) + dur[i] * 1e-9
    return out
