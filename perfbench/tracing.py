"""In-memory span tracing of the harnack layers, installed from outside.

Each traced public function is replaced, at every module binding that
refers to it (``harnack.X`` as well as ``harnack.amoeba.X`` and the names
other modules imported), by a wrapper that records a span: name, start,
end, parent span and a few work counts read off the call's arguments and
result.  Nested calls become child spans, so a span's self time is its
duration minus the time its direct children cover.  No library file
changes; ``Tracer.uninstall`` restores the original bindings.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# span name -> (defining module, function name); the span prefix is the layer
TRACED = {
    "kasteleyn.charpoly": ("harnack.kasteleyn", "characteristic_polynomial"),
    "kasteleyn.boundary": ("harnack.kasteleyn", "boundary_points"),
    "kasteleyn.zigzag": ("harnack.kasteleyn", "verify_boundary_vs_zigzag"),
    "numerics.det": ("harnack.numerics", "det_complex"),
    "numerics.roots": ("harnack.numerics", "roots"),
    "numerics.polyroots": ("harnack.numerics", "polyroots_batch"),
    "numerics.quad": ("harnack.numerics", "integrate_periodic_kinked"),
    "amoeba.raster": ("harnack.amoeba", "rasterize_amoeba"),
    "amoeba.membership": ("harnack.amoeba", "amoeba_membership"),
    "amoeba.holes": ("harnack.amoeba", "detect_holes"),
    "amoeba.trace": ("harnack.amoeba", "trace_real_ovals"),
    "amoeba.ronkin": ("harnack.amoeba", "ronkin"),
    "amoeba.gradient": ("harnack.amoeba", "gradient_ronkin"),
    "amoeba.ma": ("harnack.amoeba", "monge_ampere_residual"),
    "amoeba.two_to_one": ("harnack.amoeba", "two_to_one_check"),
    "amoeba.volume": ("harnack.amoeba", "volume_difference"),
    "amoeba.verify": ("harnack.amoeba", "verify_harnack"),
    "divisor.vertex": ("harnack.divisor", "vertex_divisor"),
    "genus0.invert": ("harnack.genus0", "invert_boundary"),
    "genus0.isoradial_check": ("harnack.genus0", "isoradial_spectral_check"),
}


def _trace_info(args, kwargs, out):
    poly = args[0] if args else kwargs["poly"]
    return {"components": len(out), "closed": sum(1 for o in out if o.closed), "d": poly.d}


def _invert_info(args, kwargs, out):
    return {"steps": out[1]["steps"]} if isinstance(out, tuple) else None


# work counts read off one call: (args, kwargs, result) -> dict or None
PROBES = {
    "numerics.polyroots": lambda a, k, out: {"rows": int(out.shape[0])},
    "numerics.quad": lambda a, k, out: {"evals": int(out.n), "unconverged": int(not out.converged)},
    "amoeba.raster": lambda a, k, out: {"pixels": int(out.nx * out.ny)},
    "amoeba.trace": _trace_info,
    "divisor.vertex": lambda a, k, out: {"points": len(out)},
    "genus0.invert": _invert_info,
    "kasteleyn.zigzag": lambda a, k, out: {"err": float(out.max_rel_error)},
}

CLI_SUBCOMMANDS = (
    "spectral", "boundary", "amoeba", "ronkin", "ma-check", "holes",
    "verify-harnack", "genus0-fit", "isoradial", "divisor", "volume-diff",
)
# per-layer metrics, in BENCHMARK.json order: name -> unit.  The name picks
# the value (see layer_metrics): "<span>_s" is a self time, children
# excluded, "<span>_calls" a call count, "<span>_<key>" a summed work count.
PER_LAYER = {
    "kasteleyn.charpoly_calls": "count",
    "kasteleyn.charpoly_s": "s",
    "kasteleyn.boundary_s": "s",
    "kasteleyn.zigzag_s": "s",
    "kasteleyn.zigzag_max_rel_err": "1",
    "numerics.det_calls": "count",
    "numerics.det_s": "s",
    "numerics.roots_calls": "count",
    "numerics.roots_s": "s",
    "numerics.polyroots_calls": "count",
    "numerics.polyroots_rows": "count",
    "numerics.polyroots_s": "s",
    "numerics.quad_calls": "count",
    "numerics.quad_evals": "count",
    "numerics.quad_unconverged": "count",
    "numerics.quad_s": "s",
    "amoeba.raster_calls": "count",
    "amoeba.raster_pixels": "count",
    "amoeba.raster_s": "s",
    "amoeba.membership_calls": "count",
    "amoeba.membership_s": "s",
    "amoeba.slow_path_ratio": "1",
    "amoeba.holes_s": "s",
    "amoeba.trace_s": "s",
    "amoeba.trace_components": "count",
    "amoeba.trace_closed": "count",
    "amoeba.trace_useful_ratio": "1",
    "amoeba.ronkin_calls": "count",
    "amoeba.ronkin_s": "s",
    "amoeba.gradient_s": "s",
    "amoeba.ma_s": "s",
    "amoeba.two_to_one_s": "s",
    "amoeba.volume_s": "s",
    "amoeba.verify_s": "s",
    "divisor.vertex_calls": "count",
    "divisor.vertex_s": "s",
    "divisor.points": "count",
    "genus0.invert_calls": "count",
    "genus0.invert_s": "s",
    "genus0.invert_steps": "count",
    "genus0.isoradial_check_s": "s",
    "cli.import_s": "s",
    **{f"cli.{sub}_s": "s" for sub in CLI_SUBCOMMANDS},
    "bench.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span recorder; spans are [name, start, end, parent index, info]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if probe is not None:
                rec[4] = probe(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded harnack module."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "harnack" or n.startswith("harnack.")) and m is not None]
        for name, (modname, attr) in TRACED.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """One JSON line per span: id, parent, name, start, end, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, info) in enumerate(self.spans):
                fh.write(json.dumps([idx, parent, name, round(start, 7), round(end, 7), info]) + "\n")


def _under(spans: list[list], idx: int, root: int, name: str) -> bool:
    """Whether span ``idx`` or one of its ancestors below ``root`` is ``name``."""
    while idx > root:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False


def layer_metrics(spans: list[list], root: int) -> dict[str, float]:
    """Per-layer totals over the spans below ``root`` (one measured pass).

    ``<span>_s`` is the span's self time, ``<span>_calls`` its call count and
    ``<span>_<key>`` the sum of work count ``key`` over its calls; the few
    ratios and maxima are set by name below.
    """
    below = {root}
    child_time: dict[int, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sums: dict[str, float] = {}
    for idx in range(root + 1, len(spans)):
        name, start, end, parent, info = spans[idx]
        if parent not in below:
            break
        below.add(idx)
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        for key, value in (info or {}).items():
            sums[f"{name}_{key}"] = sums.get(f"{name}_{key}", 0) + value
        if name == "amoeba.membership" and _under(spans, parent, root, "amoeba.raster"):
            sums["amoeba.membership_in_raster"] = sums.get("amoeba.membership_in_raster", 0) + 1
    for idx in below - {root}:
        name, start, end = spans[idx][:3]
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(idx, 0.0)

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        span, _, what = metric.rpartition("_")
        if what == "s":
            out[metric] = self_s.get(span, 0.0)
        elif what == "calls":
            out[metric] = calls.get(span, 0)
        else:
            out[metric] = sums.get(metric, 0)
    pixels = sums.get("amoeba.raster_pixels", 0)
    comps = sums.get("amoeba.trace_components", 0)
    closed_and_arcs = sums.get("amoeba.trace_closed", 0) + 3 * sums.get("amoeba.trace_d", 0)
    out.update({
        "kasteleyn.zigzag_max_rel_err": max(
            (spans[i][4]["err"] for i in below if spans[i][0] == "kasteleyn.zigzag" and spans[i][4]),
            default=0.0),
        "amoeba.slow_path_ratio": sums.get("amoeba.membership_in_raster", 0) / pixels if pixels else 0.0,
        "amoeba.trace_useful_ratio": closed_and_arcs / comps if comps else 0.0,
        "divisor.points": sums.get("divisor.vertex_points", 0),
        # time inside the pass that no library span covers: the benchmark's
        # own checks plus library code outside the traced functions
        "bench.unattributed_s": sum(v for k, v in self_s.items() if k.startswith("item.")),
    })
    return out
