"""Span tracing of the `aqrm` layers from outside the package.

`Tracer` wraps every public function of the layer modules, plus the banded
inertia probe `oracle._band_count_below`, and records one span per call:
function, start, end and parent span. The package binds names with
`from .x import y`, so a wrapper replaces the function under every name in
every `aqrm` module that holds it (`aqrm.spectrum.isolate_real_roots` as well
as `aqrm.roots.isolate_real_roots`); `restore()` puts every binding back.

Run as a script, this file is the traced stand-in for `python -m aqrm.cli`:

    PYTHONPATH=src python3 perfbench/tracer.py DUMP INVOCATION -- ARGV...

It runs `aqrm.cli.main(ARGV)` under the tracer, keeps the spans in memory and
writes them to DUMP at exit (in `marshal` format, which is fast enough not to
disturb the traced wall time), then exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import marshal
import statistics
import sys
import time

LAYERS = ("poly", "roots", "series", "spectrum", "oracle", "cli")
PRIVATE_WRAPPED = {"oracle": ("_band_count_below",)}


def _juddian_key(args, kwargs):
    bound = [*args[:3], *(kwargs[k] for k in ("N", "eps", "delta") if k in kwargs)]
    return "|".join(map(str, bound))


def _result_len(args, kwargs, result):
    return len(result)


# extra per-span values for the derived ratios: the (N, eps, Delta) of a
# Juddian root solve, and the records/eigenvalues a call returned
ARG_NOTES = {"spectrum.juddian_roots": _juddian_key}
RESULT_NOTES = {"spectrum.full_spectrum": _result_len,
                "oracle.lowest_eigenvalues": _result_len}


class Tracer:
    """Install wrappers with `install()`, take them out with `restore()`.
    Spans are `[fid, start, end, parent, note]` rows in `self.spans`, with
    `self.names[fid]` the `layer.function` name."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.bindings: list[tuple[object, str, object]] = []
        self._stack: list[int] = []

    def targets(self) -> list[tuple[str, object]]:
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"aqrm.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_")
                             or attr in PRIVATE_WRAPPED.get(layer, ()))):
                    out.append((f"{layer}.{attr}", obj))
        return out

    def install(self) -> None:
        if self.bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, fn in self.targets():
            self.names.append(name)
            wrappers[id(fn)] = (fn, self._wrap(len(self.names) - 1, name, fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "aqrm" or modname.startswith("aqrm.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.bindings.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def restore(self) -> None:
        for mod, attr, original in reversed(self.bindings):
            setattr(mod, attr, original)
        self.bindings.clear()

    def _wrap(self, fid: int, name: str, fn):
        spans, stack = self.spans, self._stack
        arg_note, result_note = ARG_NOTES.get(name), RESULT_NOTES.get(name)
        clock = time.perf_counter

        # keeps the name too: argparse quotes a `type=` function's name in errors
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1,
                    arg_note(args, kwargs) if arg_note else None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if result_note:
                span[4] = result_note(args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# aggregation of span dumps into the per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dumps: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; `dumps` holds one span dump per
    invocation and `wall_s` is the pass's wall time seen by the benchmark."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    notes: dict[str, list] = {}
    top_s = 0.0
    hits = misses = 0
    n_spans = 0
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        n_spans += len(spans)
        child_s = [0.0] * len(spans)
        for fid, t0, t1, parent, note in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
            else:
                top_s += t1 - t0
        for (fid, t0, t1, parent, note), inner in zip(spans, child_s):
            name = names[fid]
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - inner)
            durations.setdefault(name, []).append(t1 - t0)
            if note is not None:
                notes.setdefault(name, []).append(note)
        hits += dump["branch_jets"]["hits"]
        misses += dump["branch_jets"]["misses"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    m: dict[str, float] = {}
    for layer in LAYERS:
        mine = [n for n in calls if n.startswith(layer + ".")]
        m[f"layer.{layer}.calls"] = sum(calls[n] for n in mine)
        m[f"layer.{layer}.share"] = _ratio(sum(self_s[n] for n in mine), wall_s)
    m["layer.outside.share"] = _ratio(wall_s - top_s, wall_s)

    m["poly.constraint_poly.calls"] = c("poly.constraint_poly")
    m["poly.constraint_poly.self_s"] = s("poly.constraint_poly")
    m["poly.identity_checks.self_s"] = sum(
        s(f"poly.{n}") for n in ("generating_identity_check", "ode_coefficient_check",
                                 "verify_divisibility", "laguerre_check"))
    for fn in ("isolate_real_roots", "refine_root", "count_real_roots"):
        m[f"roots.{fn}.calls"] = c(f"roots.{fn}")
        m[f"roots.{fn}.self_s"] = s(f"roots.{fn}")
    m["roots.sturm_chain.calls"] = c("roots.sturm_chain")
    m["roots.squarefree_part.calls"] = c("roots.squarefree_part")
    for fn in ("regularized_g", "g_function", "g_laurent_jet", "t_function"):
        m[f"series.{fn}.calls"] = c(f"series.{fn}")
        m[f"series.{fn}.self_s"] = s(f"series.{fn}")
    m["series.branch_jets.hit_ratio"] = _ratio(hits, hits + misses)

    full = durations.get("spectrum.full_spectrum", [])
    m["spectrum.full_spectrum.calls"] = len(full)
    m["spectrum.full_spectrum.p50_s"] = statistics.median(full) if full else 0.0
    m["spectrum.full_spectrum.tail_s"] = max(full, default=0.0)
    m["spectrum.juddian_roots.calls"] = c("spectrum.juddian_roots")
    m["spectrum.juddian_roots.total_s"] = total_s.get("spectrum.juddian_roots", 0.0)
    keys = notes.get("spectrum.juddian_roots", [])
    m["spectrum.juddian_roots.distinct_ratio"] = _ratio(len(set(keys)), len(keys))
    m["spectrum.calg_per_eigenvalue"] = _ratio(
        c("series.regularized_g"), sum(notes.get("spectrum.full_spectrum", [])))
    m["spectrum.exceptional_records.total_s"] = total_s.get("spectrum.exceptional_records", 0.0)
    m["spectrum.regular_spectrum.total_s"] = total_s.get("spectrum.regular_spectrum", 0.0)

    m["oracle.lowest_eigenvalues.calls"] = c("oracle.lowest_eigenvalues")
    m["oracle.lowest_eigenvalues.self_s"] = s("oracle.lowest_eigenvalues")
    m["oracle.inertia_probes"] = c("oracle._band_count_below")
    m["oracle.probes_per_eigenvalue"] = _ratio(
        c("oracle._band_count_below"), sum(notes.get("oracle.lowest_eigenvalues", [])))

    # cli functions all run under main: their self time is parsing and emission
    m["cli.main.self_s"] = sum(s(n) for n in calls if n.startswith("cli."))
    m["trace.spans"] = n_spans
    return m


# ---------------------------------------------------------------------------
# traced stand-in for `python -m aqrm.cli`
# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py DUMP INVOCATION -- ARGV...", file=sys.stderr)
        return 2
    dump_path, invocation, cli_argv = argv[0], int(argv[1]), argv[3:]
    import aqrm.cli
    import aqrm.series

    tracer = Tracer()
    tracer.install()
    wrapped = list(tracer.bindings)
    try:
        rc = aqrm.cli.main(cli_argv)
    finally:
        tracer.restore()
        sys.stdout.flush()
    restored = all(getattr(mod, attr) is fn for mod, attr, fn in wrapped)
    info = aqrm.series._branch_jets.cache_info()
    with open(dump_path, "wb") as fh:
        marshal.dump({"invocation": invocation, "names": tracer.names,
                      "spans": tracer.spans, "bindings": len(wrapped),
                      "restored": restored,
                      "branch_jets": {"hits": info.hits, "misses": info.misses}}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
