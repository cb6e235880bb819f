"""Replay one CLI invocation in-process, optionally with layer spans.

    PYTHONPATH=src python bench/replay.py [--trace] [--spans FILE] -- ARGV...

Imports `gfsl.cli` (untimed), then times `cli.main(ARGV)`.  With
`--trace`, each public function named in TARGETS is replaced, in every
loaded `gfsl` module that binds it (re-imported aliases included), by a
wrapper that records a span: id, parent span, name, start, end.  Spans
stay in memory and are written to FILE when the replay ends.  A name
that no longer exists is reported under "absent" and its metrics read 0.

Prints one JSON line: {"rc", "main_s", "metrics", "absent"}.
"""

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import sys
import time

# Public names wrapped per module.  `specfun.log_gamma` is called per
# element, so it is counted but not timed.
TARGETS = {
    "specfun": ("taylor_two_factor", "log_beta_line", "legendre_conical",
                "log_gamma"),
    "spherical": ("build_k_matrices", "coeffs_plus", "coeffs_minus",
                  "intertwine_residual", "trace_spherical"),
    "discrete": ("trace_ds",),
    "global_traces": ("LaplaceSpectrum.from_csv", "global_trace"),
    "selberg": ("bolza_group", "length_spectrum", "wave_trace_pair",
                "weyl_consistency", "heat_pair", "LengthSpectrum.to_csv",
                "tanh_transform"),
    "means": ("hc_partial_sum", "hc_coefficient", "wave_residual",
              "w_symbol_defect"),
    "cli": ("main", "write_csv", "write_json"),
}
COUNT_ONLY = {"specfun.log_gamma"}
COUNTERS = ("spherical.entries", "global_traces.eigenvalues",
            "global_traces.bytes_read", "selberg.classes",
            "selberg.primitives", "cli.bytes_written")


def metric_names():
    """Every metric a traced replay reports, in a fixed order."""
    names = []
    for mod, funcs in TARGETS.items():
        for func in funcs:
            qual = f"{mod}.{func}"
            names.append(f"{qual}.calls")
            if qual not in COUNT_ONLY:
                names.append(f"{qual}.self_s")
    return names + list(COUNTERS)


def _table_entries(args, kwargs, table):
    return table.s.size


def _eigenvalues(args, kwargs, spec):
    return len(spec.entries)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


def _csv_size(args, kwargs, spec):
    return os.path.getsize(args[1])  # args[0] is the class


def _classes(args, kwargs, ls):
    return len(ls.classes)


def _primitives(args, kwargs, ls):
    return sum(mult for _, mult in ls.primitives)


# qualified name -> ((counter, fn(args, kwargs, result) -> int), ...)
_COUNT_HOOKS = {
    "spherical.coeffs_plus": (("spherical.entries", _table_entries),),
    "spherical.coeffs_minus": (("spherical.entries", _table_entries),),
    "global_traces.LaplaceSpectrum.from_csv": (
        ("global_traces.eigenvalues", _eigenvalues),
        ("global_traces.bytes_read", _csv_size)),
    "selberg.length_spectrum": (("selberg.classes", _classes),
                                ("selberg.primitives", _primitives)),
    "cli.write_csv": (("cli.bytes_written", _file_size),),
    "cli.write_json": (("cli.bytes_written", _file_size),),
}


class Tracer:
    """Spans of one replay, kept in memory.

    The CLI runs its sweeps on a single worker thread while the calling
    thread waits, so one stack gives every span its causing parent.
    """

    def __init__(self, request_id):
        self.request_id = request_id
        self.spans = []      # [id, parent, name, start, end, child_time]
        self.stack = []
        self.calls = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent = []

    def timed(self, qual, fn):
        hooks = _COUNT_HOOKS.get(qual, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = [len(self.spans), parent, qual, time.perf_counter(),
                    None, 0.0]
            self.spans.append(span)
            self.stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self.stack.pop()
                if parent is not None:
                    self.spans[parent][5] += span[4] - span[3]
            for counter, count in hooks:
                self.counters[counter] += count(args, kwargs, result)
            return result
        return wrapper

    def counted(self, qual, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[qual] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every target in every loaded gfsl module that binds it."""
        loaded = [m for name, m in sys.modules.items()
                  if name == "gfsl" or name.startswith("gfsl.")]
        for mod_name, funcs in TARGETS.items():
            try:
                module = importlib.import_module(f"gfsl.{mod_name}")
            except ModuleNotFoundError:
                module = None
            for func in funcs:
                qual = f"{mod_name}.{func}"
                self.calls[qual] = 0
                make = self.counted if qual in COUNT_ONLY else self.timed
                owner_name, _, attr = func.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name \
                    else module
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.absent.append(qual)
                elif isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(make(qual, raw.__func__)))
                elif owner_name:
                    setattr(owner, attr, make(qual, raw))
                else:
                    wrapped = make(qual, raw)
                    for mod in loaded:
                        for key, val in list(vars(mod).items()):
                            if val is raw:
                                setattr(mod, key, wrapped)

    def metrics(self):
        out = {}
        calls = dict(self.calls)
        self_s = {}
        for _, _, name, start, end, child in self.spans:
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
        for name in metric_names():
            qual, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls.get(qual, 0)
            elif kind == "self_s":
                out[name] = self_s.get(qual, 0.0)
        out.update(self.counters)
        return out

    def write(self, path):
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [{"request": self.request_id, "id": sid, "parent": parent,
                 "name": name, "start_s": start - t0, "end_s": end - t0}
                for sid, parent, name, start, end, _ in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--request", default="replay")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    from gfsl import cli
    tracer = Tracer(opts.request)
    if opts.trace:
        tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        main_s = time.perf_counter() - t0
    if opts.trace and opts.spans:
        tracer.write(opts.spans)
    print(json.dumps({"rc": rc, "main_s": main_s,
                      "metrics": tracer.metrics() if opts.trace else {},
                      "absent": tracer.absent}))


if __name__ == "__main__":
    main()
