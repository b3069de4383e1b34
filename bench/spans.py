"""Span tracing at the layer boundaries of qmeasure, from outside the package.

Each traced public function is replaced by a wrapper at every module
binding that refers to it (the defining module, every module that did
`from .x import f`, and the package namespace), so calls between layers
are caught; methods and constructors are wrapped on their class. The
wrappers record a span (name, start, end, parent, op id) only while an
op is active; uninstall() puts every original back.

Self time of a span is its duration minus the durations of its direct
children. Spans nest strictly because the workload has one thread.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# layer -> traced names; "Class" wraps the constructor, "Class.method" the
# method. Metric names are <layer>.<name>, with the class dropped from
# methods (MeasuringProcess.evolved_meter -> instruments.evolved_meter).
TRACED = {
    "operators": ("as_operator", "spectral_decompose", "std_dev", "robertson_bound",
                  "partial_trace", "DensityOperator", "HermitianObservable"),
    "sampling": ("haar_unitary", "random_hermitian", "random_measuring_process"),
    "instruments": ("MeasuringProcess", "MeasuringProcess.evolved_meter",
                    "MeasuringProcess.evolved_system", "MeasuringProcess.composite_state",
                    "MeasuringProcess.embedded_system", "instrument_from_process",
                    "kraus_from_choi", "dilate", "CPInstrument", "born_distribution"),
    "edr": ("edr_ledger", "rms_error", "rms_disturbance", "mean_noise_operator",
            "mean_disturbance_operator", "noise_moment_operator", "disturbance_moment_operator",
            "cyclic_subspace", "locally_uniform_rms_error", "locally_uniform_rms_disturbance"),
    "jpd": ("theorem2_check", "is_precise", "commute_in_state", "joint_distribution",
            "weak_joint_distribution"),
    "gaussian": ("GaussianState", "build_model", "min_uncertainty_packet", "model_edr",
                 "output_distribution"),
    "sweep": ("run_sweep",),
    "serialize": ("matrix_from_json", "process_from_dict", "instrument_from_dict",
                  "gaussian_state_from_dict", "edr_report_to_dict", "precision_report_to_dict",
                  "model_edr_to_dict"),
    "cli": ("main", "run_scenario"),
}
LAYERS = tuple(TRACED)
DISTINCT = "operators.spectral_decompose"  # inputs hashed to count repeated work


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, entries in TRACED.items():
        for entry in entries:
            fn = f"{layer}.{entry.split('.')[-1]}"
            units[f"{fn}.calls"] = "count"
            units[f"{fn}.self_ms"] = "ms"
    units.update({f"{layer}.share": "ratio" for layer in LAYERS})
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units.update({f"{DISTINCT}.distinct_ratio": "ratio", "work.n_mean": "dim",
                  "bench.share": "ratio", "trace.overhead_ratio": "ratio"})
    return units


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self.active = False
        self.op = -1
        self.stack = []
        self.span_name, self.span_t0, self.span_t1, self.span_parent, self.span_op = [], [], [], [], []
        self.errors = dict.fromkeys(LAYERS, 0)
        self.keys = set()  # (op, input hash) of DISTINCT calls
        self._restore = []

    # -- installation

    def install(self, package):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
        for layer, entries in TRACED.items():
            home = sys.modules[f"{package.__name__}.{layer}"]
            for entry in entries:
                fid = len(self.names)
                self.names.append(f"{layer}.{entry.split('.')[-1]}")
                self.layer_of.append(layer)
                if "." in entry:
                    cls_name, attr = entry.split(".")
                    self._patch_attr(getattr(home, cls_name), attr, fid)
                elif isinstance(getattr(home, entry), type):
                    self._patch_attr(getattr(home, entry), "__init__", fid)
                else:
                    original = getattr(home, entry)
                    wrapper = self._wrap(original, fid)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                self._restore.append((mod, attr, original))

    def _patch_attr(self, owner, attr, fid):
        original = owner.__dict__[attr]
        setattr(owner, attr, self._wrap(original, fid))
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, fid):
        tracer = self
        hashed = self.names[fid] == DISTINCT
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            if hashed:
                matrix = getattr(args[0], "matrix", args[0])
                tracer.keys.add((tracer.op, hash(np.asarray(matrix).tobytes())))
            sid = len(tracer.span_name)
            tracer.span_name.append(fid)
            tracer.span_parent.append(parent)
            tracer.span_op.append(tracer.op)
            tracer.span_t1.append(0.0)
            stack.append(sid)
            t0 = clock()
            tracer.span_t0.append(t0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent < 0 or tracer.layer_of[tracer.span_name[parent]] != tracer.layer_of[fid]:
                    tracer.errors[tracer.layer_of[fid]] += 1
                raise
            finally:
                tracer.span_t1[sid] = clock()
                stack.pop()

        return wrapper

    # -- ops

    def begin(self, op: int):
        self.op = op
        self.active = True

    def end(self):
        self.active = False

    # -- results

    def summary(self, trials: int, op_seconds: float) -> dict:
        """Per-trial calls and self ms of every traced function, each
        layer's share of the op wall time, and the bench's own share."""
        n = len(self.span_name)
        t0 = np.array(self.span_t0)
        dur = np.array(self.span_t1) - t0
        parent = np.array(self.span_parent, dtype=np.int64)
        fid = np.array(self.span_name, dtype=np.int64)
        child = np.zeros(n)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        self_s = dur - child
        calls = np.bincount(fid, minlength=len(self.names))
        self_by_fn = np.bincount(fid, weights=self_s, minlength=len(self.names))
        out = {}
        per = max(trials, 1)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / per
            out[f"{name}.self_ms"] = 1e3 * self_by_fn[i] / per
        for layer in LAYERS:
            busy = sum(self_by_fn[i] for i, lay in enumerate(self.layer_of) if lay == layer)
            out[f"{layer}.share"] = busy / op_seconds
            out[f"{layer}.errors"] = self.errors[layer] / per
        d_calls = calls[self.names.index(DISTINCT)]
        out[f"{DISTINCT}.distinct_ratio"] = len(self.keys) / d_calls if d_calls else 0.0
        out["bench.share"] = 1.0 - float(dur[~inner].sum()) / op_seconds
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            base = self.span_t0[0] if self.span_t0 else 0.0
            for f, a, b, p, o in zip(self.span_name, self.span_t0, self.span_t1,
                                     self.span_parent, self.span_op):
                fh.write(f"{self.names[f]},{a - base:.9f},{b - base:.9f},{p},{o}\n")
