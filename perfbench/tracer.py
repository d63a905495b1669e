"""Span tracing of the radroute layers, installed from outside the package.

`Tracer.install()` replaces every public function of each layer module and
every public method of the classes defined there with a wrapper that
records one span per call: name, start, end, the enclosing span and the
time covered by child spans. `uninstall()` puts the original objects back
and reports any attribute that is not the original afterwards. No file of
the package is changed; the wrappers only time and count, so a traced run
writes the same bytes as an untraced one.
"""

import contextlib
import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict

LAYERS = ("simworld", "dsp", "audio", "fusion", "canvas", "numeric",
          "segmentation", "evaluate", "formats", "pipeline")

# Not wrapped: the stage functions get their span from the stage runner
# under the stage's name, and concat/split stay inside the U-Net's own
# time so that `UNet.*.self_s` measures that glue.
SKIP = {
    "numeric.concat_channels", "numeric.split_channels",
    "pipeline.run_simulate", "pipeline.run_train_audio",
    "pipeline.run_eval_audio", "pipeline.run_fuse", "pipeline.run_paint",
    "pipeline.run_train_seg", "pipeline.run_propagate",
    "pipeline.run_segment", "pipeline.run_eval_seg", "pipeline.run_render",
    "pipeline.run_reproduce",
}

# Layers whose per-call time is also keyed by input shape.
SHAPED = {"numeric.Conv2d", "numeric.MaxPool2d", "numeric.Upsample2x",
          "segmentation.UNetInference"}

# stage1_train tries `augment` this many times before it falls back to an
# unaugmented crop (segmentation.stage1_train).
AUGMENT_ATTEMPTS = 10


def _shape_key(shape) -> str:
    return "x".join(str(int(d)) for d in shape)


def _conv_flops(layer, n, oh, ow) -> float:
    """2*N*oh*ow*Cin*k*k*Cout: one multiply-add per weight per output."""
    return 2.0 * n * oh * ow * layer.in_channels * layer.k ** 2 \
        * layer.out_channels


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, t0, t1, self_s)
        self.flops = defaultdict(float)  # span name -> flop count
        self.by_shape = defaultdict(list)  # (name, shape) -> durations
        self.shape_flops = defaultdict(float)  # (name, shape) -> flops
        self.raised = defaultdict(int)  # span name -> calls that raised
        self.augment_outcomes = []  # True per successful augment call
        self._stack = []  # [span id, child seconds]
        self._patched = []  # (owner, attribute, original object)
        self._in_shape = {}  # id(layer) -> shape of its last forward input

    # ------------------------------------------------------------ spans

    def _enter(self):
        parent = self._stack[-1][0] if self._stack else -1
        sid = len(self.spans) + len(self._stack)
        self._stack.append([sid, 0.0])
        return sid, parent

    def _exit(self, sid, parent, name, t0, t1):
        _, child = self._stack.pop()
        duration = t1 - t0
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((sid, parent, name, t0, t1, duration - child))
        return duration

    @contextlib.contextmanager
    def stage(self, name: str):
        """A span around one pipeline stage call."""
        sid, parent = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(sid, parent, name, t0, time.perf_counter())

    # ---------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn):
        tracer = self
        owner = name.rsplit(".", 1)[0]
        shaped = owner in SHAPED
        is_augment = name == "segmentation.augment"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(sid, parent, name, t0, time.perf_counter())
                tracer.raised[name] += 1
                if is_augment:
                    tracer.augment_outcomes.append(False)
                raise
            duration = tracer._exit(sid, parent, name, t0,
                                    time.perf_counter())
            if is_augment:
                tracer.augment_outcomes.append(True)
            if shaped:
                tracer._record_shape(name, args, result, duration)
            return result

        return traced

    def _record_shape(self, name, args, result, duration):
        layer, method = args[0], name.rsplit(".", 1)[1]
        if method == "forward":
            shape = args[1].shape
            self._in_shape[id(layer)] = shape
        elif method == "backward":
            shape = self._in_shape.get(id(layer))
        else:
            return
        if shape is None:
            return
        key = (name, _shape_key(shape))
        self.by_shape[key].append(duration)
        if name.startswith("numeric.Conv2d."):
            grad_or_out = result if method == "forward" else args[1]
            n, _, oh, ow = grad_or_out.shape
            flops = _conv_flops(layer, n, oh, ow)
            if method == "backward":
                flops *= 2.0  # weight gradient and input gradient products
            self.flops[name] += flops
            self.shape_flops[key] += flops

    def _targets(self):
        """(owner, attribute, span name, raw object) for every target."""
        for short in LAYERS:
            module = importlib.import_module(f"radroute.{short}")
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported from elsewhere: wrapped at its home
                if inspect.isfunction(obj):
                    yield module, attr, f"{short}.{attr}", obj
                elif inspect.isclass(obj) and not issubclass(obj,
                                                             BaseException):
                    for m_attr, raw in sorted(vars(obj).items()):
                        if m_attr.startswith("_"):
                            continue
                        if isinstance(raw, (classmethod, staticmethod)):
                            if not inspect.isfunction(raw.__func__):
                                continue
                        elif not inspect.isfunction(raw):
                            continue  # properties, constants, enum members
                        yield obj, m_attr, f"{short}.{attr}.{m_attr}", raw

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, raw in self._targets():
            if name in SKIP:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return len(self._patched)

    def uninstall(self) -> list:
        """Restore the originals; returns the names not restored."""
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, raw in self._patched
                if vars(owner).get(attr) is not raw]
        self._patched = []
        self._in_shape.clear()
        return left

    # ------------------------------------------------------- aggregation

    def totals(self) -> dict:
        """span name -> {"s", "self_s", "calls"}."""
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for _, _, name, t0, t1, self_s in self.spans:
            entry = out[name]
            entry["s"] += t1 - t0
            entry["self_s"] += self_s
            entry["calls"] += 1
        return dict(out)

    def augment_stats(self) -> dict:
        outcomes = self.augment_outcomes
        fallbacks = misses = 0
        for ok in outcomes:
            misses = 0 if ok else misses + 1
            if misses == AUGMENT_ATTEMPTS:
                fallbacks += 1
                misses = 0
        useful = sum(outcomes) / len(outcomes) if outcomes else 1.0
        return {"calls": len(outcomes), "useful_ratio": useful,
                "fallbacks": fallbacks}

    def shape_table(self) -> list:
        """Per (layer op, input shape): calls, ms per call, GFLOP/s."""
        rows = []
        for (name, shape), durations in sorted(self.by_shape.items()):
            total = sum(durations)
            row = {"op": name, "input_shape": shape, "calls": len(durations),
                   "ms_per_call": 1e3 * total / len(durations),
                   "median_ms": 1e3 * statistics.median(durations)}
            flops = self.shape_flops.get((name, shape))
            if flops:
                row["gflop"] = flops / 1e9
                row["gflop_per_s"] = flops / 1e9 / total if total else None
            rows.append(row)
        return rows

    def span_records(self):
        """Spans as dicts, for writing out after the run."""
        for sid, parent, name, t0, t1, self_s in self.spans:
            yield {"id": sid, "parent": parent, "name": name, "t0": t0,
                   "t1": t1, "self_s": self_s}
