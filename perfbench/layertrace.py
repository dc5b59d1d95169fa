"""Outside-in layer trace: wraps public functions of the package's modules
from the benchmark's side, with no change to the package.

Each wrapped call made inside `cli.main` records a span (id, name, start,
end, parent). A span's self time is its duration minus the durations of the
wrapped calls made inside it. Names are imported directly between modules (`from .imageio
import load_image`), so every module that binds a wrapped function gets the
wrapper. Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path) of each wrapped function. The layer name is the
# module; the metric name is "<module>.<function>".
TARGETS = (
    ("cli", "main"),
    ("training", "train_classifier"),
    ("training", "train_captioner"),
    ("training", "evaluate_pipeline"),
    ("data", "parse_manifest"),
    ("imageio", "load_image"),
    ("imageio", "write_png"),
    ("imageio", "resize_bilinear"),
    ("checkpoint", "ModelCheckpoint.load"),
    ("checkpoint", "ModelCheckpoint.save"),
    ("encoder", "VisionEncoder.from_checkpoint"),
    ("encoder", "VisionEncoder.preprocess"),
    ("encoder", "VisionEncoder.forward"),
    ("autodiff", "backward"),
    ("autodiff", "sgd_step"),
    ("autodiff", "conv2d"),
    ("autodiff", "maxpool2d"),
    ("autodiff", "lstm_step"),
    ("autodiff", "lstm_cell_np"),
    ("autodiff", "linear"),
    ("autodiff", "softmax_cross_entropy"),
    ("textgen", "decode_beam"),
    ("textgen", "decode_greedy"),
    ("textgen", "caption_loss"),
    ("cam", "compute_cam"),
    ("cam", "upsample_bilinear"),
    ("cam", "overlay"),
    ("metrics", "score_captions"),
    ("metrics", "bleu_corpus"),
    ("report", "render_html"),
)
LAYERS = tuple(dict.fromkeys(module for module, _ in TARGETS))
ROOT = "cli.main"  # spans are recorded only inside a CLI call


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, name index, start, end, parent id or -1)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # bytes, tape records, tokens, beam LSTM steps
        self.active: Counter = Counter()  # calls of each name now on the stack
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        pkg_name = self.package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg_name or n.startswith(pkg_name + "."))]
        for module, attr in TARGETS:
            name = span_name(module, attr)
            owner = getattr(self.package, module)
            if "." in attr:  # method or classmethod on a class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:  # every module that imported the name directly
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._restore):
            setattr(obj, key, value)
        self._restore.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        before, after = _HOOKS.get(name, (None, None))
        stack, spans, calls, self_s, active = (
            self._stack, self.spans, self.calls, self.self_s, self.active)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack and name != ROOT:  # the benchmark's own checks call the package too
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
                spans.append((sid, idx, t0, t1, parent))
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def write_spans(self, path: str, workload: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,name,start,end,parent,workload\n")
            for sid, idx, t0, t1, parent in sorted(self.spans):
                f.write(f"{sid},{self.names[idx]},{t0:.9f},{t1:.9f},{parent},{workload}\n")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_beam_step(tracer: Tracer, args) -> None:
    if tracer.active["textgen.decode_beam"]:
        tracer.counts["beam_lstm_steps"] += 1


def _count_tokens(tracer: Tracer, args, result) -> None:
    if result:
        tracer.counts["beam_tokens"] += len(result[0].tokens)


# name -> (before(tracer, args), after(tracer, args, result))
_HOOKS = {
    "imageio.load_image": (lambda t, a: t.counts.update({"load_bytes": _size(a[0])}), None),
    "imageio.write_png": (None, lambda t, a, r: t.counts.update({"write_bytes": _size(a[0])})),
    "checkpoint.load": (lambda t, a: t.counts.update({"ckpt_load_bytes": _size(a[1])}), None),
    "checkpoint.save": (None, lambda t, a, r: t.counts.update({"ckpt_save_bytes": _size(a[1])})),
    "autodiff.backward": (lambda t, a: t.counts.update({"tape_records": len(a[0])}), None),
    "autodiff.lstm_cell_np": (_count_beam_step, None),
    "textgen.decode_beam": (None, _count_tokens),
}
