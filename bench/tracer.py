"""Span recording for the traced run, from outside the package.

`Tracer.install` rebinds each traced qsanov function to a wrapper in every
qsanov module namespace that holds it, which covers names bound by
`from .x import f`, and rebinds numpy.linalg.eigh/eigvalsh. Internal calls
resolve through those module globals, so they are recorded too. Spans
(name, start, end, parent, run id) stay in memory until `write`.

A layer's self time is its spans' duration minus the part covered by
their child spans. Coverage is the share of the traced wall time inside
top-level spans; a name that still points at an unwrapped function after
install is listed as an escape.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

TRACED = {
    "hypotest": ("run_sanov", "lambda_set", "build_test", "type_one", "type_two",
                 "neyman_pearson"),
    "schur_weyl": ("frequency_blocks", "class_sum_on_words", "block_projector",
                   "block_weight", "tensor_power", "isotypical_projector"),
    "avqs": ("avqs_test", "word_type_one", "min_relative_entropy_hull", "delta_net",
             "smoothed_test", "robustification_check"),
    "nogo": ("random_invariant_operator", "unitary_twirl_invariant", "verify_nogo_instance"),
    "quantum": ("qrel_entropy", "pinch", "spectrum"),
    "tableaux": ("kostka", "enumerate_frames", "enumerate_frequencies"),
    "cli": ("main",),
    "linalg": ("eigh", "eigvalsh"),
}

DERIVED = (
    "linalg.eigh.dim3_sum",
    "schur_weyl.frequency_blocks.hit_ratio",
    "schur_weyl.class_sum_on_words.words_sum",
    "schur_weyl.tensor_power.bytes_computed",
    "trace.coverage",
    "trace.overhead_s",
)


def metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = [f"{layer}.{fn}.{kind}" for layer, fns in TRACED.items()
             for fn in fns for kind in ("calls", "self_s")]
    return names + list(DERIVED)


def _freq_key(f) -> tuple[int, ...]:
    return tuple(int(x) for x in getattr(f, "counts", f))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.stack: list[int] = []
        self.run_id = ""
        self.dim3 = 0
        self.words = 0
        self.tensor_bytes = 0
        self.freqs: set[tuple[int, ...]] = set()
        self._undo: list[tuple[object, str, object]] = []
        self.escapes: list[str] = []

    def mark(self, run_id: str) -> None:
        self.run_id = run_id

    # counters computed from argument and result sizes
    def _count_eigh(self, args, result):
        a = np.asarray(args[0])
        batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
        self.dim3 += batch * a.shape[-1] ** 3

    def _count_freq(self, args, result):
        self.freqs.add(_freq_key(args[0]))

    def _count_words(self, args, result):
        self.words += np.asarray(args[0]).shape[0]

    def _count_bytes(self, args, result):
        self.tensor_bytes += result.nbytes

    def _wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def install(self) -> None:
        counters = {
            "linalg.eigh": self._count_eigh,
            "schur_weyl.frequency_blocks": self._count_freq,
            "schur_weyl.class_sum_on_words": self._count_words,
            "schur_weyl.tensor_power": self._count_bytes,
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qsanov" or name.startswith("qsanov."))]
        originals: dict[int, tuple[str, object]] = {}
        for layer, fns in TRACED.items():
            home = np.linalg if layer == "linalg" else sys.modules[f"qsanov.{layer}"]
            for fn_name in fns:
                fn = getattr(home, fn_name)
                originals[id(fn)] = (f"{layer}.{fn_name}", fn)
        wrappers = {key: self._wrap(name, fn, counters.get(name))
                    for key, (name, fn) in originals.items()}
        for module in modules + [np.linalg]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is originals[id(value)][1]:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        self.escapes = self._scan_escapes(modules, originals, wrappers)

    @staticmethod
    def _scan_escapes(modules, originals, wrappers) -> list[str]:
        """Names, defaults and closure cells that still hold an unwrapped function."""
        found = []
        ours = {id(w) for w in wrappers.values()}

        def held(value):
            return id(value) in originals and value is originals[id(value)][1]

        for module in modules:
            for attr, value in vars(module).items():
                if id(value) in ours:
                    continue
                if held(value):
                    found.append(f"{module.__name__}.{attr}")
                code_owner = getattr(value, "__code__", None)
                if code_owner is None or getattr(value, "__module__", "") != module.__name__:
                    continue
                inner = list(value.__defaults__ or ()) + list((value.__kwdefaults__ or {}).values())
                inner += [c.cell_contents for c in (value.__closure__ or ())
                          if _cell_filled(c)]
                for item in inner:
                    if held(item):
                        found.append(f"{module.__name__}.{attr} -> {originals[id(item)][0]}")
        return found

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def inclusive(self) -> dict[str, float]:
        """Time inside each function's outermost spans, its callees included."""
        out: dict[str, float] = {}
        for name, start, end, parent, _ in self.spans:
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics; trace.overhead_s is left to the caller."""
        calls: dict[str, int] = {}
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        self_s: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
        out: dict[str, float] = {}
        for layer, fns in TRACED.items():
            for fn in fns:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = calls.get(key, 0)
                out[f"{key}.self_s"] = self_s.get(key, 0.0)
        fb_calls = calls.get("schur_weyl.frequency_blocks", 0)
        out["linalg.eigh.dim3_sum"] = self.dim3
        out["schur_weyl.frequency_blocks.hit_ratio"] = (
            1.0 - len(self.freqs) / fb_calls if fb_calls else 0.0
        )
        out["schur_weyl.class_sum_on_words.words_sum"] = self.words
        out["schur_weyl.tensor_power.bytes_computed"] = self.tensor_bytes
        out["trace.coverage"] = top / wall_s if wall_s > 0 else 0.0
        return out

    def write(self, path: str, meta: dict) -> None:
        payload = dict(meta, fields=["name", "start", "end", "parent", "run"],
                       escapes=self.escapes, spans=self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _cell_filled(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True
