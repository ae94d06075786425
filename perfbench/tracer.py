"""Outside-in span tracer for one ``gssf`` command.

    python3 perfbench/tracer.py SPANS.json -- cluster --data ... --ckpt ...

Wraps the public functions named in ``TARGETS`` from outside, runs
``gssf.cli.main`` with the remaining arguments and writes the aggregated
spans to ``SPANS.json`` once, when the command has returned. Targets are
looked up by module attribute at run time: one that no longer exists is
listed under ``missing`` instead of failing the run. A wrapped function is
replaced in every ``gssf`` module that holds it, so ``from x import f``
call sites see the wrapper too.

Each span records its thread. A span on the thread that runs the command
lasts its wall time. A span on any other thread (the program's scoring
pool) lasts the CPU time of its thread: pool threads share the cores, and
the wall times of concurrent spans would count the same second once per
thread. ``self_s`` subtracts only child spans of the same thread, so work
fanned out to a thread pool is not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict


def _points(args, kwargs, result):
    return {"points": sum(len(s) for s in result.strokes)}


def _steps(args, kwargs, result):
    return {"steps": len(args[1])}


def _decode(args, kwargs, result):
    return {"tokens": len(result.tokens), "truncated": int(bool(result.truncated))}


def _cross(args, kwargs, result):
    seqs = args[2]
    return {"sequences": len(seqs), "distinct": len({tuple(s) for s in seqs})}


def _answers(args, kwargs, result):
    decodes = [tuple(a.decode.tokens) for a in result]
    return {"answers": len(decodes), "distinct_decodes": len(set(decodes)),
            "truncated": sum(int(bool(a.decode.truncated)) for a in result)}


def _pairs(args, kwargs, result):
    return {"pairs": int((result == result).sum()) - sum(1 for a in args[0] if a.scorable)}


#: (span name, module, attribute path, counters taken from (args, kwargs, result)).
TARGETS = [
    ("cli.main", "gssf.cli", "main", None),
    ("ink.preprocess", "gssf.ink", "resample_and_normalize", _points),
    ("seq2seq.encode", "gssf.seq2seq", "encode", _steps),
    ("seq2seq.greedy_decode", "gssf.seq2seq", "greedy_decode", _decode),
    ("seq2seq.cross_logprob_sums", "gssf.seq2seq", "cross_logprob_sums", _cross),
    ("seq2seq.loss_and_gradients", "gssf.seq2seq", "loss_and_gradients", None),
    ("seq2seq.backward", "gssf.seq2seq.autodiff", "Tensor.backward", None),
    ("seq2seq.teacher_forced_accuracy", "gssf.seq2seq", "teacher_forced_accuracy", None),
    ("similarity.score_answers", "gssf.similarity", "score_answers", _answers),
    ("similarity.score_answer", "gssf.similarity", "score_answer", None),
    ("similarity.cross_score_matrix", "gssf.similarity", "cross_score_matrix", _pairs),
    ("sbr.build", "gssf.sbr", "build_sbr_matrix", None),
    ("sbr.normalize", "gssf.sbr", "normalize_unit_interval", None),
    ("sbr.export", "gssf.sbr", "save_csv", None),
    ("sbr.export", "gssf.sbr", "save_pgm", None),
    ("cluster.kmeans", "gssf.cluster", "kmeans", None),
    ("cluster.linkage", "gssf.cluster", "complete_linkage", None),
    ("cluster.distance", "gssf.cluster", "euclidean_distance_matrix", None),
    ("cluster.distance", "gssf.cluster", "gssf_distance_matrix", None),
    ("metrics.evaluate", "gssf.metrics", "evaluate", None),
    ("synthgen.generate", "gssf.synthgen", "generate_answer_set", None),
]


class Tracer:
    """Spans kept in memory: (name, thread id, seconds, child seconds, counters)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._main = threading.get_ident()

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            frame = [0.0]
            stack.append(frame)
            tid = threading.get_ident()
            clock = time.perf_counter if tid == self._main else time.thread_time
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
            counters = None
            if counter is not None:
                try:
                    counters = counter(args, kwargs, result)
                except Exception:  # a changed signature loses its counters, not the run
                    counters = {"counter_errors": 1}
            self.spans.append((name, tid, seconds, frame[0], counters))
            return result
        return wrapper

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every resolvable target; return the ones that could not be found."""
        importlib.import_module("gssf.cli")
        missing = []
        for name, module_name, path, counter in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, leaf = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(name, original, counter)
            if isinstance(owner, type):
                setattr(owner, leaf, wrapper)
                continue
            modules = [m for key, m in list(sys.modules.items())
                       if m is not None and (key == "gssf" or key.startswith("gssf."))]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        return missing

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds a wrapped call costs beyond the bare call."""
        def noop(x):
            return x
        wrapped = self.wrap("trace.calibration", noop, lambda a, k, r: {})
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        cost = (time.perf_counter() - t0 - bare) / calls
        del self.spans[-calls:]
        return max(cost, 0.0)

    def aggregate(self, missing: list[str], span_cost: float) -> dict:
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for name, _tid, seconds, child, counters in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += seconds
            entry["self_s"] += seconds - child
            for key, value in (counters or {}).items():
                entry[key] += value
        return {"spans": out, "missing": missing, "span_count": len(self.spans),
                "span_cost_s": span_cost}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- GSSF_ARGS...", file=sys.stderr)
        return 2
    out_path, command = argv[0], argv[2:]
    tracer = Tracer()
    span_cost = tracer.span_cost()
    missing = tracer.install()
    cli = importlib.import_module("gssf.cli")
    try:
        code = cli.main(command)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.aggregate(missing, span_cost), fh, sort_keys=True, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
