"""Layer spans of one `invlinopt run`, recorded from outside the program.

The tracer wraps the public entry point of each module under every name an
invlinopt module binds it to (runner, generate and cli import some names
directly), then calls the unchanged CLI.  Each call records a span: layer,
start, end and the span it ran inside.  A layer's self time is its spans'
durations minus their child spans, so the self times of all layers add up
to the traced time.  Counts are taken at the same boundaries; those that
need a walk over the data are taken after the run, outside every span.

`core` is not wrapped: `as_vector` alone makes about 110k calls per run,
too fine to time from outside; its cost shows in its callers' self time.

As a script it runs one traced CLI invocation and writes the summary:

    PYTHONPATH=src python3 perfbench/tracer.py SUMMARY.json run <run flags>
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (layer, defining module, attribute); "Class.method" patches the class.
TARGETS = (
    ("generate", "invlinopt.harness.generate", "generate_instance_stream"),
    ("generate", "invlinopt.harness.generate", "make_observation_sampler"),
    ("oracle", "invlinopt.oracle", "argmax"),
    ("learner", "invlinopt.learner", "observe"),
    ("ledger", "invlinopt.analysis", "RegretLedger.append"),
    ("verify", "invlinopt.analysis", "verify_run"),
    ("certify", "invlinopt.analysis", "certify_gap"),
    ("eval", "invlinopt.analysis", "offline_evaluate"),
    ("io", "invlinopt.harness.runner", "trace_rows"),
    ("io", "invlinopt.harness.io", "write_trace"),
    ("io", "invlinopt.harness.io", "write_summary"),
    ("io", "invlinopt.harness.io", "write_vector"),
    ("io", "invlinopt.harness.io", "write_stream"),
    ("runner", "invlinopt.harness.runner", "run_experiment"),
)


class Tracer:
    """Patches the targets on enter, restores them on exit, keeps spans in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._deferred: list = []

    @contextmanager
    def span(self, layer: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (layer, start, end, parent)

    def _wrap(self, layer: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            return result if after is None else after(result, args, kwargs)

        return traced

    # what each target counts, and how a sampler factory's product is traced

    def _after_stream(self, bundle, args, kwargs):
        def count():
            sets = [obs.feasible_set for obs in bundle.observations]
            self.counts["generate.rounds"] += len(sets)
            self.counts["generate.repeats"] += sum(
                b is a for a, b in zip(sets, sets[1:])
            )
        self._deferred.append(count)
        return bundle

    def _after_sampler_factory(self, sampler, args, kwargs):
        return self._wrap("generate", sampler)

    def _after_argmax(self, result, args, kwargs):
        self.counts["oracle.ties"] += result.tie_count > 1
        return result

    def _after_observe(self, result, args, kwargs):
        self.counts["learner.zero_grad"] += result[1].grad_norm == 0.0
        return result

    def _after_certify(self, certificate, args, kwargs):
        observations = args[0]

        def count():
            # certify_gap has enumerated these sets under its own cap, so
            # members() returns the cached enumeration
            self.counts["certify.members"] += sum(
                obs.feasible_set.members(sys.maxsize).shape[0]
                for obs in observations
            )
        self._deferred.append(count)
        return certificate

    def _after_evaluate(self, evaluation, args, kwargs):
        self.counts["eval.samples"] += evaluation.samples
        return evaluation

    def _after_write(self, result, args, kwargs):
        path = args[0]
        self._deferred.append(
            lambda: self.counts.update({"io.bytes": os.path.getsize(path)})
        )
        return result

    def __enter__(self) -> "Tracer":
        importlib.import_module("invlinopt.harness.cli")
        modules = [
            module for name, module in sorted(sys.modules.items())
            if name == "invlinopt" or name.startswith("invlinopt.")
        ]
        afters = {
            "generate_instance_stream": self._after_stream,
            "make_observation_sampler": self._after_sampler_factory,
            "argmax": self._after_argmax,
            "observe": self._after_observe,
            "certify_gap": self._after_certify,
            "offline_evaluate": self._after_evaluate,
            "write_trace": self._after_write,
            "write_summary": self._after_write,
            "write_vector": self._after_write,
            "write_stream": self._after_write,
        }
        for layer, module_name, attribute in TARGETS:
            owner = importlib.import_module(module_name)
            class_name, _, name = attribute.rpartition(".")
            if class_name:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, name, None)
            if original is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            traced = self._wrap(layer, original, afters.get(name))
            owners = [owner] if class_name else modules
            for site in owners:
                for bound, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, bound, traced)
                        self.patched.append((site, bound, original))
        return self

    def __exit__(self, *exc) -> None:
        for site, bound, original in reversed(self.patched):
            setattr(site, bound, original)

    def summary(self) -> dict:
        """Per-layer self and total seconds, calls, counts and a nesting verdict."""
        for count in self._deferred:
            count()
        self._deferred.clear()
        spans = self.spans
        child = [0.0] * len(spans)
        nesting_ok = True
        for layer, start, end, parent in spans:
            if end < start:
                nesting_ok = False
            if parent >= 0:
                _, p_start, p_end, _ = spans[parent]
                nesting_ok &= p_start <= start and end <= p_end
                child[parent] += end - start
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        min_self = float("inf")
        for (layer, start, end, parent), inner in zip(spans, child):
            own = end - start - inner
            min_self = min(min_self, own)
            self_s[layer] += own
            total_s[layer] += end - start
            calls[layer] += 1
        return {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "min_self_s": min_self,
            "nesting_ok": nesting_ok,
            "missing": self.missing,
        }


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("import"):
        from invlinopt.harness import cli
    with tracer, tracer.span("cli"):
        code = cli.main(cli_args)
    Path(summary_path).write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
