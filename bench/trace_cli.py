"""Run the `sheetforge` CLI once in this interpreter with spans around each layer.

    python3 bench/trace_cli.py [--memory] <spans.json> <run_id> <cli arguments ...>

Spans are recorded from outside the program: each layer's public entry point
is replaced, in the module that calls it, by a wrapper that records
(name, start, end, parent, thread, run id). The spans stay in memory and are
written to <spans.json> when the run ends, with the CLI's exit code. With
--memory, each reduction span also carries its tracemalloc peak; tracemalloc
slows every allocation, so such a run's times are not the program's own.
PYTHONPATH must point at the checkout's `src`.
"""
import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402


class Tracer:
    """In-memory span store. Spans nest per thread; a span opened on a pool
    thread with nothing open on that thread takes the innermost replicate
    loop as its parent."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.loop_id = None

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self) -> int:
        with self._lock:
            self.spans.append(None)
            return len(self.spans) - 1

    def _close(self, span_id, name, start, end, parent, **extra) -> None:
        self.spans[span_id] = {
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "thread": threading.get_ident(),
            "run_id": self.run_id, **extra,
        }

    def record(self, name: str, start: float, end: float) -> None:
        self._close(self._open(), name, start, end, None)

    def wrap(self, owner, attr: str, name: str, measure_memory: bool = False) -> None:
        """Replace owner.attr by a wrapper that records a span `name`; with
        measure_memory, the span also carries the tracemalloc peak."""
        func = getattr(owner, attr)
        tracer = self
        is_loop = name == "harness.replicates"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.loop_id
            span_id = tracer._open()
            stack.append(span_id)
            if is_loop:
                tracer.loop_id = span_id
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                extra = {}
                if measure_memory:
                    extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                if is_loop:
                    tracer.loop_id = None
                tracer._close(span_id, name, start, end, parent, **extra)

        setattr(owner, attr, traced)


def main(argv) -> int:
    memory = argv[:1] == ["--memory"]
    spans_path, run_id, *cli_args = argv[1:] if memory else argv
    tracer = Tracer(run_id)
    import sheetforge.cli as cli

    tracer.record("cli.import", T0, time.perf_counter())
    import sheetforge.harness as harness

    tracer.wrap(cli, "apply_overrides", "config.load")
    tracer.wrap(cli, "config_from_json_obj", "config.load")
    tracer.wrap(cli, "generate_replicates", "harness.replicates")
    tracer.wrap(cli, "generate_coupled_replicates", "harness.replicates")
    tracer.wrap(harness, "quadrature_rows", "kernels.rows")
    tracer.wrap(harness, "simulate_sheet", "sheet")
    tracer.wrap(harness, "theta_values_from_sheet", "theta")
    for reduction in ("empirical_covariance", "independence_probe",
                      "gaussianity_test", "theoretical_covariance"):
        tracer.wrap(cli, reduction, "harness.reduce", measure_memory=memory)
    tracer.wrap(cli, "_dump_json", "cli.write")
    for report in (harness.CovarianceReport, harness.IndependenceReport,
                   harness.GaussianityReport):
        tracer.wrap(report, "to_json_obj", "cli.write")
    tracer.wrap(harness.CovarianceReport, "to_text", "cli.write")
    tracer.wrap(harness.CovarianceReport, "to_csv", "cli.write")
    tracer.wrap(cli, "main", "cli.main")

    code = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"exit_code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
