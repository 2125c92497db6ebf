"""One workload in a fresh interpreter: set-up, then the timed request loop.

    worker.py setup --workload W --seed N
    worker.py run   --workload W --seed N --seconds S --trace 0|1

``setup`` imports contactcurv, writes the workload's manifold files and
prints the seconds that took.  ``run`` does the same set-up, then sends
requests in a closed loop from one client: each request is an in-process
``contactcurv.cli.main(argv)`` call with stdout captured, made cold by
clearing every ``lru_cache`` in the package first.  Every output is checked;
a failed check counts against the run and is never raised.  With
``--trace 1`` cycles alternate between untraced and traced, the tracer
gives the per-layer numbers and the two halves give the tracing overhead.

The last line of stdout is one JSON object for ``run.py``.  The worker is
started by ``run.py``, which sets PYTHONPATH to the checkout's ``src`` and
pins the BLAS thread pools to one thread.  The benchmark modules that
import contactcurv are imported inside functions, after the import has been
timed as part of set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import pkgutil
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_KERNEL_RUNS = 15  # reference-kernel samples that scale one set-up time


@contextlib.contextmanager
def scratch_dir(tag: str):
    """A fresh directory for generated inputs inside the checkout, removed
    on exit."""
    parent = ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    path = parent / f"{tag}-{os.getpid()}"
    path.mkdir()
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def setup(workload: str, seed: int, workdir: str):
    """Import the package and write the workload's inputs; returns the
    seconds taken and the workload's cycles."""
    t0 = time.process_time()
    import contactcurv
    import workloads
    if Path(contactcurv.__file__).resolve().parent != SRC / "contactcurv":
        raise SystemExit(f"contactcurv was imported from {contactcurv.__file__}, "
                         f"not from {SRC}")
    cycles = workloads.WORKLOADS[workload](seed, workdir)
    return time.process_time() - t0, cycles


def package_caches() -> dict[str, object]:
    """Every callable with ``cache_clear`` in the package's modules, found by
    introspection so that caches added or removed later are still reset."""
    import contactcurv
    caches = {}
    for info in pkgutil.iter_modules(contactcurv.__path__):
        module = importlib.import_module(f"contactcurv.{info.name}")
        for attr, value in vars(module).items():
            if callable(value) and hasattr(value, "cache_clear"):
                caches.setdefault(f"{info.name}.{attr}", value)
    return caches


class Samples:
    """Request times of one kind of cycle (untraced or traced), each with
    the position of the reference-kernel pass taken just after it began."""

    def __init__(self) -> None:
        self.raw: dict[str, list[tuple[float, int]]] = defaultdict(list)
        self.class_points: dict[str, int] = {}
        self.points = 0
        self.requests = 0

    def add(self, key: str, points: int, seconds: float, kernel_index: int) -> None:
        self.raw[key].append((seconds * 1000.0, kernel_index))
        self.class_points[key] = points
        self.points += points
        self.requests += 1

    def ms(self, speed=None) -> dict[str, list[float]]:
        """Request times per input class, scaled to the nominal host speed
        when ``speed`` is given."""
        return {key: [t * speed.scale_at(i) if speed else t for t, i in ts]
                for key, ts in self.raw.items()}


class Client:
    """Sends cold requests and checks every reply."""

    def __init__(self, caches: dict[str, object]) -> None:
        from contactcurv import cli
        self.cli = cli
        self.caches = caches
        self.digests: dict[tuple, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def reset(self) -> None:
        """The state a fresh CLI process starts in: empty caches, no
        garbage left by earlier requests."""
        for cache in self.caches.values():
            cache.cache_clear()
        gc.collect()

    def send(self, req, call) -> float:
        out, err = io.StringIO(), io.StringIO()
        reason = None
        t0 = time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = call(list(req.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed request
            code, reason = None, f"raised {exc!r}"
        seconds = time.process_time() - t0

        self.attempted += 1
        text = out.getvalue()
        if reason is None:
            reason = req.gate(code, text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(req.argv, digest) != digest:
            reason = reason or "report differs from an earlier run of the same input"
        if reason is not None:
            self.failures.append(f"{req.key}: {reason}")
        return seconds


def measure(cycles, seconds: float, client: Client, speed, tracer=None):
    """Closed loop over whole cycles until ``seconds`` have passed, with the
    reference kernel run between requests.  With a tracer, odd cycles are
    traced and the loop ends after a traced one."""
    plain, traced = Samples(), Samples()
    hits = defaultdict(lambda: [0, 0])
    deadline = time.perf_counter() + seconds
    last_ms = 0.0
    c = 0
    while c < (2 if tracer else 1) or time.perf_counter() < deadline \
            or (tracer is not None and c % 2):
        on = tracer is not None and c % 2 == 1
        samples = traced if on else plain
        with tracer.installed() if on else contextlib.nullcontext():
            call = tracer.spanned("request", client.cli.main) if on else client.cli.main
            for req in cycles[c % len(cycles)]:
                if on:
                    tracer.request += 1
                # the kernel runs from the same clean state as each request
                client.reset()
                speed.keep_up(last_ms)
                gc.collect()
                seconds_taken = client.send(req, call)
                last_ms = seconds_taken * 1000.0
                samples.add(req.key, req.points, seconds_taken, len(speed.samples))
                if on:
                    for name in ("riemann.geometry_at", "contactpair.structure_at"):
                        info = client.caches[name].cache_info()
                        hits[name][0] += info.hits
                        hits[name][1] += info.hits + info.misses
        c += 1
    return plain, traced, hits, c


def end_to_end(plain: Samples, speed=None) -> dict:
    """End-to-end metrics, scaled to the nominal host speed when ``speed`` is
    given (see reference.py)."""
    import workloads
    ms = plain.ms(speed)
    tail_ms, _ = workloads.tail([t for ts in ms.values() for t in ts])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "request_ms_p50": {"value": workloads.typical_ms(ms), "unit": "ms"},
        "request_ms_tail": {"value": tail_ms, "unit": "ms"},
        "points_per_s": {"value": workloads.typical_points_per_s(
            ms, plain.class_points), "unit": "1/s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def per_layer(run_tracer, plain: Samples, traced: Samples, hits, speed) -> dict:
    import tracer as tr
    import workloads
    totals = tr.layer_totals(run_tracer.spans)
    points, requests = traced.points, traced.requests
    scale = speed.scale()

    def total(name):
        return totals.get(name, (0.0, 0))

    out = {}
    for name in (tr.EVALUATE_SPAN, *tr.SPAN_TARGETS):
        out[f"{name}.ms_per_point"] = (1000.0 * total(name)[0] * scale / points, "ms")
    for key, metric in (("exprlang.nodes", "exprlang.nodes_per_point"),
                        ("exprlang.node_hashes", "exprlang.node_hashes_per_point"),
                        ("exprlang.derive", "exprlang.derive.calls_per_point"),
                        ("jets.ops", "jets.ops_per_point"),
                        ("report.checks", "report.checks_per_point")):
        out[metric] = (run_tracer.counts[key] / points, "count")
    out["riemann.eval_field.calls_per_point"] = (
        total("riemann.eval_field")[1] / points, "count")
    out["contactpair.validate_structure.calls_per_request"] = (
        total("contactpair.validate_structure")[1] / requests, "count")
    for name, (hit, calls) in hits.items():
        out[f"{name}.hit_ratio"] = (hit / calls, "ratio")
    out["trace.overhead_frac"] = (workloads.typical_ms(traced.ms(speed))
                                  / workloads.typical_ms(plain.ms(speed)) - 1.0, "ratio")
    return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}


def environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checkout's commit read from .git, or "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args) -> dict:
    with scratch_dir(args.workload) as workdir:
        setup_s, cycles = setup(args.workload, args.seed, workdir)
        import reference
        import tracer as tr
        import workloads
        client = Client(package_caches())
        speed = reference.HostSpeed()
        tracer = tr.Tracer() if args.trace else None
        gc.freeze()  # later collections scan only what requests allocate
        plain, traced, hits, ncycles = measure(cycles, args.seconds, client, speed,
                                               tracer)
    scaled = plain.ms(speed)
    _, tail_pct = workloads.tail([t for ts in scaled.values() for t in ts])
    detail = {
        "environment": environment(args),
        "cycles": ncycles,
        "requests": client.attempted,
        "failed_frac": len(client.failures) / client.attempted,
        "failures": client.failures[:5],
        "request_ms_tail_percentile": tail_pct,
        "request_ms_tail_samples": plain.requests,
        "host_scale": speed.scale(),
        "kernel_samples": len(speed.samples),
        "unscaled": {"setup_s": setup_s,
                     **{k: v["value"] for k, v in end_to_end(plain).items()}},
        "class_median_ms": {k: statistics.median(v) for k, v in scaled.items()},
    }
    if tracer is None:
        metrics = end_to_end(plain, speed)
    else:
        metrics = per_layer(tracer, plain, traced, hits, speed)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        tr.write_spans(tracer.spans, str(path))
        detail["spans"] = len(tracer.spans)
        detail["trace_file"] = str(path.relative_to(ROOT))
    return {
        "setup_s": setup_s * speed.scale(),
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": metrics,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.role == "setup":
        with scratch_dir("setup") as workdir:
            setup_s, _ = setup(args.workload, args.seed, workdir)
        import reference
        speed = reference.HostSpeed()
        speed.samples = [reference.kernel_ms() for _ in range(SETUP_KERNEL_RUNS)]
        print(json.dumps({"setup_s": setup_s * speed.scale(), "unscaled_s": setup_s}))
    else:
        print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
