"""What the benchmark under ``bench/`` needs from the package.

The benchmark's tracer patches package attributes by name, and its worker
reads the hit ratios of the two point caches through ``cache_info()``.  A
refactor that renames or removes one of them would crash a traced benchmark
run; this test makes it fail here first.  It loads the benchmark's modules
by path and changes nothing under ``bench/``.
"""

import importlib.util
from pathlib import Path

from contactcurv import contactpair as cpm
from contactcurv import riemann as rm

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracer = _load("tracer")
    for name, (owner, attrs) in tracer.SPAN_TARGETS.items():
        for attr in attrs:
            assert callable(getattr(owner, attr, None)), (name, attr)
            # the tracer swaps the owner's own entry, not an inherited one
            assert attr in vars(owner), (name, attr)


def test_the_tracer_installs_and_restores_every_patch():
    tracer = _load("tracer").Tracer()
    patches = tracer._patches()
    before = {(owner, attr): vars(owner)[attr] for owner, attr, _ in patches}
    with tracer.installed():
        for (owner, attr), original in before.items():
            assert vars(owner)[attr].__wrapped__ is original, attr
    assert {(owner, attr): vars(owner)[attr] for owner, attr, _ in patches} == before


def test_the_point_caches_report_their_hits():
    for cache in (rm.geometry_at, cpm.structure_at):
        assert callable(cache.cache_info) and callable(cache.cache_clear)
    caches = _load("worker").package_caches()
    for name in ("riemann.geometry_at", "contactpair.structure_at"):
        assert caches[name].cache_info().currsize >= 0
