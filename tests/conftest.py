"""Shared fixtures: the kernel-body switch, and session-scoped result
caches for the bench suites.

``kernel_mode`` runs a test once on the numpy bodies of the slab kernels and
once on their C bodies (skipped where the extension is not built).

For the bench suites: the heavyweight sweeps (``test_full_width_sweep``,
the Table 1 builds) used to run against throwaway per-test cache
directories, so every nightly run — and every test touching the same
circuit twice — re-derived warm results from scratch.  The cache fixtures give the whole pytest session one shared
cache root instead:

* By default the root is a session ``tmp_path_factory`` directory: tests
  within one run share warm ``DecompositionCache``/``SynthesisCache``
  entries, but nothing persists across runs — a cache surviving the run
  could replay pre-regression results and defeat the expectation gates.
* Set ``REPRO_TEST_CACHE_DIR`` to persist the root across runs (CI keys it
  by commit, so a warm rerun of the same revision skips the re-derivation
  while different code always starts cold).
"""

import os
from pathlib import Path

import pytest


@pytest.fixture(params=["numpy", "c"])
def kernel_mode(request, monkeypatch):
    """Run the test on the numpy bodies, then on the C bodies."""
    from repro.anf import cnative, sortkernel

    if request.param == "c" and not cnative.available():
        pytest.skip("C extension not built")
    monkeypatch.setattr(sortkernel, "_C", cnative._C if request.param == "c" else None)
    return request.param


@pytest.fixture(scope="session")
def bench_cache_dir(tmp_path_factory) -> Path:
    """One cache root for every bench-suite test in this session."""
    configured = os.environ.get("REPRO_TEST_CACHE_DIR", "").strip()
    if configured:
        path = Path(configured)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path_factory.mktemp("bench-cache")


@pytest.fixture(scope="session")
def bench_synthesis_cache(bench_cache_dir):
    """A session-shared :class:`~repro.engine.cache.SynthesisCache`."""
    from repro.engine import SynthesisCache

    return SynthesisCache(bench_cache_dir / "synthesis")
