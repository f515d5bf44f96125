"""Where the benchmark modules write their ``BENCH_*.json`` records.

By default each record lands in pytest's temporary directory, so a
plain ``python -m pytest`` (which collects ``benchmarks/``) leaves the
tracked ``BENCH_*.json`` files alone.  Set ``BENCH_OUT_DIR`` to a
directory to keep the records there instead; ``BENCH_OUT_DIR=.`` from
the repository root re-records the tracked files.
"""

import os
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def bench_out(tmp_path_factory) -> Path:
    """The directory benchmark records are written to."""
    configured = os.environ.get("BENCH_OUT_DIR")
    if not configured:
        return tmp_path_factory.mktemp("bench")
    out = Path(configured)
    out.mkdir(parents=True, exist_ok=True)
    return out
