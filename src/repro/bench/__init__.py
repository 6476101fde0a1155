"""Benchmark ports and the per-figure reproduction harness.

``osu`` ports the OSU microbenchmarks the paper modified (osu_init,
osu_latency, osu_mbw_mr); ``hpcc`` ports the HPC Challenge ring
latency test; ``figures`` exposes one entry point per paper table or
figure, each printing the same rows/series the paper reports and
returning structured data; ``claims`` holds the paper's claims about
them as one checked table.

``figures`` and the ``harness`` names resolve on first use, so importing
one submodule (``perf``, ``osu``, ...) loads no figure code.
"""

from repro._lazy import lazy_getattr

#: Names resolved on first use, and the submodule that defines each.
_LAZY = {"BenchResult": "harness", "Series": "harness",
         "format_table": "harness", "figures": "figures"}
__getattr__ = lazy_getattr(__name__, _LAZY)

__all__ = ["BenchResult", "Series", "format_table", "figures"]
