"""Benchmark ports and the per-figure reproduction harness.

``osu`` ports the OSU microbenchmarks the paper modified (osu_init,
osu_latency, osu_mbw_mr); ``hpcc`` ports the HPC Challenge ring
latency test; ``figures`` exposes one entry point per paper table or
figure, each printing the same rows/series the paper reports and
returning structured data; ``claims`` holds the paper's claims about
them as one checked table.
"""

from repro.bench.harness import BenchResult, Series, format_table
from repro.bench import figures

__all__ = ["BenchResult", "Series", "format_table", "figures"]
