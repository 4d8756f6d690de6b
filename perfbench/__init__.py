"""Benchmark for the fusetrack pipeline; run ``python3 perfbench/run.py --help``."""
