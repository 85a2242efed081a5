"""Layered benchmark for csample: end-to-end runs of the CLI plus per-layer
costs from a traced in-process run. Entry point: ``python3 perfbench/run.py``."""
