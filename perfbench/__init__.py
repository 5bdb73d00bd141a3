"""Benchmark of clearnav: MPC step latency and label/train throughput (see run.py)."""
