"""Benchmark for oni-kit; run perfbench/run.py."""
