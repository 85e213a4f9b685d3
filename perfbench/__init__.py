"""End-to-end and per-layer benchmark for povmlab; run ``perfbench/run.py``."""
