"""Stub kept only for the benchmark's environment record.

``perfbench/run.py`` records whether a numpy sketch backend was active by
reading ``np`` from here.  The sketches now have a single pure-Python
counter backend, so ``np`` is always ``None``; delete this module once the
benchmark stops reading it.
"""

np = None
