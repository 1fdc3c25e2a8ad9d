"""Readout-serving benchmark (see ``perfbench/run.py``)."""
