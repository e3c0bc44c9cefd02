"""Desk-scale numerical laboratory for randomized LCU algorithms."""

__version__ = "0.8.1"
