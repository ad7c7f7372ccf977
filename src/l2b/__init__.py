"""Exact-arithmetic verification kernel for two-term Lie theory."""

__version__ = "0.1.0"
