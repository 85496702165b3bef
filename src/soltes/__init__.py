"""Wiener-index invariance toolkit.

Find vertices whose deletion leaves the Wiener index unchanged, build cubic
graphs that have many of them, and scan graph streams for the property.
"""

from .core import (ACYCLIC, INFINITE, Graph, SoltesReport, is_biconnected,
                   profile, soltes_report, wiener)

__version__ = "0.1.0"

__all__ = [
    "ACYCLIC", "INFINITE", "Graph", "SoltesReport", "is_biconnected",
    "profile", "soltes_report", "wiener", "__version__",
]
