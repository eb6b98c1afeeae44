"""Cross-lingual knowledge-graph entity alignment via triple-aware attention."""

__version__ = "0.1.0"
