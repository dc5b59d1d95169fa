"""Desk-scale retinal report generation: disease identification, keyword-driven
clinical description generation, CAM visual explanations, and table-based reports."""

__version__ = "0.1.0"
