"""Shared exception types."""


class DataError(Exception):
    """Malformed input data: manifests, image files, checkpoints, vocabularies."""


class NonFiniteError(RuntimeError):
    """A computation gave NaN or infinity: a runtime fault (exit 3), not bad input."""
