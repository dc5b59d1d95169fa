"""Shared exception types."""


class DataError(Exception):
    """Malformed input data: manifests, image files, checkpoints, vocabularies."""
