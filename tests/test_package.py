"""Tests for the package's public surface."""

import fluidcell


def test_every_exported_name_resolves():
    missing = [n for n in fluidcell.__all__ if not hasattr(fluidcell, n)]
    assert missing == []
