"""The package's public names."""

from __future__ import annotations

import cfcoherency


def test_every_exported_name_resolves():
    missing = [name for name in cfcoherency.__all__ if not hasattr(cfcoherency, name)]
    assert missing == []
    assert len(set(cfcoherency.__all__)) == len(cfcoherency.__all__)
