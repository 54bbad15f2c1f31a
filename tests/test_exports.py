import relaxkv


def test_every_export_resolves():
    """Each name in ``relaxkv.__all__`` is an attribute of the package, so a
    deleted name cannot stay listed as an export."""
    missing = [name for name in relaxkv.__all__ if not hasattr(relaxkv, name)]
    assert missing == []
