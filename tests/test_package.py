import arnold


def test_every_export_resolves():
    assert [name for name in arnold.__all__ if not hasattr(arnold, name)] == []
