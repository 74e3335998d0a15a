import pytest

from arnold import bijections, trees


@pytest.fixture(autouse=True)
def _fresh_tree_memos():
    """Start every test with the process-wide tree memos empty, so that a
    test which replaces `algo3`, `valleys`, `peaks` or `block_code` reads
    values made by its own replacement, and leaves none for the next test."""
    trees.block_code.cache_clear()
    bijections._valley_setup.cache_clear()
    yield
    trees.block_code.cache_clear()
    bijections._valley_setup.cache_clear()
