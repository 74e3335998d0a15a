import pytest

from arnold.trees import (
    EMPTY,
    Node,
    SizeCapExceededError,
    classify,
    count_empty,
    gen_trees,
    is_complete_increasing,
    rightmost_path,
    serialize,
    to_json,
)
from arnold.triangles import arnold_numbers


def test_size_one_trees():
    trees = list(gen_trees(1))
    assert len(trees) == 2
    kinds = {classify(t).kind for t in trees}
    assert kinds == {"o", "*"}


def test_sixteen_trees_on_three_labels():
    assert sum(1 for _ in gen_trees(3)) == 16


def test_counts_match_springer_sums():
    rows = arnold_numbers(5)
    for n in range(1, 6):
        want = sum(rows[n - 1].pos) + sum(rows[n - 1].neg)
        assert sum(1 for _ in gen_trees(n)) == want


def test_generated_trees_are_valid_and_distinct():
    for n in range(1, 6):
        seen = set()
        for t in gen_trees(n):
            assert is_complete_increasing(t, n)
            seen.add(serialize(t))
        assert len(seen) == sum(1 for _ in gen_trees(n))


def test_rightmost_path_and_classify():
    c = classify(Node(1))
    assert (c.kind, c.rightmost_label, c.emp) == ("*", 1, 0)
    double = Node(1, (EMPTY, EMPTY))
    c = classify(double)
    assert (c.kind, c.rightmost_label, c.emp) == ("o", 1, 2)
    chain = Node(1, (Node(2, (EMPTY, Node(3, (EMPTY, EMPTY)))), EMPTY))
    path = rightmost_path(chain)
    assert [getattr(v, "label", None) for v in path] == [1, None]
    c = classify(chain)
    assert (c.kind, c.rightmost_label) == ("o", 1)


def test_classification_counts_match_triangle_row_three():
    counts = {}
    for t in gen_trees(3):
        c = classify(t)
        counts[(c.kind, c.rightmost_label)] = counts.get((c.kind, c.rightmost_label), 0) + 1
    # empty-rightmost trees by rightmost label, against row-three entries
    assert counts[("o", 1)] == 4
    assert counts[("o", 2)] == 4
    assert counts[("o", 3)] == 3


def test_leaf_count_identity():
    # empty leaves + labelled leaves = internal nodes + 1
    def walk(t):
        if t is EMPTY:
            return 1, 0, 0
        if t.children is None:
            return 0, 1, 0
        e1, l1, i1 = walk(t.children[0])
        e2, l2, i2 = walk(t.children[1])
        return e1 + e2, l1 + l2, i1 + i2 + 1

    for n in range(1, 6):
        for t in gen_trees(n):
            empties, labelled, internal = walk(t)
            assert empties + labelled == internal + 1
            assert empties == count_empty(t)


def test_size_cap(monkeypatch):
    monkeypatch.delenv("ARNOLD_MAX_N", raising=False)
    with pytest.raises(SizeCapExceededError, match="n=9 exceeds the configured cap 8"):
        next(gen_trees(9))
    monkeypatch.setenv("ARNOLD_MAX_N", "3")
    assert sum(1 for _ in gen_trees(3)) == 16
    with pytest.raises(SizeCapExceededError, match="n=4 exceeds the configured cap 3"):
        next(gen_trees(4))


def test_json_encoding():
    assert to_json(EMPTY) is None
    assert to_json(Node(2)) == {"label": 2}
    t = Node(1, (Node(2), EMPTY))
    assert to_json(t) == {"label": 1, "left": {"label": 2}, "right": None}
