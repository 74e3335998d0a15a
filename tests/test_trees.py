import pytest

import tree_reference as ref
from arnold.trees import (
    SizeCapExceededError,
    check_size,
    classify,
    count_empty,
    gen_trees,
    is_complete_increasing,
    rightmost_path,
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
            seen.add(t)
        assert len(seen) == sum(1 for _ in gen_trees(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_generated_codes_are_the_reference_trees_in_order(n):
    codes = list(gen_trees(n))
    trees = list(ref.gen_trees(n))
    assert codes == [ref.code_of(t, n) for t in trees]
    for code, t in zip(codes, trees):
        assert to_json(code) == ref.to_json(t)
        assert classify(code) == ref.classify(t)
        assert count_empty(code) == ref.count_empty(t)
        assert rightmost_path(code) == {s.label for s in ref.rightmost_path(t) if s is not ref.EMPTY}


def test_rightmost_path_and_classify():
    c = classify((-1, -1))  # a labelled leaf
    assert (c.kind, c.rightmost_label, c.emp) == ("*", 1, 0)
    c = classify((0, 0))  # a node with two empty leaves
    assert (c.kind, c.rightmost_label, c.emp) == ("o", 1, 2)
    chain = (2, 0, 0, 3, 0, 0)  # 1(2(.,3(.,.)),.)
    assert ref.serialize(ref.tree_of(chain)) == "1(2(.,3(.,.)),.)"
    assert rightmost_path(chain) == {1}
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
    for n in range(1, 6):
        for t in gen_trees(n):
            labelled = t.count(-1) // 2
            assert count_empty(t) + labelled == (n - labelled) + 1


def test_size_cap(monkeypatch):
    monkeypatch.delenv("ARNOLD_MAX_N", raising=False)
    with pytest.raises(SizeCapExceededError, match="n=9 exceeds the configured cap 8"):
        next(gen_trees(9))
    monkeypatch.setenv("ARNOLD_MAX_N", "3")
    assert sum(1 for _ in gen_trees(3)) == 16
    with pytest.raises(SizeCapExceededError, match="n=4 exceeds the configured cap 3"):
        next(gen_trees(4))


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5", " "])
def test_a_cap_that_is_not_a_positive_integer_is_refused(monkeypatch, raw):
    monkeypatch.setenv("ARNOLD_MAX_N", raw)
    with pytest.raises(SizeCapExceededError, match=f"^ARNOLD_MAX_N={raw!r} is not a positive integer$"):
        check_size(1)


def test_json_encoding():
    assert to_json((2, 0, -1, -1), 0) is None
    assert to_json((2, 0, -1, -1), 2) == {"label": 2}
    assert to_json((2, 0, -1, -1)) == {"label": 1, "left": {"label": 2}, "right": None}
