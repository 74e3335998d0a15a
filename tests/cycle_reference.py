"""Literal copies of cycle-form readers and membership predicates, as they
were before their reads were shared, kept as the tests' reference.

`arnold.signed_perm` now reads cycles as plain (entries, bracket) pairs:
one orbit walk, one shape verdict, one npk counter that builds a min-split
tree only for a plain cycle with a negative entry, and one write loop,
shared by the cycle-up-down generator and `window_of`, which reads each
cycle's bracket halves and label range in order and writes only a form
that passes.  The snake and valley predicates of `arnold.families` also
refuse non-windows now, its alternation test reads the up-down rule of its
cycle test, and its valley predicate reads valley positions, not values.
The definitions below are the ones those replaced; the tests hold the
package equal to them, with the same exception type and message, wherever
the old ones were sound.
"""
from __future__ import annotations

from operator import neg
from typing import Sequence

from arnold.signed_perm import (
    CycleForm,
    MalformedCudCycleFormError,
    SignedPerm,
    _smax_walk,
    cycle_form,
    from_window,
    leaf_values,
    valley_values,
)


def form_size(cf: CycleForm) -> int:
    """`CycleForm.n`."""
    return sum(len({abs(e) for e in c.entries}) for c in cf.cycles)


def check_cud_shape(cf: CycleForm) -> bool:
    brackets = [i for i, c in enumerate(cf.cycles) if c.bracket]
    if not brackets:
        return False
    if len(brackets) > 1:
        raise MalformedCudCycleFormError("more than one bracket cycle")
    i = brackets[0]
    c = cf.cycles[i]
    if i != len(cf.cycles) - 1:
        raise MalformedCudCycleFormError("bracket cycle is not last")
    if len(c.entries) != 2 or c.entries[1] != -c.entries[0]:
        raise MalformedCudCycleFormError("bracket cycle is not of the form (k,-k)")
    return True


def stat_npk(cf: CycleForm) -> int:
    has_bracket = check_cud_shape(cf)
    total = 1 if has_bracket else 0
    for c in cf.cycles:
        if c.bracket:
            continue
        leaves = leaf_values(tuple(map(abs, c.entries)))
        total += sum(1 for v in c.entries if v < 0 and -v in leaves)
    return total


def stat_report(p: SignedPerm, cf: CycleForm | None = None) -> dict[str, int | None]:
    if cf is None:
        cf = cycle_form(p)
    try:
        npk: int | None = stat_npk(cf)
    except MalformedCudCycleFormError:
        npk = None
    w = p.window
    if not w:
        raise ValueError("smax of empty word")
    n = len(w)
    aw = [abs(v) for v in w]
    neg_ = spk = n_valleys = n_peaks = ltr_min = 0
    prev = low = n + 1  # above every |entry|
    for v, cur, nxt in zip(w, aw, aw[1:] + [0]):
        if v < 0:
            neg_ += 1
        if cur < low:
            ltr_min += 1
            low = cur
        if cur > nxt:
            if prev < cur:
                n_peaks += 1
                if v < 0:
                    spk += 1
        elif prev > cur:
            n_valleys += 1
        prev = cur
    if w[0] < 0 and aw[0] > (aw[1] if n > 1 else 0):
        spk += 1
    return {
        "neg": neg_,
        "npk": npk,
        "spk": spk,
        "smax": _smax_walk(w, sorted(range(n), key=aw.__getitem__)),
        "valleys": n_valleys,
        "peaks": n_peaks,
        "ltr_min": ltr_min,
    }


def window_of(cf: CycleForm) -> SignedPerm:
    n = form_size(cf)
    window = [0] * n
    written = 0
    try:
        for c in cf.cycles:
            e = c.entries
            if c.bracket:
                half = len(e) // 2
                if len(e) % 2 or e[half:] != tuple(map(neg, e[:half])):
                    raise ValueError(f"bracket cycle {c} is not labels followed by their negatives")
                written += half
            else:
                written += len(e)
            for x, y in zip(e, e[1:] + e[:1]):
                if x > 0:
                    window[x - 1] = y
                else:
                    window[-x - 1] = -y
    except IndexError:
        written = -1
    if written != n or 0 in window:
        raise ValueError(f"labels of {cf} are not 1..{n}, each in one cycle once")
    return from_window(window)


def is_alternating(w: Sequence[int]) -> bool:
    return all(
        (w[i] > w[i + 1]) if i % 2 == 0 else (w[i] < w[i + 1])
        for i in range(len(w) - 1)
    )


def up_down(seq: Sequence[int]) -> bool:
    return all(
        (seq[i] < seq[i + 1]) if i % 2 == 0 else (seq[i] > seq[i + 1])
        for i in range(len(seq) - 1)
    )


def is_snake_b(w: Sequence[int]) -> bool:
    return bool(w) and w[0] > 0 and is_alternating(w)


def is_snake_d(w: Sequence[int]) -> bool:
    return is_snake_b(tuple(-v for v in w)) and (len(w) < 2 or w[1] > -w[0])


def is_vs_b(w: Sequence[int]) -> bool:
    if not w:
        return False
    vv = valley_values([abs(v) for v in w])
    for i, v in enumerate(w):
        if v < 0 and (i == 0 or abs(w[i - 1]) not in vv):
            return False
    return True


def is_vs_d(w: Sequence[int]) -> bool:
    if not w or w[0] >= 0 or (len(w) >= 2 and not 0 < w[1] < -w[0]):
        return False
    return is_vs_b((-w[0], *w[1:]))
