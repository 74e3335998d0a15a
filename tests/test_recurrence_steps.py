import pytest

from arnold.bijections import (
    NotInFamilyError,
    phi_cud_b,
    phi_cud_b_kernel,
    phi_cud_d,
    phi_cud_d_kernel,
    phi_vs_b,
    phi_vs_b_kernel,
    phi_vs_d,
    phi_vs_d_kernel,
)
from arnold.families import (
    IndexOutOfRangeError,
    enumerate_family,
    enumerate_indexed,
    is_cud_b,
    is_cud_d,
    is_vs_b,
    is_vs_d,
    psi_cud_b,
    psi_cud_b_kernel,
    psi_cud_bridge,
    psi_cud_d,
    psi_cud_d_kernel,
    psi_vs_b,
    psi_vs_b_kernel,
    psi_vs_bridge,
    psi_vs_d,
    psi_vs_d_kernel,
    recurrence_step_cud,
    recurrence_step_vs,
    windows,
)
from arnold.harness import check_recstep_vs, verify
from arnold.signed_perm import Cycle, CycleForm, SignedPerm, cycle_form, from_window


def cf(*cycles, bracket_last=False):
    built = [Cycle(tuple(c)) for c in cycles]
    if bracket_last:
        built[-1] = Cycle(tuple(cycles[-1]), bracket=True)
    return CycleForm(tuple(built))


class TestWorkedExamples:
    def test_cud_d_case_i(self):
        rec = psi_cud_d(cf((1, -5, -2), (3, 4), (6, 9, -8), (7, -7), bracket_last=True))
        assert rec.case == "i"
        assert rec.image == cf((1, -5, -2), (3, 4), (6, 8, -7))
        assert (rec.target_family, rec.target_n, rec.target_index) == ("cud-b", 8, 6)
        assert rec.stat_after - rec.stat_before == -1

    def test_cud_d_case_ii(self):
        rec = psi_cud_d(cf((1, -5, -2), (3, -6), (4, 9, -8), (7, -7), bracket_last=True))
        assert rec.case == "ii"
        assert rec.image == cf((1, -5, -2), (3, -7), (4, 9, -8), (6, -6), bracket_last=True)
        assert (rec.target_family, rec.target_n, rec.target_index) == ("cud-d", 9, 6)
        assert rec.stat_after == rec.stat_before

    def test_cud_b_case_ii(self):
        rec = psi_cud_b(cf((1, -3, -2), (4,), (5, -6), (7, 9, -8)))
        assert rec.case == "ii"
        assert rec.image == cf((1, -3, -2), (4,), (5, -6), (7, 9), (8,))
        assert (rec.target_family, rec.target_n, rec.target_index) == ("cud-b", 9, 8)
        assert rec.stat_after == rec.stat_before

    def test_cud_b_case_iii(self):
        rec = psi_cud_b(cf((1, -3, -2), (4,), (5, -8, -6), (7, 9)))
        assert rec.case == "iii"
        assert rec.image == cf((1, -3, -2), (4,), (5, -7, -6), (8, 9))
        assert (rec.target_family, rec.target_n, rec.target_index) == ("cud-b", 9, 8)

    def test_vs_d_case_2(self):
        rec = psi_vs_d(from_window([-7, 4, 2, 8, 1, -5, 3, -9, 10, 6]))
        assert rec.case == "2"
        assert rec.image.window == (-6, 4, 2, 8, 1, -5, 3, -9, 10, 7)
        assert (rec.target_family, rec.target_n, rec.target_index) == ("vs-d", 10, 6)
        assert rec.stat_after == rec.stat_before

    def test_vs_b_case_2(self):
        rec = psi_vs_b(from_window([7, 9, 8, 5, -6, 4, 1, -3, 2]))
        assert rec.case == "2"
        assert rec.image.window == (8, 9, 7, 5, -6, 4, 1, -3, 2)
        assert (rec.target_family, rec.target_n, rec.target_index) == ("vs-b", 9, 8)


class TestSmallCases:
    def test_cud_d_smallest(self):
        rec = psi_cud_d(cf((1,), (2, -2), bracket_last=True))
        assert rec.case == "i"
        assert rec.image == cf((1,))
        assert rec.stat_after == 0

    def test_cud_b_split_keeps_signs(self):
        for source, image in (
            (cf((1, 3, 2)), cf((1,), (2, 3))),
            (cf((1, 3, -2)), cf((1, 3), (2,))),
            (cf((1, -4, -2, 3)), cf((1, -4, 3), (2,))),
        ):
            rec = psi_cud_b(source)
            assert rec.case == "ii"
            assert rec.image == image
            assert (rec.target_family, rec.target_n, rec.target_index) == ("cud-b", source.n, 2)
            assert rec.stat_after == rec.stat_before

    def test_vs_b_head_removal(self):
        rec = psi_vs_b(from_window([1, -2]))
        assert rec.case == "1"
        assert rec.image.window == (-1,)
        assert (rec.target_family, rec.target_n, rec.target_index) == ("vs-d", 1, 1)

    def test_vs_b_head_rewrite(self):
        # successor above the head index forces the invertible rewrite
        rec = psi_vs_b(from_window([1, -2, 3]))
        assert rec.case == "1b"
        assert rec.image.window == (2, 1, -3)
        assert (rec.target_family, rec.target_n, rec.target_index) == ("vs-b", 3, 2)
        assert rec.stat_after == rec.stat_before

    def test_vs_b_head_removal_with_small_third(self):
        rec = psi_vs_b(from_window([2, -3, 1]))
        assert rec.case == "1"
        assert rec.image.window == (-2, 1)
        assert (rec.target_family, rec.target_n, rec.target_index) == ("vs-d", 2, 2)

    def test_bridges(self):
        rec = psi_cud_bridge(cf((1, 2), (3,)))
        assert rec.image == cf((1, 2), (3, -3), bracket_last=True)
        assert rec.stat_after - rec.stat_before == 1
        back = psi_cud_bridge(rec.image)
        assert back.image == cf((1, 2), (3,))
        rec = psi_vs_bridge(from_window([3, 1, 2]))
        assert rec.image.window == (-3, 1, 2)
        assert rec.stat_after - rec.stat_before == 1

    def test_cycle_bridge_refuses_a_final_bracket_other_than_n(self):
        # bridging (1,-3)[2,-2] would give (1,-3)(3), which loses the label 2
        with pytest.raises(ValueError) as caught:
            psi_cud_bridge(cf((1, -3), (2, -2), bracket_last=True))
        assert type(caught.value) is ValueError
        assert str(caught.value) == "bridge step needs last cycle (n) or (n,-n)"

    @pytest.mark.parametrize("n", range(1, 6))
    def test_valley_bridge_maps_type_d_back_onto_type_b(self, n):
        # the harness bridges type-B members only, so this is the one run
        # of the branch from a window that starts with -n
        type_b, type_d = enumerate_indexed("vs-b", n, n), enumerate_indexed("vs-d", n, n)
        records = [psi_vs_bridge(p) for p in type_d]
        assert {(r.case, r.target_family, r.target_n, r.target_index) for r in records} == {
            ("bridge", "vs-b", n, n)
        }
        assert sorted(r.image for r in records) == sorted(type_b)
        assert all(r.stat_after - r.stat_before == -1 for r in records)
        for members in (type_b, type_d):
            assert [psi_vs_bridge(psi_vs_bridge(p).image).image for p in members] == list(members)


class TestPreconditions:
    def test_step_index_ranges(self):
        with pytest.raises(IndexOutOfRangeError):
            recurrence_step_cud(3, 1, "d")
        with pytest.raises(IndexOutOfRangeError):
            recurrence_step_cud(3, 3, "b")
        with pytest.raises(IndexOutOfRangeError):
            recurrence_step_vs(3, 4, "d")
        with pytest.raises(ValueError):
            recurrence_step_vs(3, 2, "x")

    def test_object_level_rejections(self):
        with pytest.raises(ValueError):
            psi_cud_d(cf((1, 2)))
        with pytest.raises(IndexOutOfRangeError):
            psi_vs_d(from_window([-1]))

    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(call, error, message, id=call.__name__)
            for call, error, message in (
                (psi_cud_b, ValueError, "not a type-B cycle-up-down cycle form"),
                (psi_cud_d, ValueError, "not a type-D cycle-up-down cycle form"),
                (psi_cud_bridge, ValueError, "bridge step needs last cycle (n) or (n,-n)"),
                (phi_cud_b, NotInFamilyError, "not a type-B cycle-up-down cycle form"),
                (phi_cud_d, NotInFamilyError, "not a type-D cycle-up-down cycle form"),
                (psi_vs_b, ValueError, "not a type-B valley signed permutation"),
                (psi_vs_d, ValueError, "not a type-D valley signed permutation"),
                (psi_vs_bridge, ValueError, "bridge step needs first entry n or -n"),
                (phi_vs_b, NotInFamilyError, "not a type-B valley signed permutation"),
                (phi_vs_d, NotInFamilyError, "not a type-D valley signed permutation"),
            )
        ],
    )
    def test_empty_input_is_refused(self, call, error, message):
        # no family has a member of size 0
        empty = CycleForm(()) if "cud" in call.__name__ else from_window([])
        with pytest.raises(ValueError) as caught:
            call(empty)
        assert type(caught.value) is error
        assert str(caught.value) == message


def _outcome(call, member):
    try:
        return call(member)
    except ValueError as exc:
        return type(exc), str(exc)


class TestKernels:
    # each public map or step is its family's membership test and then its
    # kernel; the harness calls the kernel on generated members only
    @pytest.mark.parametrize(
        "family, public, kernel",
        [
            pytest.param(family, public, kernel, id=public.__name__)
            for family, public, kernel in (
                ("cud-b", psi_cud_b, psi_cud_b_kernel),
                ("cud-d", psi_cud_d, psi_cud_d_kernel),
                ("vs-b", psi_vs_b, psi_vs_b_kernel),
                ("vs-d", psi_vs_d, psi_vs_d_kernel),
            )
        ],
    )
    def test_kernel_returns_what_the_public_map_returns(self, family, public, kernel):
        # steps out of index range raise IndexOutOfRangeError from both
        for n in range(1, 7):
            for m in enumerate_family(family, n):
                assert _outcome(kernel, m) == _outcome(public, m), m

    @pytest.mark.parametrize(
        "public, kernel, is_member",
        [
            pytest.param(public, kernel, is_member, id=public.__name__)
            for public, kernel, is_member in (
                (phi_cud_b, phi_cud_b_kernel, is_cud_b),
                (phi_cud_d, phi_cud_d_kernel, is_cud_d),
                (phi_vs_b, phi_vs_b_kernel, is_vs_b),
                (phi_vs_d, phi_vs_d_kernel, is_vs_d),
            )
        ],
    )
    def test_tree_map_is_the_literal_filter_then_the_kernel(self, public, kernel, is_member):
        # cycle maps read cycle_form(p) and valley maps p, for every window
        for n in range(1, 5):
            for w in windows(n):
                p = SignedPerm(w)
                if "cud" in public.__name__:
                    m = literal = cycle_form(p)
                else:
                    m, literal = p, w
                if is_member(literal):
                    assert public(m) == kernel(m), w
                else:
                    with pytest.raises(NotInFamilyError):
                        public(m)

    @pytest.mark.parametrize(
        "call, non_member, error, message",
        [
            pytest.param(call, non_member, error, message, id=call.__name__)
            for calls, non_member, message in (
                ((phi_cud_b, psi_cud_b), cf((1, 2, 3)), "type-B cycle-up-down cycle form"),
                ((phi_cud_d, psi_cud_d), cf((1, 2)), "type-D cycle-up-down cycle form"),
                ((phi_vs_b, psi_vs_b), from_window([-1, 2]), "type-B valley signed permutation"),
                ((phi_vs_d, psi_vs_d), from_window([1, 2]), "type-D valley signed permutation"),
            )
            for call, error in zip(calls, (NotInFamilyError, ValueError))
        ],
    )
    def test_public_map_refuses_a_non_member(self, call, non_member, error, message):
        with pytest.raises(ValueError) as caught:
            call(non_member)
        assert type(caught.value) is error
        assert str(caught.value) == f"not a {message}"

    @pytest.mark.parametrize(
        "form",
        [
            # a bracket the window does not close, whose canonical form is (1)(2,-3)
            CycleForm((Cycle((1,)), Cycle((2, -3), bracket=True))),
            cf((2,), (1,)),  # cycles out of leader order
            cf((1, 3)),  # a label above n: no window can be built
            cf((-1,)),  # a leader that is not positive
            cf((1, 2), (1, 2)),  # a label in two cycles
        ],
        ids=str,
    )
    @pytest.mark.parametrize(
        "call, error, side",
        [
            (phi_cud_b, NotInFamilyError, "B"),
            (phi_cud_d, NotInFamilyError, "D"),
            (psi_cud_b, ValueError, "B"),
            (psi_cud_d, ValueError, "D"),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_cycle_guards_refuse_a_form_that_is_not_canonical(self, call, error, side, form):
        with pytest.raises(ValueError) as caught:
            call(form)
        assert type(caught.value) is error
        assert str(caught.value) == f"not a type-{side} cycle-up-down cycle form"


class TestExhaustiveVerification:
    def test_vs_steps_partition_targets(self):
        assert [d for n in range(1, 6) for d in check_recstep_vs(n)] == []

    def test_cud_d_steps_partition_targets(self):
        result = verify("recstep-cud", 5)
        d_side = [d for d in result.details if d.startswith("cud-d")]
        assert d_side == []

    def test_cud_b_split_collides(self):
        # the sign of k+1 decides which subtree of node k+1 stays with k,
        # so the type-B split keeps sign twins apart
        a = psi_cud_b(cf((1, 3, 2)))
        b = psi_cud_b(cf((1, 3, -2)))
        assert a.image != b.image
        targets = set(enumerate_indexed("cud-b", 3, 2))
        assert {a.image, b.image} <= targets
        assert {(r.target_family, r.target_n, r.target_index) for r in (a, b)} == {("cud-b", 3, 2)}
        assert all(rec.stat_after == rec.stat_before for rec in (a, b))
        assert verify("recstep-cud", 3).status == "pass"

    def test_report_covers_all_sources(self):
        from arnold.families import enumerate_indexed

        report = recurrence_step_vs(4, 2, "b")
        assert len(report) == len(enumerate_indexed("vs-b", 4, 2))
