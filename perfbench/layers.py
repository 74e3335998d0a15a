"""The names a traced run wraps, and how their spans become per-layer metrics.

Each target is the name as its caller looks it up: `families.cycle_form`
is the binding `arnold.families` calls for every window of a cycle family,
`harness.arnold_hoffman` the one the harness imported, and a module
attribute such as `bijections.phi_cud_b` is what `bij.phi_cud_b(...)`
reads at call time.  Wrapping a module attribute also catches calls made
inside that module, which nest as child spans of the same layer.

`signed_perm.valley_values` stays unwrapped: it runs once per window
inside the literal valley filter, a span there would double the cost of
a traced sweep, and its time counts toward `families.enumerate_self_s`.
"""
from __future__ import annotations

from collections import defaultdict

# (module, attribute, group).  A group is `<layer>` or `<layer>.<part>`.
CALLS = (
    ("laurent.LaurentPoly", "__add__", "laurent"),
    ("laurent.LaurentPoly", "__sub__", "laurent"),
    ("laurent.LaurentPoly", "__mul__", "laurent"),
    ("laurent.LaurentPoly", "__rmul__", "laurent"),
    ("laurent.LaurentPoly", "shifted", "laurent"),
    ("laurent.LaurentPoly", "derivative", "laurent"),
    ("laurent.LaurentPoly", "__call__", "laurent"),
    ("triangles", "arnold_numbers", "triangles"),
    ("triangles", "arnold_hoffman", "triangles"),
    ("triangles", "hoffman_pq", "triangles"),
    ("triangles", "check_hoffman_identities", "triangles"),
    ("triangles", "entringer", "triangles"),
    ("triangles", "euler_numbers", "triangles"),
    ("harness", "arnold_numbers", "triangles"),
    ("harness", "arnold_hoffman", "triangles"),
    ("harness", "check_hoffman_identities", "triangles"),
    ("harness", "euler_numbers", "triangles"),
    ("harness", "stat_npk", "signed_perm.stat"),
    ("harness", "stat_smax", "signed_perm.stat"),
    ("harness", "stat_spk", "signed_perm.stat"),
    ("harness", "left_to_right_minima", "signed_perm"),
    ("harness", "peak_values", "signed_perm"),
    ("harness", "verify", "harness"),
    ("harness", "verify_all", "harness"),
    ("cli", "verify", "harness"),
    ("cli", "verify_all", "harness"),
    ("cli", "stat_report", "signed_perm.stat"),
    ("cli", "window_of", "signed_perm"),
    ("cli", "arnold_numbers", "triangles"),
    ("cli", "arnold_hoffman", "triangles"),
    ("cli", "entringer", "triangles"),
    ("cli", "main", "cli"),
    ("families", "cycle_form", "signed_perm.cycle_form"),
    ("families", "stat_neg", "signed_perm.stat"),
    ("families", "stat_npk", "signed_perm.stat"),
    ("families", "stat_smax", "signed_perm.stat"),
    ("families", "stat_spk", "signed_perm.stat"),
    ("families", "from_window", "signed_perm"),
    ("families", "enumerate_family", "families.enumerate"),
    ("families", "enumerate_indexed", "families.enumerate"),
    ("families", "flip_classes", "families.flip_classes"),
    ("families", "unsigned_flip_classes", "families.flip_classes"),
    ("families", "cud_distribution", "families.distribution"),
    ("families", "vs_distribution", "families.distribution"),
    ("families", "recurrence_step_cud", "families.recstep"),
    ("families", "recurrence_step_vs", "families.recstep"),
    ("families", "psi_cud_bridge", "families.recstep"),
    ("families", "psi_vs_bridge", "families.recstep"),
    ("families", "is_alternating", "families"),
    ("bijections", "is_cud_b", "families"),
    ("bijections", "is_cud_d", "families"),
    ("bijections", "is_vs_b", "families"),
    ("bijections", "is_vs_d", "families"),
    ("bijections", "peaks", "signed_perm"),
    ("bijections", "valleys", "signed_perm"),
    ("bijections", "phi_cud_b", "bijections"),
    ("bijections", "phi_cud_d", "bijections"),
    ("bijections", "phi_vs_b", "bijections"),
    ("bijections", "phi_vs_d", "bijections"),
    ("bijections", "phi_f", "bijections"),
    ("bijections", "tau_flip", "bijections"),
    ("bijections", "algo3", "bijections"),
    ("trees", "classify", "trees.classify"),
    ("trees", "is_complete_increasing", "trees"),
    ("trees", "count_empty", "trees"),
    ("trees", "rightmost_path", "trees"),
)

GEN_TREES = "trees.gen_trees"
WINDOWS = "families.windows"


def _owner(arnold, path: str):
    obj = arnold
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Probe:
    """Installs the wraps on a tracer and keeps the enumerate_family log."""

    def __init__(self, tracer, arnold):
        self.tracer = tracer
        self.group: dict[str, str] = {}
        self.enumerations: list[tuple[str, int, int]] = []  # (family, n, members)
        for module, attr, group in CALLS:
            name = f"{module}.{attr}"
            self.group[name] = group
            observe = self._enumerated if name == "families.enumerate_family" else None
            tracer.wrap(_owner(arnold, module), attr, name, observe)
        tracer.wrap_generator(arnold.trees, "gen_trees", GEN_TREES)
        self.group[GEN_TREES] = "trees.gen_trees"
        tracer.wrap_generator(arnold.families, "windows", WINDOWS, spans=False)

    def _enumerated(self, args, result) -> None:
        self.enumerations.append((args[0], args[1], len(result)))

    def raw(self) -> dict:
        """Sums for one traced child; `metrics` combines several."""
        groups: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for name, (calls, _total, self_s) in self.tracer.by_name().items():
            row = groups[self.group[name]]
            row[0] += calls
            row[1] += self_s
        seen: set[tuple[str, int]] = set()
        repeats = members = 0
        for family, n, size in self.enumerations:
            if (family, n) in seen:
                repeats += 1
            else:
                seen.add((family, n))
                members += size
        windows = sum(items for name, _n, items in self.tracer.generated if name == WINDOWS)
        trees = [(n, items) for name, n, items in self.tracer.generated if name == GEN_TREES]
        full: dict[int, int] = {}
        for n, items in trees:
            full[n] = max(full.get(n, 0), items)
        return {
            "groups": dict(groups),
            "windows": windows,
            "members": members,
            "enum_calls": len(self.enumerations),
            "enum_repeats": repeats,
            "gen_trees_calls": len(trees),
            "trees_generated": sum(items for _n, items in trees),
            "trees_needed": sum(full.values()),
        }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(raws: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the traced children of one run."""
    groups: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    total: dict[str, int] = defaultdict(int)
    for raw in raws:
        for group, (calls, self_s) in raw["groups"].items():
            groups[group][0] += calls
            groups[group][1] += self_s
        for key, value in raw.items():
            if key != "groups":
                total[key] += value

    def calls(group):
        return groups[group][0]

    def self_s(group):
        return groups[group][1]

    def layer_self_s(layer):
        return sum(s for g, (_c, s) in groups.items() if g == layer or g.startswith(layer + "."))

    return {
        "families.windows_swept": total["windows"],
        "families.members": total["members"],
        "families.member_yield": _ratio(total["members"], total["windows"]),
        "families.enumerate_repeat_ratio": _ratio(total["enum_repeats"], total["enum_calls"]),
        "families.enumerate_self_s": self_s("families.enumerate"),
        "families.flip_classes_self_s": self_s("families.flip_classes"),
        "families.recstep_self_s": self_s("families.recstep"),
        "families.distribution_self_s": self_s("families.distribution"),
        "families.self_s": layer_self_s("families"),
        "signed_perm.cycle_form_calls": calls("signed_perm.cycle_form"),
        "signed_perm.cycle_form_self_s": self_s("signed_perm.cycle_form"),
        "signed_perm.stat_calls": calls("signed_perm.stat"),
        "signed_perm.stat_self_s": self_s("signed_perm.stat"),
        "signed_perm.self_s": layer_self_s("signed_perm"),
        "trees.gen_trees_calls": total["gen_trees_calls"],
        "trees.trees_generated": total["trees_generated"],
        "trees.regen_ratio": _ratio(total["trees_generated"], total["trees_needed"]),
        "trees.gen_trees_self_s": self_s("trees.gen_trees"),
        "trees.classify_calls": calls("trees.classify"),
        "trees.classify_self_s": self_s("trees.classify"),
        "trees.self_s": layer_self_s("trees"),
        "bijections.map_calls": calls("bijections"),
        "bijections.map_self_s": self_s("bijections"),
        "laurent.ops": calls("laurent"),
        "laurent.self_s": self_s("laurent"),
        "triangles.calls": calls("triangles"),
        "triangles.self_s": self_s("triangles"),
        "harness.self_s": self_s("harness"),
        "cli.self_s": self_s("cli"),
    }
