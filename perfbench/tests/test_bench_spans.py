"""Self-time arithmetic and the attribute swapping of the tracer."""

import sys
import types

import pytest

from spans import PROBE, Tracer, installed, layer_totals, self_times


def test_self_time_of_hand_built_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]; d
    # [6, 8] nests in b and e [7.5, 8.5] overlaps d inside b.
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["d", 6.0, 8.0, 3],
        ["e", 7.5, 8.5, 3],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.0])
    totals = layer_totals(spans + [["a", 9.0, 9.5, 0]])
    assert totals["a"] == (pytest.approx(2.5), 2)
    assert totals["root"][0] == pytest.approx(2.5)


def _fake_package(name):
    def boom(x):
        raise ValueError("boom %d" % x)

    def ok(x):
        return x + 1

    pkg = types.ModuleType(name)
    mod = types.ModuleType(name + ".mod")
    user = types.ModuleType(name + ".user")
    mod.boom, mod.ok = boom, ok
    user.boom = boom  # as after "from .mod import boom"
    sys.modules.update({name: pkg, name + ".mod": mod, name + ".user": user})
    return mod, user, boom, ok


def test_wrappers_restored_when_wrapped_call_raises():
    mod, user, boom, ok = _fake_package("fakepkg_raise")
    tracer = Tracer()
    hooks = {"mod.boom": [("mod", "boom")], "mod.ok": [("mod", "ok")]}
    with pytest.raises(ValueError, match="boom 3"):
        with installed(tracer, hooks=hooks, package="fakepkg_raise"):
            assert user.boom is not boom and mod.boom is user.boom
            assert mod.ok(1) == 2
            user.boom(3)
    assert mod.boom is boom and user.boom is boom and mod.ok is ok
    assert [s[0] for s in tracer.spans] == ["mod.ok", "mod.boom"]
    assert all(s[2] >= s[1] for s in tracer.spans)
    assert tracer.errors["mod.boom"] == 1


def test_absent_hooks_are_reported_not_raised():
    mod, _, _, ok = _fake_package("fakepkg_absent")
    hooks = {"mod.ok": [("mod", "ok")], "mod.gone": [("mod", "renamed_away")],
             "nomod.f": [("nomod", "f")]}
    seen = []
    tracer = Tracer()
    with installed(tracer, hooks=hooks, package="fakepkg_absent",
                   observers={"mod.ok": lambda args, result: seen.append((args, result))}) as absent:
        assert mod.ok(4) == 5
    assert absent == ["mod.renamed_away", "nomod.f"]
    assert seen == [((4,), 5)]
    # The observer ran in a probe span of its own, after the call's span.
    assert [s[0] for s in tracer.spans] == ["mod.ok", PROBE]
    assert mod.ok is ok
