"""Every path on which the runtime interprets resolves calls and keeps fuel.

The runtime runs the interpreter on five paths: the profiled base tier,
the pause of the call that tiers up (it runs f_base to the OSR point),
the landing of a guard's first failure, every frame of a multi-frame
unwind, and both halves of a forced deoptimization (the pause runs
f_opt, the landing f_base).  Each builds its interpreter with the
runtime's dispatcher table and ``step_limit``.

The module is two functions: ``f`` runs a counting loop of ``m`` trips,
then a loop of ``n`` trips that calls ``g``.  On every path this file
asserts that ``g`` is reached through ``AdaptiveRuntime.call`` (its
call count rises by what the oracle says) and that a ``step_limit``
the compiled code stays within, but the interpreted part does not,
raises :class:`StepLimitExceeded`.
"""

from __future__ import annotations

import pytest

from repro.engine import EngineConfig, HotnessPolicy
from repro.frontend import compile_program
from repro.ir import Interpreter
from repro.ir.function import ProgramPoint
from repro.ir.instructions import Call
from repro.ir.interp import Memory, StepLimitExceeded
from repro.vm import AdaptiveRuntime

SOURCE = """
func g(v, limit) {
  if (v > limit) { return limit; }
  return v;
}
func f(p, n, m, limit) {
  var j = 0;
  while (j < m) { j = j + 1; }
  var s = 0; var i = 0;
  while (i < n) {
    var v = p[i];
    if (v < 0) { v = 0 - v; }
    s = s + g(v, limit);
    i = i + 1;
  }
  return s + j;
}
"""

#: Interpreting 1,000 trips of either loop takes more steps than this;
#: the compiled code, which counts loop trips, stays within it.
STEP_LIMIT = 1500
#: A loop long enough to exhaust ``STEP_LIMIT`` when interpreted.
LONG = 400


def _arguments(n, m, *, bad=None):
    """``f``'s arguments: ``n`` values in [0, 50), ``bad`` at index 0."""
    memory = Memory()
    base = memory.allocate(n)
    memory.write_array(base, [(7 * i) % 50 for i in range(n)])
    if bad is not None:
        memory.store(base, bad)
    return [base, n, m, 100], memory


def _oracle(module, args, memory):
    return Interpreter(module).run(module.get("f"), args, memory=memory.copy()).value


def _after_the_call(function) -> ProgramPoint:
    """The point right after ``function``'s call to ``g``."""
    point = next(
        point
        for point, inst in function.instructions()
        if isinstance(inst, Call) and inst.callee == "g"
    )
    return ProgramPoint(point.block, point.index + 1)


class _PauseAfterTheCall(HotnessPolicy):
    """Enter ``f``'s optimized code after the loop's first call to ``g``."""

    def select_osr_point(self, state, candidates, loop_points, config):
        if state.base.name != "f":
            return super().select_osr_point(state, candidates, loop_points, config)
        point = _after_the_call(state.base)
        assert point in candidates
        return point


def _runtime(*, inline=False, policy=None):
    config = EngineConfig(
        hotness_threshold=3,
        min_samples=2,
        inline_min_calls=2,
        max_versions=1,
        inline=inline,
        step_limit=STEP_LIMIT,
    )
    runtime = AdaptiveRuntime(config, policy=policy)
    module = compile_program(SOURCE)
    runtime.register_module(module)
    return runtime, module


def _run(runtime, n, m, *, bad=None):
    args, memory = _arguments(n, m, bad=bad)
    return runtime.call("f", args, memory=memory)


def _deoptimize(runtime, point, n, m):
    args, memory = _arguments(n, m)
    return runtime.deoptimize_at("f", point, args, memory=memory)


def _warm(runtime, calls=4):
    for k in range(calls):
        _run(runtime, 5 + k, 2 + k)
    assert runtime.stats("f")["compiled"] == (calls >= 3)


def _g_calls(runtime) -> int:
    return runtime.stats("g")["calls"]


def _assert_g_dispatched(runtime, module, n, m, *, bad=None, expect_g=None):
    """One call of ``f``: the oracle's value, and ``g`` counted per trip."""
    before = _g_calls(runtime)
    value = _run(runtime, n, m, bad=bad).value
    assert value == _oracle(module, *_arguments(n, m, bad=bad))
    assert _g_calls(runtime) - before == (n if expect_g is None else expect_g)


def test_base_tier():
    runtime, module = _runtime()
    _assert_g_dispatched(runtime, module, 6, 3)
    assert runtime.stats("f")["compiled"] == 0
    with pytest.raises(StepLimitExceeded):
        _run(runtime, 6, 1000)


class TestTierUpPause:
    def test_the_pause_dispatches_calls(self):
        runtime, module = _runtime(policy=_PauseAfterTheCall())
        _warm(runtime, calls=2)
        _assert_g_dispatched(runtime, module, 6, 3)
        assert runtime.stats("f")["osr_entries"] == 1

    def test_the_pause_keeps_the_step_limit(self):
        runtime, _ = _runtime(policy=_PauseAfterTheCall())
        _warm(runtime, calls=2)
        # The pause point lies past the long counting loop.
        with pytest.raises(StepLimitExceeded):
            _run(runtime, 6, 1000)
        assert runtime.stats("f")["compiled"] == 1


class TestFirstFailureLanding:
    def test_the_landing_dispatches_calls(self):
        runtime, module = _runtime()
        _warm(runtime)
        _assert_g_dispatched(runtime, module, 8, 3, bad=-5)
        stats = runtime.stats("f")
        assert stats["dispatch_misses"] == 1 and stats["multiframe_deopts"] == 0

    def test_the_landing_keeps_the_step_limit(self):
        runtime, _ = _runtime()
        _warm(runtime)
        _run(runtime, LONG, 3)  # compiled: within the limit
        with pytest.raises(StepLimitExceeded):
            _run(runtime, LONG, 3, bad=-5)
        assert runtime.stats("f")["dispatch_misses"] == 1


class TestMultiFrameUnwind:
    def test_the_unwind_dispatches_calls(self):
        runtime, module = _runtime(inline=True)
        _warm(runtime)
        assert runtime.stats("f")["inlined_frames"] == 1
        # The failing trip's call is the inlined frame the unwind
        # resumes; every later trip calls ``g`` from f_base.
        _assert_g_dispatched(runtime, module, 8, 3, bad=500, expect_g=7)
        assert runtime.stats("f")["multiframe_deopts"] == 1

    def test_the_unwind_keeps_the_step_limit(self):
        runtime, _ = _runtime(inline=True)
        _warm(runtime)
        _run(runtime, LONG, 3)
        with pytest.raises(StepLimitExceeded):
            _run(runtime, LONG, 3, bad=500)
        assert runtime.stats("f")["multiframe_deopts"] == 1


class TestForcedDeoptimization:
    def _point(self, runtime):
        point = _after_the_call(runtime.functions["f"].version.optimized)
        assert runtime.deopt_mapping("f").lookup(point) is not None
        return point

    def test_pause_and_landing_dispatch_calls(self):
        runtime, module = _runtime()
        _warm(runtime)
        point = self._point(runtime)
        before = _g_calls(runtime)
        result = _deoptimize(runtime, point, 8, 3)
        assert result.value == _oracle(module, *_arguments(8, 3))
        # One trip's call in the pause (f_opt), the other seven after
        # the landing (f_base).
        assert _g_calls(runtime) - before == 8
        assert runtime.stats("f")["osr_exits"] == 1

    def test_the_pause_keeps_the_step_limit(self):
        runtime, _ = _runtime()
        _warm(runtime)
        point = self._point(runtime)
        _run(runtime, 6, 1000)  # compiled: within the limit
        with pytest.raises(StepLimitExceeded):
            _deoptimize(runtime, point, 6, 1000)
        assert runtime.stats("f")["osr_exits"] == 0

    def test_the_landing_keeps_the_step_limit(self):
        runtime, _ = _runtime()
        _warm(runtime)
        point = self._point(runtime)
        with pytest.raises(StepLimitExceeded):
            _deoptimize(runtime, point, LONG, 3)
        assert runtime.stats("f")["osr_exits"] == 1

    def test_the_landing_profiles_f_base(self):
        # Like every other landing in f_base, a forced deopt's keeps the
        # base tier learning; the pause runs f_opt and records nothing.
        runtime, _ = _runtime()
        _warm(runtime)
        point = self._point(runtime)

        def loop_tests():
            return runtime.profile.function("f").values["%t8"].samples

        before = loop_tests()
        _deoptimize(runtime, point, 8, 3)
        # The landing is in trip 0, after its loop test: trips 1-7 and
        # the exit test each record one sample.
        assert loop_tests() - before == 8
