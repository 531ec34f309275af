"""Path model, controls, example processes, serialization."""

import dataclasses
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doleans import (
    ExpCompensatorDrift,
    JumpPath,
    PredictableControl,
    control_indicator_after,
    integrate_control,
    path_from_json,
    path_to_json,
)
from doleans.paths import _stream_uniforms, stream_generator
from doleans.transcendental import exp


class TestJumpPathInvariants:
    def test_rejects_jump_at_minus_one(self):
        with pytest.raises(ValueError):
            JumpPath(horizon=1.0, jumps=((1.0, -1.0),))

    def test_rejects_unordered_jumps(self):
        with pytest.raises(ValueError):
            JumpPath(horizon=2.0, jumps=((1.5, 0.1), (1.0, 0.2)))

    def test_rejects_jump_beyond_horizon(self):
        with pytest.raises(ValueError):
            JumpPath(horizon=1.0, jumps=((1.5, 0.1),))

    def test_rejects_jump_at_zero(self):
        with pytest.raises(ValueError):
            JumpPath(horizon=1.0, jumps=((0.0, 0.1),))

    def test_value_at_checks_range(self):
        p = JumpPath(horizon=1.0)
        with pytest.raises(ValueError):
            p.value_at(2.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_paths_satisfy_invariants(self, all_models, seed):
        # 1000 seeds spread over the parametrized grid and the loop
        for model in all_models:
            for i in range(250):
                p = model.sampler(seed, i)
                prev = 0.0
                for t, dm in p.jumps:
                    assert prev < t <= p.horizon
                    assert dm > -1.0
                    prev = t


def one_jump_values_at(batch, s):
    """``M_s`` of every row of a one-jump batch, as ``JumpPath.value_at`` sums it."""
    return batch.drift.array(s) + np.where(batch.jump_t[:, 0] <= s,
                                           batch.jump_dm[:, 0], 0.0)


class TestExampleModels:
    def test_driver_rejects_unknown_growth(self, model1):
        with pytest.raises(ValueError, match="unknown growth model 'cubic'"):
            dataclasses.replace(model1.drivers[0], growth="cubic")

    def test_example1_structure(self, model1):
        for i in range(50):
            p = model1.sampler(3, i)
            assert p.horizon == 1.0
            assert len(p.jumps) == 1
            t, dm = p.jumps[0]
            assert t == 1.0
            assert -1.0 < dm < 1.0
            assert p.value_at(1.0) - p.value_at(0.0) == dm

    def test_example1_mc_mean_zero(self, model1):
        rng = np.random.Generator(np.random.Philox(key=11))
        batch = model1.build_batch(*model1.driver_columns(rng, 1_000_000))
        vals = one_jump_values_at(batch, 1.0)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) <= 4.0 * se

    def test_example2_value_at_horizon_is_one(self, model2):
        # jump e^{tau} plus compensator -(e^{tau} - 1) telescopes to 1
        for i in range(200):
            p = model2.sampler(17, i)
            assert abs(p.value_at(p.horizon) - 1.0) < 1e-12
            assert p.jumps[0][1] == exp(p.horizon)

    def test_example2_stopped_mean_zero(self, model2):
        rng = np.random.Generator(np.random.Philox(key=12))
        batch = model2.build_batch(*model2.driver_columns(rng, 1_000_000))
        vals = one_jump_values_at(batch, np.minimum(1.0, batch.horizon))
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) <= 4.0 * se

    def test_example3_structure(self, model3):
        for i in range(200):
            p = model3.sampler(23, i)
            assert len(p.jumps) == 2
            assert p.jumps[0][0] == 1.0
            assert p.jumps[1][0] == p.horizon > 1.0
            assert p.jumps[1][1] >= 1.0

    def test_example3_drivers_uncorrelated(self, model3):
        rng = np.random.Generator(np.random.Philox(key=31))
        batch = model3.build_batch(*model3.driver_columns(rng, 1_000_000))
        r = np.corrcoef(batch.jump_dm[:, 0], batch.horizon)[0, 1]
        # the sample correlation is self-normalized, so ~N(0, 1/n) under
        # independence even though eta has infinite variance
        assert abs(r) <= 4.0 / math.sqrt(len(batch))

    def test_sampler_deterministic(self, all_models):
        for model in all_models:
            a = model.sampler(99, 7)
            b = model.sampler(99, 7)
            assert a.jumps == b.jumps and a.horizon == b.horizon
            c = model.sampler(99, 8)
            assert c.jumps != a.jumps

    def test_sampler_takes_numpy_integers(self, all_models):
        # a bare ``np.int64(i) << 128`` is 0: every stream would fold onto 0
        for model in all_models:
            for seed, i in ((3, 0), (99, 7), (2**64 - 1, 5)):
                a = model.sampler(np.uint64(seed), np.int64(i))
                b = model.sampler(seed, i)
                assert a.horizon.hex() == b.horizon.hex()
                assert [(t.hex(), dm.hex()) for t, dm in a.jumps] == \
                    [(t.hex(), dm.hex()) for t, dm in b.jumps]


def philox_state(bit_generator) -> tuple:
    state = bit_generator.state
    return (tuple(state["state"]["counter"]), tuple(state["state"]["key"]),
            state["buffer_pos"], state["has_uint32"])


class TestStreamGenerator:
    @pytest.mark.parametrize("seed, j", [
        (0, 0), (2**64 - 1, 0), (7, 2**64 - 1),
        (5, 2**64 + 3),    # carry into the top counter word
        (5, 2**128 + 9),   # wraps modulo 2^256
    ])
    def test_state_is_numpys_jump(self, seed, j):
        rng = stream_generator(seed, j)
        assert philox_state(rng.bit_generator) == \
            philox_state(np.random.Philox(key=seed).jumped(j))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**128])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            stream_generator(seed, 0)

    def test_rejects_negative_stream(self, model1):
        with pytest.raises(ValueError, match="stream index"):
            stream_generator(0, -1)
        with pytest.raises(ValueError, match="stream index"):
            model1.sampler(0, -1)

    @given(seed=st.integers(0, 2**64 - 1),
           j=st.one_of(st.integers(0, 2**72), st.integers(2**128 - 4, 2**130)),
           count=st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_reused_generator_draws_the_streams_uniforms(self, seed, j, count):
        # the sampler's one Philox per thread, re-keyed per call, against a
        # generator built for the stream; counters past 2^64 and the wrap
        # modulo 2^256 included
        assert _stream_uniforms(seed, j, count) == \
            stream_generator(seed, j).random(count).tolist()
        assert _stream_uniforms(np.uint64(seed), j, count) == \
            _stream_uniforms(seed, j, count)

    def test_sampler_in_two_threads_equals_a_serial_run(self, all_models):
        cases = [(m, seed, j) for m in all_models for seed in (0, 7, 2**64 - 1)
                 for j in range(150)]
        serial = [m.sampler(seed, j) for m, seed, j in cases]
        results = [None, None]

        def run(k):
            order = range(len(cases)) if k == 0 else reversed(range(len(cases)))
            results[k] = {i: cases[i][0].sampler(*cases[i][1:]) for i in order}

        # switch threads as often as the interpreter allows, so that a
        # shared generator would be re-keyed between another thread's
        # re-key and draw
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        for out in results:
            assert [out[i] for i in range(len(cases))] == serial


class TestPredictableControl:
    def test_values_validated(self):
        with pytest.raises(ValueError):
            PredictableControl.constant(1.5)
        with pytest.raises(ValueError):
            PredictableControl((1.0, 0.5), (0.0, 0.5, 1.0))

    def test_indicator_left_continuity(self):
        a = control_indicator_after(1.0)
        assert a.value_at(1.0) == 0.0
        assert a.value_at(2.0) == 1.0
        assert a.value_at(0.5) == 0.0

    def test_indicator_rejects_negative_time(self):
        with pytest.raises(ValueError):
            control_indicator_after(-1.0)

    def test_constant_everywhere(self):
        a = PredictableControl.constant(0.3)
        for t in (0.0, 0.7, 5.0, 100.0):
            assert a.value_at(t) == 0.3

    def test_segments_partition(self):
        a = PredictableControl((0.5, 2.0), (0.1, 0.6, 1.0))
        segs = list(a.segments_until(3.0))
        assert segs == [(0.0, 0.5, 0.1), (0.5, 2.0, 0.6), (2.0, 3.0, 1.0)]
        assert list(a.segments_until(0.25)) == [(0.0, 0.25, 0.1)]
        assert list(a.segments_until(0.5)) == [(0.0, 0.5, 0.1)]
        # the unclipped segments theorem1_batch reads
        assert list(a.segments_until(math.inf)) == [
            (0.0, 0.5, 0.1), (0.5, 2.0, 0.6), (2.0, math.inf, 1.0)]
        # a break at 0: its first value never applies
        b = PredictableControl((0.0, 1.0), (0.3, 0.6, 0.9))
        assert list(b.segments_until(2.0)) == [(0.0, 1.0, 0.6), (1.0, 2.0, 0.9)]
        for c in (a, b):
            assert list(c.segments_until(0.0)) == []


class TestIntegrateControl:
    def test_zero_control(self, model2):
        p = model2.sampler(5, 0)
        assert integrate_control(p, PredictableControl.constant(0.0), p.horizon) == 0.0

    def test_full_control_recovers_path(self, all_models):
        one = PredictableControl.constant(1.0)
        for model in all_models:
            for i in range(20):
                p = model.sampler(41, i)
                t = p.horizon
                assert abs(integrate_control(p, one, t) - p.value_at(t)) < 1e-12

    def test_example2_half_control(self, model2):
        # linearity oracle: a == 1/2 gives half of M_tau = 1
        half = PredictableControl.constant(0.5)
        for i in range(50):
            p = model2.sampler(43, i)
            assert abs(integrate_control(p, half, p.horizon) - 0.5) < 1e-12


class TestSerialization:
    def test_schema_fields(self, model3):
        p = model3.sampler(1, 0)
        doc = path_to_json(p)
        assert set(doc) == {"horizon", "jumps", "drift_kind"}
        assert all(set(j) == {"t", "dm"} for j in doc["jumps"])

    def test_roundtrip(self, all_models):
        for model in all_models:
            for i in range(10):
                p = model.sampler(13, i)
                q = path_from_json(json.loads(json.dumps(path_to_json(p))))
                assert q.horizon == p.horizon
                assert q.jumps == p.jumps
                for t in np.linspace(0.0, p.horizon, 9):
                    assert q.drift(t) == p.drift(t)
        doc = {"horizon": 2, "jumps": [{"t": 1, "dm": 0}], "drift_kind": "zero"}
        assert path_from_json(doc) == JumpPath(2.0, ((1.0, 0.0),))

    def test_derived_drift_not_serializable(self):
        from doleans import ScaledDrift

        p = JumpPath(horizon=1.0, drift=ScaledDrift(ExpCompensatorDrift(0.0), 0.5))
        with pytest.raises(ValueError):
            path_to_json(p)

    def test_cont_qv_kind_is_absent_and_rejected(self, model2):
        doc = path_to_json(model2.sampler(13, 0))
        assert "cont_qv_kind" not in doc
        for kind in ("zero", "linear:0.25", "mystery"):
            with pytest.raises(ValueError, match=r"unknown keys \['cont_qv_kind'\]"):
                path_from_json({**doc, "cont_qv_kind": kind})

    def test_missing_key_rejected(self, model2):
        doc = path_to_json(model2.sampler(13, 0))
        for key in doc:
            with pytest.raises(ValueError, match=rf"missing keys \['{key}'\]"):
                path_from_json({k: v for k, v in doc.items() if k != key})

    @pytest.mark.parametrize("change, message", [
        ({"jumps": [{"t": 1.0}]}, r"jump: missing keys \['dm'\], unknown keys \[\]"),
        ({"jumps": [{"t": 1.0, "dm": 0.5, "w": 2.0}]},
         r"jump: missing keys \[\], unknown keys \['w'\]"),
        ({"jumps": [[1.0, 0.5]]}, r"jump must be an object, got list"),
        ({"jumps": 5}, r"jumps must be a list, got int"),
        ({"jumps": [{"t": 1.0, "dm": math.inf}]},
         r"jump dm must be a finite number, got inf"),
        ({"jumps": [{"t": math.nan, "dm": 0.5}]},
         r"jump t must be a finite number, got nan"),
        ({"horizon": math.inf}, r"horizon must be a finite number, got inf"),
        ({"horizon": True}, r"horizon must be a finite number, got True"),
        ({"horizon": "2"}, r"horizon must be a finite number, got '2'"),
        ({"horizon": None}, r"horizon must be a finite number, got None"),
        ({"drift_kind": 5}, r"unknown drift_kind 5"),
        ({"drift_kind": "exp_compensator:nan"}, r"unknown drift_kind 'exp_compensator:nan'"),
        ({"drift_kind": "exp_compensator:-inf"},
         r"unknown drift_kind 'exp_compensator:-inf'"),
    ], ids=["missing", "extra", "list", "jumps-int", "dm-inf", "t-nan", "horizon-inf",
            "horizon-bool", "horizon-str", "horizon-null", "kind-int", "kind-nan",
            "kind-minus-inf"])
    def test_jump_keys_checked(self, change, message):
        doc = {"horizon": 1.0, "jumps": [], "drift_kind": "zero", **change}
        with pytest.raises(ValueError, match=message):
            path_from_json(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            path_from_json({"horizon": 1.0, "jumps": [], "drift_kind": "mystery"})
