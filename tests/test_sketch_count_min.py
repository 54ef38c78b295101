"""Tests for the Count-Min Sketch and its conservative-update variant."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch.count_min import ConservativeCountMinSketch, CountMinSketch, SketchConfig


def make_sketch(cls=CountMinSketch, **overrides):
    config = SketchConfig(
        num_hashes=overrides.pop("num_hashes", 4),
        counters_per_hash=overrides.pop("counters_per_hash", 64),
        counter_width_bits=overrides.pop("counter_width_bits", 10),
        seed=overrides.pop("seed", 1),
    )
    return cls(config, **overrides)


class TestSketchConfig:
    def test_total_counters_and_storage(self):
        config = SketchConfig(num_hashes=4, counters_per_hash=512, counter_width_bits=8)
        assert config.total_counters == 2048
        assert config.storage_bits == 2048 * 8

    def test_paper_counter_table_storage(self):
        """The paper's CT (4x512, 8-bit at NRH=1K) is 2 KiB per bank = 64 KiB for 32 banks."""
        config = SketchConfig(num_hashes=4, counters_per_hash=512, counter_width_bits=8)
        assert config.storage_bits / 8 / 1024 * 32 == 64.0


class TestCountMinSketch:
    def test_single_item_exact(self):
        sketch = make_sketch()
        for _ in range(17):
            sketch.update(1234)
        assert sketch.estimate(1234) == 17

    def test_unknown_item_estimate_zero_when_empty(self):
        sketch = make_sketch()
        assert sketch.estimate(99) == 0

    def test_never_underestimates(self):
        sketch = make_sketch(counters_per_hash=32)
        truth = {}
        for key in range(200):
            count = (key * 7) % 5 + 1
            truth[key] = count
            for _ in range(count):
                sketch.update(key)
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_update_returns_new_estimate(self):
        sketch = make_sketch()
        value = sketch.update(42, 3)
        assert value == sketch.estimate(42) == 3

    def test_negative_update_rejected(self):
        sketch = make_sketch()
        with pytest.raises(ValueError):
            sketch.update(1, -1)

    def test_saturation(self):
        sketch = make_sketch(saturation_value=10)
        for _ in range(50):
            sketch.update(7)
        assert sketch.estimate(7) == 10

    def test_saturation_must_fit_counter_width(self):
        config = SketchConfig(num_hashes=2, counters_per_hash=16, counter_width_bits=4)
        with pytest.raises(ValueError):
            CountMinSketch(config, saturation_value=100)

    def test_set_group_raises_counters_to_value(self):
        sketch = make_sketch(saturation_value=31)
        sketch.update(5)
        sketch.set_group(5, 31)
        assert sketch.estimate(5) == 31

    def test_set_group_never_lowers_counters(self):
        sketch = make_sketch(saturation_value=100)
        for _ in range(60):
            sketch.update(5)
        sketch.set_group(5, 10)
        assert sketch.estimate(5) == 60

    def test_reset_clears_all(self):
        sketch = make_sketch()
        for key in range(50):
            sketch.update(key)
        sketch.reset()
        assert all(value == 0 for row in sketch._counters for value in row)
        assert sketch.total_updates == 0
        assert all(sketch.estimate(key) == 0 for key in range(50))

    def test_counter_group_indices_in_range(self):
        sketch = make_sketch(counters_per_hash=32)
        group = sketch.counter_group(12345)
        assert len(group) == 4
        assert all(0 <= idx < 32 for idx in group)

    def test_num_saturated_counters(self):
        sketch = make_sketch(saturation_value=5)

        def saturated():
            return sum(value >= 5 for row in sketch._counters for value in row)

        assert saturated() == 0
        for _ in range(5):
            sketch.update(3)
        assert saturated() >= 1

    def test_mismatched_hash_family_rejected(self):
        from repro.sketch.hashes import ShiftMaskHashFamily

        config = SketchConfig(num_hashes=4, counters_per_hash=64)
        with pytest.raises(ValueError):
            CountMinSketch(config, hash_family=ShiftMaskHashFamily(3, 64))
        with pytest.raises(ValueError):
            CountMinSketch(config, hash_family=ShiftMaskHashFamily(4, 32))


class TestConservativeCountMinSketch:
    def test_single_item_exact(self):
        sketch = make_sketch(ConservativeCountMinSketch)
        for _ in range(9):
            sketch.update(77)
        assert sketch.estimate(77) == 9

    def test_never_underestimates(self):
        sketch = make_sketch(ConservativeCountMinSketch, counters_per_hash=32)
        truth = {}
        for key in range(300):
            count = (key % 7) + 1
            truth[key] = count
            for _ in range(count):
                sketch.update(key)
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_conservative_update_overestimates_no_more_than_plain_cms(self):
        """CMS-CU estimates are <= plain CMS estimates for an identical stream."""
        plain = make_sketch(CountMinSketch, counters_per_hash=16, seed=3)
        conservative = make_sketch(ConservativeCountMinSketch, counters_per_hash=16, seed=3)
        stream = [(key * 13) % 97 for key in range(2000)]
        for key in stream:
            plain.update(key)
            conservative.update(key)
        for key in set(stream):
            assert conservative.estimate(key) <= plain.estimate(key)

    def test_total_overestimation_is_smaller(self):
        plain = make_sketch(CountMinSketch, counters_per_hash=16, seed=5)
        conservative = make_sketch(ConservativeCountMinSketch, counters_per_hash=16, seed=5)
        truth = {}
        stream = [(key * 31) % 211 for key in range(3000)]
        for key in stream:
            truth[key] = truth.get(key, 0) + 1
            plain.update(key)
            conservative.update(key)
        plain_error = sum(plain.estimate(k) - c for k, c in truth.items())
        conservative_error = sum(conservative.estimate(k) - c for k, c in truth.items())
        assert conservative_error <= plain_error

    def test_saturation(self):
        sketch = make_sketch(ConservativeCountMinSketch, saturation_value=8)
        for _ in range(20):
            sketch.update(11)
        assert sketch.estimate(11) == 8

    def test_negative_update_rejected(self):
        sketch = make_sketch(ConservativeCountMinSketch)
        with pytest.raises(ValueError):
            sketch.update(1, -2)

    def test_bulk_update_amount(self):
        sketch = make_sketch(ConservativeCountMinSketch)
        sketch.update(9, 6)
        assert sketch.estimate(9) == 6


class TestEstimateAndIncrement:
    """``estimate_and_increment`` is ``estimate`` then, below saturation, a +1
    ``update`` — one pass instead of two, same result and same state."""

    @settings(max_examples=150, deadline=None)
    @given(
        num_hashes=st.integers(min_value=1, max_value=4),
        counters_per_hash=st.sampled_from([1, 2, 4, 8]),
        saturation=st.integers(min_value=1, max_value=6),
        steps=st.lists(
            st.tuples(st.sampled_from(["count", "saturate", "reset"]), st.integers(0, 40)),
            max_size=120,
        ),
    )
    def test_equals_estimate_then_conditional_update(
        self, num_hashes, counters_per_hash, saturation, steps
    ):
        def build():
            return make_sketch(
                ConservativeCountMinSketch,
                num_hashes=num_hashes,
                counters_per_hash=counters_per_hash,
                counter_width_bits=3,
                saturation_value=saturation,
            )

        fused, reference = build(), build()
        for op, key in steps:
            if op == "count":
                before = reference.estimate(key)
                if before + 1 < reference.saturation_value:
                    reference.update(key, 1)
                assert fused.estimate_and_increment(key) == before
            elif op == "saturate":
                # What CoMeT does when the count reaches the saturation value.
                fused.set_group(key, saturation)
                reference.set_group(key, saturation)
            else:
                fused.reset()
                reference.reset()
            assert fused._counters == reference._counters
            assert fused.total_updates == reference.total_updates

    def test_saturated_group_is_left_alone(self):
        sketch = make_sketch(ConservativeCountMinSketch, saturation_value=3)
        assert [sketch.estimate_and_increment(5) for _ in range(4)] == [0, 1, 2, 2]
        assert sketch.estimate(5) == 2
        assert sketch.total_updates == 2
        sketch.set_group(5, 3)
        before = [list(row) for row in sketch._counters]
        assert sketch.estimate_and_increment(5) == 3
        assert sketch._counters == before
        assert sketch.total_updates == 2


class TestSingleBackend:
    def test_comet_run_does_not_import_numpy(self):
        """The sketches keep their counters in plain lists: a whole CoMeT
        experiment runs without numpy ever being imported."""
        script = (
            "import sys\n"
            "from repro.experiment.execute import execute_spec\n"
            "from repro.experiment.spec import ExperimentSpec, MitigationSpec, WorkloadSpec\n"
            "result = execute_spec(ExperimentSpec(\n"
            "    workload=WorkloadSpec(name='attack_traditional', num_requests=300),\n"
            "    mitigation=MitigationSpec(name='comet', nrh=125),\n"
            "))\n"
            "assert result.mitigation_stats['observed_activations'] > 0\n"
            "print('numpy' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"
