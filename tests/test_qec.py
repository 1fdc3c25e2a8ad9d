"""Tests for the surface code, leakage dynamics, ERASER, and cycle time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.qec import (
    EraserConfig,
    LeakageParams,
    LeakageSimulator,
    LevelStreamSpeculator,
    LRCModel,
    RotatedSurfaceCode,
    SurfaceCodeTiming,
    cycle_time_ns,
    cycle_time_reduction,
    run_eraser,
)


class TestSurfaceCode:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_counts(self, d):
        code = RotatedSurfaceCode(d)
        assert code.n_data == d * d
        assert code.n_ancilla == d * d - 1

    @pytest.mark.parametrize("d", [3, 5])
    def test_stabilizer_weights(self, d):
        code = RotatedSurfaceCode(d)
        weights = [s.weight for s in code.stabilizers]
        assert set(weights) <= {2, 4}
        assert weights.count(2) == 2 * (d - 1)

    @pytest.mark.parametrize("d", [3, 5])
    def test_x_z_balance(self, d):
        code = RotatedSurfaceCode(d)
        assert len(code.x_stabilizers) == (d * d - 1) // 2
        assert len(code.z_stabilizers) == (d * d - 1) // 2

    @pytest.mark.parametrize("d", [3, 5])
    def test_css_commutation(self, d):
        """X and Z stabilizers must overlap on an even number of qubits."""
        code = RotatedSurfaceCode(d)
        for x_stab in code.x_stabilizers:
            for z_stab in code.z_stabilizers:
                assert code.overlap(x_stab, z_stab) % 2 == 0

    def test_every_data_qubit_has_stabilizers(self):
        code = RotatedSurfaceCode(5)
        for q in range(code.n_data):
            neighbors = code.stabilizers_of_data(q)
            assert 2 <= len(neighbors) <= 4

    def test_even_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            RotatedSurfaceCode(4)


class TestLRC:
    def test_deleaks_with_success_prob(self, rng):
        lrc = LRCModel(success_prob=1.0, induce_prob=0.0)
        leaked = np.array([True, True, False])
        out = lrc.apply(leaked, np.array([0, 1, 2]), rng)
        assert not out.any()

    def test_induces_leakage_on_clean_targets(self, rng):
        lrc = LRCModel(success_prob=1.0, induce_prob=1.0)
        leaked = np.zeros(3, dtype=bool)
        out = lrc.apply(leaked, np.array([1]), rng)
        assert out[1] and not out[0]

    def test_no_targets_is_noop(self, rng):
        lrc = LRCModel()
        leaked = np.array([True])
        out = lrc.apply(leaked, np.array([], dtype=int), rng)
        np.testing.assert_array_equal(out, leaked)

    def test_statistical_success_rate(self, rng):
        lrc = LRCModel(success_prob=0.7, induce_prob=0.0)
        leaked = np.ones(5000, dtype=bool)
        out = lrc.apply(leaked, np.arange(5000), rng)
        assert np.mean(~out) == pytest.approx(0.7, abs=0.03)


class TestLeakageSimulator:
    def test_leakage_accumulates_without_mitigation(self):
        code = RotatedSurfaceCode(5)
        sim = LeakageSimulator(code, LeakageParams(p_seep=0.0), seed=0)
        populations = []
        for _ in range(20):
            sim.run_cycle()
            populations.append(sim.leakage_population)
        assert populations[-1] > 0

    def test_leaked_data_qubit_randomizes_syndrome(self):
        code = RotatedSurfaceCode(5)
        params = LeakageParams(
            p_leak_gate=0.0, p_leak_measurement=0.0, p_transport=0.0,
            p_pauli=0.0, readout_error=0.0, p_seep=0.0,
        )
        sim = LeakageSimulator(code, params, seed=1)
        target = 12
        sim.inject_data_leakage(target)
        flips = np.zeros(code.n_ancilla)
        for _ in range(200):
            record = sim.run_cycle()
            flips += record.syndrome
        neighbors = code.stabilizers_of_data(target)
        for stab in range(code.n_ancilla):
            rate = flips[stab] / 200
            if stab in neighbors:
                assert rate == pytest.approx(0.5, abs=0.12)
            else:
                assert rate == 0.0

    def test_ancilla_level_readout_reports_leakage(self):
        code = RotatedSurfaceCode(3)
        params = LeakageParams(
            p_leak_gate=0.0, p_leak_measurement=1.0, readout_error=0.0
        )
        sim = LeakageSimulator(code, params, seed=2)
        record = sim.run_cycle()
        assert np.all(record.ancilla_level_readout == 2)

    def test_seepage_removes_leakage(self):
        code = RotatedSurfaceCode(3)
        params = LeakageParams(
            p_leak_gate=0.0, p_leak_measurement=0.0, p_transport=0.0,
            p_seep=1.0,
        )
        sim = LeakageSimulator(code, params, seed=3)
        sim.inject_data_leakage(0)
        sim.run_cycle()
        assert sim.leakage_population == 0.0

    def test_reset_clears_state(self):
        code = RotatedSurfaceCode(3)
        sim = LeakageSimulator(code, seed=4)
        sim.inject_data_leakage(0)
        sim.reset()
        assert sim.leakage_population == 0.0


class TestEraser:
    @pytest.fixture(scope="class")
    def code(self):
        return RotatedSurfaceCode(5)

    def test_reports_are_well_formed(self, code):
        report = run_eraser(code, cycles=5, shots=30, seed=0)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.leakage_population >= 0.0
        assert report.n_shots == 30

    def test_multi_level_beats_two_level(self, code):
        base = run_eraser(
            code, cycles=10, shots=120,
            config=EraserConfig(multi_level=False), seed=1,
        )
        multi = run_eraser(
            code, cycles=10, shots=120,
            config=EraserConfig(multi_level=True), seed=1,
        )
        assert multi.accuracy >= base.accuracy
        assert multi.leakage_population < base.leakage_population

    def test_accuracy_degrades_with_readout_error(self, code):
        good = run_eraser(
            code, cycles=10, shots=100,
            params=LeakageParams(readout_error=0.05),
            config=EraserConfig(multi_level=True), seed=2,
        )
        bad = run_eraser(
            code, cycles=10, shots=100,
            params=LeakageParams(readout_error=0.20),
            config=EraserConfig(multi_level=True), seed=2,
        )
        assert good.accuracy > bad.accuracy

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            EraserConfig(window=0)
        with pytest.raises(ConfigurationError):
            run_eraser(RotatedSurfaceCode(3), cycles=0)


def _per_shot_reference(levels, window, needed):
    """The original ring-buffer update: one step per shot over the stream."""
    n_qubits = levels.shape[1]
    history = np.zeros((window, n_qubits), dtype=np.int64)
    sums = np.zeros(n_qubits, dtype=np.int64)
    flags = np.zeros(levels.shape, dtype=bool)
    for i, row in enumerate(levels):
        evidence = (row == 2).astype(np.int64)
        sums += evidence - history[i % window]
        history[i % window] = evidence
        fired = sums >= needed
        flags[i] = fired
        history[:, fired] = 0
        sums[fired] = 0
    return flags


class TestLevelStreamSpeculator:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_per_shot_reference_for_any_batching(self, data):
        n_qubits = data.draw(st.integers(1, 4))
        n_shots = data.draw(st.integers(0, 60))
        levels = np.array(
            data.draw(
                st.lists(
                    st.integers(0, 2),
                    min_size=n_shots * n_qubits,
                    max_size=n_shots * n_qubits,
                )
            ),
            dtype=np.int64,
        ).reshape(n_shots, n_qubits)
        window = data.draw(st.integers(1, 6))
        needed = data.draw(st.integers(1, 6))
        cuts = sorted(data.draw(st.lists(st.integers(0, n_shots), max_size=6)))

        spec = LevelStreamSpeculator(
            n_qubits,
            EraserConfig(
                window=window, multi_level=True, direct_evidence_cycles=needed
            ),
        )
        flags = np.concatenate(
            [spec.update(batch) for batch in np.split(levels, cuts)]
        )

        expected = _per_shot_reference(levels, window, needed)
        leaked = (levels == 2).sum(axis=0)
        assert np.array_equal(flags, expected)
        assert np.array_equal(spec.flags_per_qubit, expected.sum(axis=0))
        assert np.array_equal(spec.leaked_per_qubit, leaked)
        shots = max(n_shots, 1)
        assert spec.summary() == {
            "shots_seen": n_shots,
            "lrc_requests": int(expected.sum()),
            "lrc_rate": int(expected.sum()) / shots,
            "leaked_readout_rate": float(leaked.sum()) / (shots * n_qubits),
            "flags_per_qubit": [int(f) for f in expected.sum(axis=0)],
        }


class TestCycleTime:
    def test_paper_reduction(self):
        assert cycle_time_reduction(1000.0, 800.0) == pytest.approx(0.17, abs=0.005)

    def test_cycle_composition(self):
        timing = SurfaceCodeTiming()
        assert cycle_time_ns(1000.0, timing) == pytest.approx(
            timing.gate_time_ns + 1000.0
        )

    def test_zero_reduction_for_equal_readouts(self):
        assert cycle_time_reduction(1000.0, 1000.0) == 0.0

    def test_longer_readout_rejected(self):
        with pytest.raises(ConfigurationError):
            cycle_time_reduction(800.0, 1000.0)

    @settings(max_examples=20, deadline=None)
    @given(readout=st.floats(min_value=100.0, max_value=5000.0))
    def test_reduction_bounded_property(self, readout):
        shorter = readout * 0.8
        r = cycle_time_reduction(readout, shorter)
        assert 0.0 < r < 0.2
