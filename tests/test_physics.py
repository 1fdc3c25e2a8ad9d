"""Tests for the dispersive-readout physics simulator."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, ShapeError
from repro.physics import (
    DEMO_DRIFT,
    ADCConfig,
    ChipConfig,
    ReadoutSimulator,
    TransitionRates,
    default_five_qubit_chip,
    sample_level_matrix,
)
from repro.physics.device import multi_feedline_chips
from repro.physics.dispersive import (
    evolve_segment,
    segment_decay,
    steady_state_field,
)
from repro.physics.jumps import jump_statistics
from repro.physics.multiplex import multiplex
from repro.physics.noise import apply_gain_drift, complex_white_noise
from repro.physics.trajectories import baseband_response, state_mean_response
from tests.conftest import make_two_qubit_chip


# -- Reference oracle: the direct per-qubit simulation ----------------------
#
# Every shot runs the full field recurrence for every qubit, the
# (n_qubits, n_shots, trace_len) basebands are mixed by the crosstalk
# matrix, and each mixed field is upconverted to its IF and summed. The
# simulator must draw exactly what this computes.


def reference_apply_crosstalk(basebands, crosstalk):
    """``mixed[q] = base[q] + sum_p C[q, p] base[p]``."""
    mixing = np.eye(basebands.shape[0], dtype=complex) + crosstalk
    return np.einsum("qp,pst->qst", mixing, basebands)


def reference_upconvert(baseband, if_frequency_ghz, times_ns):
    """Shift a baseband field to its intermediate frequency."""
    tone = np.exp(1j * 2.0 * math.pi * if_frequency_ghz * times_ns)
    return baseband * tone


def reference_combine_feedline(chip, basebands, times_ns):
    """Crosstalk mixing, per-qubit upconversion, then the sum."""
    mixed = reference_apply_crosstalk(basebands, chip.crosstalk)
    feedline = np.zeros(basebands.shape[1:], dtype=np.complex128)
    for q, qubit in enumerate(chip.qubits):
        feedline += reference_upconvert(
            mixed[q], qubit.if_frequency_ghz, times_ns
        )
    return feedline


def reference_baseband_response(qubit, levels, dt, initial_field=0.0):
    """The field recurrence, one sample at a time over shot columns."""
    lo = np.exp(1j * qubit.lo_phase)
    pulls = qubit.level_pulls()
    steady = steady_state_field(qubit.drive, pulls, qubit.kappa) * lo
    decay = segment_decay(pulls, qubit.kappa, dt)
    n, trace_len = levels.shape
    out = np.empty((n, trace_len), dtype=np.complex128)
    alpha = np.full(n, complex(initial_field) * lo, dtype=np.complex128)
    for t in range(trace_len):
        out[:, t] = alpha
        ss_t = steady[levels[:, t]]
        alpha = ss_t + (alpha - ss_t) * decay[levels[:, t]]
    return out


def reference_simulate(
    sim, prepared, trace_len=None, include_preparation_errors=True
):
    """Feedline, initial and final levels as the direct simulation draws
    them from ``sim``'s generator."""
    chip = sim.chip
    prepared = np.asarray(prepared, dtype=np.int64)
    trace_len = chip.trace_len if trace_len is None else trace_len
    if include_preparation_errors:
        initial = sim._apply_preparation_errors(prepared)
    else:
        initial = prepared.copy()
    dt = chip.dt_ns
    basebands = np.empty(
        (chip.n_qubits, prepared.shape[0], trace_len), dtype=np.complex128
    )
    final = np.empty_like(initial)
    for q, qubit in enumerate(chip.qubits):
        levels = sample_level_matrix(
            initial[:, q], sim._rates[q], trace_len, dt, sim._rng
        )
        final[:, q] = levels[:, -1]
        basebands[q] = reference_baseband_response(qubit, levels, dt)
    feedline = reference_combine_feedline(
        chip, basebands, chip.sample_times(trace_len)
    )
    scale = chip.noise_std / np.sqrt(2.0)
    if chip.noise_std > 0:
        shape = feedline.shape
        feedline += sim._rng.normal(0.0, scale, shape) + 1j * sim._rng.normal(
            0.0, scale, shape
        )
    feedline = chip.adc.digitize(feedline).astype(np.complex64)
    return feedline, initial, final


def _with_rates(chip, **rates):
    """``chip`` with every qubit's transition rates replaced."""
    return dataclasses.replace(
        chip,
        qubits=tuple(dataclasses.replace(q, **rates) for q in chip.qubits),
    )


def jumpy_chip():
    """Rates high enough that jumps often land in sample 0.

    |0> leaves within ~20 ns, mostly to a |1> that then often holds for
    the rest of the window; |2> decays within ~40 ns, so |1> -> |2> -> |1>
    traces return to their starting level.
    """
    return _with_rates(
        make_two_qubit_chip(),
        t1_ns=2_000.0, t1_2_ns=40.0, direct_20_rate=5e-3,
        excite_01_rate=5e-2, excite_12_rate=2e-3, excite_02_rate=5e-3,
    )


def frozen_chip():
    """All transition rates exactly zero: no row ever jumps."""
    return _with_rates(
        make_two_qubit_chip(),
        t1_ns=math.inf, t1_2_ns=math.inf, direct_20_rate=0.0,
        excite_01_rate=0.0, excite_12_rate=0.0, excite_02_rate=0.0,
    )


ORACLE_CHIPS = {
    "five-qubit": default_five_qubit_chip,
    "two-qubit": make_two_qubit_chip,
    "feedline-1": lambda: multi_feedline_chips(2)[1],
    "drifted": lambda: DEMO_DRIFT.chip_at(default_five_qubit_chip(), 50_000),
    "jumpy": jumpy_chip,
    "frozen": frozen_chip,
}


class TestDeviceConfig:
    def test_default_chip_matches_paper_setup(self, five_qubit_chip):
        assert five_qubit_chip.n_qubits == 5
        assert five_qubit_chip.trace_len == 500
        assert five_qubit_chip.adc.sample_rate_ghz == pytest.approx(0.5)
        assert five_qubit_chip.duration_ns == pytest.approx(1000.0)
        t1s = [q.t1_ns for q in five_qubit_chip.qubits]
        assert min(t1s) == pytest.approx(7_000.0)
        assert max(t1s) == pytest.approx(40_000.0)

    def test_leak_prone_qubits_have_elevated_excitation(self, five_qubit_chip):
        rates = [q.excite_12_rate for q in five_qubit_chip.qubits]
        assert rates[2] > 2 * rates[0]
        assert rates[3] > 2 * rates[0]

    def test_chip_serialization_round_trip(self, five_qubit_chip):
        rebuilt = ChipConfig.from_dict(five_qubit_chip.to_dict())
        assert rebuilt.n_qubits == five_qubit_chip.n_qubits
        np.testing.assert_allclose(rebuilt.crosstalk, five_qubit_chip.crosstalk)
        assert rebuilt.qubits[1].t1_ns == five_qubit_chip.qubits[1].t1_ns

    def test_if_outside_nyquist_rejected(self, five_qubit_chip):
        import dataclasses

        bad = dataclasses.replace(
            five_qubit_chip.qubits[0], if_frequency_ghz=0.4
        )
        with pytest.raises(ConfigurationError, match="Nyquist"):
            ChipConfig(qubits=(bad,))

    def test_crosstalk_diagonal_must_be_zero(self, five_qubit_chip):
        xt = np.eye(5, dtype=complex)
        import dataclasses

        with pytest.raises(ConfigurationError, match="diagonal"):
            dataclasses.replace(five_qubit_chip, crosstalk=xt)


class TestADC:
    def test_quantization_error_bounded_by_half_lsb(self, rng):
        adc = ADCConfig(n_bits=10, full_scale=4.0)
        signal = rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100)
        out = adc.digitize(signal)
        assert np.max(np.abs(out.real - signal.real)) <= adc.lsb / 2 + 1e-12
        assert np.max(np.abs(out.imag - signal.imag)) <= adc.lsb / 2 + 1e-12

    def test_clipping_at_full_scale(self):
        adc = ADCConfig(n_bits=8, full_scale=1.0)
        out = adc.digitize(np.array([100.0 + 0j, -100.0 + 0j]))
        assert out[0].real <= 1.0
        assert out[1].real >= -1.0 - adc.lsb

    def test_rejects_real_signal(self):
        with pytest.raises(ConfigurationError):
            ADCConfig().digitize(np.array([1.0, 2.0]))


class TestDispersive:
    def test_steady_state_magnitude_decreases_with_detuning(self):
        near = steady_state_field(1.0, 0.001, kappa=0.0126)
        far = steady_state_field(1.0, 0.05, kappa=0.0126)
        assert abs(near) > abs(far)

    def test_segment_decay_magnitude(self):
        decay = segment_decay(0.0, kappa=0.0126, dt=2.0)
        assert abs(decay) == pytest.approx(np.exp(-0.0126))

    def test_evolution_converges_to_steady_state(self):
        alpha_ss = steady_state_field(1.0, 0.006, 0.0126)
        times = np.array([0.0, 5000.0])
        traj = evolve_segment(
            np.array([0.0 + 0j]), np.array([alpha_ss]), 0.006, 0.0126, times
        )
        assert traj[0, 0] == pytest.approx(0.0)
        assert traj[0, -1] == pytest.approx(alpha_ss, rel=1e-6)


class TestJumps:
    def test_rates_from_qubit(self, five_qubit_chip):
        qubit = five_qubit_chip.qubits[0]
        rates = TransitionRates.from_qubit(qubit)
        assert rates.matrix[1, 0] == pytest.approx(1.0 / qubit.t1_ns)
        assert rates.matrix[2, 1] == pytest.approx(1.0 / qubit.t1_2_ns)

    def test_relaxation_fraction_matches_exponential(self, rng):
        t1 = 5_000.0
        rates = TransitionRates(np.array([[0, 0, 0], [1 / t1, 0, 0], [0, 0, 0]], float).T * 0
                                + np.array([[0, 0, 0], [1 / t1, 0, 0], [0, 0, 0]]))
        levels = sample_level_matrix(
            np.ones(4000, dtype=int), rates, trace_len=500, dt=2.0, rng=rng
        )
        stats = jump_statistics(levels, np.ones(4000, dtype=int))
        expected = 1.0 - np.exp(-1000.0 / t1)
        measured = np.mean(stats["final_levels"] == 0)
        assert measured == pytest.approx(expected, abs=0.03)

    def test_no_rates_means_no_jumps(self, rng):
        rates = TransitionRates(np.zeros((3, 3)))
        levels = sample_level_matrix(
            np.array([0, 1, 2]), rates, trace_len=50, dt=2.0, rng=rng
        )
        assert np.all(levels == np.array([[0], [1], [2]]))

    def test_levels_piecewise_constant_from_initial(self, rng, five_qubit_chip):
        rates = TransitionRates.from_qubit(five_qubit_chip.qubits[3])
        init = rng.integers(0, 3, size=200)
        levels = sample_level_matrix(init, rates, 500, 2.0, rng)
        assert np.all(levels[:, 0] == init)
        assert levels.dtype == np.int8

    def test_invalid_initial_levels_rejected(self, rng):
        rates = TransitionRates(np.zeros((3, 3)))
        with pytest.raises(ConfigurationError):
            sample_level_matrix(np.array([5]), rates, 10, 2.0, rng)


class TestTrajectories:
    def test_trace_starts_at_zero_field(self, five_qubit_chip):
        trace = state_mean_response(five_qubit_chip.qubits[0], 0, 100, 2.0)
        assert abs(trace[0]) == pytest.approx(0.0)

    def test_states_reach_distinct_steady_values(self, five_qubit_chip):
        qubit = five_qubit_chip.qubits[0]
        finals = [
            state_mean_response(qubit, s, 500, 2.0)[-1] for s in range(3)
        ]
        assert abs(finals[0] - finals[1]) > 0.1
        assert abs(finals[1] - finals[2]) > 0.1

    def test_mid_trace_jump_bends_trajectory(self, five_qubit_chip):
        qubit = five_qubit_chip.qubits[0]
        levels = np.ones((1, 400), dtype=np.int8)
        levels[0, 200:] = 0  # relaxation at mid-trace
        jumped = baseband_response(qubit, levels, 2.0)[0]
        steady_one = state_mean_response(qubit, 1, 400, 2.0)
        steady_zero = state_mean_response(qubit, 0, 400, 2.0)
        np.testing.assert_allclose(jumped[:200], steady_one[:200])
        # 400 ns after the jump the field has settled to within
        # exp(-kappa/2 * 400ns) ~ 8% of the |0> steady state.
        assert abs(jumped[-1] - steady_zero[-1]) < 0.15
        assert abs(jumped[-1] - steady_one[-1]) > 1.0

    def test_shape_validation(self, five_qubit_chip):
        with pytest.raises(ShapeError):
            baseband_response(
                five_qubit_chip.qubits[0], np.zeros(10, dtype=np.int8), 2.0
            )

    @pytest.mark.parametrize("initial_field", [0.0, 0.4 - 1.3j])
    def test_baseband_response_matches_reference_recurrence(
        self, five_qubit_chip, rng, initial_field
    ):
        rates = TransitionRates.from_qubit(jumpy_chip().qubits[0])
        levels = sample_level_matrix(
            rng.integers(0, 3, size=64), rates, 300, 2.0, rng
        )
        assert (levels != levels[:, :1]).any(axis=1).sum() > 10
        for qubit in five_qubit_chip.qubits:
            np.testing.assert_array_equal(
                baseband_response(qubit, levels, 2.0, initial_field),
                reference_baseband_response(qubit, levels, 2.0, initial_field),
            )


class TestFeedlineTemplates:
    @pytest.mark.parametrize("chip_name", ["five-qubit", "two-qubit", "drifted"])
    @pytest.mark.parametrize("trace_len", [2, 100, None])
    def test_templates_are_state_mean_responses(self, chip_name, trace_len):
        chip = ORACLE_CHIPS[chip_name]()
        trace_len = chip.trace_len if trace_len is None else trace_len
        tables = ReadoutSimulator(chip, seed=0).feedline_tables(trace_len)
        assert tables.fields.shape == (chip.n_qubits, chip.n_levels, trace_len)
        for q, qubit in enumerate(chip.qubits):
            for level in range(chip.n_levels):
                np.testing.assert_array_equal(
                    tables.fields[q, level],
                    state_mean_response(qubit, level, trace_len, chip.dt_ns),
                )
        np.testing.assert_array_equal(
            tables.weights, multiplex(chip, chip.sample_times(trace_len))
        )
        np.testing.assert_array_equal(
            tables.contributions, tables.weights[:, None] * tables.fields
        )

    def test_tables_are_cached_per_trace_len(self, two_qubit_chip):
        sim = ReadoutSimulator(two_qubit_chip, seed=0)
        tables = sim.feedline_tables(50)
        assert sim.feedline_tables(50) is tables
        assert sim.feedline_tables(60).fields.shape[-1] == 60
        with pytest.raises(ValueError, match="read-only"):
            tables.contributions[0, 0, 0] = 0.0


class TestNoiseAndMultiplex:
    def test_white_noise_statistics(self, rng):
        noise = complex_white_noise((20000,), std=3.0, rng=rng)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(9.0, rel=0.05)
        assert abs(np.mean(noise)) < 0.1

    def test_zero_noise_is_exact_zero(self, rng):
        noise = complex_white_noise((10,), std=0.0, rng=rng)
        np.testing.assert_array_equal(noise, 0.0)

    def test_gain_drift_identity_when_disabled(self, rng):
        signal = rng.normal(size=(5, 10)) + 0j
        np.testing.assert_array_equal(
            apply_gain_drift(signal, 0.0, rng), signal
        )

    def test_crosstalk_mixing_matches_matrix(self, two_qubit_chip, rng):
        xt = np.array([[0.0, 0.1], [0.2j, 0.0]])
        chip = dataclasses.replace(two_qubit_chip, crosstalk=xt)
        times = chip.sample_times(8)
        base = rng.normal(size=(2, 3, 8)) + 1j * rng.normal(size=(2, 3, 8))
        mixed = reference_apply_crosstalk(base, xt)
        np.testing.assert_allclose(mixed[0], base[0] + 0.1 * base[1])
        np.testing.assert_allclose(mixed[1], base[1] + 0.2j * base[0])
        # Each source's weight is its own tone plus the tones it leaks
        # into: C[0, 1] carries qubit 1 into tone 0, C[1, 0] qubit 0
        # into tone 1.
        tones = [
            reference_upconvert(np.ones(8), q.if_frequency_ghz, times)
            for q in chip.qubits
        ]
        weights = multiplex(chip, times)
        np.testing.assert_allclose(weights[0], tones[0] + 0.2j * tones[1])
        np.testing.assert_allclose(weights[1], tones[1] + 0.1 * tones[0])
        np.testing.assert_allclose(
            np.einsum("pt,pst->st", weights, base),
            reference_combine_feedline(chip, base, times),
            rtol=0, atol=1e-12,
        )

    def test_upconvert_then_demodulate_is_identity(self, two_qubit_chip, rng):
        from repro.dsp.demod import demodulate

        qubit = dataclasses.replace(
            two_qubit_chip.qubits[0], if_frequency_ghz=0.11
        )
        chip = ChipConfig(qubits=(qubit,))
        times = np.arange(64) * 2.0
        base = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
        weights = multiplex(chip, times)
        assert weights.shape == (1, 64)
        # Without crosstalk the weight is the bare tone...
        np.testing.assert_allclose(
            base * weights[0], reference_upconvert(base, 0.11, times),
            rtol=0, atol=1e-12,
        )
        # ...which demodulation undoes.
        recovered = demodulate(base * weights[0], 0.11, times)
        np.testing.assert_allclose(recovered, base, atol=1e-12)

    def test_feedline_is_sum_of_tones(self, two_qubit_chip, rng):
        base = np.zeros((2, 1, 50), dtype=complex)
        base[0] = 1.0
        times = two_qubit_chip.sample_times(50)
        weights = multiplex(two_qubit_chip, times)
        assert weights.shape == (2, 50)
        feed = np.einsum("pt,pst->st", weights, base)
        assert feed.shape == (1, 50)
        np.testing.assert_allclose(
            feed, reference_combine_feedline(two_qubit_chip, base, times),
            rtol=0, atol=1e-12,
        )
        # Qubit 0 alone: its own tone plus what it leaks into tone 1.
        a, b = two_qubit_chip.qubits
        xt = two_qubit_chip.crosstalk
        np.testing.assert_allclose(
            feed[0],
            reference_upconvert(1.0, a.if_frequency_ghz, times)
            + xt[1, 0] * reference_upconvert(1.0, b.if_frequency_ghz, times),
        )


class TestSimulator:
    def test_result_shapes(self, two_qubit_chip, rng):
        sim = ReadoutSimulator(two_qubit_chip, seed=rng)
        prepared = np.array([[0, 1], [2, 0], [1, 1]])
        result = sim.simulate(prepared)
        assert result.feedline.shape == (3, two_qubit_chip.trace_len)
        assert result.feedline.dtype == np.complex64
        np.testing.assert_array_equal(result.prepared_levels, prepared)

    def test_preparation_errors_can_be_disabled(self, two_qubit_chip, rng):
        sim = ReadoutSimulator(two_qubit_chip, seed=1)
        prepared = np.tile([[0, 1]], (500, 1))
        result = sim.simulate(prepared, include_preparation_errors=False)
        np.testing.assert_array_equal(result.initial_levels, prepared)

    def test_preparation_leakage_rate(self, two_qubit_chip):
        sim = ReadoutSimulator(two_qubit_chip, seed=2)
        prepared = np.tile([[1, 1]], (4000, 1))
        result = sim.simulate(prepared)
        leak_rate = np.mean(result.initial_levels[:, 0] == 2)
        assert leak_rate == pytest.approx(
            two_qubit_chip.qubits[0].prep_leak_prob, abs=0.01
        )

    def test_determinism_with_same_seed(self, two_qubit_chip):
        prepared = np.array([[0, 1], [1, 2]])
        a = ReadoutSimulator(two_qubit_chip, seed=9).simulate(prepared)
        b = ReadoutSimulator(two_qubit_chip, seed=9).simulate(prepared)
        np.testing.assert_array_equal(a.feedline, b.feedline)

    def test_rejects_bad_levels(self, two_qubit_chip):
        sim = ReadoutSimulator(two_qubit_chip, seed=0)
        with pytest.raises(ConfigurationError):
            sim.simulate(np.array([[0, 3]]))

    @settings(max_examples=10, deadline=None)
    @given(trace_len=st.integers(min_value=10, max_value=80))
    def test_trace_len_override_property(self, trace_len):
        from tests.conftest import make_two_qubit_chip

        chip = make_two_qubit_chip(trace_len=100)
        sim = ReadoutSimulator(chip, seed=0)
        result = sim.simulate(np.array([[0, 0]]), trace_len=trace_len)
        assert result.feedline.shape == (1, trace_len)

    def test_empty_batch_raises_shape_error(self, two_qubit_chip):
        sim = ReadoutSimulator(two_qubit_chip, seed=0)
        with pytest.raises(ShapeError, match="n_shots >= 1"):
            sim.simulate(np.empty((0, two_qubit_chip.n_qubits)))

    def test_non_integral_trace_len_rejected(self, two_qubit_chip):
        sim = ReadoutSimulator(two_qubit_chip, seed=0)
        with pytest.raises(ConfigurationError, match="integer"):
            sim.simulate(np.array([[0, 0]]), trace_len=2.7)
        result = sim.simulate(np.array([[0, 0]]), trace_len=np.int64(40))
        assert result.feedline.shape == (1, 40)


def _assert_matches_reference(chip, seed, n_shots, calls):
    """Run ``calls`` (simulate keyword sets) on a simulator and on the
    reference oracle with the same seed; every output and the generator
    state after every call must be identical."""
    sim = ReadoutSimulator(chip, seed=np.random.default_rng(seed))
    ref = ReadoutSimulator(chip, seed=np.random.default_rng(seed))
    prepared_rng = np.random.default_rng(seed + 1)
    for kwargs in calls:
        prepared = prepared_rng.integers(
            0, chip.n_levels, size=(n_shots, chip.n_qubits)
        )
        result = sim.simulate(prepared, **kwargs)
        feedline, initial, final = reference_simulate(ref, prepared, **kwargs)
        np.testing.assert_array_equal(result.feedline, feedline)
        np.testing.assert_array_equal(result.initial_levels, initial)
        np.testing.assert_array_equal(result.final_levels, final)
        assert sim._rng.bit_generator.state == ref._rng.bit_generator.state


ORACLE_CALLS = [
    {},
    {"trace_len": 2},
    {"trace_len": 100},
    {"trace_len": 700},
    {"include_preparation_errors": False},
]


class TestSimulatorOracle:
    """The template simulator draws exactly what the direct per-qubit
    simulation draws."""

    @settings(max_examples=30, deadline=None)
    @given(
        chip_name=st.sampled_from(sorted(ORACLE_CHIPS)),
        call=st.sampled_from(ORACLE_CALLS),
        seed=st.integers(min_value=0, max_value=2**32 - 2),
        n_shots=st.integers(min_value=1, max_value=300),
    )
    def test_matches_reference_simulation(self, chip_name, call, seed, n_shots):
        # The second call reuses the cached tables (or switches length).
        _assert_matches_reference(
            ORACLE_CHIPS[chip_name](), seed, n_shots, [call, {}]
        )

    @pytest.mark.parametrize("chip_name", sorted(ORACLE_CHIPS))
    def test_every_call_option_matches_reference(self, chip_name):
        _assert_matches_reference(
            ORACLE_CHIPS[chip_name](), seed=11, n_shots=120, calls=ORACLE_CALLS
        )

    def test_jumps_in_sample_zero_match_reference(self):
        chip = jumpy_chip()
        # Precondition: this chip's jumps do land in sample 0, so a row
        # can hold a level other than its initial one for the whole
        # window...
        rng = np.random.default_rng(5)
        initial = rng.integers(0, 3, size=300)
        levels = sample_level_matrix(
            initial, TransitionRates.from_qubit(chip.qubits[0]),
            chip.trace_len, chip.dt_ns, rng,
        )
        held = (levels == levels[:, :1]).all(axis=1)
        moved_at_zero = levels[:, 0] != initial
        assert (held & moved_at_zero).sum() >= 3
        # ...and some traces jump away and back to their sample-0 level.
        assert (~held & (levels[:, -1] == levels[:, 0])).sum() >= 3
        _assert_matches_reference(chip, seed=5, n_shots=300, calls=[{}, {}])

    def test_frozen_chip_has_no_jumps(self):
        chip = frozen_chip()
        result = ReadoutSimulator(chip, seed=3).simulate(
            np.tile([[0, 1], [2, 1]], (50, 1))
        )
        np.testing.assert_array_equal(
            result.final_levels, result.initial_levels
        )
        _assert_matches_reference(chip, seed=3, n_shots=100, calls=[{}])
