import dataclasses
import hashlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bband_sim import radio
from bband_sim.core import Generation, carrier_stream_key, link_budget_rules
from bband_sim.errors import ValidationError
from bband_sim.radio import (
    Carrier,
    CapacityTable,
    FrequencySet,
    SimulationParams,
    SpectralEfficiencyTable,
    build_capacity_table,
    build_capacity_tables,
    carrier_capacity,
    inter_site_distance_km,
    isotonic_clip,
    load_capacity_tables,
    noise_floor,
    required_density,
    save_capacity_tables,
    shadow_fading_draws,
    simulate_density,
    sinr_blocks,
    step_percentile,
    table_cache_key,
)
from reference_chains import (
    free_space_path_loss, received_signal, reference_capacity, reference_sinr_db, se_lookup, sinr,
)


@pytest.fixture(scope="module")
def se_table(bundle):
    return bundle.se_table


@pytest.fixture(scope="module")
def fast_params():
    return SimulationParams(trials=2000, seed=99)


FS4 = FrequencySet(Generation.G4, (Carrier(800, 10), Carrier(1800, 10), Carrier(2500, 10)))
FS5 = FrequencySet(Generation.G5, (Carrier(700, 10), Carrier(3500, 40)))
GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)


def trial_sinr_db(params, generation, carrier, site_density) -> np.ndarray:
    """Every trial's SINR in dB from :func:`radio.sinr_blocks`, joined into one array."""
    return np.concatenate(list(sinr_blocks(params, generation, carrier, site_density)))


def pin_receivers(monkeypatch, positions) -> None:
    """Stand the kernel's trials at ``positions``, in trial order: a stub in place of ``radio.place_in_hexagon``
    returns each chunk's x and y. The kernel still reads its triangle and uniform draws."""
    pos = np.asarray(positions, dtype=float)
    placed = 0

    def place(tri, u, v, circumradius_km):
        nonlocal placed
        x, y = pos[placed:placed + len(u)].T
        placed += len(u)
        return x, y

    monkeypatch.setattr(radio, "place_in_hexagon", place)


class TestPathLoss:
    def test_breakpoint_inclusive_los(self):
        # 0.5 km at 3500 MHz sits exactly on the breakpoint: still LoS
        assert free_space_path_loss(0.5, 3500.0) == pytest.approx(97.30, abs=0.01)

    def test_nlos_excess_beyond_breakpoint(self):
        assert free_space_path_loss(1.0, 800.0) == pytest.approx(90.50 + 12.0, abs=0.01)

    def test_doubling_distance_adds_6db(self):
        a = free_space_path_loss(0.1, 800.0)
        b = free_space_path_loss(0.2, 800.0)
        assert b - a == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_zero_distance_clamped_to_minimum(self):
        assert free_space_path_loss(0.0, 800.0) == free_space_path_loss(0.01, 800.0)

    def test_vectorized(self):
        out = free_space_path_loss(np.array([0.1, 0.2, 1.0]), 800.0)
        assert out.shape == (3,)
        assert out[2] > out[1] > out[0]

    def test_bad_frequency(self):
        with pytest.raises(ValidationError):
            free_space_path_loss(1.0, 0.0)


class TestReceivedSignal:
    def test_link_budget_sum(self):
        p = SimulationParams()
        got = received_signal(p, path_loss_db=90.5, shadow_db=0.0)
        assert got == pytest.approx(40 + 16 - 1 - 90.5 + 0 - 4 - 4, abs=1e-12)
        assert got == pytest.approx(-43.5, abs=1e-12)

    def test_identity_at_zero_losses(self):
        p = SimulationParams(
            tx_gain_db=0, tx_losses_db=0, rx_gain_db=0, rx_losses_db=0, rx_misc_losses_db=0
        )
        assert received_signal(p, 0.0, 0.0) == p.tx_power_dbm

    def test_shadow_linearity(self):
        p = SimulationParams()
        assert received_signal(p, 90.0, 0.0) - received_signal(p, 90.0, 10.0) == pytest.approx(10.0)


class TestNoiseFloor:
    def test_10_mhz(self):
        assert noise_floor(SimulationParams(), 10e6) == pytest.approx(-102.48, abs=0.05)

    def test_40_mhz(self):
        assert noise_floor(SimulationParams(), 40e6) == pytest.approx(-96.46, abs=0.05)

    def test_quadrupling_bandwidth(self):
        p = SimulationParams()
        delta = noise_floor(p, 40e6) - noise_floor(p, 10e6)
        assert delta == pytest.approx(10.0 * math.log10(4.0), abs=1e-9)

    def test_matches_per_hz_reference(self):
        p = SimulationParams()
        for bw in (1.4e6, 5e6, 10e6, 20e6, 40e6, 100e6):
            reference = -174.0 + p.noise_figure_db + 10.0 * math.log10(bw)
            assert noise_floor(p, bw) == pytest.approx(reference, abs=0.05)


class TestSinr:
    def test_snr_case(self):
        assert sinr(-90.0, [], -100.0) == pytest.approx(10.0, abs=1e-9)

    def test_unity_ratio(self):
        assert sinr(-100.0, [], -100.0) == pytest.approx(0.0, abs=1e-12)

    def test_one_interferer(self):
        assert sinr(-90.0, [-100.0], -100.0) == pytest.approx(6.99, abs=0.01)

    def test_adding_interferer_never_increases(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = rng.uniform(-120, -40)
            base = list(rng.uniform(-130, -60, size=rng.integers(0, 5)))
            extra = base + [float(rng.uniform(-130, -60))]
            assert sinr(s, extra, -100.0) <= sinr(s, base, -100.0)

    def test_sir_bounds_sinr(self):
        interferers = [-95.0, -101.0]
        assert sinr(-90.0, interferers, -300.0) >= sinr(-90.0, interferers, -100.0)

    def test_load_scales_interference(self):
        loaded = sinr(-90.0, [-95.0], -120.0, network_load=1.0)
        idle = sinr(-90.0, [-95.0], -120.0, network_load=0.0)
        assert idle > loaded

    def test_signal_below_float_range_is_minus_inf_without_warning(self, se_table):
        import warnings

        noise = noise_floor(SimulationParams(), 10e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sinr(-4000.0, [], noise)
            assert got == -math.inf
            assert float(se_lookup(se_table, got, Generation.G4)) == 0.0
            trials = sinr(np.array([-4000.0, -90.0]), np.full((2, 1), -4000.0), noise)
        assert trials[0] == -math.inf and math.isfinite(trials[1])


class TestSeLookup:
    def test_below_minimum_is_zero(self, se_table):
        assert float(se_lookup(se_table, -50.0, Generation.G4)) == 0.0

    def test_above_maximum_saturates(self, se_table):
        assert float(se_lookup(se_table, 60.0, Generation.G4)) == se_table.rows[Generation.G4][-1][1]

    def test_monotone_at_all_boundaries(self, se_table):
        for gen in Generation:
            for min_sinr, _ in se_table.rows[gen]:
                low = float(se_lookup(se_table, min_sinr - 0.01, gen))
                at = float(se_lookup(se_table, min_sinr, gen))
                high = float(se_lookup(se_table, min_sinr + 0.01, gen))
                assert low <= at <= high

    def test_mimo_multiplier_applied(self, se_table, fast_params):
        # se_lookup gives the single-stream value; carrier_capacity scales it by 4 streams x efficiency
        raw = se_table.rows[Generation.G5][0][1]
        assert float(se_lookup(se_table, se_table.rows[Generation.G5][0][0], Generation.G5)) == raw
        flat = SpectralEfficiencyTable(rows={gen: ((-1000.0, 4.0),) for gen in Generation})
        got = carrier_capacity(fast_params, flat, Generation.G5, Carrier(3500.0, 40.0), 0.5)
        assert got == pytest.approx(4.0 * 4 * 0.85 * 40.0 * 3 * 0.5)

    def test_strictly_increasing_rows_enforced(self):
        with pytest.raises(ValidationError):
            SpectralEfficiencyTable(rows={Generation.G4: ((0.0, 1.0), (1.0, 0.5)), Generation.G5: ((0.0, 1.0),)})


#: A dB term of the link budget: far past what a power in mW can hold either way.
DB = st.floats(-5000.0, 5000.0)
#: A length in metres, of either sign as the record accepts, to far past any cell's edge.
METRES = st.floats(-1e7, 1e7)


@st.composite
def link_budgets(draw) -> SimulationParams:
    """Any :class:`SimulationParams` the record accepts, its dB terms and ``temperature_k`` past float range,
    with at most 200 trials and 2 rings."""
    sigma = draw(st.just(0.0) | st.floats(0.0, 5000.0))
    return SimulationParams(
        tx_power_dbm=draw(DB), tx_gain_db=draw(DB), tx_losses_db=draw(DB), rx_gain_db=draw(DB),
        rx_losses_db=draw(DB), rx_misc_losses_db=draw(DB), tx_height_m=draw(METRES), rx_height_m=draw(METRES),
        sectors_per_site=draw(st.integers(1, 6)), network_load=draw(st.floats(0.0, 1.0)),
        los_breakpoint_m=draw(METRES), shadow_mu_db=draw(st.floats(0.0, 5000.0, exclude_min=True) if sigma else DB),
        shadow_sigma_db=sigma, temperature_k=draw(st.floats(1e-320, 1e300)), noise_figure_db=draw(DB),
        nlos_excess_db=draw(DB), min_distance_m=draw(METRES),
        reliability=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        trials=draw(st.integers(100, 200)), seed=draw(st.integers(0, 2**64)), interferer_rings=draw(st.integers(0, 2)),
        mimo_efficiency=draw(st.floats(0.0, 1.0, exclude_min=True)),
    )


class TestLinkBudgetOutOfFloatRange:
    """A link budget beyond float range fails the simulation, naming it; it is never credited the top SE row."""

    FAILED = r"^5G carrier 3500x30 at 0\.01 sites/km2: link budget out of float range$"

    BROKEN = {
        "tx_power_dbm": 4000.0,  # signal and interference overflow to inf: every SINR is nan
        "noise_figure_db": 4000.0,  # the noise floor overflows in mW
        "temperature_k": 1e-310,  # k T underflows to 0: the noise floor has no log
        "shadow_mu_db": 1e-200,  # the shadow mean's square underflows to 0: its lognormal mu has no log
    }

    @pytest.mark.parametrize("field", sorted(BROKEN))
    def test_is_one_validation_error_naming_the_simulation(self, bundle, field):
        params = dataclasses.replace(bundle.sim_params, trials=200, **{field: self.BROKEN[field]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=self.FAILED):
                carrier_capacity(params, bundle.se_table, Generation.G5, Carrier(3500.0, 30.0), 0.01)

    @settings(max_examples=300, deadline=None)
    @given(params=link_budgets())
    @example(params=SimulationParams(trials=200, tx_power_dbm=4000.0))
    @example(params=SimulationParams(trials=200, noise_figure_db=4000.0))
    @example(params=SimulationParams(trials=200, tx_power_dbm=-4000.0))
    @example(params=SimulationParams(trials=200, temperature_k=1.0e-310))
    @example(params=SimulationParams(trials=200, shadow_mu_db=1e-200))
    def test_what_the_gate_passes_never_fails(self, se_table, params):
        # Past the gate (link_budget_rules) a simulation gives a finite capacity; short of it, a finite capacity
        # or the one out-of-range error: never a float error or a numpy warning.
        carrier, density = Carrier(800.0, 10.0), 0.5
        passed = not list(link_budget_rules(params, [carrier]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = carrier_capacity(params, se_table, Generation.G4, carrier, density)
            except ValidationError as err:
                assert not passed and str(err) == "4G carrier 800x10 at 0.5 sites/km2: link budget out of float range"
                return
        assert math.isfinite(got) and got >= 0.0

    def test_infinite_sinr_takes_the_top_row_without_warning(self, bundle):
        # no rings: an overflowed signal over finite noise gives +inf SINR on every trial
        params = dataclasses.replace(bundle.sim_params, trials=200, tx_power_dbm=4000.0, interferer_rings=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = carrier_capacity(params, bundle.se_table, Generation.G5, Carrier(3500.0, 30.0), 0.01)
        top = bundle.se_table.rows[Generation.G5][-1][1] * (radio.MIMO_STREAMS[Generation.G5] * params.mimo_efficiency)
        assert got == top * 30.0 * params.sectors_per_site * 0.01


class TestShadowFading:
    def test_zero_sigma_is_constant(self):
        rng = np.random.default_rng(0)
        draws = shadow_fading_draws(rng, 2.0, 0.0, 100)
        assert np.all(draws == 2.0)

    def test_moments_match(self):
        rng = np.random.default_rng(1)
        draws = shadow_fading_draws(rng, 2.0, 10.0, 2_000_000)
        assert draws.mean() == pytest.approx(2.0, rel=0.02)
        assert draws.std() == pytest.approx(10.0, rel=0.05)
        assert np.all(draws > 0)

    def test_nonpositive_mean_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValidationError):
            shadow_fading_draws(rng, 0.0, 10.0, 10)


class TestSampleHexagon:
    def test_uniform_inside_the_hexagon(self):
        # corners at angles k * 60 degrees: the flat sides are at |y| = sqrt(3)/2 R
        rng, n = np.random.default_rng(11), 200_000
        x, y = radio.place_in_hexagon(rng.integers(0, 6, n), rng.random(n), rng.random(n), 1.0)
        root3 = math.sqrt(3.0)
        assert (np.abs(y) <= root3 / 2.0 + 1e-12).all()
        assert (root3 * np.abs(x) + np.abs(y) <= root3 + 1e-12).all()
        # a uniform point's mean squared radius is 5/12 R^2
        r2 = x * x + y * y
        assert abs(r2.mean() - 5.0 / 12.0) <= 6.0 * r2.std() / math.sqrt(len(r2))


class TestSimulateDensity:
    def test_deterministic_stub_closed_form(self, monkeypatch):
        # every receiver fixed at the cell edge, a constant shadow loss and no
        # interferers: the SINR is the link budget over the noise floor
        params = SimulationParams(shadow_mu_db=0.001, shadow_sigma_db=0.0, interferer_rings=0, trials=2000, seed=1)
        edge = inter_site_distance_km(1.0) / math.sqrt(3.0)
        pin_receivers(monkeypatch, [(edge, 0.0)] * params.trials)
        got = trial_sinr_db(params, Generation.G4, Carrier(800.0, 10.0), 1.0)
        d_km = math.hypot(edge, (params.tx_height_m - params.rx_height_m) / 1000.0)
        assert d_km * 1000.0 > params.los_breakpoint_m
        loss = 20.0 * math.log10(d_km) + 20.0 * math.log10(800.0) + 32.44 + params.nlos_excess_db
        signal = (params.tx_power_dbm + params.tx_gain_db - params.tx_losses_db - loss - 0.001
                  + params.rx_gain_db - params.rx_losses_db - params.rx_misc_losses_db)
        assert got.tolist() == pytest.approx([signal - noise_floor(params, 10e6)] * params.trials, abs=1e-9)
        table = SpectralEfficiencyTable(rows={gen: ((-1000.0, 4.0),) for gen in Generation})
        assert se_lookup(table, got[:1], Generation.G4).tolist() == [4.0]

    @pytest.mark.parametrize("below", [False, True])
    def test_path_on_the_breakpoint_takes_no_excess(self, monkeypatch, below):
        # The breakpoint set to the serving path's own length: only a path
        # strictly longer than it takes the NLoS excess, so one ulp less adds it.
        x, y = 0.3, 0.2
        base = SimulationParams(shadow_sigma_db=0.0, interferer_rings=0, trials=2000, seed=1)
        d_km = max(math.sqrt(x * x + y * y + ((base.tx_height_m - base.rx_height_m) / 1000.0) ** 2),
                   base.min_distance_m / 1000.0)
        breakpoint_m = d_km * 1000.0
        if below:
            breakpoint_m = math.nextafter(breakpoint_m, 0.0)
        params = dataclasses.replace(base, los_breakpoint_m=breakpoint_m)
        carrier, positions = Carrier(800.0, 10.0), [(x, y)] * params.trials
        pin_receivers(monkeypatch, positions)
        got = trial_sinr_db(params, Generation.G4, carrier, 1.0)
        loss = 20.0 * math.log10(d_km) + 20.0 * math.log10(800.0) + 32.44 + (params.nlos_excess_db if below else 0.0)
        signal = (params.tx_power_dbm + params.tx_gain_db - params.tx_losses_db - loss - params.shadow_mu_db
                  + params.rx_gain_db - params.rx_losses_db - params.rx_misc_losses_db)
        assert got.tolist() == pytest.approx([signal - noise_floor(params, 10e6)] * params.trials, abs=1e-9)
        want = reference_sinr_db(params, Generation.G4, carrier, 1.0, receiver_positions=positions)
        assert got.tobytes() == want.tobytes()

    def test_same_seed_bit_identical(self, se_table, fast_params):
        a = simulate_density(fast_params, se_table, FS4, 0.5)
        b = simulate_density(fast_params, se_table, FS4, 0.5)
        assert a == b

    def test_validation(self, se_table, fast_params):
        with pytest.raises(ValidationError):
            simulate_density(fast_params, se_table, FS4, 0.0)
        with pytest.raises(ValidationError):
            SimulationParams(trials=50)


DEEP_SHADOW = {"shadow_mu_db": 2000.0, "shadow_sigma_db": 1000.0}  # ~10% of signals underflow to 0 mW


class TestBlockedKernel:
    @pytest.mark.parametrize("trials, rings, block, extra", [
        (5000, 2, None, {}),  # default block size, partial last block
        (5000, 0, None, {}),
        (300, 3, 7, {"network_load": 0.4, "los_breakpoint_m": 150.0}),
        (301, 1, 300, {"shadow_sigma_db": 0.0}),
        (2000, 1, 64, DEEP_SHADOW),
    ])
    def test_matches_unblocked_chain_bit_for_bit(self, monkeypatch, trials, rings, block, extra):
        if block is not None:  # trials per block: the element budget over 3r(r+1) interferers
            monkeypatch.setattr(radio, "BLOCK_ELEMENTS", block * 3 * rings * (rings + 1))
        params = SimulationParams(trials=trials, seed=31, interferer_rings=rings, **extra)
        for carrier, density in ((Carrier(700.0, 10.0), 0.05), (Carrier(3500.0, 40.0), 2.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = trial_sinr_db(params, Generation.G5, carrier, density)
            want = reference_sinr_db(params, Generation.G5, carrier, density)
            assert got.tobytes() == want.tobytes()
        if extra is DEEP_SHADOW:
            assert np.isneginf(got).any()

    @pytest.mark.parametrize("trials, rings, block, extra", [
        (5000, 2, None, {}),
        (3001, 0, None, {"reliability": 0.5}),
        (777, 3, 5, {"reliability": 0.37, "shadow_sigma_db": 0.0}),
        (2000, 1, 64, {**DEEP_SHADOW, "reliability": 0.75}),
        (1000, 2, 300, {"reliability": 1e-300}),  # the top percentile: the largest SE
        (1000, 1, None, {"reliability": 0.999999}),
    ])
    def test_capacity_equals_the_whole_array_chain_bit_for_bit(self, monkeypatch, se_table, trials, rings, block,
                                                               extra):
        if block is not None:
            monkeypatch.setattr(radio, "BLOCK_ELEMENTS", block * 3 * rings * (rings + 1))
        params = SimulationParams(trials=trials, seed=17, interferer_rings=rings, **extra)
        for gen, carrier, density in ((Generation.G4, Carrier(800.0, 10.0), 0.05),
                                      (Generation.G5, Carrier(3500.0, 40.0), 2.0)):
            got = carrier_capacity(params, se_table, gen, carrier, density)
            assert repr(got) == repr(reference_capacity(params, se_table, gen, carrier, density))

    def test_blocks_are_new_arrays_of_whole_row_blocks(self):
        # two rings: blocks of 2048 rows, chunks of four of them
        params = SimulationParams(trials=20_000, seed=5, interferer_rings=2)
        blocks = list(sinr_blocks(params, Generation.G4, Carrier(800.0, 10.0), 0.5))
        assert [len(b) for b in blocks] == [8192, 8192, 3616]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(blocks) for b in blocks[i + 1:])

    # Table rows at the commit before the blocked kernel, printed with repr.
    PINNED = {
        2: (FS5, ["0.7767299999999999", "1.5534599999999998", "3.8836499999999994", "7.767299999999999",
                  "15.534599999999998", "38.836499999999994", "192.27000000000004", "894.54"]),
        0: (FS4, ["7.972728", "16.997382", "42.49345500000001", "84.98691000000002", "169.97382000000005",
                  "424.93455000000006", "849.8691000000001", "1699.7382000000002"]),
    }

    @pytest.mark.parametrize("rings", sorted(PINNED))
    def test_table_values_pinned(self, se_table, rings):
        freq_set, want = self.PINNED[rings]
        params = SimulationParams(trials=5000, seed=7, interferer_rings=rings)
        table = build_capacity_table(params, se_table, freq_set, GRID)
        assert [repr(c) for _, c in table.rows] == want
        assert [d for d, _ in table.rows] == list(GRID)


class TestStepPercentile:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=16).filter(any),
           st.floats(0.0, 100.0) | st.sampled_from([0.0, 100.0, (1.0 - 0.9) * 100.0, 50.0]),
           st.floats(0.01, 10.0))
    @example([0, 3, 0, 1], 100.0, 1.0)
    @example([5], 37.5, 2.5)
    def test_equals_numpy_percentile_of_the_repeated_values(self, counts, q, scale):
        values = [i * scale for i in range(len(counts))]  # ascending, 0.0 first, as the SE steps are
        want = float(np.percentile(np.repeat(values, counts), q))
        assert repr(step_percentile(values, counts, q)) == repr(want)


def kernel_peak_bytes(params: SimulationParams) -> int:
    tracemalloc.start()
    try:
        trial_sinr_db(params, Generation.G4, Carrier(800.0, 10.0), 0.5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    def test_peak_memory_bounded_by_trial_block(self):
        # The whole (trials, interferers) shadow array alone would be 14.4 MB
        # here: 50k trials x 36 interferers at three rings.
        assert kernel_peak_bytes(SimulationParams(trials=50_000, seed=3, interferer_rings=3)) < 8e6

    def test_peak_memory_does_not_grow_with_rings(self):
        # 20 rings are 1260 interferers: one block of all 400 trials would
        # hold about 12.1 MB in its three buffers; blocks of at most
        # BLOCK_ELEMENTS paths hold under 1 MB, as at two rings.
        params = SimulationParams(trials=400, seed=3, interferer_rings=20)
        assert kernel_peak_bytes(params) < 2e6
        got = trial_sinr_db(params, Generation.G4, Carrier(800.0, 10.0), 0.5)
        want = reference_sinr_db(params, Generation.G4, Carrier(800.0, 10.0), 0.5)
        assert got.tobytes() == want.tobytes()

    def test_working_memory_per_trial(self, se_table):
        # No array grows with trials: at two rings a simulation holds one
        # block's (2048, 18) buffers and interferer shadows, one chunk's
        # 8192-trial placement and serving arrays, made anew per chunk, and a
        # count per SE step (about 1.3 MB; 1.2 MB when the chunk's arrays
        # shared the block's buffers, and 2.1 MB at 50k trials and 24 B per
        # trial more when x, y and the serving shadow were whole arrays).
        def peak(trials):
            params = SimulationParams(trials=trials, seed=3, interferer_rings=2)
            tracemalloc.start()
            try:
                carrier_capacity(params, se_table, Generation.G4, Carrier(800.0, 10.0), 0.5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # the first simulation in a process imports numpy.random's modules
        small, large = peak(50_000), peak(200_000)
        assert small < 1.5e6
        assert (large - small) / 150_000 <= 1


class TestCarrierStreams:
    def test_stream_key_is_the_carrier_in_khz(self):
        assert carrier_stream_key(Carrier(800.0001, 10.0)) == (800_000, 10_000)
        assert carrier_stream_key(Carrier(3500.0, 40.0004)) == (3_500_000, 40_000)

    def test_carrier_rng_is_keyed_by_the_stream_key(self):
        def draws(carrier):
            return radio.carrier_rng(7, Generation.G4, carrier, 0.5).random(4).tolist()

        assert draws(Carrier(800.0001, 10.0)) == draws(Carrier(800.0004, 10.0)) == draws(Carrier(800.0, 10.0))
        assert draws(Carrier(800.001, 10.0)) != draws(Carrier(800.0, 10.0))

    @pytest.mark.parametrize("carriers", [
        ((800.0001, 10.0), (800.0004, 10.0)),
        ((1800.0, 10.0), (2600.0, 20.0), (1800.0, 10.0)),
        ((700.0, 10.0), (700.0, 10.0004)),
    ])
    def test_frequency_set_rejects_carriers_sharing_a_stream(self, carriers):
        with pytest.raises(ValidationError, match="equal to 1 kHz, so they would share an RNG stream"):
            FrequencySet(Generation.G4, tuple(Carrier(*c) for c in carriers))
        FrequencySet(Generation.G4, tuple(Carrier(f + 0.001 * i, bw) for i, (f, bw) in enumerate(carriers)))


class TestPinnedDraws:
    """The radio draws of three fixed simulations, against committed values that change only with
    ``RADIO_MODEL_VERSION``.

    The kernel-versus-reference tests share ``carrier_rng`` with the kernel, so they cannot see a changed stream;
    these can. The SE step counts are taken as ``carrier_capacity`` takes them; no SINR float is compared, since
    ``log10`` and ``power`` may round otherwise under another SIMD dispatch, and every SINR here lies more than
    1e-6 dB from an SE threshold, so such a rounding moves no count.
    """

    POINTS = {
        (20230, Generation.G4, Carrier(800.0, 10.0), 0.5): (
            [82, 50, 286, 538, 261, 23, 3, 7, 17, 15, 90, 226, 168, 96, 39, 99],
            "3fd289bc5ea401e174c68835457641851d39183c9ed334e73b39df882bd8816d"),
        (7, Generation.G5, Carrier(3500.0, 40.0), 2.0): (
            [60, 17, 57, 177, 354, 212, 94, 38, 42, 52, 245, 233, 194, 86, 52, 87],
            "1b6a66db9a22f2b72fda91f30af17ee576f04df65f9c4a6377fe22e05d55d353"),
        (99, Generation.G5, Carrier(700.0, 10.0), 0.05): (
            [101, 70, 291, 542, 334, 203, 146, 128, 68, 17, 16, 1, 1, 1, 0, 81],
            "f049daf27f1f597da9f6996c2603dbdadd7dd272b2d37eeefba6802cca0c6086"),
    }

    @pytest.mark.parametrize("point", POINTS, ids=lambda p: f"{p[1].value}-{p[2].frequency_mhz:g}-{p[3]:g}")
    def test_step_counts_and_drops_are_pinned(self, se_table, point):
        seed, generation, carrier, density = point
        want_counts, want_drops = self.POINTS[point]
        params = SimulationParams(trials=2000, seed=seed)
        thresholds = np.array([r[0] for r in se_table.rows[generation]])
        got = trial_sinr_db(params, generation, carrier, density)
        assert np.abs(got[:, None] - thresholds).min() > 1e-6
        counts = np.bincount(np.searchsorted(thresholds, got, side="right"), minlength=len(thresholds) + 1)
        assert counts.tolist() == want_counts
        # the drops' triangles, u and v, read as one whole-array draw of each, in that order
        rng, digest = radio.carrier_rng(seed, generation, carrier, density), hashlib.sha256()
        for draw in (rng.integers(0, 6, params.trials), rng.random(params.trials), rng.random(params.trials)):
            digest.update(draw.astype(draw.dtype.newbyteorder("<")).tobytes())
        assert digest.hexdigest() == want_drops


def hexagon_lattice(per_side: int, circumradius: float, vertex_deg: float) -> np.ndarray:
    """The cell centres of a ``per_side`` x ``per_side`` lattice over [-R, R]^2 that lie in the regular hexagon of
    circumradius R with vertices at ``vertex_deg + k * 60`` degrees: within the apothem along each side's normal."""
    c = ((np.arange(per_side) + 0.5) / per_side * 2.0 - 1.0) * circumradius
    x, y = (a.ravel() for a in np.meshgrid(c, c))
    inside = np.ones(len(x), dtype=bool)
    for normal in np.radians(vertex_deg + 30.0 + 60.0 * np.arange(6)):
        inside &= x * math.cos(normal) + y * math.sin(normal) <= circumradius * math.sqrt(3.0) / 2.0
    return np.column_stack([x[inside], y[inside]])


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """The largest gap between the empirical CDFs of two samples."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, at, side="right") / len(a)
                        - np.searchsorted(b, at, side="right") / len(b)).max())


class TestGeometryOracle:
    """The kernel's receiver drops against the model as documented, with no draw shared.

    Without shadow spread a trial's SINR is a fixed function of where the receiver stands, so the distribution
    of 100,000 kernel trials must match that function over a dense lattice on the serving hexagon, which is
    written here from the model: vertices at k * 60 degrees, circumradius ISD / sqrt(3); a stub in place of
    ``radio.place_in_hexagon`` stands the lattice's trials on its points. Both sides take the kernel's rings, so
    the ring layout is not checked here.
    """

    TRIALS = 100_000
    #: DKW at alpha = 1e-6: sampling alone exceeds it with probability below 1e-6.
    BOUND = math.sqrt(math.log(2.0 / 1e-6) / (2 * TRIALS))  # 0.0085
    PARAMS = SimulationParams(trials=TRIALS, seed=20230, interferer_rings=2, shadow_sigma_db=0.0)
    CARRIER, DENSITY = Carrier(800.0, 10.0), 0.5

    def lattice_sinr_db(self, per_side: int, vertex_deg: float = 0.0) -> np.ndarray:
        circumradius = math.sqrt(2.0 / (math.sqrt(3.0) * self.DENSITY)) / math.sqrt(3.0)  # ISD / sqrt(3)
        lattice = hexagon_lattice(per_side, circumradius, vertex_deg)
        with pytest.MonkeyPatch.context() as monkeypatch:
            pin_receivers(monkeypatch, lattice)
            params = dataclasses.replace(self.PARAMS, trials=len(lattice))
            return trial_sinr_db(params, Generation.G4, self.CARRIER, self.DENSITY)

    def test_kernel_sinr_distribution_matches_the_hexagon_lattice(self):
        drawn = trial_sinr_db(self.PARAMS, Generation.G4, self.CARRIER, self.DENSITY)
        fine = self.lattice_sinr_db(601)
        # The 601-point lattice's own error is about its distance to the 301-point one (first order in the
        # spacing): a quarter of the bound at most, the rest left to sampling.
        assert ks_distance(fine, self.lattice_sinr_db(301)) <= self.BOUND / 4
        assert ks_distance(drawn, fine) <= self.BOUND  # 0.0022
        # the bound is tight enough to see a hexagon turned by 30 degrees
        assert ks_distance(drawn, self.lattice_sinr_db(601, vertex_deg=30.0)) > self.BOUND  # 0.016


#: Carriers the generated frequency sets draw from: few, so sets often share one.
CARRIER_POOL = (Carrier(800.0, 10.0), Carrier(1800.0, 10.0), Carrier(2600.0, 20.0))
FREQ_SETS = st.builds(
    FrequencySet, st.sampled_from(list(Generation)),
    st.lists(st.sampled_from(CARRIER_POOL), min_size=1, max_size=3, unique=True).map(tuple),
)
SHARED_800 = FrequencySet(Generation.G4, (Carrier(800.0, 10.0), Carrier(1800.0, 10.0)))


@pytest.fixture(scope="module")
def lone_tables():
    """Each frequency set's table built on its own, kept across examples."""
    return {}


class TestBuildCapacityTables:
    @settings(max_examples=15, deadline=None)
    @given(freq_sets=st.lists(FREQ_SETS, min_size=1, max_size=4))
    # 800x10 shared within 4G, the same carrier in 5G (another stream), and a repeated set
    @example(freq_sets=[SHARED_800, FrequencySet(Generation.G4, (Carrier(800.0, 10.0), Carrier(2600.0, 20.0))),
                        FrequencySet(Generation.G5, (Carrier(800.0, 10.0),)), SHARED_800])
    def test_each_distinct_simulation_runs_once(self, se_table, fast_params, lone_tables, freq_sets):
        for fs in freq_sets:
            if fs not in lone_tables:
                lone_tables[fs] = build_capacity_table(fast_params, se_table, fs, GRID)
        needed = {(fs.generation, c, d) for fs in freq_sets for c in fs.carriers for d in GRID}
        for jobs in (1, 2):
            calls = []

            def counting(params, se, generation, carrier, density):
                calls.append((generation, carrier, density))
                return carrier_capacity(params, se, generation, carrier, density)

            with mock.patch.object(radio, "carrier_capacity", counting):
                tables = build_capacity_tables(fast_params, se_table, freq_sets, GRID, jobs=jobs)
            assert tables == [lone_tables[fs] for fs in freq_sets]
            assert len(calls) == len(set(calls)) and set(calls) == needed


@pytest.fixture(scope="module")
def t4(se_table, fast_params):
    return build_capacity_table(fast_params, se_table, FS4, GRID)


@pytest.fixture(scope="module")
def t5(se_table, fast_params):
    return build_capacity_table(fast_params, se_table, FS5, GRID)


class TestCapacityTable:
    def test_shape_and_monotone(self, t4):
        assert len(t4.rows) == len(GRID)
        caps = [c for _, c in t4.rows]
        assert all(b >= a for a, b in zip(caps, caps[1:]))

    def test_doubling_density_never_reduces_capacity(self, t4):
        by_density = dict(t4.rows)
        for d in (0.01, 0.05, 0.1, 0.5, 1.0):
            assert by_density[d * 2] >= by_density[d]

    def test_5g_dominates_4g(self, t4, t5):
        for (_, c4), (_, c5) in zip(t4.rows, t5.rows):
            assert c5 >= c4
        assert t5.max_capacity > t4.max_capacity

    def test_extra_carrier_never_reduces_capacity(self, se_table, fast_params, t4):
        wider = FrequencySet(Generation.G4, (*FS4.carriers, Carrier(2600.0, 10.0)))
        t_wider = build_capacity_table(fast_params, se_table, wider, GRID)
        for (_, base), (_, more) in zip(t4.rows, t_wider.rows):
            assert more >= base

    def test_thread_count_invariance(self, se_table, fast_params, t4):
        threaded = build_capacity_table(fast_params, se_table, FS4, GRID, jobs=4)
        assert threaded.rows == t4.rows

    def test_isotonic_clip(self):
        assert isotonic_clip([10.0, 9.0, 12.0]) == [10.0, 10.0, 12.0]

    def test_mimo_efficiency_scales_the_table(self, se_table, fast_params, t4):
        half = build_capacity_table(dataclasses.replace(fast_params, mimo_efficiency=0.5), se_table, FS4, GRID)
        assert [c for _, c in half.rows] == pytest.approx([c * 0.5 / 0.85 for _, c in t4.rows], rel=1e-12)

    def test_grid_validation(self, se_table, fast_params):
        with pytest.raises(ValidationError):
            build_capacity_table(fast_params, se_table, FS4, (0.1, 0.2))
        with pytest.raises(ValidationError):
            build_capacity_table(fast_params, se_table, FS4, (0.1,) * 8)

    def test_grid_with_colliding_stream_keys_rejected(self, se_table, fast_params):
        # round(density * 1e6) keys the RNG stream: these two points would share one
        close = (0.0100001, 0.0100004, *GRID[1:])
        with pytest.raises(ValidationError, match="RNG stream"):
            build_capacity_table(fast_params, se_table, FS4, close)
        # a point that rounds to key 0
        with pytest.raises(ValidationError, match="RNG stream"):
            build_capacity_table(fast_params, se_table, FS4, (4e-7, *GRID))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_non_finite_entry_rejected(self, cell, value):
        # nan fails every comparison and inf sorts last, so the order checks alone let both through
        rows = [[0.5, 60.0], [1.0, 120.0]]
        rows[cell[0]][cell[1]] = value
        with pytest.raises(ValidationError, match="finite"):
            CapacityTable(Generation.G4, "x", tuple(map(tuple, rows)))

    def test_non_finite_rows_skip_the_order_rules(self):
        # the order rules are meaningless on inf, so only the finiteness rule is reported
        with pytest.raises(ValidationError) as err:
            CapacityTable(Generation.G4, "x", ((1.0, math.inf), (0.5, 60.0)))
        assert err.value.args == ("capacity table entries must be finite",)

    def test_every_broken_order_rule_is_reported(self):
        with pytest.raises(ValidationError) as err:
            CapacityTable(Generation.G4, "x", ((1.0, 120.0), (0.5, 60.0)))
        assert err.value.args == ("capacity table densities must be strictly increasing",
                                  "capacity table capacities must be monotone non-decreasing")

    def test_save_replaces_atomically(self, t4, t5, tmp_path):
        path = tmp_path / "tables.csv"
        save_capacity_tables([t4], path)

        def interrupted():
            yield t5
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            save_capacity_tables(interrupted(), path)
        assert load_capacity_tables(path) == [t4]  # the old file is whole
        save_capacity_tables([t4, t5], path)
        assert load_capacity_tables(path) == [t4, t5]
        assert [p.name for p in tmp_path.iterdir()] == ["tables.csv"]

    def test_csv_round_trip(self, t4, t5, tmp_path):
        path = tmp_path / "tables.csv"
        save_capacity_tables([t4, t5], path)
        loaded = load_capacity_tables(path)
        assert loaded == [t4, t5]

    def test_cache_key_sensitivity(self, se_table, fast_params):
        import dataclasses
        key = table_cache_key(fast_params, se_table, FS4, GRID)
        assert key == table_cache_key(fast_params, se_table, FS4, GRID)
        other_seed = dataclasses.replace(fast_params, seed=1234)
        assert key != table_cache_key(other_seed, se_table, FS4, GRID)
        assert key != table_cache_key(fast_params, se_table, FS5, GRID)
        assert key != table_cache_key(fast_params, se_table, FS4, GRID[:-1] + (4.0,))

    def test_cache_key_holds_model_version(self, se_table, fast_params, monkeypatch):
        key = table_cache_key(fast_params, se_table, FS4, GRID)
        monkeypatch.setattr(radio, "RADIO_MODEL_VERSION", radio.RADIO_MODEL_VERSION + 1)
        assert table_cache_key(fast_params, se_table, FS4, GRID) != key


def lookup(table, demand: float) -> tuple[float, bool]:
    """:func:`required_density` of one demand, as Python values."""
    density, flag = required_density(table, np.array([demand]))
    return density.item(), flag.item()


class TestRequiredDensity:
    TABLE = CapacityTable(Generation.G4, "800x10", ((0.5, 60.0), (1.0, 120.0)))

    def test_exact_row_hit(self):
        assert lookup(self.TABLE, 60.0) == (0.5, False)

    def test_zero_demand(self):
        assert lookup(self.TABLE, 0.0) == (0.0, False)

    def test_midpoint_interpolation(self):
        density, flag = lookup(self.TABLE, 90.0)
        assert density == pytest.approx(0.75)
        assert not flag

    def test_below_first_row_anchored_at_origin(self):
        density, flag = lookup(self.TABLE, 30.0)
        assert density == pytest.approx(0.25)
        assert not flag

    def test_above_maximum_flags_unserviceable(self):
        density, flag = lookup(self.TABLE, 130.0)
        assert density == 1.0
        assert flag

    def test_round_trip_on_built_table(self, se_table, fast_params):
        table = build_capacity_table(fast_params, se_table, FS4, GRID)
        for d, c in table.rows:
            if c > 0:
                density, flag = lookup(table, c)
                assert not flag
                assert density <= d + 1e-12

    def test_array_shape_kept_and_negative_or_nan_rejected(self):
        density, flag = required_density(self.TABLE, np.array([[0.0, 30.0, 60.0], [90.0, 120.0, 130.0]]))
        assert density.tolist() == [[0.0, 0.25, 0.5], [0.75, 1.0, 1.0]]
        assert flag.tolist() == [[False, False, False], [False, False, True]]
        for bad in (-1.0, math.nan):
            with pytest.raises(ValidationError, match="demand must be >= 0"):
                required_density(self.TABLE, np.array([1.0, bad]))

    def test_empty_table_rejected(self):
        with pytest.raises(ValidationError):
            CapacityTable(Generation.G4, "x", ())


@st.composite
def capacity_tables(draw):
    """Valid tables: increasing positive densities, non-decreasing capacities >= 0."""
    finite = {"allow_nan": False, "allow_infinity": False}
    densities = sorted(draw(st.sets(st.floats(1e-3, 1e3, **finite), min_size=1, max_size=8)))
    capacities = sorted(draw(st.lists(st.floats(0.0, 1e6, **finite),
                                      min_size=len(densities), max_size=len(densities))))
    return CapacityTable(Generation.G4, "x", tuple(zip(densities, capacities)))


@st.composite
def well_conditioned_tables(draw):
    """Tables whose inverse is well conditioned: rows at least 0.01 apart in
    density, a positive first capacity, and at most 10x growth per row.

    A rising row after zero-capacity rows, or rows a few ulps apart, makes
    capacity at the returned density sensitive to its last bit, so no
    relative bound holds there.
    """
    n = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    growth = draw(st.lists(st.floats(1.0, 10.0), min_size=n - 1, max_size=n - 1))
    densities = np.cumsum(gaps).tolist()
    capacities = [draw(st.floats(1.0, 1e3))]
    for g in growth:
        capacities.append(capacities[-1] * g)
    return CapacityTable(Generation.G4, "x", tuple(zip(densities, capacities)))


demand_fractions = st.floats(0.0, 1.5, allow_nan=False)


class TestRequiredDensityProperties:
    # At demand == 44.65792525380674 the interpolation rounded one ulp above
    # the row density 6.707465839397691 that the next larger demand returns.
    ULP_TABLE = CapacityTable(Generation.G4, "x", (
        (2.317057901291514, 30.293157486611875),
        (6.707465839397691, 44.65792525380674),
        (7.082615919069186, 469.3399757146037),
    ))

    @settings(max_examples=300, deadline=None)
    @given(capacity_tables(), demand_fractions, demand_fractions)
    @example(ULP_TABLE, 0.5, 1.0)
    def test_monotone_in_demand(self, table, f1, f2):
        # random demands plus every row capacity and its neighbouring floats
        near_rows = [x for _, c in table.rows for x in (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf))]
        demands = sorted({f1 * table.max_capacity, f2 * table.max_capacity, *near_rows})
        densities = required_density(table, np.array(demands))[0].tolist()
        assert densities == sorted(densities)
        assert densities == [lookup(table, x)[0] for x in demands]  # a batch looks each demand up alone

    @settings(max_examples=300, deadline=None)
    @given(capacity_tables(), demand_fractions)
    def test_unserviceable_exactly_above_max_capacity(self, table, fraction):
        demand = fraction * table.max_capacity
        density, unserviceable = lookup(table, demand)
        assert unserviceable == (demand > table.max_capacity)
        if unserviceable:
            assert density == table.max_density

    @settings(max_examples=300, deadline=None)
    @given(well_conditioned_tables(), st.floats(1e-6, 1.0))
    def test_interpolated_capacity_recovers_demand(self, table, fraction):
        demand = fraction * table.max_capacity
        density, unserviceable = lookup(table, demand)
        assert not unserviceable
        xs = [0.0, *(d for d, _ in table.rows)]
        ys = [0.0, *(c for _, c in table.rows)]
        assert float(np.interp(density, xs, ys)) == pytest.approx(demand, rel=1e-9)


class TestIsotonicClipProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), max_size=30))
    def test_non_decreasing_dominating_and_idempotent(self, values):
        clipped = isotonic_clip(values)
        assert len(clipped) == len(values)
        assert all(a <= b for a, b in zip(clipped, clipped[1:]))
        assert all(c >= v for c, v in zip(clipped, values))
        assert isotonic_clip(clipped) == clipped
