"""Channel and hardware error model checks."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repeaterlab.core import (
    ChannelParams,
    HardwareParams,
    gate_error_prob,
    initial_fidelity,
    memory_error_prob,
    success_probability,
    transmittance,
)


class TestTransmittance:
    @pytest.mark.parametrize(
        "l_km, expected",
        [
            (0.0, 1.0),
            (20.0, 0.4564328325449336),
            (25.5, math.exp(-1.0)),
        ],
    )
    def test_values(self, l_km, expected):
        assert transmittance(l_km, 25.5) == pytest.approx(expected, rel=1e-12)

    def test_quoted_rounding(self):
        # widely quoted 5-digit value for the 20 km segment
        assert transmittance(20.0, 25.5) == pytest.approx(0.45645, abs=1e-4)

    def test_bad_attenuation(self):
        with pytest.raises(ValueError):
            transmittance(10.0, 0.0)
        with pytest.raises(ValueError):
            transmittance(-1.0, 25.5)
        with pytest.raises(ValueError, match="^length_km must be >= 0, got nan$"):
            transmittance(math.nan)


class TestInitialFidelity:
    def test_alpha_zero_is_perfect(self):
        assert initial_fidelity(0.0, 0.3, 0.5) == 1.0

    def test_lossless_is_perfect(self):
        assert initial_fidelity(10.0, 0.3, 1.0) == 1.0

    def test_unit_exponent_point(self):
        # alpha^2 (1 - cos theta) = 1 at eta = 1/2 -> (1 + e^-0.5) / 2
        theta = math.acos(0.0)
        f = initial_fidelity(1.0, theta, 0.5)
        assert f == pytest.approx(0.5 * (1.0 + math.exp(-0.5)), rel=1e-12)
        assert f == pytest.approx(0.80327, abs=1e-5)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            initial_fidelity(-1.0, 0.3, 0.5)
        with pytest.raises(ValueError):
            initial_fidelity(1.0, 0.3, 0.0)
        with pytest.raises(ValueError, match="alpha"):
            initial_fidelity(math.nan, 0.3, 0.5)
        # an infinite alpha meets a zero factor as inf * 0 = nan
        with pytest.raises(ValueError, match="^alpha must be finite and >= 0, got inf$"):
            initial_fidelity(math.inf, 0.0, 0.5)
        with pytest.raises(ValueError, match="^alpha must be finite and >= 0, got inf$"):
            initial_fidelity(math.inf, 0.3, 1.0)
        with pytest.raises(ValueError, match="^theta_rad must be finite, got nan$"):
            initial_fidelity(1.0, math.nan, 0.5)
        with pytest.raises(ValueError, match="^theta_rad must be finite, got inf$"):
            initial_fidelity(1.0, math.inf, 0.5)
        # a finite alpha whose square overflows, where 1 - cos(theta) rounds to 0
        with pytest.raises(
            ValueError,
            match=r"^alpha and theta_rad give no finite dephasing exponent, got alpha=1e\+160, theta_rad=1e-09$",
        ):
            initial_fidelity(1e160, 1e-9, 0.5)

    @given(
        st.floats(0.1, 40.0),
        st.floats(1e-4, 3.1),
        st.floats(1e-4, 40.0),
        st.floats(0.05, 0.95),
    )
    def test_depends_only_on_dephasing_exponent(self, a1, t1, a2, eta):
        # any (alpha, theta) with equal alpha^2 (1 - cos theta) give equal F
        x = a1 * a1 * (1.0 - math.cos(t1))
        c2 = 1.0 - x / (a2 * a2)
        if not -1.0 < c2 < 1.0:
            return
        t2 = math.acos(c2)
        assert initial_fidelity(a1, t1, eta) == pytest.approx(
            initial_fidelity(a2, t2, eta), rel=1e-12
        )


class TestSuccessProbability:
    def test_paper_point(self):
        eta = transmittance(20.0, 25.5)
        p0 = success_probability(0.95, eta)
        assert p0 == pytest.approx(0.08467045913848248, rel=1e-12)
        assert p0 == pytest.approx(0.08468, abs=1e-4)

    def test_perfect_fidelity_never_heralds(self):
        assert success_probability(1.0, 0.5) == 0.0

    def test_near_half_saturates(self):
        assert success_probability(0.5 + 1e-12, 0.5) > 0.999

    def test_lossless_rejected(self):
        with pytest.raises(ValueError, match="lossless"):
            success_probability(0.9, 1.0)

    def test_eta_domain(self):
        with pytest.raises(ValueError, match=r"^eta must lie in \(0, 1\) for heralding, got 1.5$"):
            success_probability(0.9, 1.5)

    @pytest.mark.parametrize("bad_f", [0.5, 0.2, 1.0 + 1e-9])
    def test_fidelity_domain(self, bad_f):
        with pytest.raises(ValueError):
            success_probability(bad_f, 0.5)

    @given(st.floats(0.51, 0.999), st.floats(0.52, 1.0), st.floats(0.05, 0.95))
    @example(0.515625, 0.53125, 0.9375)  # both P0 round to 1.0
    def test_decreasing_in_fidelity(self, f1, f2, eta):
        if f1 >= f2:
            return
        p1, p2 = success_probability(f1, eta), success_probability(f2, eta)
        assert p1 >= p2
        # within 1e-6 of 1.0 two distinct fidelities may round to one P0;
        # below that, a gap of 1e-6 in F is always resolved
        if p2 < 1.0 - 1e-6 and f2 - f1 > 1e-6:
            assert p1 > p2


class TestGateError:
    def test_perfect_interface(self):
        assert gate_error_prob(1.0) == 0.0

    def test_headline_points(self):
        assert gate_error_prob(0.999) == pytest.approx(0.0007851740128463902, rel=1e-12)
        assert gate_error_prob(0.999) == pytest.approx(7.852e-4, abs=1e-7)
        assert gate_error_prob(0.9999) == pytest.approx(7.853757482845225e-05, rel=1e-12)

    def test_monotone_and_bounded(self):
        ts = [0.05 * i for i in range(1, 20)] + [0.999, 1.0]
        qs = [gate_error_prob(t) for t in ts]
        assert all(a > b for a, b in zip(qs, qs[1:]))
        assert all(0.0 <= q < 0.5 for q in qs)

    def test_domain(self):
        with pytest.raises(ValueError):
            gate_error_prob(0.0)
        with pytest.raises(ValueError):
            gate_error_prob(1.1)


class TestMemoryError:
    def test_zero_time(self):
        assert memory_error_prob(0.0, 0.1) == 0.0

    def test_one_coherence_time(self):
        assert memory_error_prob(0.1, 0.1) == pytest.approx(0.31606027941427883, rel=1e-12)
        assert memory_error_prob(0.1, 0.1) == pytest.approx(0.31606, abs=1e-5)

    def test_infinite_coherence(self):
        assert memory_error_prob(1.0, math.inf) == 0.0

    @given(st.floats(1e-6, 10.0), st.floats(1e-3, 100.0))
    def test_half_window_composition(self, t, tau):
        # (1 - q(t)) = (1 - q(t/2))^2 + q(t/2)^2
        q_full = memory_error_prob(t, tau)
        q_half = memory_error_prob(t / 2.0, tau)
        assert 1.0 - q_full == pytest.approx((1.0 - q_half) ** 2 + q_half**2, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            memory_error_prob(-1.0, 0.1)
        with pytest.raises(ValueError):
            memory_error_prob(1.0, 0.0)
        with pytest.raises(ValueError, match="^elapsed_s must be >= 0, got nan$"):
            memory_error_prob(math.nan, 0.1)
        with pytest.raises(ValueError) as excinfo:
            memory_error_prob(math.inf, math.inf)
        assert str(excinfo.value) == (
            "elapsed_s and coherence_s cannot both be infinite, got elapsed_s=inf, coherence_s=inf"
        )


class TestParamTypes:
    def test_channel_is_the_probe_alone(self):
        # the fiber's attenuation length, and so eta and F, are the config's
        ch = ChannelParams(segment_length_km=20.0, qubus_strength=20.0, interaction_angle_rad=0.01)
        assert ch._fields == ("segment_length_km", "qubus_strength", "interaction_angle_rad")
        assert not hasattr(ch, "transmittance") and not hasattr(ch, "fidelity")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(segment_length_km=0.0, qubus_strength=1.0, interaction_angle_rad=0.1),
            dict(segment_length_km=20.0, qubus_strength=-1.0, interaction_angle_rad=0.1),
            dict(segment_length_km=20.0, qubus_strength=1.0, interaction_angle_rad=0.0),
            dict(segment_length_km=20.0, qubus_strength=1.0, interaction_angle_rad=math.pi),
            dict(segment_length_km=20.0, qubus_strength=1.0, interaction_angle_rad=math.nan),
            dict(segment_length_km=20.0, qubus_strength=math.nan, interaction_angle_rad=0.1),
        ],
    )
    def test_channel_validation(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)

    def test_hardware(self):
        hw = HardwareParams(local_transmission=0.999, memory_coherence_s=0.1)
        assert hw.fiber_speed_m_per_s == 2.0e8
        assert hw.local_transmission == 0.999 and hw.memory_coherence_s == 0.1
        assert gate_error_prob(HardwareParams(1.0, math.inf).local_transmission) == 0.0

    @pytest.mark.parametrize(
        "t, tau", [(0.0, 0.1), (1.2, 0.1), (0.9, 0.0), (0.9, -1.0)]
    )
    def test_hardware_validation(self, t, tau):
        with pytest.raises(ValueError):
            HardwareParams(local_transmission=t, memory_coherence_s=tau)

    @pytest.mark.parametrize("speed", [math.inf, math.nan, 0.0, -2.0e8])
    def test_hardware_fiber_speed_validation(self, speed):
        with pytest.raises(ValueError, match="fiber_speed_m_per_s must be finite and > 0"):
            HardwareParams(local_transmission=0.999, memory_coherence_s=0.1, fiber_speed_m_per_s=speed)
