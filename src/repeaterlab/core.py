"""Elementary channel and hardware error models for a hybrid quantum repeater.

Entanglement between neighboring stations is generated by a bright coherent
probe (a "qubus") that interacts dispersively with one memory qubit at each
end and is measured homodyne after the lossy fiber (Ladd et al., New J. Phys.
8, 184 (2006); van Loock et al., PRL 96, 240501 (2006)).  Fiber loss turns
the probe into a dephasing channel on the pair, which sets both the raw
fidelity of the distributed state and the heralding probability.

All probabilities returned here are plain floats; structured parameters are
checked NamedTuples.
"""

from __future__ import annotations

import math

from ._checked import checked_tuple

__all__ = [
    "ChannelParams",
    "HardwareParams",
    "transmittance",
    "initial_fidelity",
    "success_probability",
    "gate_error_prob",
    "memory_error_prob",
]

#: Default fiber attenuation length in km (0.17 dB/km telecom fiber).
ATTENUATION_LENGTH_KM = 25.5

#: Default signal velocity in fiber, m/s.
FIBER_SPEED_M_PER_S = 2.0e8


class ChannelParams(
    checked_tuple("ChannelParams", "segment_length_km qubus_strength interaction_angle_rad")
):
    """The qubus probe over one segment; the fiber's attenuation length is the config's.

    Attributes
    ----------
    segment_length_km
        Station spacing l > 0.
    qubus_strength
        Coherent probe amplitude alpha, finite and >= 0.
    interaction_angle_rad
        Dispersive interaction angle theta in (0, pi).
    """

    __slots__ = ()

    def __init__(self, segment_length_km: float, qubus_strength: float, interaction_angle_rad: float) -> None:
        if not segment_length_km > 0.0:
            raise ValueError(f"segment_length_km must be > 0, got {segment_length_km}")
        if not 0.0 <= qubus_strength < math.inf:
            raise ValueError(f"qubus_strength must be finite and >= 0, got {qubus_strength}")
        if not 0.0 < interaction_angle_rad < math.pi:
            raise ValueError(f"interaction_angle_rad must lie in (0, pi), got {interaction_angle_rad}")


class HardwareParams(checked_tuple("HardwareParams", "local_transmission memory_coherence_s")):
    """Station-local hardware quality; the fiber's speed is the config's.

    Attributes
    ----------
    local_transmission
        Transmission T in (0, 1] of the local gate interface whose gate
        error q_g is below 1/2 (1 - T up to about 0.998); T = 1 is perfect.
    memory_coherence_s
        Memory dephasing time tau_c > 0 in seconds.  math.inf is accepted
        and gives vanishing memory error.
    """

    __slots__ = ()

    def __init__(self, local_transmission: float, memory_coherence_s: float) -> None:
        if not gate_error_prob(local_transmission) < 0.5:  # gate_error_prob raises first for T outside (0, 1]
            raise ValueError(f"local_transmission must give a gate error below 1/2, got {local_transmission}")
        if not memory_coherence_s > 0.0:
            raise ValueError(f"memory_coherence_s must be > 0, got {memory_coherence_s}")


def transmittance(length_km: float, attenuation_length_km: float) -> float:
    """Fiber transmittance eta = exp(-l / L_att) over ``length_km``."""
    if not length_km >= 0.0:
        raise ValueError(f"length_km must be >= 0, got {length_km}")
    if not attenuation_length_km > 0.0:
        raise ValueError(f"attenuation_length_km must be > 0, got {attenuation_length_km}")
    return math.exp(-length_km / attenuation_length_km)


def _phase_gap(theta_rad: float) -> float:
    # the probe's phase gap 1 - cos theta, computed here alone; it cancels at small theta
    return 1.0 - math.cos(theta_rad)


def initial_fidelity(alpha: float, theta_rad: float, eta: float) -> float:
    """Raw fidelity of one heralded entangled pair.

    Loss of the probe (transmittance eta) dephases the two-qubit state; the
    surviving coherence is exp(-(1 - eta) alpha^2 (1 - cos theta)), so

        F = (1 + exp(-(1 - eta) alpha^2 (1 - cos theta))) / 2.

    The kept state is phi+ rotated by the deterministic phase
    (1 - eta) alpha^2 sin theta; F treats this phase as corrected locally.
    F = 1 exactly when nothing leaks: alpha = 0 or eta = 1.
    """
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if not math.isfinite(theta_rad):
        raise ValueError(f"theta_rad must be finite, got {theta_rad}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    exponent = -(1.0 - eta) * alpha * alpha * _phase_gap(theta_rad)
    if math.isnan(exponent):
        # alpha^2 overflowed to inf where 1 - cos(theta) rounded to 0
        raise ValueError(
            f"alpha and theta_rad give no finite dephasing exponent, got alpha={alpha}, theta_rad={theta_rad}"
        )
    return 0.5 * (1.0 + math.exp(exponent))


def success_probability(fidelity: float, eta: float) -> float:
    """Heralding probability P0 of the dispersive entangling measurement.

    The unambiguous-discrimination window of the homodyne measurement gives

        P0 = 1 - (2F - 1)^(eta / (1 - eta)).

    With F from :func:`initial_fidelity` this equals
    1 - exp(-eta alpha^2 (1 - cos theta)), the ideal unambiguous-discrimination
    limit, with the +theta and -theta branches counted as one outcome.

    Valid for F in (1/2, 1] and eta in (0, 1); a lossless channel (eta = 1)
    has no finite exponent and is rejected.
    """
    if not 0.5 < fidelity <= 1.0:
        raise ValueError(f"fidelity must lie in (1/2, 1], got {fidelity}")
    if eta == 1.0:
        raise ValueError("eta = 1 is the lossless limit; P0 is undefined by this formula")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1) for heralding, got {eta}")
    return 1.0 - (2.0 * fidelity - 1.0) ** (eta / (1.0 - eta))


def gate_error_prob(local_transmission: float) -> float:
    """Two-qubit gate error probability q_g from interface transmission T.

    The controlled-phase gate is implemented by the same dispersive probe
    run locally; imperfect transmission T of that loop dephases the gate:

        q_g = (1 - exp(-x)) / 2,   x = (pi / 2) (1 - T^2) / (sqrt(T) (1 + T)).

    T = 1 gives q_g = 0; q_g < 1/2, though floats round it to 1/2 from 1 - T of about 0.9982.
    """
    t = local_transmission
    if not 0.0 < t <= 1.0:
        raise ValueError(f"local_transmission must lie in (0, 1], got {t}")
    x = 0.5 * math.pi * (1.0 - t * t) / (math.sqrt(t) * (1.0 + t))
    return 0.5 * (1.0 - math.exp(-x))


def memory_error_prob(elapsed_s: float, coherence_s: float) -> float:
    """Memory dephasing probability q_m(t) = (1 - exp(-t / tau_c)) / 2.

    Each stored qubit waits half of any classical-communication window, so
    callers price a window of length t as q_m(t / 2) per qubit; the two
    halves compose exactly:

        1 - q_m(t) = (1 - q_m(t/2))^2 + q_m(t/2)^2.
    """
    if not elapsed_s >= 0.0:
        raise ValueError(f"elapsed_s must be >= 0, got {elapsed_s}")
    if not coherence_s > 0.0:
        raise ValueError(f"coherence_s must be > 0, got {coherence_s}")
    if elapsed_s == coherence_s == math.inf:
        raise ValueError("elapsed_s and coherence_s cannot both be infinite, got elapsed_s=inf, coherence_s=inf")
    return 0.5 * (1.0 - math.exp(-elapsed_s / coherence_s))
