"""Power-amplifier model tests."""

import math

import pytest
from numpy.testing import assert_allclose

from linkplan.hardware import PaConfig, SaturationError, effective_efficiency, output_power


def test_linear_pa():
    pa = PaConfig(epsilon=0.75, theta_pa=0.0, p_max=1e9, p_cons=2.0)
    assert_allclose(output_power(pa), 1.5, rtol=1e-12)


def test_full_drive_hits_p_max():
    # p_cons = p_max / eps  =>  P = p_max for every theta < 1
    for theta in (0.0, 0.3, 0.5, 0.9):
        pa = PaConfig(epsilon=0.8, theta_pa=theta, p_max=50.0, p_cons=62.5)
        assert_allclose(output_power(pa), 50.0, rtol=1e-9)


def test_class_exponent_example():
    # theta=0.5, eps=0.75, p_max=25 dB, p_cons=20 dB: (75/sqrt(316.2278))^2
    pa = PaConfig(epsilon=0.75, theta_pa=0.5, p_max=316.2278, p_cons=100.0)
    p = output_power(pa)
    assert_allclose(p, (75.0 / math.sqrt(316.2278)) ** 2, rtol=1e-12)
    assert_allclose(p, 17.789, rtol=1e-3)
    assert_allclose(effective_efficiency(pa), 0.1779, rtol=1e-3)


def test_saturation_rejected():
    with pytest.raises(SaturationError):
        PaConfig(epsilon=1.0, theta_pa=0.0, p_max=10.0, p_cons=20.0)
    # the same config stays valid just below the limit
    PaConfig(epsilon=1.0, theta_pa=0.0, p_max=10.0, p_cons=10.0)


def test_field_validation():
    with pytest.raises(ValueError):
        PaConfig(epsilon=1.2, theta_pa=0.0, p_max=1.0, p_cons=0.5)
    with pytest.raises(ValueError):
        PaConfig(epsilon=0.5, theta_pa=1.0, p_max=1.0, p_cons=0.5)
    with pytest.raises(ValueError):
        PaConfig(epsilon=0.5, theta_pa=0.0, p_max=0.0, p_cons=0.5)
    with pytest.raises(ValueError):
        PaConfig(epsilon=0.5, theta_pa=0.0, p_max=1.0, p_cons=0.0)
    # PAs that radiate nothing: eps = 0, or theta > 0 against an infinite p_max
    with pytest.raises(ValueError, match="epsilon"):
        PaConfig(epsilon=0.0, theta_pa=0.0, p_max=1.0, p_cons=0.5)
    with pytest.raises(ValueError, match="p_max"):
        PaConfig(epsilon=0.5, theta_pa=0.5, p_max=math.inf, p_cons=0.5)


@pytest.mark.parametrize("epsilon, p_max, p_cons, field", [
    (1.0, math.nan, 1.0, "p_max"), (0.5, math.nan, 1e9, "p_max"),
    (0.5, 1e9, math.nan, "p_cons"), (0.5, math.nan, math.nan, "p_max")])
def test_nan_power_names_its_field(epsilon, p_max, p_cons, field):
    # NaN passes `<= 0`: at theta_pa = 0, nan ** 0 is 1, so a NaN p_max
    # built a PA whose efficiency read 1.0, whatever its drive, while a NaN
    # p_cons raised "the PA would radiate nothing" without naming the field
    with pytest.raises(ValueError, match=f"^{field} must be > 0, got nan$"):
        PaConfig(epsilon=epsilon, theta_pa=0.0, p_max=p_max, p_cons=p_cons)


def test_pa_output_underflow_rejected():
    # theta_pa = 0.99 raises (eps P_cons / P_max^theta) to the power 100:
    # at -40 dB the output underflows to 0, and every rate and outage would
    # divide by it
    with pytest.raises(ValueError, match="radiate nothing"):
        PaConfig(epsilon=0.75, theta_pa=0.99, p_max=1.0, p_cons=1e-4)
    pa = PaConfig(epsilon=0.75, theta_pa=0.99, p_max=1.0, p_cons=1.0)
    assert output_power(pa) > 0.0
    with pytest.raises(ValueError, match="radiate nothing"):
        pa.with_drive(1e-4)


def test_effective_efficiency_limits():
    # theta=0: efficiency is eps regardless of drive
    pa = PaConfig(epsilon=0.6, theta_pa=0.0, p_max=100.0, p_cons=7.0)
    assert_allclose(effective_efficiency(pa), 0.6, rtol=1e-12)
    # at full drive the realized efficiency reaches eps for any theta
    pa = PaConfig(epsilon=0.8, theta_pa=0.5, p_max=50.0, p_cons=62.5)
    assert_allclose(effective_efficiency(pa), 0.8, rtol=1e-9)


def test_output_monotone_in_drive_and_epsilon():
    drives = [0.5, 1.0, 2.0, 5.0, 20.0, 80.0]
    prev = 0.0
    for pc in drives:
        p = output_power(PaConfig(epsilon=0.75, theta_pa=0.5, p_max=316.2278, p_cons=pc))
        assert p > prev
        prev = p
    epsilons = [0.1, 0.25, 0.5, 0.75, 1.0]
    prev = 0.0
    for eps in epsilons:
        p = output_power(PaConfig(epsilon=eps, theta_pa=0.5, p_max=316.2278, p_cons=10.0))
        assert p > prev
        prev = p


def test_realized_efficiency_improves_with_drive():
    # P / p_cons grows with p_cons for theta > 0 (PA runs closer to its sweet spot)
    drives = [0.5, 1.0, 2.0, 5.0, 20.0, 80.0]
    ratios = [
        output_power(PaConfig(0.75, 0.5, 316.2278, pc)) / pc for pc in drives
    ]
    assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_ideal_pa():
    for pc in (0.01, 1.0, 123.0):
        pa = PaConfig.ideal(pc)
        assert output_power(pa) == pc
        assert effective_efficiency(pa) == 1.0


def test_with_drive_preserves_amplifier():
    pa = PaConfig(epsilon=0.75, theta_pa=0.5, p_max=316.2278, p_cons=10.0)
    pa2 = pa.with_drive(40.0)
    assert pa2.epsilon == pa.epsilon
    assert pa2.theta_pa == pa.theta_pa
    assert pa2.p_max == pa.p_max
    assert pa2.p_cons == 40.0
