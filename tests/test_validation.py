"""The setting kinds at the edge of the float range: an integer no float
holds is no real number, so the setting it is given to is named."""

import pytest

from adnn_energy_lab.attacks import IlfoConfig
from adnn_energy_lab.energy import EnergyModel
from adnn_energy_lab.models import GatedSkipNet
from adnn_energy_lab.validation import is_real

HUGE = 10 ** 400


@pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["huge", "-huge"])
@pytest.mark.parametrize("inf", [False, True])
def test_an_int_past_the_float_range_is_not_real(value, inf):
    assert is_real(value, inf=inf) is False


@pytest.mark.parametrize("build, name", [
    (lambda v: EnergyModel(noise_sigma=v), "noise_sigma"),
    (lambda v: IlfoConfig(c=v), "c"),
    (lambda v: IlfoConfig(threshold=v), "threshold"),
    (lambda v: GatedSkipNet(lr=v), "lr"),
], ids=["EnergyModel", "IlfoConfig", "IlfoConfig.threshold", "GatedSkipNet"])
@pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["huge", "-huge"])
def test_a_setting_past_the_float_range_is_named(build, name, value):
    with pytest.raises(ValueError, match="^%s must be " % name):
        build(value)
