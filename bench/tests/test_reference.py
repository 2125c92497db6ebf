import pytest

import reference


def test_keep_up_spends_the_duty_share_on_the_kernel():
    speed = reference.HostSpeed()
    speed.keep_up(0.0)
    assert len(speed.samples) == 1
    speed.keep_up(200.0)
    spent = sum(speed.samples)
    assert spent >= reference.DUTY * 200.0
    assert spent - reference.DUTY * 200.0 <= max(speed.samples)


def test_each_request_is_scaled_by_the_kernel_passes_around_it():
    speed = reference.HostSpeed()
    speed.samples = [reference.NOMINAL_MS, 3.0 * reference.NOMINAL_MS, 1e9]
    assert speed.scale_at(1) == pytest.approx(0.5)
    assert speed.scale_at(3) == pytest.approx(reference.NOMINAL_MS / 1e9)
    assert speed.scale() == pytest.approx(1.0 / 3.0)
