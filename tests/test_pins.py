import math
from pathlib import Path

import pytest

import pins
from conftest import fresh_output


def test_per_numerics_pins_name_the_same_fingerprints():
    # a re-take under one numerics must re-take every pin it moves; a pin
    # left with fewer fingerprints would fail on the numerics it lacks
    sets = {name: frozenset(want) for name, want in pins.PINS.items()
            if isinstance(want, dict)}
    assert len(set(sets.values())) == 1, sets


def test_unknown_fingerprint_fails_with_the_value_to_pin(monkeypatch):
    monkeypatch.setattr(pins, "FINGERPRINT", "0123456789ab")
    got = (2.0043839150909717, 33856)
    with pytest.raises(AssertionError) as exc:
        pins.pin("eig_golden", got)
    assert "0123456789ab" in str(exc.value)
    assert repr(got) in str(exc.value)


def test_pin_compares_bits():
    rows = [(4, 8271727.875, 13931875.3125), (5, 347280304.5, 1307275510.75)]
    pins.pin("cost_rows_above_l0", rows)
    rows[1] = (5, 347280304.5, math.nextafter(1307275510.75, math.inf))
    with pytest.raises(AssertionError):
        pins.pin("cost_rows_above_l0", rows)
    with pytest.raises(AssertionError):
        pins.pin("cost_pilot_steps", 809.5)


def test_fingerprint_is_the_same_in_a_fresh_interpreter():
    tests = str(Path(__file__).resolve().parent)
    code = (f"import sys; sys.path.insert(0, {tests!r}); import pins; "
            "print(pins.FINGERPRINT)")
    assert fresh_output(code) == pins.FINGERPRINT
