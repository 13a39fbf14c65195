"""Acceptance suite: every criterion at its stated tolerance.

Runs each check once per session and prints one pass/fail line per
criterion (visible with ``pytest -s`` or in the captured output of a
failing run).
"""

import pytest

from flowtree import acceptance

CRITERIA = list(range(1, 14))


@pytest.fixture(scope="session")
def results():
    out = {}
    for res in acceptance.run_checks():
        print(res.line())
        out[res.cid] = res
    return out


@pytest.mark.parametrize("cid", CRITERIA)
def test_criterion(results, cid):
    res = results[cid]
    print(res.line())
    assert res.passed, res.details


def test_negative_control_detects_wrong_power():
    res = acceptance.check_theorem_scaling(claimed_powers={"H": 1.0})
    assert not res.passed


def test_spectrum_negative_control_detects_wrong_radius():
    # the dense extremes of each ball match the radial ones at its own
    # radius and miss them by far more than the tolerance one radius up
    for q, radius in ((2, 6), (3, 4)):
        assert acceptance.dense_radial_gap(q, radius, radius)[2] <= acceptance.DENSE_RADIAL_TOL
        assert acceptance.dense_radial_gap(q, radius, radius + 1)[2] >= 0.01
