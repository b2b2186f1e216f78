"""Acceptance suite: every criterion runs at its stated bound, exactly.

Each test prints its one-line verdict so `pytest -s tests/test_acceptance.py`
doubles as the human-readable acceptance report; `cmgate selftest` runs the
same registry.
"""

import pytest

from cmgate import acceptance, clear_caches, ecurve, endoring, ffield, gates, polyring


@pytest.mark.parametrize("number", sorted(acceptance.REGISTRY))
def test_criterion(number):
    result = acceptance.REGISTRY[number]()
    print(result.line())
    assert result.passed, result.details


def lie_off_the_least_conjugate(monkeypatch, target):
    """Make provider A or the point count wrong on every j that is not the
    least of its Frobenius orbit."""
    def off_least(j):
        j = ffield.minimal_field(j)
        return ffield.orbit_key(j) != j.encoding()

    if target == "provider-a":
        honest = endoring._provider_a_uncached

        def lying(j, fd):
            order = honest(j, fd)
            return endoring.CMOrder(order.d_K, order.f + 1) if off_least(j) else order

        monkeypatch.setattr(endoring, "_provider_a_uncached", lying)
    else:
        honest = ecurve.count_points

        def lying(E):
            n = honest(E)
            if not off_least(E.j):
                return n
            t = E.ctx.q + 1 - n
            return n - 1 if (t + 1) ** 2 <= 4 * E.ctx.q else n + 1  # t + 1 or t - 1

        monkeypatch.setattr(ecurve, "count_points", lying)


@pytest.mark.parametrize("target", ["provider-a", "count"])
def test_criterion_1_compares_two_computations(monkeypatch, target):
    # the orbit-keyed stores only ever count and walk from the least
    # conjugate, so criterion 1 sees a lie on the others only if it computes
    # the conjugate's order apart from them
    lie_off_the_least_conjugate(monkeypatch, target)
    clear_caches()
    try:
        result = acceptance.criterion_1()
    finally:
        clear_caches()
    assert not result.passed
    assert "over F_5^2" in result.details


def test_criterion_6_fails_a_line_through_a_supersingular_j(monkeypatch):
    # X = 0 over F_5: j = 0 is supersingular, so every point is an exception
    # and the gate must not pass it with the falsification sentinel
    line = gates.PlaneCurve(polyring.BiPoly(ffield.make_field(5, 1), {(1, 0): 1}))
    monkeypatch.setattr(acceptance, "_random_test_curves", lambda count: [line] * count)
    result = acceptance.criterion_6()
    assert result.passed, result.details
