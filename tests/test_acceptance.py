"""Acceptance battery: one test per criterion, each at its stated tolerance.

Criterion 1 pins example 1's golden roots on its unrounded first-order
coefficients, which the bundled demo system rounds to two decimals.
Criterion 4 bounds the eps -> 0 extrapolate of the simulation oracle at 1%
and requires the raw error (1.0315% at eps = 1e-4, amplitude 5) to halve as
eps halves.  See README.md.
"""

import pytest

from pwlcycles import acceptance, sliding


def _report(result):
    lines = [f"[{result.ident}] {result.description}"]
    lines += [f"  {'pass' if ok else 'FAIL'}  {text}" for ok, text in result.details]
    return "\n".join(lines)


def test_criterion_1_example1_golden():
    r = acceptance.criterion_1()
    assert r.passed, _report(r)


def test_criterion_2_example1_stability():
    r = acceptance.criterion_2()
    assert r.passed, _report(r)


def test_criterion_3_example2_golden():
    r = acceptance.criterion_3()
    assert r.passed, _report(r)


def test_criterion_4_oracle_equivalence():
    r = acceptance.criterion_4()
    assert r.passed, _report(r)


def test_criterion_5_root_count_bounds():
    r = acceptance.criterion_5()
    assert r.passed, _report(r)


def test_criterion_6_wronskians():
    r = acceptance.criterion_6()
    assert r.passed, _report(r)


def test_criterion_7_sliding_section_marks():
    r = acceptance.criterion_7()
    assert r.passed, _report(r)


def test_criterion_8_simultaneity():
    r = acceptance.criterion_8()
    assert r.passed, _report(r)


def test_criterion_9_reduction_conjugacy():
    r = acceptance.criterion_9()
    assert r.passed, _report(r)


@pytest.mark.parametrize("criterion", [acceptance.criterion_2, acceptance.criterion_3,
                                       acceptance.criterion_8])
def test_lost_roots_fail_without_an_exception(monkeypatch, criterion):
    # a regression that loses every root must read FAIL, so that
    # verify-examples prints it and exits 2, not die on an IndexError
    monkeypatch.setattr(acceptance, "find_roots", lambda *args: [])
    monkeypatch.setattr(sliding, "find_roots", lambda *args: [])
    assert criterion().passed is False
