import inspect

import pytest

from quadchar import verify


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_suite_passes(suite):
    results = verify.run_suite(suite)
    failed = [(r.name, r.detail) for r in results if not r.passed]
    assert not failed, failed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("nope")


def test_every_check_registered_exactly_once():
    prefixes = ("_arith_", "_charsum_", "_meanvalue_", "_resonance_", "_gcd_")
    checks = [
        name
        for name, fn in vars(verify).items()
        if name.startswith(prefixes)
        and inspect.isfunction(fn)
        and inspect.signature(fn).return_annotation is verify.CheckResult
    ]
    registered = [fn.__name__ for suite in verify.SUITES.values() for fn in suite]
    assert checks
    assert sorted(registered) == sorted(checks)
