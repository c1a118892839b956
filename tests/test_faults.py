import importlib

import pytest

from faults import FAULTS
from raagnorm.verify import run_suite


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_each_fault_is_caught_by_the_checks_the_catalogue_names(name, monkeypatch):
    fault = FAULTS[name]
    assert fault.suite or fault.blind  # a suite blind spot says why
    fault.plant(monkeypatch)
    report = run_suite()
    caught = {check["name"]: check["failed"] for check in report["checks"] if check["failed"]}
    assert caught == fault.suite
    for oracle in fault.oracles:
        module, test = oracle.split("::")
        with pytest.raises(AssertionError):
            getattr(importlib.import_module(module), test)()
