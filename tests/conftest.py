"""Shared fixtures.

The two study logs are expensive (about 3 s each), so they are built once
per session and shared by the end-to-end, report, and acceptance tests.
Oracle tests use J=0.01 machines: the finite-difference samplers were tuned
against that inertia, and the det_y3 bracket root sits outside the sampled
current range there.
"""

import pytest

from pmsmlab.machine import MachineParams
from pmsmlab.simulation import Scenario, run_scenario


@pytest.fixture
def ip_params() -> MachineParams:
    return MachineParams(J=0.01)


@pytest.fixture
def sp_params() -> MachineParams:
    return MachineParams(L2=0.0, J=0.01)


@pytest.fixture(scope="session")
def ipmsm_log():
    return run_scenario(Scenario())


@pytest.fixture(scope="session")
def spmsm_log():
    return run_scenario(Scenario(params=MachineParams(L2=0.0)))
