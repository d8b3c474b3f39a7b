"""The experiment results that tests in more than one place read, each
run once per session at the size the tests assert on."""

import pytest

from repro.experiments import fig3_reuse, fig4_locality, fig5_sls, fig11_sensitivity


@pytest.fixture(scope="session")
def fig3():
    return fig3_reuse.run(fast=True)


@pytest.fixture(scope="session")
def fig4():
    return fig4_locality.run(fast=True)


@pytest.fixture(scope="session")
def fig5():
    return fig5_sls.run(fast=True, table_rows=1 << 18)


@pytest.fixture(scope="session")
def fig11_feature_quant():
    return fig11_sensitivity.run_feature_quant(fast=True)
