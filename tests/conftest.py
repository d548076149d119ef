"""Test-suite settings: property tests draw from a fixed seed per test
(``derandomize``), so they give the same result under any PYTHONHASHSEED and
on every run, and a failing ``@given`` test prints the blob that reproduces
it (``@reproduce_failure``)."""

from hypothesis import settings

settings.register_profile("scvs", derandomize=True, print_blob=True)
settings.load_profile("scvs")
