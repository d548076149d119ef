"""Test-suite settings: a failing ``@given`` test prints the blob that
reproduces it (``@reproduce_failure``), so a one-off failure can be rerun."""

from hypothesis import settings

settings.register_profile("scvs", print_blob=True)
settings.load_profile("scvs")
