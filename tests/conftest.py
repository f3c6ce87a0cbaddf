"""Hypothesis profiles.  ``--hypothesis-profile cli-contract`` runs the CLI
contract test (``test_cli.py::TestContract``) with a long example budget,
outside tier-1's time budget; without it that test runs its short, fixed
tier-1 budget.  Every other property test pins its own example count."""

from hypothesis import settings

settings.register_profile("cli-contract", max_examples=400, deadline=None)
