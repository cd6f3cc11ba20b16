from hypothesis import settings

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run, and a
# failure prints the blob that replays it (`@reproduce_failure`). Local runs keep
# hypothesis's default profile.
settings.register_profile("ci", derandomize=True, print_blob=True)
