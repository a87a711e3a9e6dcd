import hypothesis

hypothesis.settings.register_profile("ci", deadline=None, max_examples=60)
# For runs that expect failures, such as a mutation check: no shrink phase
# and no example database, so a failing property test stops at its first
# counterexample and no run replays another's.  Select it with
# ``pytest --hypothesis-profile=mutation -x``.
hypothesis.settings.register_profile(
    "mutation",
    parent=hypothesis.settings.get_profile("ci"),
    phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate],
    database=None,
)
# A deeper run of the same properties, 5x the examples of ``ci``; CI runs
# the kernel reference tests under it once.  Select it with
# ``pytest --hypothesis-profile=thorough``.
hypothesis.settings.register_profile(
    "thorough", parent=hypothesis.settings.get_profile("ci"), max_examples=300
)
hypothesis.settings.load_profile("ci")
