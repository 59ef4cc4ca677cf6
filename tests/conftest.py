import hypothesis

# 300 draws per property: 50 rarely reached the cases some properties are about
hypothesis.settings.register_profile(
    "ci", derandomize=True, max_examples=300, deadline=None
)
hypothesis.settings.load_profile("ci")
