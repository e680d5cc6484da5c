"""Suite-wide test settings.

Hypothesis's default 200 ms per-example deadline is a wall-clock
threshold inside the tier-1 gate (ROADMAP 5a): a property test that
passes alone fails when a loaded host stalls one example.  One profile
turns it off for every ``@given`` test; example counts stay per test.
"""

try:
    from hypothesis import settings
except ImportError:     # the property tests skip themselves
    pass
else:
    settings.register_profile("tier1", deadline=None)
    settings.load_profile("tier1")
