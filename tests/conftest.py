"""Settings shared by every test module.

The ``derandomized`` profile makes hypothesis draw the same examples on every
run, from a hash of each test, so two runs of one commit run the same tests.
Each ``@settings`` in the tests keeps its own ``max_examples`` on top of it.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
