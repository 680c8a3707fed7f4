"""Lint properties: planted hazards are always flagged, safe modules never.

Two directions pin the analyzer's contract:

* **Completeness on the hazard grammar** — take a random module built
  from safe statements, plant one known-hazard snippet at a random
  position, and the pass must report exactly that snippet's code.
* **Soundness on the safe grammar** — modules built only from
  deterministic constructs (seeded RNGs, sorted iteration, set algebra
  consumed order-insensitively) must come back clean, whatever the
  combination.  This is the "never flag safe code" direction the
  conservative type inference promises.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from tests.analysis.canary import check_source_module, module_from_text


_HEADER = (
    "from __future__ import annotations\n"
    "import os\n"
    "import random\n"
    "import time\n"
    "import uuid\n"
)

# -- the safe grammar --------------------------------------------------------
# Each entry is a statement template indexed by a counter so planted
# snippets never collide with scaffolding names.

_SAFE_TEMPLATES = (
    "v{i} = {n}\n",
    "rng{i} = random.Random({n})\n",
    "s{i} = set(range({n}))\n",
    "def f{i}(a, b):\n    return a + b + {n}\n",
    "def g{i}(items):\n"
    "    out = []\n"
    "    for x in sorted(set(items)):\n"
    "        out.append(x)\n"
    "    return out\n",
    "def h{i}(items, probe):\n"
    "    seen = set(items)\n"
    "    return probe in seen, len(seen)\n",
    "def j{i}(now):\n    return now + {n}\n",
    "def k{i}(a, b):\n"
    "    both = set(a) & set(b)\n"
    "    return sorted(both)\n",
)


@st.composite
def safe_statements(draw, max_size=6):
    count = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    for i in range(count):
        template = draw(st.sampled_from(_SAFE_TEMPLATES))
        n = draw(st.integers(min_value=0, max_value=99))
        parts.append(template.format(i=i, n=n))
    return parts


# -- the hazard grammar ------------------------------------------------------

_HAZARDS = (
    ("COS501", "hz = random.random()\n"),
    ("COS501", "hz = random.Random()\n"),
    ("COS501", "hz = uuid.uuid4()\n"),
    ("COS501", "hz = os.urandom(8)\n"),
    ("COS502", "hz = time.time()\n"),
    ("COS502", "hz = time.perf_counter()\n"),
    ("COS502", "hz = time.monotonic()\n"),
    (
        "COS503",
        "def hz_f(items):\n"
        "    out = []\n"
        "    for x in set(items):\n"
        "        out.append(x)\n"
        "    return out\n",
    ),
    (
        "COS503",
        "def hz_g(items):\n"
        "    return [x for x in set(items)]\n",
    ),
)


def _check(text, rel="repro/sim/generated.py"):
    return check_source_module(module_from_text(text, rel))


class TestPlantedHazards:
    @given(
        statements=safe_statements(),
        hazard=st.sampled_from(_HAZARDS),
        position=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_planted_hazard_always_flagged(self, statements, hazard, position):
        code, snippet = hazard
        body = list(statements)
        body.insert(min(position, len(body)), snippet)
        report = _check(_HEADER + "".join(body))
        assert [d.code for d in report] == [code], report.render()

    @given(
        statements=safe_statements(max_size=3),
        hazards=st.lists(st.sampled_from(_HAZARDS), min_size=2, max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_planted_hazard_reported(self, statements, hazards):
        body = list(statements)
        expected = []
        for index, (code, snippet) in enumerate(hazards):
            # Rename the hazard symbols so snippets don't shadow each
            # other; the hazard expressions themselves are untouched.
            body.append(snippet.replace("hz", f"hz{index}"))
            expected.append(code)
        report = _check(_HEADER + "".join(body))
        assert sorted([d.code for d in report]) == sorted(expected), report.render()


class TestSafeGrammar:
    @given(statements=safe_statements(max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_safe_modules_never_flagged(self, statements):
        report = _check(_HEADER + "".join(statements))
        assert report.is_clean, report.render()

    @given(statements=safe_statements(max_size=4), seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_pragma_suppression_is_total(self, statements, seed):
        # Any hazard plus a same-line pragma comes back clean.
        body = list(statements)
        body.append(f"rng = random.Random({seed})\n")
        body.append("hz = time.time()  # cos: disable=COS502 (planted)\n")
        report = _check(_HEADER + "".join(body))
        assert report.is_clean, report.render()
