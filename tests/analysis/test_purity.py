"""COS5xx determinism pass: entropy, clocks, set iteration, id()."""

from repro.analysis.purity import check_purity, collect_set_returning
from tests.analysis.canary import module_from_text


def _codes(text, rel="repro/sim/m.py", set_returning=()):
    module = module_from_text(text, rel)
    return [d.code for d in check_purity(module, set_returning)]


class TestEntropy:
    def test_module_level_random_flagged(self):
        assert _codes("import random\nx = random.random()\n") == ["COS501"]
        assert _codes("import random\nx = random.randrange(5)\n") == ["COS501"]

    def test_unseeded_random_instance_flagged(self):
        assert _codes("import random\nrng = random.Random()\n") == ["COS501"]

    def test_seeded_random_instance_clean(self):
        assert _codes("import random\nrng = random.Random(42)\n") == []

    def test_from_import_alias_resolved(self):
        text = "from random import random as rnd\nx = rnd()\n"
        assert _codes(text) == ["COS501"]

    def test_uuid_and_urandom(self):
        assert _codes("import uuid\nx = uuid.uuid4()\n") == ["COS501"]
        assert _codes("import uuid\nx = uuid.uuid5(ns, 'a')\n") == []
        assert _codes("import os\nx = os.urandom(8)\n") == ["COS501"]

    def test_secrets_always_flagged(self):
        assert _codes("import secrets\nx = secrets.token_hex()\n") == ["COS501"]

    def test_method_named_random_on_object_clean(self):
        # `self.rng.random()` is a seeded instance, not the module.
        assert _codes("x = rng.random()\n") == []


class TestWallClock:
    def test_time_time_flagged(self):
        assert _codes("import time\nt = time.time()\n") == ["COS502"]
        assert _codes("import time\nt = time.perf_counter()\n") == ["COS502"]
        assert _codes("import time\nt = time.monotonic_ns()\n") == ["COS502"]

    def test_datetime_now_flagged(self):
        text = "import datetime\nt = datetime.datetime.now()\n"
        assert _codes(text) == ["COS502"]
        text = "from datetime import datetime\nt = datetime.utcnow()\n"
        assert _codes(text) == ["COS502"]

    def test_time_sleep_clean(self):
        assert _codes("import time\ntime.sleep(1)\n") == []

    def test_local_now_variable_clean(self):
        # A simulator-provided `now` parameter is the sanctioned fix.
        assert _codes("def f(now):\n    return now + 1\n") == []


class TestSetIteration:
    def test_for_over_set_literal_with_append(self):
        text = (
            "out = []\n"
            "for x in {1, 2, 3}:\n"
            "    out.append(x)\n"
        )
        assert _codes(text) == ["COS503"]

    def test_for_over_set_call_with_record(self):
        text = (
            "def f(self, items):\n"
            "    for x in set(items):\n"
            "        self.trace.record(x)\n"
        )
        assert _codes(text) == ["COS503"]

    def test_sorted_set_clean(self):
        text = (
            "out = []\n"
            "for x in sorted({1, 2, 3}):\n"
            "    out.append(x)\n"
        )
        assert _codes(text) == []

    def test_list_over_plain_name_clean(self):
        # Untracked names are not assumed to be sets.
        text = "def f(xs):\n    return list(xs)\n"
        assert _codes(text) == []

    def test_assignment_tracks_set_typedness(self):
        text = (
            "def f(items):\n"
            "    seen = set(items)\n"
            "    return list(seen)\n"
        )
        assert _codes(text) == ["COS503"]

    def test_annotation_tracks_set_typedness(self):
        text = (
            "from typing import Set\n"
            "def f(seen: Set[int]):\n"
            "    return [x for x in seen]\n"
        )
        assert _codes(text) == ["COS503"]

    def test_set_algebra_tracked(self):
        text = (
            "def f(a, b):\n"
            "    both = set(a) & set(b)\n"
            "    return ','.join(x for x in both)\n"
        )
        assert _codes(text) == ["COS503"]

    def test_self_attribute_annotated_in_class(self):
        text = (
            "from typing import Set\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.dirty: Set[str] = set()\n"
            "    def flush(self, out):\n"
            "        for node in self.dirty:\n"
            "            out.append(node)\n"
        )
        assert _codes(text) == ["COS503"]

    def test_membership_and_len_clean(self):
        # Order-insensitive uses of a set never flag.
        text = (
            "def f(items, x):\n"
            "    seen = set(items)\n"
            "    return x in seen, len(seen), min(seen)\n"
        )
        assert _codes(text) == []

    def test_set_returning_function_annotation(self):
        producer = (
            "from typing import Set\n"
            "def neighbors(n) -> Set[int]:\n"
            "    return set()\n"
        )
        consumer = (
            "def f(n):\n"
            "    return [x for x in neighbors(n)]\n"
        )
        mods = [
            module_from_text(producer, "repro/a.py"),
            module_from_text(consumer, "repro/b.py"),
        ]
        set_returning = collect_set_returning(mods)
        assert "neighbors" in set_returning
        assert [d.code for d in check_purity(mods[1], set_returning)] == ["COS503"]
        # Without the package-wide fact the call is invisible: no flag.
        assert [d.code for d in check_purity(mods[1])] == []

    def test_nested_function_inherits_scope(self):
        text = (
            "def outer(items):\n"
            "    seen = set(items)\n"
            "    def inner(out):\n"
            "        for x in seen:\n"
            "            out.append(x)\n"
            "    return inner\n"
        )
        assert _codes(text) == ["COS503"]

    def test_no_duplicate_findings_in_nested_scopes(self):
        text = (
            "def f(items):\n"
            "    def g():\n"
            "        return list(set(items))\n"
            "    return g\n"
        )
        assert _codes(text) == ["COS503"]


class TestIdIdentity:
    def test_id_in_sensitive_module(self):
        text = "def f(a, b):\n    return id(a) == id(b)\n"
        assert _codes(text, rel="repro/cbn/network.py") == ["COS504", "COS504"]
        assert _codes(text, rel="repro/system/events.py") == ["COS504", "COS504"]

    def test_id_elsewhere_clean(self):
        text = "def f(a):\n    return id(a)\n"
        assert _codes(text, rel="repro/experiments/fig3.py") == []

    def test_attribute_id_clean(self):
        assert _codes("x = obj.id(3)\n", rel="repro/sim/m.py") == []
