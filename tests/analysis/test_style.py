"""COS7xx style pass (the migrated L001-L003 rules)."""

from repro.analysis.style import check_style
from tests.analysis.canary import module_from_text

_HEADER = "from __future__ import annotations\n"


def _codes(text):
    return [d.code for d in check_style(module_from_text(text, "repro/m.py"))]


class TestMutableDefaults:
    def test_literal_defaults_flagged(self):
        assert _codes(_HEADER + "def f(x=[]):\n    pass\n") == ["COS701"]
        assert _codes(_HEADER + "def f(x={}):\n    pass\n") == ["COS701"]
        assert _codes(_HEADER + "def f(*, x=set()):\n    pass\n") == ["COS701"]

    def test_constructor_defaults_flagged(self):
        assert _codes(_HEADER + "def f(x=list()):\n    pass\n") == ["COS701"]
        assert _codes(_HEADER + "def f(x=dict()):\n    pass\n") == ["COS701"]

    def test_none_default_clean(self):
        assert _codes(_HEADER + "def f(x=None):\n    pass\n") == []

    def test_immutable_defaults_clean(self):
        assert _codes(_HEADER + "def f(x=(), y=0, z='s'):\n    pass\n") == []


class TestBareExcept:
    def test_bare_except_flagged(self):
        text = _HEADER + (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except:\n"
            "        pass\n"
        )
        assert _codes(text) == ["COS702"]

    def test_named_except_clean(self):
        text = _HEADER + (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        assert _codes(text) == []


class TestFutureAnnotations:
    def test_missing_import_flagged(self):
        assert _codes("x = 1\n") == ["COS703"]

    def test_present_import_clean(self):
        assert _codes(_HEADER + "x = 1\n") == []

    def test_empty_module_clean(self):
        assert _codes("") == []
        assert _codes("\n\n") == []
