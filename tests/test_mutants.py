"""The seeded mutants in `tests/mutants.py` still apply: each old text
occurs exactly once in its file, and each killing test exists.  Running the
mutants themselves is `python tests/mutants.py`."""

import re

from mutants import MUTANTS, ROOT


def test_each_old_text_occurs_exactly_once():
    for m in MUTANTS:
        text = (ROOT / m.path).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.id
        assert m.old != m.new, m.id


def test_ids_are_unique():
    ids = [m.id for m in MUTANTS]
    assert len(ids) == len(set(ids))


def test_killing_tests_exist():
    for m in MUTANTS:
        assert m.tests, m.id
        for node in m.tests:
            path, *names = node.split("::")
            text = (ROOT / path).read_text(encoding="utf-8")
            for name in names:
                assert re.search(rf"^\s*(def|class) {name}\b", text,
                                 re.MULTILINE), (m.id, node)
