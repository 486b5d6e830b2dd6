"""Every name in ``wahlkit.__all__`` resolves, and is listed once.

A deletion that leaves its name in ``__all__`` breaks ``from wahlkit import *``
and nothing else, so no other test would notice it.
"""

import dataclasses
import re
from collections import Counter

import wahlkit


def test_every_exported_name_resolves_and_appears_once():
    assert [name for name, n in Counter(wahlkit.__all__).items() if n > 1] == []
    assert [name for name in wahlkit.__all__ if not hasattr(wahlkit, name)] == []


def test_no_exported_record_stores_a_bool():
    # a verdict is a property computed from what failed: a stored flag beside
    # the numbers it restates can disagree with them
    records = [
        r for r in map(wahlkit.__dict__.get, wahlkit.__all__)
        if isinstance(r, type) and (dataclasses.is_dataclass(r) or hasattr(r, "_fields"))
    ]
    assert len(records) >= 19
    # the annotations are strings (dataclasses) or ForwardRefs (NamedTuples)
    flags = [
        f"{r.__name__}.{field}"
        for r in records
        for field, annotation in r.__annotations__.items()
        if re.search(r"\bbool\b", str(annotation))
    ]
    assert flags == []
