"""Every name in ``wahlkit.__all__`` resolves, and is listed once.

A deletion that leaves its name in ``__all__`` breaks ``from wahlkit import *``
and nothing else, so no other test would notice it.
"""

from collections import Counter

import wahlkit


def test_every_exported_name_resolves_and_appears_once():
    assert [name for name, n in Counter(wahlkit.__all__).items() if n > 1] == []
    assert [name for name in wahlkit.__all__ if not hasattr(wahlkit, name)] == []
