"""Retired constructor keywords, swept across every constructor.

The legacy spellings ``support=``, ``st=`` and ``max_level=`` are gone:
each explorer/baseline rejects them with a ``TypeError``, while the
canonical spellings set the :class:`ExploreConfig` field silently. The
retired ``backend=`` option is still accepted by every constructor and
ignored, with a ``DeprecationWarning``.
"""

from __future__ import annotations

import warnings

import pytest

from repro.baselines import ErrorTree, SliceFinder, SliceLine
from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer

ALL_CLASSES = [HDivExplorer, DivExplorer, SliceFinder, SliceLine, ErrorTree]

LEGACY_CASES = [
    ("support", "min_support", 0.07),
    ("st", "tree_support", 0.21),
    ("max_level", "max_length", 3),
]


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize(
    "legacy,canonical,value", LEGACY_CASES, ids=[c[0] for c in LEGACY_CASES]
)
def test_removed_kwarg_spelling_raises(cls, legacy, canonical, value):
    with pytest.raises(TypeError, match=f"unexpected keyword.*{legacy}"):
        cls(**{legacy: value})


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize(
    "legacy,canonical,value", LEGACY_CASES, ids=[c[0] for c in LEGACY_CASES]
)
def test_canonical_spelling_is_silent(cls, legacy, canonical, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        obj = cls(**{canonical: value})
    assert getattr(obj.config, canonical) == value


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.__name__)
def test_retired_backend_is_ignored(cls):
    with pytest.warns(DeprecationWarning, match="backend='apriori'"):
        obj = cls(backend="apriori", min_support=0.09)
    assert obj.config == cls(min_support=0.09).config
    with pytest.raises(ValueError, match="unknown mining backend"):
        cls(backend="mystery")
