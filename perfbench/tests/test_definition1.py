"""The Definition 1 checker accepts an honest report and rejects doctored ones."""

import numpy as np
import pytest

import definition1

UNIVERSE = 100


def _stream():
    # m = 1000: item 7 has 300, item 3 has 120, item 5 has 45, the rest is spread thin.
    items = [7] * 300 + [3] * 120 + [5] * 45
    items += [10 + (i % 90) for i in range(1000 - len(items))]
    return definition1.exact_counts(np.array(items), UNIVERSE)


def _report(items, length=1000):
    return {"items": {str(k): v for k, v in items.items()}, "stream_length": length,
            "epsilon": 0.05, "phi": 0.1}


def test_honest_report_passes():
    counts = _stream()
    assert definition1.violations(_report({7: 300.0, 3: 100.0}), counts, 1000) == []


@pytest.mark.parametrize(
    "items, length, fragment",
    [
        ({7: 300.0}, 1000, "heavy item 3"),
        ({7: 300.0, 3: 120.0, 5: 45.0}, 1000, "light item 5"),
        ({7: 300.0, 3: 60.0}, 1000, "estimate"),
        ({7: 300.0, 3: 120.0}, 999, "covers 999"),
    ],
)
def test_doctored_report_is_rejected(items, length, fragment):
    problems = definition1.violations(_report(items, length), _stream(), 1000)
    assert any(fragment in problem for problem in problems), problems
