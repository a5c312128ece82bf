"""tools/pairs.py summarizes alternating benchmark pairs of two checkouts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "trials_per_s", "better": "higher"}]


def report(wall_s: float, trials_per_s: float) -> dict:
    return {"wall_s": {"value": wall_s, "unit": "s"}, "trials_per_s": {"value": trials_per_s, "unit": "1/s"}}


def test_summary_on_fixed_numbers():
    # four pairs: the changed side is faster in three and ties in one
    runs = [(report(2.0, 10.0), report(1.0, 20.0)), (report(4.0, 5.0), report(3.0, 5.0)),
            (report(1.0, 40.0), report(1.0, 50.0)), (report(3.0, 8.0), report(1.5, 4.0))]
    lines = pairs.summarize(runs, METRICS)
    assert lines[1].split() == ["1", "2", "1", "0.5000"]
    assert lines[3].split() == ["3", "1", "1", "1.0000"]
    # wall_s: parent 1, 2, 3, 4 (quartiles 1.75 and 3.25), changed 1, 1,
    # 1.5, 3; ratios 0.5, 0.75, 1, 0.5 with median 0.625; parent wins none
    # and changed 3
    assert lines[6].split() == ["wall_s", "lower", "2.5", "[1.75,", "3.25]", "1.25", "[1,", "1.875]",
                                "0.6250", "0/3"]
    # trials_per_s, higher better: ratios 2, 1, 1.25, 0.5, median 1.125;
    # parent wins the fourth pair, changed the first and the third
    assert lines[7].split() == ["trials_per_s", "higher", "9", "[7.25,", "17.5]", "12.5", "[4.75,", "27.5]",
                                "1.1250", "1/2"]


def test_failed_runs_are_not_ok():
    assert pairs.ok({"correct": True, "failed": 0, "metrics": {}})
    assert not pairs.ok({"correct": False, "failed": 0, "metrics": {}})
    assert not pairs.ok({"correct": True, "failed": 1, "metrics": {}})
    assert not pairs.ok(None)
