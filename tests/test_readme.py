"""The README's library tour runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_tour_runs_as_written():
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    # the two commented outputs, in the order the tour prints them
    assert "print(report.nullifiers.levels_db)        # -6.000000000000001 four times" in tour
    assert printed[0] == repr((-6.000000000000001,) * 4)
    assert "print(report.witness.fully_inseparable)   # True" in tour
    assert printed[1] == "True"
    assert len(printed) == 4
