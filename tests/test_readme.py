import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    # the "Library quick start" block of the README, run as written
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), "README.md", "exec"), {})
    counts, labels = out.getvalue().splitlines()
    run_count, naive_count = map(int, counts.split(" <= "))
    assert run_count <= naive_count
    assert re.fullmatch(r"\d+ \[\d+( \d+){4}\]", labels), labels
