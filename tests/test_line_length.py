"""No line in src/gamesolve is longer than 88 characters, so the line
counts of src/ that compare two versions of the code cannot shrink by
joining lines."""

from pathlib import Path

import gamesolve

SRC = Path(gamesolve.__file__).parent
LIMIT = 88


def test_no_line_in_src_is_longer_than_the_limit():
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert long_lines == []
