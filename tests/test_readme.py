"""The README's python example runs and prints what it shows.

`python -m doctest README.md` would read the closing fence of the block as
expected output of its last example, so the block is taken out of the
fences first and then parsed by `doctest.DocTestParser`.
"""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs():
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(blocks[0], {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    result = runner.run(test)
    assert result.attempted >= 4
    assert result.failed == 0
