"""The `>>>` examples of README.md's python blocks run as doctests."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
# a fenced python block: its text between the opening and the closing fence
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    blocks = _PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    tried = 0
    for number, block in enumerate(blocks, 1):
        test = parser.get_doctest(block, {}, f"README.md python block {number}", str(README), 0)
        report = []
        result = runner.run(test, out=report.append)
        assert result.failed == 0, "".join(report)
        tried += result.attempted
    # the quick start's seven examples, so an empty match fails
    assert tried >= 7
