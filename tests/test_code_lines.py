"""scripts/code_lines.py on a small sample module."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a trailing comment


def f(x):
    """A function docstring."""
    text = """a string
that is code"""
    return os.sep + text + x
'''


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    out = subprocess.run([sys.executable, str(SCRIPT), str(sample)],
                         capture_output=True, text=True, check=True).stdout
    # import, def, the two lines of the assigned string, return
    assert out.splitlines() == ["     5  %s" % sample, "     5  total"]
