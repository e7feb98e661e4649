"""The line rule of ``tools/code_lines.py`` on a canned source.

A code line carries a Python token other than a comment; module, class
and function docstrings do not count, whatever they span, while any
other string counts on every line it spans, and so does each line of a
continued statement.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

#: each line's expected verdict after ``#|``: C counts, - does not
CANNED = '''\
"""Module docstring,                                #| -
over two lines."""                                  #| -
                                                    #| -
import os  # a comment on a code line               #| C
                                                    #| -
# a comment line                                    #| -
                                                    #| -
                                                    #| -
class Thing:                                        #| C
    """Class docstring."""                          #| -
                                                    #| -
    def method(self):                               #| C
        """Method docstring                         #| -
        on two lines."""                            #| -
        text = """not a docstring,                  #| C
        three lines                                 #| C
        long"""                                     #| C
        "a bare string after the first statement"   #| C
        return (text +                              #| C
                os.sep)                             #| C
                                                    #| -
                                                    #| -
def function():                                     #| C
    'single-quoted docstring'                       #| -
    total = 1 + \\
        2                                           #| C
    return total                                    #| C
                                                    #| -
                                                    #| -
async def coroutine():                              #| C
    """Async docstring."""                          #| -
    return 1                                        #| C
'''


def _source_and_verdicts():
    """The canned module without its markers, and its expected counts.
    The continuation line carries no marker (a comment cannot follow a
    backslash): it counts."""
    lines, code = [], 0
    for line in CANNED.splitlines():
        text, _, verdict = line.partition("#|")
        lines.append(text.rstrip())
        code += verdict.strip() != "-"
    return "\n".join(lines) + "\n", len(lines), code


def test_the_canned_source_counts_as_marked():
    source, physical, code = _source_and_verdicts()
    compile(source, "canned", "exec")
    assert (physical, code) == (32, 15)
    assert code_lines.count(source) == (physical, code)


def test_a_one_line_function_keeps_its_code():
    # the docstring token is skipped, not its line
    assert code_lines.count('def f(): """doc"""; return 1\n') == (1, 1)


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    source, physical, code = _source_and_verdicts()
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(source)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 4  # header, two files, total
    assert rows[1].split() == [str(physical), str(code),
                               str(tmp_path / "pkg" / "a.py")]
    assert rows[2].split() == ["3", "1", str(tmp_path / "pkg" / "b.py")]
    assert rows[3].split() == [str(physical + 3), str(code + 1), "total"]
