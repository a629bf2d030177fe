"""The repository's helper scripts under ``tools/``."""

import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment line\n"
        "x = 1  # a trailing comment\n"
        "\n"
        "\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self, a,\n"
        "          b):\n"
        '        """Function\n        docstring."""\n'
        '        s = """a string\n        that is not a docstring"""\n'
        "        return s\n"
    )
    # x = 1, class A:, the two lines of def f, the two of s = and return s
    assert tool.code_lines(source) == 7
