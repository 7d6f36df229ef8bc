"""Byte-for-byte transcripts of whole CLI runs.

Each case compares ``cli.main``'s stdout, stderr and exit code with the
files under ``transcripts/``.  A change that alters printed output on
purpose regenerates the affected files and says so.  ``ARGPARSE_CASES``
pin argparse's own help and error texts, which it wraps to the terminal
width, so every case runs with ``COLUMNS=80``.  ``PLAIN_CASES`` run a
second time with ``cli._build_parser`` made to fail: ``cli._parse_plain``
reads each of them from the declared grammar alone.
"""

from pathlib import Path

import pytest

from windschitl import cli

TRANSCRIPTS = Path(__file__).parent / "transcripts"


PLAIN_CASES = [
    ("verify", ["verify"], 0),
    ("verify-csv", ["verify", "--format", "csv"], 0),
    ("rate", ["rate"], 0),
    ("constants", ["constants"], 0),
    # The current output of a known defect (ROADMAP item 3): at 30
    # digits, curvature margins of 3e-21 to 5e-21 fall below the 1e-20
    # tolerance, and missing precision is reported as three FAILs.  The
    # change that adds an UNRESOLVED status updates this transcript.
    ("verify-digits-30", ["verify", "--digits", "30"], 1),
    ("eval-w2-1", ["eval", "w2", "1"], 0),
    ("eval-w2-1-digits-200", ["eval", "w2", "1", "--digits", "200"], 0),
    ("eval-w2-1-digits-500", ["eval", "w2", "1", "--digits", "500"], 0),
    ("table", ["table"], 0),
    ("table-markdown", ["table", "--format", "markdown"], 0),
    ("eval-w2-1-digits-1000", ["eval", "w2", "1", "--digits", "1000"], 0),
    ("eval-w2-1-digits-2000", ["eval", "w2", "1", "--digits", "2000"], 0),
    ("verify-digits-200", ["verify", "--digits", "200"], 0),
]
# lines that only argparse parses: its help and error texts
ARGPARSE_CASES = [
    ("help", ["--help"], 0),
    ("eval-help", ["eval", "--help"], 0),
    ("eval-w2-1-digits-abc", ["eval", "w2", "1", "--digits", "abc"], 2),
]


@pytest.mark.parametrize("name, argv, exit_code", PLAIN_CASES + ARGPARSE_CASES)
def test_cli_output_matches_its_transcript(capsysbinary, monkeypatch, name, argv, exit_code):
    monkeypatch.setenv("COLUMNS", "80")
    assert_transcript(capsysbinary, name, argv, exit_code)


@pytest.mark.parametrize("name, argv, exit_code", PLAIN_CASES)
def test_plain_lines_give_their_transcripts_without_argparse(capsysbinary, monkeypatch, name, argv, exit_code):
    def no_parser():
        raise AssertionError("a plain command line built the argparse parser")

    monkeypatch.setattr(cli, "_build_parser", no_parser)
    assert_transcript(capsysbinary, name, argv, exit_code)


def assert_transcript(capsysbinary, name, argv, exit_code):
    assert cli.main(argv) == exit_code
    captured = capsysbinary.readouterr()
    assert captured.out == (TRANSCRIPTS / f"{name}.stdout").read_bytes()
    assert captured.err == (TRANSCRIPTS / f"{name}.stderr").read_bytes()
