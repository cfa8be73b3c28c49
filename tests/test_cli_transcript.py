"""CLI output on the shipped bundle, byte for byte: every invocation of the
``record_cli_transcript`` matrix gives the exit code, stdout and stderr
that ``cli_transcript.txt`` holds.  A change that alters output on purpose
re-records the transcript with ``tests/record_cli_transcript.py``."""

from record_cli_transcript import TRANSCRIPT, invocations, transcript


def _blocks(text: str) -> list[str]:
    return ("\n" + text).split("\n$ ")[1:]


def test_the_cli_writes_the_recorded_transcript():
    recorded = _blocks(TRANSCRIPT.read_text(encoding="utf-8"))
    now = _blocks(transcript())
    assert len(now) == len(recorded) == len(invocations())
    changed = [(old, new) for old, new in zip(recorded, now) if old != new]
    assert not changed, (f"{len(changed)} of {len(now)} invocations changed; the first was\n"
                         f"$ {changed[0][0]}\nand is now\n$ {changed[0][1]}")
