"""Every command's stdout and exit code, replayed against a golden transcript.

``cli_transcript.txt`` holds, for each command below in each output
format, a ``$`` line with the command, its stdout byte for byte (csv rows
end in CRLF) and an ``exit`` line. Bench's elapsed time changes from run
to run, so it is masked as ``*``. After a deliberate change to the output,
rewrite the file with

    PYTHONPATH=src python3 tests/test_transcript.py
"""

import contextlib
import io
import re
from pathlib import Path
from unittest import mock

from altwronsk.cli import FORMATS, main

TRANSCRIPT = Path(__file__).with_name("cli_transcript.txt")

VERIFY_MODES = ("oracle", "theorem-random", "generators", "oeis", "parity")
COMMANDS = [
    *(f"const --p {p} --workers {w}" for p in range(1, 6) for w in (1, 2)),
    *(f"table --max-p 5 --which {which}" for which in (2, 3)),
    *(f"verify --p {p} --mode {mode}"
      + (" --seed 1 --trials 2" if mode == "theorem-random" else "")
      for mode in VERIFY_MODES for p in range(1, 5)),
    *(f"bench --p {p} --algo v1" for p in range(1, 5)),
    *(f"bench --p {p} --algo v2 --workers {w}"
      for w in (1, 2) for p in range(1, 5)),
]

# bench's elapsed time: human "elapsed=0.001s", jsonl "elapsed_s": 0.001,
# and the csv row's last column.
ELAPSED = re.compile(r'(?<=elapsed=)[0-9.]+(?=s)|(?<="elapsed_s": )[0-9.e-]+'
                     r'|(?<=,)[0-9.e-]+(?=\r\n)')


def transcript() -> str:
    """Every command run in this process, as the transcript file holds it.

    ``os.cpu_count`` reads 2, so a pool's size, which bench reports, is the
    same on every machine.
    """
    blocks = []
    with mock.patch("os.cpu_count", return_value=2):
        for command in COMMANDS:
            for fmt in FORMATS:
                argv = [*command.split(), "--format", fmt]
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                text = out.getvalue()
                if argv[0] == "bench":
                    text = ELAPSED.sub("*", text)
                blocks.append(f"$ altwronsk {' '.join(argv)}\n{text}exit {code}\n")
    return "".join(blocks)


def test_every_command_prints_its_transcript():
    with open(TRANSCRIPT, encoding="utf-8", newline="") as golden:
        assert transcript() == golden.read()


if __name__ == "__main__":
    with open(TRANSCRIPT, "w", encoding="utf-8", newline="") as golden:
        golden.write(transcript())
