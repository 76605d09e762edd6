"""Every spanlab module stays under the token count at which compiling it
costs more memory.

CPython's parser keeps a module's tokens in an array that doubles when it
fills, so a module of more than 8,192 tokens is compiled with twice that
array: compiling spans.py peaked at 2,820 KB at 7,981 tokens and at
3,394 KB at 8,411, about 0.46 MB higher.  Every benchmark session compiles
spanlab from source, so that step lands in every workload's peak memory
(see the FOUND line in CHANGES.md on benchmark sessions compiling
spanlab).  Tokens are counted with tokenize, without COMMENT, NL or
ENCODING tokens, which the parser never sees.
"""
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spanlab"
PARSER_STEP = 8192


def parser_tokens(path: Path) -> int:
    with path.open("rb") as fh:
        skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        return sum(1 for t in tokenize.tokenize(fh.readline) if t.type not in skipped)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_under_the_parser_step(path):
    assert parser_tokens(path) < PARSER_STEP

