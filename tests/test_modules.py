"""Source size of the package modules."""

import tokenize
from pathlib import Path

import bpl

#: Python 3.11's parser doubles its token buffer past this many tokens, which
#: raises the memory of compiling a module: ``ybcore.py`` at 4,426 tokens
#: peaked at 1,757 KiB against 1,408 KiB at 4,011, and the benchmark, which
#: compiles ``bpl`` on every run, read its peak RSS 0.12 MB higher.
TOKEN_STEP = 4096


def test_every_module_stays_below_the_parser_token_step():
    # the tokens the parser holds: comments and blank lines are not among them
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    for path in sorted(Path(bpl.__file__).parent.glob("*.py")):
        with path.open("rb") as fh:
            count = sum(tok.type not in skipped for tok in tokenize.tokenize(fh.readline))
        assert count < TOKEN_STEP, f"{path.name} holds {count} tokens"
