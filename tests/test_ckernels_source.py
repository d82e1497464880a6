"""The generated C++ of the compiled kernels must come from the .pyx
beside it. Cython copies each source line it compiles into a comment
block headed /* "ordstat/_ckernels.pyx":N and marks that line with
"# <<<<<<<<<<<<<<"; every marked line must equal line N of the .pyx."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ordstat"
MARKER = "# <<<<<<<<<<<<<<"
BLOCK = re.compile(r'\s*/\* "ordstat/_ckernels\.pyx":(\d+)$')


def marked_lines(cpp_lines):
    """Number of comment blocks, and (pyx line number, marked source text)
    for every block that has a marked line."""
    blocks = 0
    out = []
    lineno = None
    for line in cpp_lines:
        m = BLOCK.match(line)
        if m:
            blocks += 1
            lineno = int(m.group(1))
        elif lineno is not None and line.endswith(MARKER):
            out.append((lineno, line[len(" * "):-len(MARKER)].strip()))
            lineno = None
    return blocks, out


def test_generated_cpp_matches_pyx():
    pyx = (SRC / "_ckernels.pyx").read_text().splitlines()
    blocks, marked = marked_lines((SRC / "_ckernels.cpp").read_text().splitlines())
    assert blocks and len(marked) == blocks
    drift = [(n, text) for n, text in marked
             if n > len(pyx) or pyx[n - 1].strip() != text]
    assert not drift, f"_ckernels.cpp is stale against _ckernels.pyx at {drift[:5]}"
