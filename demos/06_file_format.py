"""The text file format and the command-line interface.

Algebras are described by bracket rules over declared labels, with an
optional torus block whose rules give the action of each torus generator.
The same files drive the `liesymp` CLI.
"""

import pathlib

from liesymp import build, parse, print_file
from liesymp.cli import main

HERE = pathlib.Path(__file__).resolve().parent
SOURCE = (HERE / "algebras" / "n4_1.lie").read_text(encoding="utf-8")

print("== input file ==")
print(SOURCE)

parsed = parse(SOURCE)
print(f"parsed: algebra {parsed.name}, basis {parsed.basis}, "
      f"torus {parsed.torus_labels}")

analysis = build(parsed)  # the analysis of the algebra the file denotes
print(f"combined algebra dimension: {analysis.algebra.dim}")
print(f"symplectic: {analysis.verdict.exists}")

print()
print("== canonical printer round-trip ==")
printed = print_file(parsed)
assert parse(printed) == parsed
print(printed, end="")

print()
print("== the same file through the CLI ==")
code = main(["symplectic", str(HERE / "algebras" / "n4_1.lie")])
print(f"(exit code {code})")

print()
print("== positioned diagnostics ==")
code = main(["check", str(HERE / "algebras" / "broken.lie")])
print(f"(exit code {code}; 2 marks invalid input)")
