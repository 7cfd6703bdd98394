"""The built-in catalog and its regression against the reference verdicts.

Thirty fixed table rows (nilradical dimensions 3 to 6) plus three parametric
families.  The regression recomputes everything from the structure constants
and compares with the transcribed expected columns; disagreements that trace
back to documented data errata (TYPOS.md) are reported but do not break the
run.
"""

import signal

from liesymp import build_entry, entry_names, run_regression, reproduce_propositions

# a reader that closes stdout early (| head) ends the demo quietly
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

print(f"catalog entries: {', '.join(entry_names())}")
print()

entry = build_entry("n6_5")  # parametric; defaults keep it off the degeneracy locus
print(f"n6_5 defaults: {dict(entry.params)}, nilradical dim {entry.nilradical.dim}, "
      f"torus rank {entry.torus.rank}")

report = run_regression()
counts = report.counts
print(f"regression: {counts['entries']} entries, {counts['match']} comparisons ok, "
      f"{counts['documented-mismatch']} documented data errata, "
      f"{counts['mismatch']} unexplained -> green = {report.green}")

print()
print("rows whose printed data carries a documented problem:")
for e in report.entries:
    flagged = [c.typo for c in list(e.comparisons) + list(e.conditions)
               if c.status == "documented-mismatch"]
    if flagged:
        print(f"  {e.name}: {', '.join(flagged)}")

print()
print("family statements re-derived from scratch:")
props = reproduce_propositions()
for item in props.items:
    mark = "ok" if item.ok else "FAIL"
    print(f"  [{mark}] {item.label}")
print(f"reproduction green: {props.green}")
