#!/usr/bin/env bash
# Print the exact-outputs battery: every command's stdout and exit code, run
# from the source tree with the interpreter given as the one argument.
#
#   tools/exact_outputs.sh python3 > out.txt 2> err.txt
#
# It covers the catalog and propositions reports in JSON and text, the dim-5
# table section, every catalog file, a parameter a fixed row rejects (exit 2;
# its stderr is compared too), each file command on the demo files and on
# catalog files with a torus, the symplectic decision of bare abelian files
# of dim 10 and 12, of Q n=45 and of L n=20, and the demos.  Two checkouts,
# or two interpreters, that print the same bytes agree on every output.
# A failing command outside ``run`` (which records the exit code of the one
# it runs) stops the battery with that command's exit code.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 PYTHON" >&2; exit 2; }
cd "$(dirname "$0")/.."

battery() {
  local py=$1 dir name f args code
  dir=$(mktemp -d)
  liesymp() { PYTHONPATH=src "$py" -c 'import sys; from liesymp.cli import main; sys.exit(main(sys.argv[1:]))' "$@"; }
  run() { echo "== $*" | sed "s|$dir|DIR|g"; code=0; liesymp "$@" || code=$?; echo "exit $code"; }
  run catalog verify --json
  run catalog verify
  run catalog verify --dim 5
  run repro-props --json
  run repro-props
  run catalog list
  run catalog show n4_1 --set a=1
  for name in $(PYTHONPATH=src "$py" -c 'from liesymp.catalog import entry_names; print(*entry_names())'); do
    run catalog show "$name"
  done
  for args in "n6_5 a=1/3" "n6_10 a=-2" "n6_14 a=5" "n6_18 a=7/2" "Q n=13" "L n=12" "abelian n=5"; do
    set -- $args
    run catalog show "$1" --set "$2"
    liesymp catalog show "$1" --set "$2" > "$dir/$1-${2//\//_}.lie"
  done
  for f in demos/algebras/*.lie "$dir"/*.lie; do
    run symplectic "$f" --json
    run symplectic "$f" --witness
    run symplectic "$f" --witness --exact-only
    run props "$f"
    run der "$f" --complete
    run check "$f"
  done
  # bare abelian dim 10: a generic Pfaffian of 945 terms over 45
  # parameters, whose packed monomial keys are far wider than 64 bits
  printf 'algebra a\nbasis %s\n' "$(echo e{1..10})" > "$dir/abelian10.lie"
  run symplectic "$dir/abelian10.lie" --json
  run symplectic "$dir/abelian10.lie" --witness
  # bare abelian dim 12: 10,395 terms over 66 parameters
  printf 'algebra a\nbasis %s\n' "$(echo e{1..12})" > "$dir/abelian12.lie"
  run symplectic "$dir/abelian12.lie" --json
  # the largest catalog members the suite pins
  for args in "Q n=45" "L n=20"; do
    set -- $args
    liesymp catalog show "$1" --set "$2" > "$dir/large-$1.lie"
    run symplectic "$dir/large-$1.lie" --json
    run symplectic "$dir/large-$1.lie" --witness
  done
  for f in demos/*.py; do
    echo "== $f"
    code=0; PYTHONPATH=src "$py" "$f" || code=$?; echo "exit $code"
  done
  rm -rf "$dir"
}

battery "$1"
