#!/usr/bin/env bash
# Print the exact-outputs battery: every command's stdout and exit code, run
# from the source tree with the interpreter given as the one argument.
#
#   tools/exact_outputs.sh python3 > out.txt 2> err.txt
#
# It covers the catalog and propositions reports in JSON and text, the dim-5
# table section, the catalog report at a = 1/3 in JSON (the a-rows'
# conditions with non-integral coefficients, six of which Pf does not
# divide) and at a = 1 (where n6_5's printed condition 1 divides Pf, so one
# documented mismatch fewer), every catalog file, a parameter a fixed row rejects and a
# table section or a parameter that selects nothing (exit 2; their stderr is
# compared too), each file command on the demo files and on catalog files
# with a torus, the symplectic decision of bare abelian files of dim 10 and
# 12, of two generated nilpotent files (one whose witness the walk finds deep
# in shell 1, one whose witness is the shell's corner), of an odd generated
# nilpotent file (in text, which prints the cocycle dimensions, and in JSON,
# which reads no cocycle space) and of an even one with no closed symplectic
# form (whose exact "no" follows without B^2), the symplectic
# decision, props and completeness of Q n=45 and of L n=20, props and
# completeness of two algebras with a nonzero center in weight 0 (sl2 x R,
# whose grading vector lies in [g, g], and abelian n=2 with one torus
# generator), check and the symplectic decision of one torus file per
# torus axiom that can fail (a diagonal and a non-diagonal non-derivation,
# a non-commuting pair, a non-semisimple, a zero and dependent generators;
# exit 2, with their stderr), the symplectic decision and completeness of
# two algebras with a basis vector in no pair of the bracket table away from
# the generated files (a torus file and a file of "= 0" rules), and the
# demos.  Two checkouts,
# or two interpreters, that print the same bytes agree on every output.
# tools/exact_outputs.sha256 pins the sha256 of the Python 3.11 battery's
# stdout and stderr, saved as exact-outputs-3.11.txt and
# exact-errors-3.11.txt; check them with
#
#   sha256sum -c tools/exact_outputs.sha256
#
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
  run catalog verify --dim 7
  run catalog verify --set zz=3
  run catalog verify --json --set a=1/3
  run catalog verify --set a=1
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
  # two files of the benchmark's generated core (bench/gen.py).  core_008,
  # the DEEP_WITNESS of tests/test_witness_walk.py, is zero at the corner
  # (-1, ..., -1) of shell 1, and its witness is the 6,562nd point of that
  # shell; core_110's witness is the corner itself
  printf 'algebra core_008\nbasis %s\n[e1,e5] = 2*e10\n[e4,e5] = 2*e8\n' \
    "$(echo e{1..10})" > "$dir/core_008.lie"
  printf 'algebra core_110\nbasis %s\n[e1,e3] = -2*e8\n[e2,e3] = e5\n[e3,e5] = -2*e8\n' \
    "$(echo e{1..8})" > "$dir/core_110.lie"
  for f in "$dir/core_008.lie" "$dir/core_110.lie"; do
    run symplectic "$f" --json
    run symplectic "$f" --witness
  done
  # core_003, of dimension 7, and core_002, of dimension 8, with no closed
  # symplectic form
  printf 'algebra core_003\nbasis %s\n[e1,e3] = 2*e6\n[e3,e5] = 2*e6 - e7\n[e3,e6] = e7\n' \
    "$(echo e{1..7})" > "$dir/core_003.lie"
  printf 'algebra core_002\nbasis %s\n[e1,e5] = e7\n[e1,e6] = e8\n[e3,e4] = -e7\n[e3,e6] = -2*e8\n[e4,e5] = e7\n' \
    "$(echo e{1..8})" > "$dir/core_002.lie"
  run symplectic "$dir/core_003.lie"
  run symplectic "$dir/core_003.lie" --json
  run symplectic "$dir/core_002.lie" --json
  # the largest catalog members the suite pins
  for args in "Q n=45" "L n=20"; do
    set -- $args
    liesymp catalog show "$1" --set "$2" > "$dir/large-$1.lie"
    run symplectic "$dir/large-$1.lie" --json
    run symplectic "$dir/large-$1.lie" --witness
    run der "$dir/large-$1.lie" --complete
    run props "$dir/large-$1.lie"
  done
  # a nonzero center: sl2 x R, and abelian n=2 with its first generator only
  printf 'algebra sl2r\nbasis x y z c\n[x,y] = x\n[x,z] = y\n[y,z] = z\n' > "$dir/sl2r.lie"
  printf 'algebra abelian\nbasis e1 e2\ntorus e3\n[e3,e1] = e1\n' > "$dir/abelian2-h1.lie"
  for f in "$dir/sl2r.lie" "$dir/abelian2-h1.lie"; do
    run der "$f" --complete
    run props "$f"
  done
  # one torus on the Heisenberg algebra per axiom that can fail: diagonal
  # tori are checked on their weights, the others through t ⋉ n
  heisenberg='algebra h3\nbasis e1 e2 e3\n[e1,e2] = e3\n'
  printf "$heisenberg"'torus e4\n[e4,e1] = e1\n' > "$dir/torus-diagonal-not-derivation.lie"
  printf "$heisenberg"'torus e4\n[e4,e1] = e1 + e2\n' > "$dir/torus-not-derivation.lie"
  printf "$heisenberg"'torus e4 e5\n[e4,e1] = e1\n[e4,e3] = e3\n[e5,e1] = e2\n' \
    > "$dir/torus-not-commuting.lie"
  printf "$heisenberg"'torus e4\n[e4,e1] = e2\n' > "$dir/torus-not-semisimple.lie"
  printf "$heisenberg"'torus e4\n' > "$dir/torus-zero.lie"
  printf "$heisenberg"'torus e4 e5\n[e4,e1] = e1\n[e4,e3] = e3\n[e5,e1] = 2*e1\n[e5,e3] = 2*e3\n' \
    > "$dir/torus-dependent.lie"
  for f in "$dir"/torus-*.lie; do
    run check "$f"
    run symplectic "$f" --json
  done
  # a basis vector in no pair of the bracket table is central, which
  # decides completeness and exact existence: e2 and e3 of a torus file, and
  # v, which occurs only in "= 0" rules
  printf 'algebra a3h\nbasis e1 e2 e3\ntorus e4\n[e4,e1] = e1\n' > "$dir/central-torus.lie"
  printf 'algebra z\nbasis x y u v\n[x,y] = u\n[x,v] = 0\n[y,v] = 0\n' > "$dir/central-zero-rules.lie"
  for f in "$dir"/central-*.lie; do
    run symplectic "$f" --json
    run symplectic "$f" --witness
    run der "$f" --complete
  done
  for f in demos/*.py; do
    echo "== $f"
    code=0; PYTHONPATH=src "$py" "$f" || code=$?; echo "exit $code"
  done
  rm -rf "$dir"
}

battery "$1"
