#!/bin/sh
# Fails when a library's machine code holds a fused multiply-add.
#
#   tools/check_no_fma.sh <library-or-object>
#
# Every record is a bit pattern of host float arithmetic, and the build pins
# -ffp-contract=off so no compiler, -march or AO_SIMD_CLONES clone fuses
# a*b + c into one rounding (CMakeLists.txt). This disassembles the library
# and lists every FMA instruction it finds: x86-64 vfmadd/vfmsub/vfnmadd/
# vfnmsub (all forms), aarch64 fmadd/fmsub/fnmadd/fnmsub/fmla/fmls. Exits 0
# when there are none, 1 when there are, and 77 (skipped) without objdump.
set -eu

if [ "$#" -ne 1 ]; then
  echo "usage: $0 <library-or-object>" >&2
  exit 2
fi
if ! command -v objdump >/dev/null 2>&1; then
  echo "objdump not found: FMA check skipped"
  exit 77
fi

listing=$(objdump -d --no-show-raw-insn "$1")
# Instruction lines are "<addr>:<TAB><mnemonic> <operands>".
hits=$(printf '%s\n' "$listing" |
  awk -F '\t' '$1 ~ /^ *[0-9a-f]+:$/ { split($2, w, " "); print w[1] }' |
  grep -E '^(vfn?m(add|sub)|fn?m(add|sub)$|fml[as]$)' || true)

if [ -n "$hits" ]; then
  echo "FMA instructions in $1 (is -ffp-contract=off missing?):"
  printf '%s\n' "$hits" | sort | uniq -c
  exit 1
fi
echo "no FMA instructions in $1"
