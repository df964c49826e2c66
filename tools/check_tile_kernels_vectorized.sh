#!/bin/sh
# Fails when an AVX-512 clone of a wide register-tile kernel is not vector
# code.
#
#   tools/check_tile_kernels_vectorized.sh <library-or-object>
#
# The host GEMM kernels run as register tiles, one AO_SIMD_CLONES function
# per tile shape (util::gemm_korder's korder_tile_*, fp64emu::ds_gemm_block's
# ds_tile_*; src/util/simd.hpp). Records do not show whether a clone is
# vectorised: GCC 12 emitted scalar code for a cloned function that inlined
# several shapes, and every test still passed, only 4x slower. This
# disassembles the library and checks the .arch_x86_64_v4 clone of every
# tile shape at least 16 columns wide (one 512-bit vector of floats or
# more) for arithmetic on zmm registers: vaddp*, vsubp* or vmulp*.
# Exits 0 when each has some, 1 when one has none or when the library holds
# AVX-512 clones but no such tile shape (renamed away), and 77 (skipped)
# without objdump or without AVX-512 clones (ThreadSanitizer builds,
# non-x86-64 hosts).
set -eu

if [ "$#" -ne 1 ]; then
  echo "usage: $0 <library-or-object>" >&2
  exit 2
fi
if ! command -v objdump >/dev/null 2>&1; then
  echo "objdump not found: tile vectorisation check skipped"
  exit 77
fi

listing=$(objdump -d --no-show-raw-insn -C "$1")
if ! printf '%s\n' "$listing" | grep -q '\[clone \.arch_x86_64_v4\]>:$'; then
  echo "no AVX-512 clones in $1: tile vectorisation check skipped"
  exit 77
fi

# Function headers are "<addr> <name(args) [clone .arch_x86_64_v4]>:";
# instruction lines are "<addr>:<TAB><mnemonic> <operands>".
printf '%s\n' "$listing" | awk -F '\t' '
  /^[0-9a-f]+ <.*>:$/ {
    shape = ""
    if ($0 ~ /\[clone \.arch_x86_64_v4\]>:$/ &&
        match($0, /[a-z0-9_]*_tile_[a-z0-9_]*x[0-9]+\(/)) {
      name = substr($0, RSTART, RLENGTH - 1)
      cols = name
      sub(/.*x/, "", cols)
      if (cols + 0 >= 16) {
        shape = name
        zmm[shape] += 0
      }
    }
    next
  }
  shape != "" && $1 ~ /^ *[0-9a-f]+:$/ {
    split($2, w, " ")
    if (w[1] ~ /^v(add|sub|mul)p[sd]$/ && w[2] ~ /%zmm/) {
      zmm[shape]++
    }
  }
  END {
    shapes = 0
    bad = 0
    for (s in zmm) {
      shapes++
      printf "%-28s %4d zmm arithmetic instructions\n", s, zmm[s]
      if (zmm[s] == 0) {
        bad++
      }
    }
    if (shapes == 0) {
      print "no AVX-512 clone of a tile shape 16 or more columns wide"
      exit 1
    }
    if (bad > 0) {
      print bad " tile shape(s) compiled to scalar code at AVX-512"
      exit 1
    }
  }'
