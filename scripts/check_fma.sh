#!/usr/bin/env bash
# check_fma.sh: fail if the compiler fused a multiply-add in the LUT
# arithmetic on arm64.
#
# The Go spec lets a compiler fuse x*y+z into one FMA instruction, which
# rounds once instead of twice. pq's dsub-8 LUT kernel is bit-identical
# to its scalar reference (vecmath.L2Squared) only because both spell
# every product with an explicit float32(...) conversion, which forbids
# the fusion. arm64 fuses where the conversion is missing, so this
# cross-compiles internal/vecmath and internal/pq for arm64, reads the
# assembly, and fails on FMADDS/FMSUBS/FNMADDS/FNMSUBS inside
# L2Squared, BuildLUTInto, the row kernel lutRow8 or Encode (the last
# two may be inlined, so they are checked only when present).
#
# Usage: bash scripts/check_fma.sh   (from the repository root)
set -euo pipefail

asm="$(GOARCH=arm64 go build -gcflags=-S ./internal/vecmath ./internal/pq 2>&1)"
printf '%s\n' "$asm" | awk '
	/ STEXT / {
		fn = $1
		checked = fn ~ /^repro\/internal\/(vecmath\.L2Squared|pq\.\(\*Quantizer\)\.(BuildLUTInto|Encode)|pq\.lutRow8)$/
		seen[fn] = 1
		next
	}
	checked && /\t(FMADDS|FMSUBS|FNMADDS|FNMSUBS)\t/ {
		print "fused multiply-add in " fn ":" $0 > "/dev/stderr"
		bad = 1
	}
	END {
		if (!seen["repro/internal/vecmath.L2Squared"] || !seen["repro/internal/pq.(*Quantizer).BuildLUTInto"]) {
			print "check_fma: L2Squared or BuildLUTInto missing from the arm64 assembly" > "/dev/stderr"
			exit 1
		}
		exit bad
	}'
echo "check_fma: no fused multiply-adds in the LUT arithmetic on arm64"
