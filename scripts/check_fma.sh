#!/usr/bin/env bash
# check_fma.sh: fail if a fused multiply-add reached the distance
# arithmetic, in compiled Go on arm64 or in any hand-written assembly.
#
# The Go spec lets a compiler fuse x*y+z into one FMA instruction, which
# rounds once instead of twice. vecmath's SSE row kernel, and with it
# pq's BuildLUTInto and Encode on vecmath.L2Rows, are bit-identical to
# the scalar reference (vecmath's l2Ref) only because every product is
# rounded on its own: the Go code spells each one with an explicit
# float32(...) conversion, which forbids the fusion, and the assembly
# uses separate multiply and add instructions.
#
# Two checks:
#   - cross-compile internal/vecmath and internal/pq for arm64, read the
#     assembly, and fail on FMADDS/FMSUBS/FNMADDS/FNMSUBS inside
#     L2Squared, l2Ref, L2RowsReference, BuildLUTInto or Encode (Encode
#     may be inlined, so it is checked only when present);
#   - fail on any FMA mnemonic (VFMADD*, VFNMADD*, VFMSUB*, VFNMSUB*,
#     FMADD*, FMSUB*, FNMADD*, FNMSUB*) in an internal/**/*.s file.
#
# Usage: bash scripts/check_fma.sh   (from the repository root)
set -euo pipefail

asm="$(GOARCH=arm64 go build -gcflags=-S ./internal/vecmath ./internal/pq 2>&1)"
printf '%s\n' "$asm" | awk '
	/ STEXT / {
		fn = $1
		checked = fn ~ /^repro\/internal\/(vecmath\.(L2Squared|l2Ref|L2RowsReference)|pq\.\(\*Quantizer\)\.(BuildLUTInto|Encode))$/
		seen[fn] = 1
		next
	}
	checked && /\t(FMADDS|FMSUBS|FNMADDS|FNMSUBS)\t/ {
		print "fused multiply-add in " fn ":" $0 > "/dev/stderr"
		bad = 1
	}
	END {
		if (!seen["repro/internal/vecmath.L2Squared"] || !seen["repro/internal/vecmath.l2Ref"] || !seen["repro/internal/pq.(*Quantizer).BuildLUTInto"]) {
			print "check_fma: L2Squared, l2Ref or BuildLUTInto missing from the arm64 assembly" > "/dev/stderr"
			exit 1
		}
		exit bad
	}'

if fused="$(find internal -name '*.s' -print0 | xargs -0 -r grep -HnE '^[[:space:]]*V?FN?M(ADD|SUB)[A-Z0-9]*[[:space:]]')"; then
	printf 'fused multiply-add in assembly:\n%s\n' "$fused" >&2
	exit 1
fi
echo "check_fma: no fused multiply-adds in the distance arithmetic (arm64 Go, internal/**/*.s)"
