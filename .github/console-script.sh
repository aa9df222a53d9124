#!/bin/sh
# Runs the installed `hpoincare` console script on the README's commands
# and checks that hardy-demo and two m = 2 sharpness sweeps (the inverse
# Laplacian and the volume inversion under it; p = 1.2 out to
# ln(R/s0) = 55, where the iterate's descending integral must keep its
# digits) print the same bytes twice, and so does an m = 4 sweep, whose
# second iterate reads the first through its lazily built interpolant. An
# m = 1 sweep at n = 11 needs s0 beyond 1e9, and two m = 1 sweeps must
# print the same bytes twice: one out to ln(R/s0) = 700, where the ramp
# slope R^(-1-1/p) is subnormal, and one at n = 16 out to 680, where the
# sphere area and (n-1) 2R overflow while 2R does not. An m = 2 sweep at
# n = 16, p = 6 out to ln(R/s0) = 60, with s0 beyond 1e9, takes the sigma
# grid's longest far-field recurrence and must print the same bytes twice.
# verify-inequality runs again with OpenBLAS forced to its oldest x86
# kernel (Prescott) and must print the same bytes: no quadrature result may
# depend on the BLAS kernel. On an OpenBLAS built without DYNAMIC_ARCH, or
# another BLAS, the variable is ignored and this check passes trivially.
# selfcheck must print the same bytes twice: its Hardy, g-oracle and
# t-inversion suites go through the rearrangement's seeded root solves.
# A non-finite exponent must be a usage error (exit 2), not a NaN constant.
# Last, a usage error (hardy-demo --count -1) with --output on a non-empty
# file must exit 2 and leave that file as it was.
# Usage: sh .github/console-script.sh  (after `python -m pip install -e .`)
set -eu
tmp=${RUNNER_TEMP:-$(mktemp -d)}
hpoincare constant --n 3 --m 2 --p 2
status=0
hpoincare constant --p nan 2> /dev/null || status=$?
test "$status" -eq 2
hpoincare verify-inequality --n 3 --m 1 --p 2 --count 20 --seed 1 --format csv > "$tmp/verify-1.csv"
OPENBLAS_CORETYPE=Prescott hpoincare verify-inequality --n 3 --m 1 --p 2 --count 20 --seed 1 \
    --format csv > "$tmp/verify-2.csv"
cmp "$tmp/verify-1.csv" "$tmp/verify-2.csv"
hpoincare sharpness-sweep --n 3 --m 1 --p 2 --log-ratios 25,50,100 --format csv
hpoincare hardy-demo --count 5 > "$tmp/hardy-1.txt"
hpoincare hardy-demo --count 5 > "$tmp/hardy-2.txt"
cmp "$tmp/hardy-1.txt" "$tmp/hardy-2.txt"
hpoincare sharpness-sweep --n 3 --m 2 --p 3 --log-ratios 10,20,40 --format json > "$tmp/sweep-1.json"
hpoincare sharpness-sweep --n 3 --m 2 --p 3 --log-ratios 10,20,40 --format json > "$tmp/sweep-2.json"
cmp "$tmp/sweep-1.json" "$tmp/sweep-2.json"
hpoincare sharpness-sweep --n 11 --m 1 --p 2
hpoincare sharpness-sweep --n 3 --m 1 --p 2 --log-ratios 450,480,600,700 --format json \
    > "$tmp/sweep-7.json"
hpoincare sharpness-sweep --n 3 --m 1 --p 2 --log-ratios 450,480,600,700 --format json \
    > "$tmp/sweep-8.json"
cmp "$tmp/sweep-7.json" "$tmp/sweep-8.json"
hpoincare sharpness-sweep --n 16 --m 1 --p 2 --log-ratios 600,680 --format json \
    > "$tmp/sweep-9.json"
hpoincare sharpness-sweep --n 16 --m 1 --p 2 --log-ratios 600,680 --format json \
    > "$tmp/sweep-10.json"
cmp "$tmp/sweep-9.json" "$tmp/sweep-10.json"
hpoincare sharpness-sweep --n 3 --m 2 --p 1.2 --log-ratios 10,20,40,55 --format json \
    > "$tmp/sweep-3.json"
hpoincare sharpness-sweep --n 3 --m 2 --p 1.2 --log-ratios 10,20,40,55 --format json \
    > "$tmp/sweep-4.json"
cmp "$tmp/sweep-3.json" "$tmp/sweep-4.json"
hpoincare sharpness-sweep --n 16 --m 2 --p 6 --log-ratios 20,40,60 --format json \
    > "$tmp/sweep-11.json"
hpoincare sharpness-sweep --n 16 --m 2 --p 6 --log-ratios 20,40,60 --format json \
    > "$tmp/sweep-12.json"
cmp "$tmp/sweep-11.json" "$tmp/sweep-12.json"
hpoincare sharpness-sweep --n 3 --m 4 --p 1.5 --log-ratios 10,20,40 --format json \
    > "$tmp/sweep-5.json"
hpoincare sharpness-sweep --n 3 --m 4 --p 1.5 --log-ratios 10,20,40 --format json \
    > "$tmp/sweep-6.json"
cmp "$tmp/sweep-5.json" "$tmp/sweep-6.json"
hpoincare selfcheck > "$tmp/selfcheck-1.txt"
hpoincare selfcheck > "$tmp/selfcheck-2.txt"
cmp "$tmp/selfcheck-1.txt" "$tmp/selfcheck-2.txt"
cat "$tmp/selfcheck-1.txt"
printf 'kept\n' > "$tmp/keep.txt"
cp "$tmp/keep.txt" "$tmp/keep-copy.txt"
status=0
hpoincare hardy-demo --count -1 --output "$tmp/keep.txt" 2> /dev/null || status=$?
test "$status" -eq 2
cmp "$tmp/keep.txt" "$tmp/keep-copy.txt"
