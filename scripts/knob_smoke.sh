#!/bin/sh
# knob_smoke.sh — the knob table end to end, through both binaries'
# environments:
#  1. the exports of hvd-tune's -jobscript file, inherited by
#     summit-sim -mpi mv2gdr, reproduce hvd-tune's own "best" img/s and
#     efficiency on the 132-GPU row (plain mv2gdr prints different
#     numbers, so the check can tell the two apart);
#  2. dlv3-train runs an inherited HOROVOD_FUSION_THRESHOLD with -alg
#     and records both in its run manifest;
#  3. dlv3-train rejects an inherited HOROVOD_CYCLE_TIME with the
#     trainer's "only perfsim reads" message, and an MV2_* variable by
#     name.
set -eu

dir=/tmp/segscale-knob
rm -rf "$dir"
mkdir -p "$dir"
go build -o "$dir/" ./cmd/hvd-tune ./cmd/summit-sim ./cmd/dlv3-train

"$dir/hvd-tune" -gpus 132 -jobscript "$dir/job.lsf" > "$dir/tune.txt"
best=$(awk '/^best:/ { getline; print $1, $3 }' "$dir/tune.txt")
# shellcheck disable=SC2046 # one export per word is the point
env $(sed -n 's/^export //p' "$dir/job.lsf") \
    "$dir/summit-sim" -mpi mv2gdr -gpus 1,132 > "$dir/sim.txt"
got=$(awk '$1 == 132 { print $2, $3 }' "$dir/sim.txt")
[ -n "$best" ] && [ "$got" = "$best" ] || {
    echo "summit-sim under hvd-tune's exports printed '$got', hvd-tune's best is '$best'"; exit 1; }
plain=$("$dir/summit-sim" -mpi mv2gdr -gpus 1,132 | awk '$1 == 132 { print $2, $3 }')
[ "$plain" != "$best" ] || {
    echo "plain summit-sim -mpi mv2gdr already prints '$best': the check proves nothing"; exit 1; }

train="-world 2 -batch 2 -epochs 2 -train 8 -eval 8"
# shellcheck disable=SC2086 # $train is a flag list
HOROVOD_FUSION_THRESHOLD=262144 "$dir/dlv3-train" $train -alg recursive-doubling \
    -runs-dir "$dir/runs" > "$dir/train.txt"
grep -q '"HOROVOD_FUSION_THRESHOLD=262144"' "$dir"/runs/*.json
grep -q '"-alg=recursive-doubling"' "$dir"/runs/*.json

# shellcheck disable=SC2086
if HOROVOD_CYCLE_TIME=2 "$dir/dlv3-train" $train > "$dir/cycle.txt" 2>&1; then
    echo "dlv3-train accepted HOROVOD_CYCLE_TIME=2"; exit 1
fi
grep -q 'only perfsim reads' "$dir/cycle.txt"
# shellcheck disable=SC2086
if MV2_USE_GPUDIRECT=1 "$dir/dlv3-train" $train > "$dir/mv2.txt" 2>&1; then
    echo "dlv3-train accepted MV2_USE_GPUDIRECT=1"; exit 1
fi
grep -q 'MV2_USE_GPUDIRECT is set, but only the simulator' "$dir/mv2.txt"
echo "knob-smoke: ok (132-GPU row $got under hvd-tune's exports)"
