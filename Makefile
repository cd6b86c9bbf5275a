# Mirrors .github/workflows/ci.yml so local runs and CI agree.

RACE_PKGS := ./internal/transport/ ./internal/faultinject/ ./internal/tensor/ ./internal/nn/ ./internal/collective/ ./internal/horovod/ ./internal/telemetry/ ./internal/obs/ ./internal/fp16/ ./internal/modelhealth/ ./internal/segdata/
FUZZTIME  ?= 10s

# Statement-coverage floor across ./... — measured 76.9% when the
# chaos/recovery suite landed; the slack absorbs small refactors, not
# untested subsystems.
COVER_FLOOR ?= 74.0
COVER_OUT   ?= /tmp/segscale-cover.out

.PHONY: build test race gomaxprocs lint vet fma-check fuzz-smoke trace-smoke chaos-smoke obs-smoke attr-smoke elastic-smoke fp16-smoke health-smoke knob-smoke figures cover bench-e2e ci

build:
	go build ./...

test:
	go test ./...

race:
	go test -race $(RACE_PKGS)
	go test -race -run 'TestElastic|TestMixedPrecision|TestHealthLedgerGolden|TestHealthDivergence' ./internal/train/

# gomaxprocs checks that training, the simulator, the transport, the
# collectives and the conv lowerings (which fan samples out over workers
# sharing one workspace) give the same bits at GOMAXPROCS 1 and 4: every
# golden and bit-identity test in these packages must hold at both
# settings. A training rank gets GOMAXPROCS/world kernel workers, so it
# fans out only when GOMAXPROCS exceeds the world size: at 4, worlds 1
# and 2 run the parallel kernels. The transport's semaphore wake-ups
# depend on interleaving, which the two settings exercise differently.
# nn and segdata join for the backward pass's workspace releases and
# the scene generators the ranks' goroutines share.
gomaxprocs:
	go test -count=1 -cpu 1,4 ./internal/train ./internal/perfsim ./internal/transport ./internal/collective ./internal/horovod ./internal/tensor ./internal/deeplab ./internal/nn ./internal/segdata

vet:
	go vet ./...

lint: vet fma-check
	test -z "$$(gofmt -l .)"
	go run ./cmd/seglint -suppressions ./...

# fma-check cross-builds ./... for arm64 and ppc64le and fails, naming
# file:line, on any fused multiply-add in internal/tensor's listing
# (tests included): the GEMM's pure-Go kernels are the AVX2 kernel's
# oracle and must round the same way on every arch. ~80 s on a cold
# build cache on a 2-vCPU host, ~10 s warm. Not part of go test.
fma-check:
	./scripts/fma_check.sh

fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/fp16/
	go test -run='^$$' -fuzz=FuzzHalfBits -fuzztime=$(FUZZTIME) ./internal/fp16/
	go test -run='^$$' -fuzz=FuzzLoad$$ -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	go test -run='^$$' -fuzz=FuzzLoadState -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	go test -run='^$$' -fuzz=FuzzReadChromeTrace -fuzztime=$(FUZZTIME) ./internal/timeline/

# trace-smoke runs the simulator and the real trainer end-to-end into
# the trace tooling: summit-sim writes a Chrome trace and a Prometheus
# dump with its step-time histogram, trace-stats must analyse the
# trace; a world-2 dlv3-train run that crashes and restarts writes a
# trace whose lanes ("rank0.r1") do not sort in rank order, and
# trace-stats's attribution section must still read back its true two
# ranks. CI runs this target, so the two cannot drift.
trace-smoke:
	go run ./cmd/summit-sim -gpus 6,132 -timeline /tmp/segscale-trace.json -prom /tmp/segscale-metrics.prom
	go run ./cmd/trace-stats /tmp/segscale-trace.json
	grep -q '^# TYPE perfsim_step_seconds histogram' /tmp/segscale-metrics.prom
	rm -f /tmp/segscale-train-trace.segc
	go run ./cmd/dlv3-train -world 2 -batch 2 -epochs 3 -train 8 -eval 8 -ckpt /tmp/segscale-train-trace.segc -chaos-plan "crash=1@5" -trace /tmp/segscale-train-trace.json > /dev/null
	go run ./cmd/trace-stats /tmp/segscale-train-trace.json > /tmp/segscale-train-attr.txt
	grep -q '^attribution ledger: 2 ranks' /tmp/segscale-train-attr.txt

# chaos-smoke checks the fault-injection reproducibility contract:
# the same chaos seed must yield a byte-identical simulator report. A
# seeded trainer run arms the seed's message faults without its
# straggler (only the simulator runs stragglers), so its plan prints no
# slow= clause.
chaos-smoke:
	go run ./cmd/summit-sim -gpus 1,6,24 -chaos-seed 1 > /tmp/segscale-chaos-a.txt
	go run ./cmd/summit-sim -gpus 1,6,24 -chaos-seed 1 > /tmp/segscale-chaos-b.txt
	diff /tmp/segscale-chaos-a.txt /tmp/segscale-chaos-b.txt
	go run ./cmd/dlv3-train -world 2 -batch 2 -epochs 1 -train 8 -eval 8 -chaos-seed 3 > /tmp/segscale-chaos-train.txt
	grep -q '^chaos armed: ' /tmp/segscale-chaos-train.txt
	! grep -q 'slow=' /tmp/segscale-chaos-train.txt

# obs-smoke drives the live observability plane end to end on a
# world-2 dlv3-train run with one crash: once /debug/alerts lists the
# restart, check /healthz and /readyz, validate the scraped /metrics
# names with seglint, require that no endpoint serves an efficiency (the
# run has no baseline), and that /debug/flight is a Chrome trace.
obs-smoke:
	./scripts/obs_smoke.sh

# attr-smoke is the regression gate's own test: a clean run against an
# injected rank-2 straggler must fail seg-compare and blame rank 2.
attr-smoke:
	./scripts/attr_smoke.sh

# elastic-smoke drives the elastic-membership story end to end:
# crash -> shrink -> regrow on the real trainer, byte-identical across
# reruns, then the seg-compare hier-vs-flat A/B gate at 1056 ranks.
elastic-smoke:
	./scripts/elastic_smoke.sh

# fp16-smoke drives the mixed-precision story end to end: same-seed
# -fp16 reruns must be byte-identical, then the seg-compare
# fp32-vs-fp16 A/B gate at 1056 ranks (the compressed wire must win,
# and the gate must see the direction).
fp16-smoke:
	./scripts/fp16_smoke.sh

# health-smoke drives the training-health plane end to end: a healthy
# run stays sentinel-silent with a byte-deterministic ledger, a
# blown-LR run trips the divergence sentinels with provenance and
# dumps the flight window, and the seg-compare health gate hard-fails
# the diverged candidate.
health-smoke:
	./scripts/health_smoke.sh

# knob-smoke drives the knob table (internal/core/knobs.go) through
# both binaries' environments: hvd-tune's -jobscript exports make
# summit-sim print hvd-tune's own best 132-GPU row, and dlv3-train runs
# an inherited HOROVOD_FUSION_THRESHOLD with -alg but rejects an
# inherited HOROVOD_CYCLE_TIME or MV2_* variable. ~1 s on a 2-vCPU host
# once the three binaries are built.
knob-smoke:
	./scripts/knob_smoke.sh

# figures renders every experiment of internal/core's registry at its
# -fast size. Tier-1 grades the simulator entries; this is the one
# place the real-training entries (f8, x1, x6, acc) run.
figures:
	go run ./cmd/figures -fast -out /tmp/segscale-figures

# bench-e2e runs the end-to-end benchmark (bench/README.md): all five
# workloads, one seed, every metric by name, output checks included.
# Throughput claims need alternating parent/change pairs — one run on
# a shared host proves nothing about speed.
bench-e2e:
	go run ./bench -seed 1

cover:
	go test -count=1 -coverprofile=$(COVER_OUT) ./...
	@total=$$(go tool cover -func=$(COVER_OUT) | tail -n 1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < f+0) { printf "FAIL: coverage %.1f%% below floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% >= floor %.1f%%\n", t, f }'

ci: build lint test race gomaxprocs fuzz-smoke trace-smoke chaos-smoke obs-smoke attr-smoke elastic-smoke fp16-smoke health-smoke knob-smoke figures cover
