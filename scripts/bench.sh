#!/bin/sh
# bench.sh — the PR-gate performance run.
#
# 1. Tier-1: build + full test suite (the calibration gates).
# 2. Race check on the simulation kernel (incl. the shard window
#    protocol), the fabric, the NIC models and the parallel sweep pool,
#    plus the sharded golden checks (byte-identical output at every shard
#    count).
# 3. Steady-state allocation gate: the data path must move messages with
#    zero allocations per round trip (DESIGN.md §10).
# 4. Fault-injection gates: the seeded loss sweep and chaos soak are
#    byte-identical at every shard count, and the reliable layers deliver
#    100% under ≤1% cell loss with bounded retransmits (DESIGN.md §11).
# 5. Scheduler + serving gates: the wheel against its heap-only twin, the
#    wheel edge-case suite, the scheduler steady-state allocation gate and
#    the shard-identity check on the open-loop serve workload
#    (DESIGN.md §12).
# 6. Multi-switch fabric gates (DESIGN.md §14): the Clos storm goldens
#    render byte-identically serial vs shards 1/2/4/8, and the
#    1k-endpoint island gossip removes failed neighbors deterministically
#    at every shard count.
# 7. Microbenchmarks (engine, scheduler heap-vs-wheel at 1k/100k/1M
#    pending, fabric), the zero-alloc echo/UAM round trips, the
#    end-to-end Figure 4 sweep, the goodput-under-loss recovery points,
#    the serial-vs-sharded 8-host cluster storm, the 64-host Clos storm,
#    the gossip host-count scaling sweep (256/512/1024 endpoints) and the
#    open-loop serve workload, all with -benchmem, saved as
#    benchstat-compatible text and summarized into the output JSON. Every
#    JSON entry records the GOMAXPROCS it ran at and the machine's CPU
#    count; the sharded storm/serve shapes carry their shard count and
#    sync-wait share, and topology shapes tag their topo kind, host/switch
#    count and stage count, so a single-core artifact can never be misread
#    as a multi-core regression. The storm runs with UNET_BENCH_OVERSUB=1
#    so oversubscribed shapes are still recorded (they skip by default
#    under plain `go test -bench`).
#    Engine rungs to expect since processes became coroutines (PR 12,
#    2-vCPU box): Engine_ProcContextSwitch ~360 ns/op (was ~0.9–1.1 µs),
#    Engine_SleepResume ~3–5 ns/op (in-place sleep; was ~440 ns),
#    Engine_ScheduleFire unchanged at ~17–20 ns. The end-to-end ledger is
#    `go run ./bench`; `make benchcheck OLD=… NEW=…` compares two.
#
# Usage: scripts/bench.sh output.json   (`make bench` names it)
set -eu
cd "$(dirname "$0")/.."

out="${1:?usage: scripts/bench.sh output.json}"
txt="${out%.json}.txt"

echo "== tier-1: go build ./... && go test ./..." >&2
go build ./...
go test ./...

echo "== race: internal/sim, internal/fabric, internal/nic, internal/experiments" >&2
go test -race ./internal/sim/...
go test -race ./internal/fabric/...
go test -race ./internal/nic/...
GOMAXPROCS=4 go test -race -run 'Golden' ./internal/experiments/

echo "== sharded golden checks (byte-identical at every shard count)" >&2
GOMAXPROCS=4 go test -run 'TestGoldenShardSweep|TestGoldenSyncSweep' ./internal/experiments/
go test -run 'TestSharded' ./internal/testbed/

echo "== steady-state allocation gate (0 allocs/round on the data path)" >&2
go test -run 'TestSteadyStateAllocs' ./internal/experiments/

echo "== fault-injection gates (seeded determinism + loss recovery)" >&2
GOMAXPROCS=4 go test -run 'TestGoldenFaultDeterminism|TestLossRecoveryDelivery' ./internal/experiments/
go test -run 'TestSeededLossNthCellGolden|TestDeadPeerFailsInBoundedTime' ./internal/uam/ ./internal/ip/tcp/

echo "== scheduler + serving gates (wheel vs heap-only twin, wheel edges, knee)" >&2
go test -run 'TestWheel|TestAfterZero|TestSchedulerDifferentialFiringOrder|TestSchedulerSteadyStateAllocs' ./internal/sim/
go test -run 'TestServe' ./internal/experiments/

echo "== multi-switch fabric gates (Clos goldens + island gossip determinism)" >&2
GOMAXPROCS=4 go test -run 'TestGoldenTopoSweep|TestGossipDeterministic' ./internal/experiments/
go test -run 'Test' ./internal/topo/

echo "== benchmarks (benchstat-compatible: $txt)" >&2
go test -run '^$' -bench 'BenchmarkEngine_|BenchmarkLink_|BenchmarkSwitch_' \
	-benchmem -benchtime 200000x -count 3 \
	./internal/sim/ ./internal/fabric/ | tee "$txt"
go test -run '^$' -bench 'BenchmarkScheduler' \
	-benchmem -benchtime 2000000x -count 3 \
	./internal/sim/ | tee -a "$txt"
go test -run '^$' -bench 'BenchmarkEcho|BenchmarkUAMRoundTrip' \
	-benchmem -benchtime 2000x -count 3 \
	./internal/experiments/ | tee -a "$txt"
go test -run '^$' -bench 'BenchmarkFig4_Bandwidth' -benchmem -benchtime 3x -count 3 . | tee -a "$txt"
go test -run '^$' -bench 'BenchmarkFigLoss_Recovery' -benchmem -benchtime 3x -count 3 . | tee -a "$txt"
UNET_BENCH_OVERSUB=1 go test -run '^$' -bench 'BenchmarkCluster_Sharded' -benchmem -benchtime 3x -count 3 . | tee -a "$txt"
UNET_BENCH_OVERSUB=1 go test -run '^$' -bench 'BenchmarkClosStorm_' -benchmem -benchtime 3x -count 3 . | tee -a "$txt"
UNET_BENCH_OVERSUB=1 go test -run '^$' -bench 'BenchmarkGossip_Scale' -benchmem -benchtime 1x -count 3 . | tee -a "$txt"
UNET_BENCH_OVERSUB=1 go test -run '^$' -bench 'BenchmarkServe_' -benchmem -benchtime 3x -count 3 . | tee -a "$txt"

echo "== summarizing into $out" >&2
go run ./scripts/benchjson "$txt" "$out"
echo "wrote $out" >&2
