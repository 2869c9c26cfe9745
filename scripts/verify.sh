#!/usr/bin/env bash
# One command for everything a change to this repository must keep green:
# the tier-1 gate (which includes TestExportedInventory: every exported
# name under internal/ has a reader), gofmt, vet (and offline arm64,
# darwin and 386 cross-vets of the packages with per-platform files),
# one run of papereval (the paper's figures and tables), the race
# detector on the packages with shared state on the read/write path, a
# one-iteration smoke of the layer and experiment benchmarks, and the
# nested bench/ module — which
# tier-1 does not build, so without this nothing notices when a change
# under internal/ breaks the benchmark.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
set -x
go build ./...
go test ./...
# The only proof that group.Default()'s hard-coded p and q are what the
# committed seed derives; named so that no -short habit can skip it.
go test -count=1 -run 'TestDefaultGroupParameters' ./internal/group
go vet ./...
# Formatting; bench/ is its own module and is checked by its own vet.
test -z "$(gofmt -l . | grep -v '^bench/')"
# The paper's scoreboard: regenerate it and require Figure 1's orderings.
# grep without -q reads to the end, so the pipe never breaks early.
go run ./cmd/papereval | grep -F "shape check: all of the paper's qualitative orderings hold"
# archivectl's file path end to end: with one byte of one shard flipped,
# get must still write the input's exact bytes, and after scrub -repair
# so must a second get.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/archivectl" ./cmd/archivectl
head -c 20000 /dev/urandom > "$tmp/f.bin"
for enc in erasure shamir aes; do
  "$tmp/archivectl" put -in "$tmp/f.bin" -store "$tmp/$enc" -encoding "$enc" -n 8 -t 4
  shard="$tmp/$enc/node-00/f.bin.shard"
  b=$(od -An -tu1 -j100 -N1 "$shard")
  printf "$(printf '\\%03o' $((b ^ 255)))" | dd of="$shard" bs=1 seek=100 conv=notrunc status=none
  "$tmp/archivectl" get -manifest "$tmp/$enc/f.bin.manifest.json" -out "$tmp/$enc.out"
  cmp "$tmp/f.bin" "$tmp/$enc.out"
  "$tmp/archivectl" scrub -manifest "$tmp/$enc/f.bin.manifest.json" -repair | grep -F "1 bad of 8"
  "$tmp/archivectl" get -manifest "$tmp/$enc/f.bin.manifest.json" -out "$tmp/$enc.out2"
  cmp "$tmp/f.bin" "$tmp/$enc.out2"
done
# E5, the mobile adversary against proactive renewal: each system that
# renews (VSR and LINCOS re-share every chunk on a fresh polynomial,
# HasDPSS redistributes its committee) must read "renewing true,
# breached false".
go run ./cmd/attacksim -campaign mobile > "$tmp/mobile.txt"
for row in 'VSR Archive' LINCOS HasDPSS; do
  grep -E "^$row +true +false " "$tmp/mobile.txt"
done
# Every example end to end (~5 s together): each must exit 0 and print
# its headline line. hndl-demo and medical-records drive the Table 1
# systems; it-channels and reencryption-planner are the only readers of
# internal/bsm and internal/media.
mkdir "$tmp/ex"
go build -o "$tmp/ex/" ./examples/...
while read -r ex line; do
  "$tmp/ex/$ex" > "$tmp/ex/$ex.out"
  grep -F "$line" "$tmp/ex/$ex.out"
done <<'EXAMPLES'
hndl-demo FULL BREACH
medical-records replay ok: true
quickstart timestamp chain valid
quickstart re-encoded to Secret Sharing: read back ok
quickstart index chain: hash -> commitment
proactive-renewal secret intact: true
it-channels trade-off
fault-injection vault.verify
reencryption-planner tape
EXAMPLES
# The AVX2 kernels are amd64-only; this keeps the stub every other
# platform builds (internal/gf256/kernels_other.go) from rotting.
GOARCH=arm64 go vet ./internal/gf256/ ./internal/rs/
# The store's writeback hint is a syscall on linux/amd64 and arm64 only;
# these keep the no-op every other platform builds
# (internal/store/diskstore/writeback_other.go) from rotting.
GOOS=darwin go vet ./internal/store/diskstore
GOARCH=386 go vet ./internal/store/diskstore
go test -race ./internal/gf256 ./internal/rs ./internal/group ./internal/commit ./internal/tstamp ./internal/core ./internal/api ./internal/store/diskstore ./internal/store/memstore ./internal/obs/... ./internal/cluster ./internal/systems
# The store's held-fsync, crash-with-bystander, writeback-order,
# queued-commit hint and lock-free-read tests, repeated on one core,
# where an interleaving that only a second CPU hides would show.
GOMAXPROCS=1 go test -count=20 -run 'HeldCommitFsync|CommitPointsStaySerial|CloseDuringHeldCommitFsync|StageRefusedWhileItsTokenCommits|RacingStageOpsAgreeWithReplay|FailedFsyncPoisonsTheStore|CrashWithBystanderInFlight|WritebackPrecedesEveryFsync|QueuedCommitHintsWhileTheFirstFsyncs|CloseRacesAHintedCommit|GetRacesCloseCorruptAndRollover' ./internal/store/diskstore
# The stripe read's walk and hedge, repeated on one core: an unfaulted
# read makes exactly want Gets one at a time, a stalled probe fans out
# to want+2, a transient node inside the walk still yields want, and a
# cluster of uniformly slow nodes still fans out.
GOMAXPROCS=1 go test -count=20 -run 'TestUnfaultedReadWalksTheFirstWant|TestStalledProbeHedges|TestTransientNodeInsideTheWalk|TestSlowClusterReadsFanOut' ./internal/cluster
# The shard-rot tests (span rot matrix, per-chunk rot), repeated on one
# core: each asserts only what does not depend on which probe lands
# first, and this is where a result that does would show.
GOMAXPROCS=1 go test -count=20 -run 'TestSpanRotMatrix|TestReadRoutesAroundRotInEveryChunk|TestReadStopsBeforeUndecodableChunk|TestScrubRepairKeepsMidstate|TestHealthyReadDecodesFromMinimum' ./internal/core
# One iteration of each layer benchmark, so none can rot uncompiled.
go test -run '^$' -bench 'ExpH|ExpG224|FixedBaseBuild|PedersenCommit|VaultPut|VaultGet|APIPut|CommitStage|GF256Kernels|RSEncodeParallel|ErasureDecodeIntact|SpanFlat|SpanEnabled' -benchtime 1x ./internal/...
# Every root-package experiment benchmark once: they are the only ones
# that drive the Table 1 systems' store and renew paths, and the ablation
# and E13 workload ones are the readers behind the inventory's "paper"
# entries.
go test -run '^$' -bench . -benchtime 1x .
go vet -C bench ./...
go test -C bench ./...
