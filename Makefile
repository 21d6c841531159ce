# Verification tiers. tier1 is the gate every change must keep green; it
# first checks that gofmt would change no file, then vets the tree,
# race-tests the fault-injection and locking packages (whose tests are
# specifically about interleavings) and runs the allocation pins. tier2
# adds race-enabled runs of the packages on the zero-copy read path and of
# the multi-threaded FileBench runs (several threads on one session: the
# lock clerk's and PXFS's shared counters) and of FlatFS's concurrent puts,
# the traced experiment runs (the session tracer beside the clerk's lease
# renewal), plus a short fuzz pass over the wire/protocol decoders.
#
# The sweeps all run on one engine (internal/sweep) and one knob,
# AERIE_SWEEP_ORDINALS: unset is each scenario's tier-1 sampling, N samples
# N ordinals per point over the scenario's full point set, 0 sweeps every
# ordinal. The targets below select scenarios by test name and set only
# that: tier2-crash is the exhaustive in-process crash sweep (every ordinal
# of every fault point, ~1 600 runs) plus race-enabled RPC/libFS
# fault-injection tests; tier2-exhaust the natural fill plus every ordinal
# of every allocation/journal failure point; tier2-persist the kill -9
# sweep over its full point set; tier2-shard a kill -9 at every ordinal of
# the 2PC crash windows beside the sharded conformance runs; tier2-linearize
# the kill -9 crash-prefix sweep beside the linearizability checker;
# tier2-writepipe race-tests the pipelined write path including the crash
# sweep over the group-commit points, and repeats the sequence gate's tests
# (waiters parked on its condition, its one gap timer) fifty times.
#
# tier1 also compiles every package but ./benchmark for darwin, so the
# non-linux fallback (internal/scm/mmap_stub.go: heap arenas, no volume
# files) keeps building; ./benchmark is linux-only by design (env.go reads
# syscall.Uname).
#
# lock-stress repeats, under -race, the tests that exercise the lock
# service's wait path: TestFairSchedulingVictimP99 (a victim acquiring
# locks beside an aggressor flood, which once timed out behind the old
# broadcast-and-poll wait) and the lock-service history check (queue-order
# grants, no barging, no ErrNotHeld to an honest clerk, the timeout and
# lease-expiry bounds). COUNT repetitions each; CI runs COUNT=20.
#
# surface runs the exported-surface ledger (TestExportedSurface, part of
# tier1): every export of the trusted base and libfs is referenced from
# outside its package or argued for in the ledger's shrink-only allow-list.

TIER2_PKGS := ./internal/scm ./internal/scmmgr ./internal/sobj ./internal/lockservice ./internal/alloc ./internal/filebench ./internal/flatfs ./internal/stage
RACE_FAULT_PKGS := ./internal/faultinject ./internal/lockservice
FUZZTIME ?= 10s

# Packages with allocation pins (TestAllocPins): the per-op heap allocation
# counts of the store-and-apply path, socket to SCM, of the namespace path
# (cached lock hand-off, path resolution, collection lookup), of a contended
# lock hand-off between two clerks, of FlatFS get and put, and of the
# staged namespace both sides of the trust boundary keep.
ALLOC_PKGS := ./internal/scm ./internal/scmmgr ./internal/sobj ./internal/alloc ./internal/tfs ./internal/rpc ./internal/fsproto ./internal/libfs ./internal/lockservice ./internal/pxfs ./internal/flatfs ./internal/stage

.PHONY: all tier1 allocs bench-pair lock-stress tier2 tier2-crash tier2-exhaust tier2-writepipe tier2-persist tier2-linearize tier2-shard tier2-tenant fuzz-short surface

all: tier1

tier1:
	test -z "$$(gofmt -l .)"
	go build ./...
	GOOS=darwin go build $$(GOOS=darwin go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./... | grep -v '/benchmark$$')
	go vet ./...
	go test ./...
	go test -race $(RACE_FAULT_PKGS)
	$(MAKE) allocs

surface:
	go test -run TestExportedSurface -v ./internal/...

# Allocation pins, uncached: each fails when its path starts allocating again.
allocs:
	go test -count=1 -run '^TestAllocPins$$' $(ALLOC_PKGS)

# Paired benchmark runs of BASE (a git revision) against the working tree:
# N untraced suite runs a side, sides taking turns, then -compare. ARGS goes
# to the benchmark (e.g. ARGS='-seed 2').
N ?= 10
bench-pair:
	@test -n "$(BASE)" || { echo "usage: make bench-pair BASE=<rev> [N=10] [ARGS='-seed 2']"; exit 2; }
	bash scripts/bench-pair.sh $(BASE) $(N) $(ARGS)

COUNT ?= 200
LOCK_HISTORY_TESTS := TestHistoryRandomClerks|TestNoBarging|TestCompatibleHeadsGrantedTogether|TestDeadHolderLosesLockWithinLease|TestTimedOutRequestLeavesQueue|TestFetchBesideTeardownIsTracked
lock-stress:
	go test -race -count=$(COUNT) -timeout 60m -run '^TestFairSchedulingVictimP99$$' ./internal/core
	go test -race -count=$(COUNT) -timeout 60m -run '^($(LOCK_HISTORY_TESTS))$$' ./internal/lockservice

tier2: fuzz-short
	go vet ./...
	go test -race $(TIER2_PKGS)
	go test -race -count=3 -run 'TestTable3Runs|TestFigure5Runs' ./internal/experiments

# Short fuzz pass over every decoder that parses client-controlled bytes
# (untrusted input crossing the libFS -> TFS boundary, a staged
# collection's head page among them), the PXFS path normalizer, and the
# staged view against its map model. Each target gets $(FUZZTIME); seed
# corpora live in each package's testdata/fuzz/ or in its f.Add calls.
# FuzzViewMatchesModel reads every input byte as a choice, so nearly every
# mutant is new coverage, and the default 60 s minimization of each one
# stalls the run: its minimization is bounded to 100 calls per input (a
# failing input is still minimized that far, reported and written to
# testdata/fuzz/).
fuzz-short:
	go test -fuzz='^FuzzDecodeOps$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/fsproto
	go test -fuzz='^FuzzDecodeReplies$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/fsproto
	go test -fuzz='^FuzzBatchHeader$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/fsproto
	go test -fuzz='^FuzzReader$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/wire
	go test -fuzz='^FuzzWriterReaderRoundTrip$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/wire
	go test -fuzz='^FuzzSplitPath$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/pxfs
	go test -fuzz='^FuzzDecodeActions$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/tfs
	go test -fuzz='^FuzzCollectionHead$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/sobj
	go test -fuzz='^FuzzViewMatchesModel$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x -run='^$$' ./internal/stage

tier2-crash:
	AERIE_SWEEP_ORDINALS=0 go test -count=1 -v -timeout 30m -run TestSweepAllPoints ./internal/crashsweep
	go test -race ./internal/rpc ./internal/libfs ./internal/crashsweep

# Full exhaustion sweep: natural fill of a tiny volume plus an injected
# failure at every ordinal of alloc.alloc / alloc.reserve / journal.append,
# asserting typed errors, clean volumes, and forward progress after frees.
tier2-exhaust:
	AERIE_SWEEP_ORDINALS=0 go test -count=1 -v -timeout 30m -run TestSweepFull ./internal/exhaustsweep

# Race-enabled sweep of the pipelined write path: window protocol and
# sequence-gate tests, crash prefix-consistency at every group-commit
# fault point, and the pipelined write conformance trace (PXFS and FlatFS
# with batches in flight vs RamFS and ext4).
tier2-writepipe:
	go test -race -run 'TestPipelined|TestParkedWindow|TestWindowSeqGate|TestWritePipeStress' ./internal/libfs
	go test -race -count=50 -run 'TestSeqGate' ./internal/tfs
	go test -race -run 'TestWindowPrefixConsistency' ./internal/crashsweep
	go test -race -run 'TestPipelinedWriteConformance' ./internal/conformance

# Persistence tier: the real-process kill -9 sweep over the full point set
# (children SIGKILLed mid-write-burst, parent recovers the volume file),
# the volume-file corruption matrix, and the persistence wiring in scm /
# core / crashsweep.
tier2-persist:
	AERIE_SWEEP_ORDINALS=3 go test -count=1 -v -timeout 10m -run 'TestProcessKill9Sweep' ./internal/crashsweep
	go test -run 'TestVolume' ./internal/scm
	go test -run 'TestVolume|TestOpen|TestNew|TestReopen' ./internal/core

# Linearizability tier: the concurrent differential harness (8 pipelined
# PXFS clients, randomized scripts, Wing-Gong check of the recorded
# history), the five injected-violation detections, the checker's own unit
# suite under -race, and the kill -9 crash-prefix sweep (children killed
# mid-concurrent-run; the surviving volume must linearize to a prefix of
# every client's script). Randomized pieces honor AERIE_SEED for replay.
tier2-linearize:
	go test -race -count=1 ./internal/linearize
	go test -race -count=1 -timeout 10m -run 'TestConcurrent' -v ./internal/conformance
	go test -count=1 -timeout 10m -run 'TestLinearCrashPrefixSweep' -v ./internal/crashsweep

# Sharding tier: the multi-shard machine's unit tests, the sharded
# concurrent conformance runs (4-shard and 2-shard, scripts biased toward
# cross-shard renames, Wing-Gong linearizability check) under -race, and
# the real-process kill -9 sweep at every ordinal of the three 2PC crash
# windows (tfs.2pc.prepare must abort, tfs.2pc.commit and tfs.2pc.resolve
# must complete — exactly one outcome, asserted per victim transaction).
tier2-shard:
	go test -race -count=1 -run 'TestSharded|TestStatfsReplyShardRows' ./internal/core ./internal/fsproto
	go test -race -count=1 -timeout 10m -run 'TestConcurrentSharded|TestConcurrentTwoShard' -v ./internal/conformance
	AERIE_SWEEP_ORDINALS=0 go test -count=1 -timeout 10m -run 'TestShard2PCKill9Sweep' -v ./internal/crashsweep

# Tenancy tier: race-enabled multi-tenant isolation tests — weighted-fair
# scheduling under an aggressor flood (victim p99 bound), the quota
# exhaustion sweep (typed errors, batch atomicity, delete-to-recover), and
# per-shard tenant accounting including mid-2PC reservation attribution.
tier2-tenant:
	go test -race -count=1 -timeout 10m -run 'TestTenant|TestQuota|TestFair' -v ./internal/tfs ./internal/core
	go test -race -count=1 -run 'TestBackoffHonorsRetryAfterHint|TestRetryableShed' ./internal/libfs
