# Convenience targets; CI runs `make ci`.

.PHONY: all build test bench bench-quick bench-mips bench-paper bench-tier ledger report blackbox-smoke trace profile fuzz fuzz-smoke examples ci clean

all: build

build:
	dune build @all

test:
	dune runtest

# The bench targets run the release build, as obench does: the dev
# profile compiles with -opaque, so nothing is inlined across modules
# and its emulated MIPS measure different code.  Their validator calls
# use the same profile, so a target never rebuilds between its steps.
RELEASE = dune exec --profile release

# Writes BENCH_fig9a.json / BENCH_fig9b.json (and friends) under
# _bench/ — the machine-readable perf trajectory.  Compare two runs
# with `validate_bench compare`.
bench:
	$(RELEASE) bench/main.exe -- --json

bench-quick:
	$(RELEASE) bench/main.exe -- --quick --json

# Emulator-throughput gate: three quick fig9a runs, each its own
# process, then fail if the best one's aggregate emulated MIPS dropped
# more than 25% against the committed baseline (wall-time rows get a
# loose band; MIPS is the headline metric).  One process can run the
# whole emulator in a slow speed mode, so a single sample cannot tell
# a regression from the mode.
bench-mips:
	for i in 1 2 3; do \
	  $(RELEASE) bench/main.exe -- --quick --only fig9a --json \
	    --out _bench/mips$$i || exit 1; \
	done
	best=$$(grep -H '"emulated_mips"' _bench/mips[123]/BENCH_fig9a.json \
	  | sort -t: -k3 -g | tail -n 1 | cut -d: -f1) && \
	$(RELEASE) tools/validate_bench.exe -- compare \
	  bench/baselines/BENCH_fig9a.json $$best \
	  --tol 300 --tol-mips 25

# The Fig. 9a/9b tables of EXPERIMENTS.md (65x65 matrix, 10 Jacobi
# iterations, simulated Mcycles): re-check them after a codegen change.
bench-paper:
	$(RELEASE) bench/main.exe -- --only fig9a --only fig9b --sz 65 --iters 10

# Tiered-compilation figure (fixed workload, deterministic simulated
# cycles), gated bit-for-bit against the committed baseline.
bench-tier:
	$(RELEASE) bench/main.exe -- --only tier --json
	$(RELEASE) tools/validate_bench.exe -- --tier _bench/BENCH_tier.json
	$(RELEASE) tools/validate_bench.exe -- compare-tier \
	  bench/baselines/BENCH_tier.json _bench/BENCH_tier.json

# Per-layer ledger of the transform-heavy obench workload: self time
# per request of every span row (decode, lift, each optimizer pass,
# isel, regalloc, emit, install, the run), next to the end-to-end
# metrics with tracing off and on.
ledger:
	python3 obench/run.py --workload specialize-mix --seed 1 --seconds 10 --trace 1

# Consolidated observability status view under a deterministic
# saboteur fault: engine counters, sentinel health, quarantine
# registry and the flight-recorder tail on one page (DESIGN.md §12).
report:
	dune exec bin/obrew_cli.exe -- report --sz 9 --requests 6 \
	  --sentinel 2/2 --fault 'sabotage.rewrite.item:0:1' --events 16

# Crash-forensics drill: a sabotaged rewrite must leave a
# schema-valid black-box report whose flight tail carries the causal
# chain inject -> divergence -> quarantine -> demote, in order.
blackbox-smoke:
	dune exec bin/obrew_cli.exe -- stencil --sz 9 --iters 2 \
	  --mode dbrew-llvm --sentinel 2/2 --requests 8 \
	  --fault 'sabotage.rewrite.item:0:1' --blackbox
	dune exec tools/validate_bench.exe -- \
	  --blackbox-require-chain \
	  fault.sabotaged,sentinel.divergence,sentinel.quarantine,sentinel.demote \
	  --blackbox _bench/blackbox.json

# Chrome-trace of the full pipeline on the Jacobi case study: load
# trace.json at chrome://tracing or ui.perfetto.dev.
trace:
	dune exec bin/obrew_cli.exe -- stencil --trace trace.json --metrics

# Cycle-attribution profile + optimizer remarks of the Jacobi case
# study (provenance layer): human table on stdout, JSON artifacts in
# profile.json / remarks.json.
profile:
	dune exec bin/obrew_cli.exe -- stencil --profile \
	  --profile-out profile.json --remarks remarks.json

# Differential translation-validation campaigns (default, indirect
# and the looping fusion profile) through every semantic tier
# (single-step CPU, superblock engine, lifted IR, optimized IR, JIT
# code); divergences are shrunk and persisted under
# _bench/oracle/*.repro.
fuzz:
	dune exec bin/obrew_cli.exe -- fuzz --seeds 500 --tiers all \
	  --out _bench/oracle --stats
	dune exec bin/obrew_cli.exe -- fuzz --seeds 500 --tiers all \
	  --profile indirect --out _bench/oracle --stats
	dune exec bin/obrew_cli.exe -- fuzz --seeds 1000 --seed 7 --tiers all \
	  --profile fusion --out _bench/oracle --stats

# Fixed-seed fault-injection smoke: ~500 random injection plans against
# the fail-safe pipeline (see test/test_fault.ml).
fuzz-smoke:
	QCHECK_SEED=42 dune exec test/test_fault.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/stencil_demo.exe
	dune exec examples/lifter_explorer.exe
	dune exec examples/specialize_hotloop.exe

ci:
	dune build @check
	dune runtest
	dune exec bench/main.exe -- --quick --only fig9a

clean:
	dune clean
