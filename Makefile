.PHONY: all build test fmt lint bench bench-json bench-check chaos serving serving-bench scheduler datastore observability ir docs figures-check perfbench-smoke

all: build lint test

build:
	cargo build --workspace

test:
	cargo test --workspace

fmt:
	cargo fmt --all --check

# Lint gate: formatting plus clippy over the whole workspace, all targets,
# warnings are errors.
lint: fmt
	cargo clippy --all-targets -- -D warnings

bench:
	cargo bench --workspace

# Machine-readable coordinator perf trajectory: sequential vs parallel vs
# memoized timings, written to BENCH_coordinator.json at the repo root
# (override the destination with BENCH_OUT=path).
bench-json:
	cargo run --release -p blueprint-bench --bin bench_json

# Bench-regression gate: regenerate the coordinator report and the
# 64-session serving sweep point into target/ and compare their watched
# medians (parallel/memoized for the coordinator; serving p50/p99 for the
# router) against the committed baselines, normalized by the sequential
# medians so machine speed cancels out.
bench-check:
	mkdir -p target
	BENCH_OUT=target/BENCH_candidate.json cargo run --release -p blueprint-bench --bin bench_json
	BENCH_OUT=target/BENCH_serving_candidate.json cargo run --release -p blueprint-bench --bin loadgen -- --sessions 64
	cargo run --release -p blueprint-bench --bin bench_check -- target/BENCH_candidate.json \
		--serving target/BENCH_serving_candidate.json

# Chaos suite: both interaction flows under three pinned fault seeds. Seeds
# are fixed so CI failures reproduce locally with the exact same injected
# faults. Lint runs as its own CI job, not as a dependency here.
chaos:
	CHAOS_SEEDS="7 21 42" cargo test -p integration-tests --test chaos -- --nocapture

# Serving gate: the session-isolation property battery at the 256-case
# acceptance bar plus the pinned-seed 16-session golden serving run.
serving:
	PROPTEST_CASES=256 cargo test -p blueprint-session --test isolation_properties
	cargo test -p integration-tests --test serving

# Scheduler gate: the pure scheduler's property battery (random DAGs,
# completion orders, failures and budget halts against the sequential
# reference) and the parallel ≡ sequential battery at 256 cases, plus the
# pins of the event loop's work: two store deliveries per dispatched node,
# and no thread started by an execution.
scheduler:
	PROPTEST_CASES=256 cargo test -p blueprint-coordinator --lib scheduler::
	PROPTEST_CASES=256 cargo test -p blueprint-coordinator --test parallel_properties
	cargo test -p blueprint-coordinator --test threads
	cargo test -p integration-tests --test deliveries

# Relational-engine gate: the SQL property battery at 1,024 cases (index
# probes against full scans, row order included) and the allocation pins
# (a query's heap allocations do not grow with the table).
datastore:
	PROPTEST_CASES=1024 cargo test -p blueprint-datastore --test sql_properties
	cargo test -p blueprint-datastore --test alloc_counts

# Telemetry gate: the end-to-end observability tests (byte-stable traces,
# hand-counted metrics, StoreStats equal to the blueprint.streams.*
# readings, nothing recorded by an untraced runtime), the delivery pins, the
# allocation pin of a disarmed publish, and the observability crate's unit
# tests.
observability:
	cargo test -p integration-tests --test observability
	cargo test -p integration-tests --test deliveries
	cargo test -p blueprint-streams --test alloc_counts
	cargo test -p blueprint-observability

# Throughput sweep: the deterministic load generator replays the mixed
# workload across 1/8/64 sessions and writes BENCH_serving.json at the repo
# root (override the destination with BENCH_OUT=path).
serving-bench:
	cargo run --release -p blueprint-bench --bin loadgen -- --sessions 1,8,64

# Unified-IR gate: the IR unit tests, the spliced-path property battery
# (data-level reference against the data planner, sequential ≡ parallel,
# and the pinned adaptive re-optimization runs through
# BlueprintSession::handle), and the joint optimizer search.
ir:
	cargo test -p blueprint-planner --lib ir::
	cargo test -p blueprint-planner --test ir_properties
	cargo test -p blueprint-optimizer --lib unified::

# Rustdoc gate: the API docs must build without warnings.
docs:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Figure-artifact gate: regenerate the byte-stable figure artifacts into a
# temporary directory and diff them against the goldens in tests/figures/
# (fig8 and fig10 are excluded; see tests/figures/check.sh).
figures-check:
	tests/figures/check.sh

# Benchmark smoke run: the benchmark's own unit tests, then a short traced
# run of each workload. Every answer is checked against a fresh-session
# reference; a mismatch makes the run exit non-zero.
PERFBENCH = cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --

perfbench-smoke:
	cargo test --release --offline --manifest-path perfbench/Cargo.toml
	$(PERFBENCH) --workload assistant --seed 1 --seconds 3 --trace 1
	$(PERFBENCH) --workload serving --seed 1 --seconds 3 --trace 1
