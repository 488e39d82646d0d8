# Convenience targets for the robust-qp workspace.

.PHONY: verify build test clippy lint lint-graph bench bench-compile bench-trace bench-lazy bench-smoke cache-smoke serve-smoke serve-remote-smoke trace-smoke reproduce chaos drill

# The full pre-merge gate: release build, quiet workspace tests (the same
# set CI runs), zero clippy warnings, a clean rqp-lint pass (warnings
# denied), an acyclic lock graph, the fixed-seed chaos smoke sweep, the
# causal-trace smoke, and the scripted resilience drills.
verify:
	cargo build --release && cargo test -q --workspace && cargo clippy --workspace -- -D warnings && $(MAKE) lint && $(MAKE) lint-graph && $(MAKE) chaos && $(MAKE) trace-smoke && $(MAKE) drill

# Resilience drills (see README, "Resilience"): crash-recovery must
# restore every fingerprint from the disk tier with zero recompiles, and
# the seeded chaos storm must hold the deadline and breaker-consistency
# bounds over >= 100 sessions. Both exit non-zero on any violation.
drill:
	rm -rf target/drill-cache
	cargo run --release --bin rqp -- serve --drill crash-recover --cache-dir target/drill-cache
	cargo run --release --bin rqp -- serve --drill storm --chaos-seed 3 --sessions 120
	@echo "drill: ok"

# Fixed-seed fault-injection smoke sweep: every discovery algorithm must
# terminate with honest accounting under each fault class (see README,
# "Fault injection & chaos testing").
chaos:
	cargo run --release --bin rqp -- chaos --query 2D_Q91 --resolution 6 --seed 1 --schedules 2

# Workspace invariant linter (see README, "Static analysis"). Warnings
# (raii-span) are promoted to denials at the pre-merge gate.
lint:
	cargo run -q -p rqp-lint -- --deny-warnings

# Lock acquisition graph of the serving tier as GraphViz DOT. Fails
# (exit 1) if any acquisition-order cycle exists.
lint-graph:
	@mkdir -p target
	cargo run -q -p rqp-lint -- --lock-graph crates/serve --dot target/lock-graph.dot

build:
	cargo build --workspace --release

test:
	cargo test --workspace

clippy:
	cargo clippy --workspace -- -D warnings

# Full criterion sweep. The compile_cache bench records the POSP compile
# acceleration trajectory (exact vs recost vs warm cache on the 3D coarse
# fixture) in BENCH_4.json at the repo root.
bench:
	cargo bench --workspace
	@test -f BENCH_4.json && echo "compile perf trajectory: BENCH_4.json" || true

# Just the compile-acceleration benchmark (fast; CI smoke).
bench-compile:
	cargo bench -p rqp-bench --bench compile_cache

# Tracing-overhead benchmark; records the ≤5% acceptance measure in
# BENCH_6.json at the repo root.
bench-trace:
	cargo bench -p rqp-bench --bench trace_overhead

# Lazy anytime compile benchmark; records the cold compile-to-first-
# execution speedup (4D fixture, eager full compile vs anchor begin +
# first contour band) in BENCH_7.json at the repo root.
bench-lazy:
	cargo bench -p rqp-bench --bench compile_lazy

# Benchmark correctness gate: the perfbench harness's own tests, the
# spread-statistics tests, and one short suite-eval run whose last line
# must report the golden MSO/ASO check on every evaluation as correct.
# Runs the files under perfbench/ without editing any of them.
bench-smoke:
	cargo test -q --offline --manifest-path perfbench/Cargo.toml
	python3 perfbench/test_spread.py
	@mkdir -p target
	python3 perfbench/run.py --workload suite-eval --seed 1 --seconds 2 --trace 0 > target/bench-smoke.txt
	tail -n 1 target/bench-smoke.txt
	tail -n 1 target/bench-smoke.txt | grep -q '"correct": true'
	@echo "bench-smoke: ok"

# Persistent-cache smoke: the second identical compile must be a disk hit,
# and a garbage entry must be quarantined to *.corrupt and recompiled.
cache-smoke:
	rm -rf target/cache-smoke
	cargo run --release --bin rqp -- compile --query 2D_Q91 --resolution 6 --cache-dir target/cache-smoke
	cargo run --release --bin rqp -- compile --query 2D_Q91 --resolution 6 --cache-dir target/cache-smoke \
		| grep -q "compile cache: 1 hit(s)"
	for f in target/cache-smoke/posp-*.rqpc; do echo garbage > "$$f"; done
	cargo run --release --bin rqp -- compile --query 2D_Q91 --resolution 6 --cache-dir target/cache-smoke \
		| grep -q "compile cache: 0 hit(s), 1 miss(es), 1 store(s), 1 corrupt"
	ls target/cache-smoke/posp-*.rqpc.corrupt > /dev/null
	@echo "cache-smoke: ok"

# Concurrent-serving smoke: 16 sessions over 2 fingerprints through the
# shared registry under a quiet chaos schedule. --strict fails on any
# rejected/failed session, a non-finite suboptimality, or a compile count
# different from the distinct fingerprint count.
serve-smoke:
	cargo run --release --bin rqp -- serve --workload examples/serve_smoke.workload \
		--workers 8 --queue 16 --chaos-seed 1 --strict true
	@echo "serve-smoke: ok"

# Remote-serving smoke: the same workload served (a) in-process and
# (b) by a persistent-session TCP client against a 2-shard deployment
# must produce byte-identical stable reports. Shards bind port 0 and
# publish their address via --addr-file; the client shuts the
# deployment down over the wire when done.
serve-remote-smoke:
	cargo build --release --bin rqp
	rm -rf target/remote-smoke && mkdir -p target/remote-smoke
	target/release/rqp serve --workload examples/remote_smoke.workload \
		--resolution 6 --stable-out target/remote-smoke/local.txt
	target/release/rqp serve --listen 127.0.0.1:0 --shard 0/2 --resolution 6 \
		--addr-file target/remote-smoke/shard0.addr & \
	target/release/rqp serve --listen 127.0.0.1:0 --shard 1/2 --resolution 6 \
		--addr-file target/remote-smoke/shard1.addr & \
	for i in $$(seq 1 100); do \
		[ -f target/remote-smoke/shard0.addr ] && [ -f target/remote-smoke/shard1.addr ] && break; \
		sleep 0.2; \
	done; \
	ADDRS="$$(cat target/remote-smoke/shard0.addr),$$(cat target/remote-smoke/shard1.addr)"; \
	target/release/rqp connect --addr "$$ADDRS" \
		--workload examples/remote_smoke.workload \
		--resolution 6 --stable-out target/remote-smoke/remote.txt && \
	target/release/rqp connect --addr "$$ADDRS" --shutdown true && \
	wait
	cmp target/remote-smoke/local.txt target/remote-smoke/remote.txt
	@echo "serve-remote-smoke: ok (stable reports byte-identical)"

# Causal-tracing smoke: a traced serve run must export a Chrome trace
# that reparses through the obs JSON codec and carries at least one
# single-flight compile span and one wait-on-peer span (`rqp trace-check`
# validates both). The folded-stack export must name the compile path.
trace-smoke:
	cargo run --release --bin rqp -- serve --workload examples/serve_smoke.workload \
		--workers 8 --queue 16 --strict true \
		--trace-out target/trace-smoke.json --flame-out target/trace-smoke.folded
	cargo run --release --bin rqp -- trace-check --file target/trace-smoke.json
	grep -q "session;ess_compile" target/trace-smoke.folded
	@echo "trace-smoke: ok"

reproduce:
	cargo run --release -p rqp-bench --bin reproduce
