# Project task runner. `just verify` is the full pre-merge gate.

# Build, test, lint, check doc links, and check formatting — everything
# CI would run.
# Tests run with overflow-checks on (see [profile.test] in Cargo.toml);
# the streaming parity + backpressure suites are named explicitly so a
# test-filter typo can't silently skip the bit-identicality gate. The
# perfbench tests build the benchmark against the public API it calls,
# so an API change that would break the benchmark fails here first.
verify:
    cargo build --release
    cargo test --workspace -q
    cargo test -q --manifest-path perfbench/Cargo.toml
    cargo test -q --test stream_parity --test stream_backpressure
    cargo test -q --test tracing_causality
    cargo test -q -p lion-linalg --test proptests normal_eq
    cargo test -q -p lion-core --test zero_alloc --test adaptive_regression
    cargo test -q -p lion-core --test scalar_dispatch
    cargo test -q -p lion-linalg --test simd_parity
    cargo test -q --test solver_parity
    cargo test -q -p lion-obs --test http_plane
    cargo test -q --test fleet_health
    cargo test -q --test alerts_history
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    cargo fmt --check

# Regenerate every paper figure.
figures:
    cargo run --release -p lion-bench --bin run_experiments -- all

# Tracked same-machine regression benchmark: one `bench_tracked` run
# diffed against the committed `BENCH.json` — every median within 3× of
# its committed value, the absolute 700 µs single-solve / 14 672 ns
# incremental-resolve / 5 ms render and sampler-tick budgets, the 2 cm
# solver-backend parity radius (fresh and committed), and the
# incremental-vs-replay speedup at ≥ 0.6× its committed value.
# Refuses — exit 0, not failure — when the baseline's env block
# (machine, rustc, CPU features, SIMD backend) doesn't match this
# machine; regenerate with `just bench-write` first.
bench:
    cargo run --release -p lion-bench --bin bench_tracked -- --check BENCH.json

# Regenerate the committed benchmark baseline. Run on a quiet machine
# and eyeball the diff before committing.
bench-write:
    cargo run --release -p lion-bench --bin bench_tracked -- --write BENCH.json

# The tracked benchmark compiled for this exact CPU (`-C target-cpu=native`
# lets LLVM use every feature the host has, beyond the portable AVX2/NEON
# dispatch). Numbers are NOT comparable to the committed baseline —
# print-only, no --check, never `--write` from here.
bench-native:
    RUSTFLAGS="-C target-cpu=native" cargo run --release -p lion-bench --bin bench_tracked

# Run the conveyor batch and export its telemetry (JSON-lines registry
# snapshot + Prometheus text exposition) to target/telemetry/.
telemetry:
    cargo run --release --example conveyor_batch -- target/telemetry

# Record a causally-traced conveyor_stream run: Chrome trace-event JSON
# (load target/trace/*.trace.json at https://ui.perfetto.dev), the
# calibration HealthReport, and the registry snapshot.
trace:
    cargo run --release --example conveyor_stream -- --trace target/trace

# Live telemetry plane for manual poking: run the twelve-portal fleet
# under the HTTP scrape server and hold until Enter. Scrape
# /metrics /health /snapshot /trace /profile /query /alerts on the
# printed port.
serve:
    cargo run --release --example conveyor_stream -- --serve 127.0.0.1:9184 --hold

# Metrics-history & alerting demo: same fleet as `just serve` with the
# embedded TSDB sampling in the background; range-query stored series
# with `curl 'http://127.0.0.1:9184/query?series=<name>&tier=raw'` and
# watch alert states at /alerts while it holds.
alerts:
    cargo run --release --example conveyor_stream -- --serve 127.0.0.1:9184 --hold
