#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Run from the repo root; exits non-zero on the first failure.
set -euo pipefail

echo "==> repo hygiene: no build artifacts tracked in git"
if git ls-files | grep -q '^target/'; then
    echo "error: target/ build artifacts are tracked in git (git rm -r --cached target)" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> fault-injection matrix (seeded loss / device-error / replay tests)"
cargo test -q --release --test faults --test retransmission --test observability

echo "==> cluster smoke (multi-server scale-out / failover; a request no server can take parks until one stops shedding)"
cargo test -q --release --test cluster

echo "==> testbed known-answer gate (single-server and cluster runs through the one event loop, the one server shell both stacks plug into and the one client fleet both topologies share, pinned to exact counts and goodput bits, including an adaptive cluster run's ABR resume wakes and decision count; front-end answers on both stacks)"
cargo test -q --release --test testbed --test front_end

echo "==> knob census (the settable fields of every public server and workload config, pinned by name)"
cargo test -q --release --test knobs

echo "==> metrics registry gate (keyed per-core series vs an in-test copy of the string-scan reference registry: handles, export names and order, by-name reads)"
cargo test -q --release -p dcn-obs registry

echo "==> client oracle gate (streaming verifier; head parser; verified content on both stacks, plain and TLS; server ciphers and client oracles only where bytes are sealed and verified; per-connection size budgets; host pages only for held memory on full-fidelity Atlas plain and TLS and kstack TLS)"
cargo test -q --release -p dcn-workload verify
cargo test -q --release -p dcn-workload only_when
cargo test -q --release -p dcn-atlas -p dcn-kstack -p dcn-workload size_budget
cargo test -q --release -p dcn-httpd
cargo test -q --release --test end_to_end_atlas --test end_to_end_kstack
cargo test -q --release --test host_memory -- --exact atlas_plain_host_pages_are_held_pages \
    atlas_tls_host_pages_are_held_pages kstack_tls_host_pages_are_held_pages

echo "==> overload smoke (2x admission flood: zero leaks, zero verify failures, shedding engaged; Atlas minimum-drain deadline fires at a Normal ladder; kstack SQ-watermark 503s retried and verified; empty waits counted once per wait episode)"
cargo test -q --release --test overload -- --exact two_x_overload_smoke \
    min_drain_deadline_aborts_buffer_holders_without_ack_progress \
    kstack_sq_watermark_defers_with_503_and_retries_verify \
    empty_waits_count_wait_episodes_not_re_parks

echo "==> headline gate: Atlas TLS 2k steady state ≥ Netflix-0%BC in goodput and read:net < 0.5×"
cargo test -q --release --test paper_shapes headline_atlas_tls_2k_steady_state_beats_netflix

echo "==> perf gate (perf_baseline vs committed BENCH_perf_baseline.json, plus determinism)"
perf_tmp="$(mktemp -d)"
trap 'rm -rf "$perf_tmp"' EXIT
./target/release/perf_baseline --out "$perf_tmp/run1.json" --check BENCH_perf_baseline.json
./target/release/perf_baseline --out "$perf_tmp/run2.json" >/dev/null
cmp "$perf_tmp/run1.json" "$perf_tmp/run2.json" \
    || { echo "error: perf_baseline is nondeterministic (back-to-back runs differ)" >&2; exit 1; }

echo "==> buffer-cache and socket-buffer gate (zeroed tables start zero after a filled one drops; 10-byte frames with 24-bit links and 3-byte page-index slots: arena vs reference model, page index vs HashMap, 24-bit round trips and limits; compact send queue vs spined reference)"
cargo test -q --release -p dcn-simcore zeroed
cargo test -q --release -p dcn-store bufcache
cargo test -q --release -p dcn-kstack

echo "==> diskmap gate (IOMMU page runs vs page-set reference, syscall-level faults, SQ admission, one-allocation pool vs eager pool, queue-entry rings vs slot-array ring, GHASH vs bytewise reference)"
cargo test -q --release -p dcn-diskmap
cargo test -q --release -p dcn-nvme
cargo test -q --release -p dcn-crypto

echo "==> tier ledger gate (ablation_tiers vs committed BENCH_tiers.json; rank permutation known answers and rank_of round trip)"
cargo test -q --release -p dcn-simcore rank_perm
./target/release/ablation_tiers --out "$perf_tmp/tiers_full.json" >/dev/null
cmp "$perf_tmp/tiers_full.json" BENCH_tiers.json \
    || { echo "error: ablation_tiers differs from committed BENCH_tiers.json" >&2; exit 1; }

echo "==> I/O-window gate (zero-alloc steady state + autotune determinism/pass-through)"
cargo test -q --release --test iowindow

echo "==> ABR gate (controller properties, QoE e2e, rung-claim verification, replay)"
cargo test -q --release --test abr

echo "==> ABR ablation smoke (on-off workload matrix + burst microscope)"
./target/release/ablation_abr --quick

echo "==> tier gate (1M-object Zipf e2e on both stacks + cluster, cold-path byte-exactness, zero-leak audit; sparse heat: decay drops cold entries, live heat follows the recent requests)"
cargo test -q --release -p dcn-tier
cargo test -q --release -p dcn-tier -- --exact map::tests::decay_drops_every_entry_it_halves_to_zero \
    map::tests::metadata_is_compact_at_a_million_objects \
    engine::tests::live_heat_follows_the_recent_requests_not_the_catalog
cargo test -q --release --test tiers

echo "==> tier ablation smoke (back-to-back runs must be byte-identical)"
./target/release/ablation_tiers --quick --out "$perf_tmp/tiers1.json" >/dev/null
./target/release/ablation_tiers --quick --out "$perf_tmp/tiers2.json" >/dev/null
cmp "$perf_tmp/tiers1.json" "$perf_tmp/tiers2.json" \
    || { echo "error: ablation_tiers is nondeterministic (back-to-back runs differ)" >&2; exit 1; }

echo "==> cargo test"
cargo test -q --workspace

echo "==> benchmark API (perfbench compiles against the public entry points and passes its tests)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "CI OK"
