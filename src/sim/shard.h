// The continuous sharded city: a multi-district world where each spatial
// shard owns its slice of the Medium (a private slab-arena index, event
// queue and delivery-observation buffer) and mobile clients migrate across
// shard boundaries via deterministic handoff events.
//
// Determinism contract (the whole point — see DESIGN.md §5h for the proof
// sketch): the same ShardedCityConfig produces a byte-identical delivery
// multiset at ANY shard count (1/2/4/8…) and ANY worker count. The pieces:
//
//   * RF isolation — districts are separated by guard gaps wider than twice
//     the maximum radio range (world/district_grid.h), and clients are
//     radio-silent while inside a gap, so no transmission ever crosses an
//     ownership boundary; every delivery is an intra-shard event.
//   * Conservative barrier — shards advance epoch by epoch under
//     sim/shard_barrier.h; the lookahead is sized so a client that crosses
//     a gap midline cannot come within range of the destination shard's
//     districts before the barrier at which it is handed off.
//   * Keyed handoffs — a crossing is detected at the client's own position
//     tick, the handoff applies at the next epoch boundary, and all
//     handoffs of a barrier are applied in ascending global-id order, so
//     the destination Medium's monotone local-id assignment is a pure
//     function of (seed, global id, crossing epoch).
//   * Self-determined randomness — every entity's placement, channel,
//     staggers, waypoints and probe jitter are keyed draws
//     (support/hash.h), pure functions of (seed, global id, purpose, draw
//     index); no draw order is shared between entities and no generator
//     state exists, so partitioning them differently cannot perturb any
//     draw, and a handoff moves two keys and two draw counts.
//   * Canonical observations — per-shard obs::DeliveryLog buffers merge by
//     shard input order (the PR 4 trace-exporter rule) and compare as a
//     sorted multiset / order-independent digest, because the same
//     deliveries interleave differently between shards.
//
// The single-Medium baseline is simply shards = 1: identical geometry,
// identical behaviour streams, one Medium holding the whole city.
#pragma once

#include <cstdint>
#include <vector>

#include "medium/medium.h"
#include "obs/delivery_log.h"
#include "sim/scenario.h"
#include "support/sim_time.h"
#include "world/district_grid.h"

namespace cityhunter::sim {

struct ShardedCityConfig {
  int radios = 20000;
  double ap_fraction = 0.3;
  world::DistrictGrid::Config grid{};  // 8×2 districts of 500 m, 136 m gaps
  /// Spatial shards: contiguous district-column groups. Must divide
  /// grid.cols so 1/2/4/8 shards partition the same geometry evenly.
  int shards = 1;
  /// Worker threads advancing shards within an epoch, forked and joined
  /// once per epoch. 0 = min(shards, hardware threads). Results are
  /// identical at any value.
  std::size_t workers = 0;
  support::SimTime duration = support::SimTime::seconds(5.0);
  /// Conservative-barrier epoch. 0 = the largest RF-safe lookahead for this
  /// geometry (ConservativeBarrier::max_safe_lookahead). Explicit values
  /// are validated against the same bound — a too-long epoch would let a
  /// walker slip into a foreign shard's radio range before its handoff.
  support::SimTime epoch = support::SimTime::microseconds(0);
  std::uint64_t seed = 2026;
  double phone_speed_mps = 1.4;
  double walk_tick_s = 1.0;
  double ap_tx_dbm = 20.0;
  double phone_tx_dbm = 15.0;
  /// Per-shard Medium configuration (index/pipeline toggles). The
  /// propagation model also sizes the RF-safety validation. The fault
  /// model must stay disabled: its draws are keyed by Medium-local radio
  /// ids, which depend on the shard count.
  medium::Medium::Config medium{};
  /// Retain every delivery record for test-side sorting/merging. Benches
  /// leave this off and compare streaming digests — a city-scale run logs
  /// millions of deliveries.
  bool keep_deliveries = false;
  /// Per-shard sim-event budget (EventQueue::RunGuard), 0 = unlimited. A
  /// runaway entity loop trips the guard instead of hanging the campaign —
  /// the same supervisor plumbing RunConfig::max_sim_events provides for
  /// venue runs.
  std::uint64_t max_sim_events_per_shard = 0;
};

struct ShardStats {
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t handoffs_in = 0;
  std::uint64_t handoffs_out = 0;
  std::uint64_t gap_silences = 0;
  std::uint64_t events_processed = 0;
  double busy_s = 0.0;  // wall time this shard's event loop ran
  /// Wall time this shard spent at the barrier: the sum over epochs of the
  /// epoch's wall (first shard started → last shard done) less this shard's
  /// busy time in it. busy_s + wait_s is the same for every shard of a run
  /// (the summed epoch walls) and never exceeds ShardedCityResult::wall_s,
  /// which also covers the handoff exchanges.
  double wait_s = 0.0;
};

struct ShardedCityResult {
  // Shard-count/worker-count invariant observables (the identity set):
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t gap_silences = 0;
  /// Order-independent multiset digest of every delivery record
  /// (obs::DeliveryLog). Equal digests at different shard/worker counts are
  /// the byte-identity check benches assert.
  std::uint64_t delivery_digest = 0;

  // Run-shape observables (vary with shard count by design):
  std::uint64_t handoffs = 0;
  std::size_t epochs = 0;
  int shards = 0;
  std::size_t workers = 0;
  std::uint64_t events_processed = 0;
  std::vector<ShardStats> per_shard;

  double wall_s = 0.0;  // event loop + barriers only (setup excluded)
  double deliveries_per_s = 0.0;
  PhaseProfile phases;  // setup vs sim split, as run_campaign reports

  /// Merged per-shard records (shard input order) when keep_deliveries.
  std::vector<obs::DeliveryRecord> delivery_records;
};

/// Maximum radio range under the config's propagation model and TX powers
/// (what the gap width must clear twice).
double sharded_city_max_range_m(const ShardedCityConfig& cfg);

/// The epoch run_sharded_city will use: cfg.epoch, or the auto lookahead.
support::SimTime sharded_city_epoch(const ShardedCityConfig& cfg);

/// Build and run the sharded city. Throws std::invalid_argument when the
/// config violates the determinism prerequisites (shards not dividing the
/// columns, a gap too narrow for the ranges/speeds, a too-long epoch, the
/// fault model enabled).
ShardedCityResult run_sharded_city(const ShardedCityConfig& cfg);

}  // namespace cityhunter::sim
