// One field list per struct that a campaign checkpoint keys on or stores.
//
// Each list is a fields(obj, f) overload that opens with a structured
// binding of every member and hands the members to the visitor `f` in
// declaration order. The binding is the completeness check: a member added
// to or removed from the struct without a matching line here fails to
// compile. Three visitors walk these lists and nothing else
// (sim/checkpoint.cpp): the campaign key, the entry encoder and the
// decoder, so neither the key nor the on-disk format can fall behind the
// structs.
//
// A member that cannot change a run's result goes through ignored(...)
// instead of being left out; the key skips it. Visitors handle the leaves
// themselves (integers, enums, doubles, strings, SimTime, MacAddress,
// optionals, vectors, arrays and the SsidDatabase by its records) and walk
// every other member through its own list.
#pragma once

#include <concepts>
#include <type_traits>

#include "sim/scenario.h"

namespace cityhunter::sim {

/// S is T, const or not: one list serves the writers and the reader.
template <class S, class T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

/// A member the campaign key skips because it cannot change a result.
template <class T>
struct Ignored {
  T& member;
};

template <class T>
Ignored<T> ignored(T& member) {
  return {member};
}

// --- The world: ScenarioConfig and everything it holds ---

template <Is<medium::Position> S, class F>
void fields(S& p, F&& f) {
  auto& [x, y] = p;
  f(x, y);
}

template <Is<world::District> S, class F>
void fields(S& d, F&& f) {
  auto& [name, center, sigma_m, people_weight, kind] = d;
  f(name, center, sigma_m, people_weight, kind);
}

template <Is<world::CityModel::Config> S, class F>
void fields(S& c, F&& f) {
  auto& [width_m, height_m, districts] = c;
  f(width_m, height_m, districts);
}

template <Is<world::ChainSpec> S, class F>
void fields(S& c, F&& f) {
  auto& [ssid, ap_count, open, heat_bias] = c;
  f(ssid, ap_count, open, heat_bias);
}

template <Is<world::HotAreaSpec> S, class F>
void fields(S& h, F&& f) {
  auto& [ssid, ap_count, kind] = h;
  f(ssid, ap_count, kind);
}

template <Is<world::CarrierSpec> S, class F>
void fields(S& c, F&& f) {
  auto& [carrier, ssid, ap_count] = c;
  f(carrier, ssid, ap_count);
}

template <Is<world::ApPopulationConfig> S, class F>
void fields(S& a, F&& f) {
  auto& [residential_ap_count, residential_open_fraction, enterprise_ap_count,
         small_venue_count, chains, hot_areas, carriers] = a;
  f(residential_ap_count, residential_open_fraction, enterprise_ap_count,
    small_venue_count, chains, hot_areas, carriers);
}

template <Is<world::PnlModelConfig> S, class F>
void fields(S& p, F&& f) {
  auto& [ios_fraction, direct_probe_fraction, public_wifi_user_fraction,
         direct_prober_user_multiplier, mean_extra_public_ssids,
         zipf_exponent, work_network_fraction, mean_stale_entries,
         stale_open_fraction, carrier_subscription_fraction,
         group_common_ssids, group_adopt_prob, group_adopt_prob_nonuser,
         group_tail_min_rank, group_tail_max_rank, group_share_home_prob] = p;
  f(ios_fraction, direct_probe_fraction, public_wifi_user_fraction,
    direct_prober_user_multiplier, mean_extra_public_ssids, zipf_exponent,
    work_network_fraction, mean_stale_entries, stale_open_fraction,
    carrier_subscription_fraction, group_common_ssids, group_adopt_prob,
    group_adopt_prob_nonuser, group_tail_min_rank, group_tail_max_rank,
    group_share_home_prob);
}

template <Is<world::PhotoSetConfig> S, class F>
void fields(S& p, F&& f) {
  auto& [photo_count, tourist_fraction] = p;
  f(photo_count, tourist_fraction);
}

template <Is<world::WigleCoverage> S, class F>
void fields(S& w, F&& f) {
  auto& [residential, enterprise, chain, hot_area, venue_local] = w;
  f(residential, enterprise, chain, hot_area, venue_local);
}

template <Is<medium::LogDistancePathLoss::Config> S, class F>
void fields(S& p, F&& f) {
  auto& [reference_loss_db, exponent, rx_sensitivity_dbm] = p;
  f(reference_loss_db, exponent, rx_sensitivity_dbm);
}

/// `seed` is ignored: VenueRun re-keys it for every run from the run's own
/// RNG, and a disabled fault model draws nothing.
template <Is<medium::FaultModel::Config> S, class F>
void fields(S& c, F&& f) {
  auto& [enabled, noise_floor_dbm, per_snr_mid_db, per_width_db, ambient_loss,
         corruption_rate, max_bit_flips, retry_limit, cw_min, cw_max,
         slot_time_us, seed] = c;
  f(enabled, noise_floor_dbm, per_snr_mid_db, per_width_db, ambient_loss,
    corruption_rate, max_bit_flips, retry_limit, cw_min, cw_max, slot_time_us,
    ignored(seed));
}

/// `spatial_grid` is ignored: the grid pipeline delivers byte for byte what
/// the legacy scan does. The path-loss LUT is not: its RSSI differs in the
/// low bits.
template <Is<medium::Medium::Config> S, class F>
void fields(S& m, F&& f) {
  auto& [propagation, contention_factor, mgmt_rate_mbps, spatial_grid,
         pathloss_lut, fault] = m;
  f(propagation, contention_factor, mgmt_rate_mbps, ignored(spatial_grid),
    pathloss_lut, fault);
}

template <Is<client::SmartphoneConfig> S, class F>
void fields(S& p, F&& f) {
  auto& [mean_scan_interval, scan_jitter, first_scan_delay_max,
         probe_response_budget, join_timeout, randomize_mac_per_scan,
         tx_power_dbm, channel] = p;
  f(mean_scan_interval, scan_jitter, first_scan_delay_max,
    probe_response_budget, join_timeout, randomize_mac_per_scan, tx_power_dbm,
    channel);
}

template <Is<ScenarioConfig> S, class F>
void fields(S& s, F&& f) {
  auto& [seed, city, aps, pnl, photos, wigle_coverage, medium, phone] = s;
  f(seed, city, aps, pnl, photos, wigle_coverage, medium, phone);
}

// --- One run: RunConfig and everything it holds ---

template <Is<mobility::VenueConfig> S, class F>
void fields(S& v, F&& f) {
  auto& [name, pattern, extent_m, width_m, mean_dwell_min, dwell_sigma,
         mean_speed_mps, speed_sd_mps, hybrid_static_fraction,
         mean_scan_interval_s, group_fraction, group_size_weights, venue_ssids,
         venue_regular_prob, hourly_clients, hourly_group_fraction] = v;
  f(name, pattern, extent_m, width_m, mean_dwell_min, dwell_sigma,
    mean_speed_mps, speed_sd_mps, hybrid_static_fraction, mean_scan_interval_s,
    group_fraction, group_size_weights, venue_ssids, venue_regular_prob,
    hourly_clients, hourly_group_fraction);
}

template <Is<mobility::SlotParams> S, class F>
void fields(S& s, F&& f) {
  auto& [expected_clients, group_fraction, pre_associated_fraction, legit_ap,
         mac_randomizing_fraction] = s;
  f(expected_clients, group_fraction, pre_associated_fraction, legit_ap,
    mac_randomizing_fraction);
}

template <Is<core::WigleSeedConfig> S, class F>
void fields(S& w, F&& f) {
  auto& [nearby_count, popular_count, ranking] = w;
  f(nearby_count, popular_count, ranking);
}

template <Is<core::BufferSelectorConfig> S, class F>
void fields(S& b, F&& f) {
  auto& [budget, initial_pb_size, ghost_size, ghost_picks, min_buffer_size,
         use_freshness, use_ghosts, adaptive] = b;
  f(budget, initial_pb_size, ghost_size, ghost_picks, min_buffer_size,
    use_freshness, use_ghosts, adaptive);
}

/// `base` is ignored here and in the MANA config: VenueRun overwrites it.
template <Is<core::CityHunter::Config> S, class F>
void fields(S& c, F&& f) {
  auto& [base, buffers, direct_initial_weight, direct_seen_bonus,
         hit_weight_bonus, untried_tracking] = c;
  f(ignored(base), buffers, direct_initial_weight, direct_seen_bonus,
    hit_weight_bonus, untried_tracking);
}

template <Is<core::ManaAttacker::Config> S, class F>
void fields(S& m, F&& f) {
  auto& [base, learned_weight, max_dump] = m;
  f(ignored(base), learned_weight, max_dump);
}

template <Is<DeauthScenario> S, class F>
void fields(S& d, F&& f) {
  auto& [pre_associated_fraction, interval, enable_deauth] = d;
  f(pre_associated_fraction, interval, enable_deauth);
}

template <Is<obs::Config> S, class F>
void fields(S& o, F&& f) {
  auto& [enabled, trace_capacity] = o;
  f(enabled, trace_capacity);
}

/// `cancel` is ignored: it says who may stop the run, not what it computes.
/// The deadline and the event budget are kept, since a campaign that trips
/// them fails where another would not.
template <Is<RunConfig> S, class F>
void fields(S& r, F&& f) {
  auto& [kind, venue, slot, duration, run_seed, wigle_seed, cityhunter, mana,
         seed_carrier_ssids, deauth, sample_every, medium, initial_database,
         obs, deadline_s, max_sim_events, cancel] = r;
  f(kind, venue, slot, duration, run_seed, wigle_seed, cityhunter, mana,
    seed_carrier_ssids, deauth, sample_every, medium, initial_database, obs,
    deadline_s, max_sim_events, ignored(cancel));
}

// --- One run's output: RunOutput and everything it holds ---

template <Is<core::SsidRecord> S, class F>
void fields(S& r, F&& f) {
  auto& [ssid, weight, source, hits, last_hit, added, insertion_order] = r;
  f(ssid, weight, source, hits, last_hit, added, insertion_order);
}

template <Is<stats::CampaignResult> S, class F>
void fields(S& r, F&& f) {
  auto& [label, total_clients, direct_clients, broadcast_clients,
         direct_connected, broadcast_connected, hits_from_wigle,
         hits_from_direct_db, hits_from_carrier_seed, hits_via_popularity,
         hits_via_popularity_ghost, hits_via_freshness,
         hits_via_freshness_ghost, ssids_sent_connected,
         ssids_sent_all_broadcast] = r;
  f(label, total_clients, direct_clients, broadcast_clients, direct_connected,
    broadcast_connected, hits_from_wigle, hits_from_direct_db,
    hits_from_carrier_seed, hits_via_popularity, hits_via_popularity_ghost,
    hits_via_freshness, hits_via_freshness_ghost, ssids_sent_connected,
    ssids_sent_all_broadcast);
}

template <Is<SeriesPoint> S, class F>
void fields(S& p, F&& f) {
  auto& [time, db_size, broadcast_connected] = p;
  f(time, db_size, broadcast_connected);
}

template <Is<stats::WindowRate> S, class F>
void fields(S& w, F&& f) {
  auto& [start, broadcast_clients, broadcast_connected] = w;
  f(start, broadcast_clients, broadcast_connected);
}

template <Is<stats::MediumStats> S, class F>
void fields(S& m, F&& f) {
  auto& [transmissions, deliveries, frames_lost, frames_corrupted, retries] =
      m;
  f(transmissions, deliveries, frames_lost, frames_corrupted, retries);
}

template <Is<medium::EventQueue::Stats> S, class F>
void fields(S& q, F&& f) {
  auto& [scheduled, processed, peak_pending, slab_slots, slab_reuses] = q;
  f(scheduled, processed, peak_pending, slab_slots, slab_reuses);
}

template <Is<PhaseProfile> S, class F>
void fields(S& p, F&& f) {
  auto& [setup_s, sim_s, analysis_s] = p;
  f(setup_s, sim_s, analysis_s);
}

template <Is<obs::MetricPoint> S, class F>
void fields(S& p, F&& f) {
  auto& [name, kind, count, value, min, max] = p;
  f(name, kind, count, value, min, max);
}

template <Is<obs::MetricsSnapshot> S, class F>
void fields(S& m, F&& f) {
  auto& [points] = m;
  f(points);
}

template <Is<obs::TraceRecord> S, class F>
void fields(S& t, F&& f) {
  auto& [time_us, seq, a, b, category, event] = t;
  f(time_us, seq, a, b, category, event);
}

template <Is<RunError> S, class F>
void fields(S& e, F&& f) {
  auto& [kind, message] = e;
  f(kind, message);
}

template <Is<RunOutput> S, class F>
void fields(S& o, F&& f) {
  auto& [result, series, window_rates, final_pb_size, final_fb_size,
         db_final_size, db_from_direct, deauths_sent, frames_transmitted,
         frames_delivered, medium_stats, database, queue_stats, phases,
         metrics, trace, trace_dropped, error] = o;
  f(result, series, window_rates, final_pb_size, final_fb_size, db_final_size,
    db_from_direct, deauths_sent, frames_transmitted, frames_delivered,
    medium_stats, database, queue_stats, phases, metrics, trace,
    trace_dropped, error);
}

}  // namespace cityhunter::sim
