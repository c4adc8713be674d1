// Ablation: attacker performance over a lossy channel.
//
// The paper's numbers come from real 2.4 GHz air in crowded venues, where
// probe responses die to collisions and absorption. This sweep turns on the
// medium's deterministic fault injection and raises the ambient packet-error
// rate 0 → 50% (plus the always-on SNR-derived edge-of-range loss and
// interference bursts), measuring how each attacker generation degrades.
// The 802.11 retry/backoff machinery repairs most unicast loss, but every
// retransmission burns airtime: at 50% ambient PER the attacker gets
// through barely half the transmissions it managed on a clean channel, so
// the 40-response scan budget effectively shrinks. KARMA answers only
// direct probes (h_b = 0 structurally); MANA spends its shrunken budget
// re-offering the same first-40 SSIDs; City-Hunter's untried tracking makes
// every response that does get through count toward a new SSID — it should
// keep the most of its capture rate. The program exits 1 unless, at every
// loss level, City-Hunter's h_b is above MANA's and KARMA's and MANA's is
// at least KARMA's, so its ctest row fails on a broken ordering.
#include "bench_common.h"

using namespace cityhunter;

int main() {
  bench::print_header("Ablation — capture rate under a lossy channel",
                      "Sec V (real-air conditions the testbed implies)");
  sim::World world = bench::make_world();

  const double ambient_pers[] = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  const sim::AttackerKind kinds[] = {sim::AttackerKind::kKarma,
                                     sim::AttackerKind::kMana,
                                     sim::AttackerKind::kCityHunter};

  std::vector<sim::RunConfig> runs;
  for (const double per : ambient_pers) {
    for (const auto kind : kinds) {
      sim::RunConfig run;
      run.kind = kind;
      run.venue = mobility::canteen_venue();
      run.slot.expected_clients = run.venue.hourly_clients[4];  // midday
      run.slot.group_fraction = run.venue.hourly_group_fraction[4];
      run.duration = support::SimTime::minutes(30);
      run.run_seed = 21;  // same crowd for every (per, attacker) cell
      medium::Medium::Config medium_cfg = world.config().medium;
      medium_cfg.fault.enabled = true;
      medium_cfg.fault.ambient_loss = per;
      // Interference bursts (and thus 802.11 retries) scale with congestion.
      medium_cfg.fault.corruption_rate = per * 0.4;
      run.medium = medium_cfg;
      runs.push_back(std::move(run));
    }
  }

  bench::apply_obs_env(runs);
  const auto outputs = sim::run_campaigns(world, runs);
  bench::report_failed_runs(outputs);
  bench::report_channel(outputs);
  bench::write_trace_if_requested(outputs);

  support::TextTable t({"ambient PER", "KARMA h_b", "MANA h_b",
                        "City-Hunter h_b", "CH loss rate", "CH retries"});
  bool ordered = true;
  for (std::size_t p = 0; p < std::size(ambient_pers); ++p) {
    const auto& karma = outputs[p * std::size(kinds) + 0];
    const auto& mana = outputs[p * std::size(kinds) + 1];
    const auto& hunter = outputs[p * std::size(kinds) + 2];
    ordered = ordered && hunter.result.h_b() > mana.result.h_b() &&
              hunter.result.h_b() > karma.result.h_b() &&
              mana.result.h_b() >= karma.result.h_b();
    t.add_row({support::TextTable::pct(ambient_pers[p]),
               support::TextTable::pct(karma.result.h_b()),
               support::TextTable::pct(mana.result.h_b()),
               support::TextTable::pct(hunter.result.h_b()),
               support::TextTable::pct(hunter.medium_stats.loss_rate()),
               support::TextTable::num(
                   static_cast<long long>(hunter.medium_stats.retries))});
  }
  std::printf("%s", t.str().c_str());

  // Channel bookkeeping for the extreme cells: the perfect channel vs the
  // worst sweep point, City-Hunter's runs.
  const auto& clean = outputs[0 * std::size(kinds) + 2];
  const auto& worst =
      outputs[(std::size(ambient_pers) - 1) * std::size(kinds) + 2];
  std::printf("\nCity-Hunter channel, PER %s: %s\n",
              support::TextTable::pct(ambient_pers[0]).c_str(),
              stats::loss_line(clean.medium_stats).c_str());
  std::printf("City-Hunter channel, PER %s: %s\n",
              support::TextTable::pct(
                  ambient_pers[std::size(ambient_pers) - 1]).c_str(),
              stats::loss_line(worst.medium_stats).c_str());

  std::printf("\nexpectation: all capture rates fall as PER rises because "
              "retries repair collisions at airtime cost (transmission count "
              "drops as retries climb, squeezing the 40-response scan "
              "budget), but City-Hunter keeps the largest share of its "
              "lossless h_b — every response that survives offers a new "
              "untried SSID, while MANA re-spends the shrunken budget on the "
              "same first 40\n");
  std::printf("check: at every loss level City-Hunter h_b > MANA h_b and > "
              "KARMA h_b, and MANA h_b >= KARMA h_b: %s\n",
              ordered ? "holds" : "FAILS");
  return ordered ? 0 : 1;
}
