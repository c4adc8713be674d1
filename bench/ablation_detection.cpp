// Countermeasure evaluation (paper §VI's closing claim): existing evil-twin
// detection still works against City-Hunter. Deploys a passive detector
// alongside each attacker generation in the canteen and reports
// time-to-detection. The irony the paper acknowledges: the better
// the attacker (more SSIDs offered per victim), the louder its multi-SSID
// signature.
#include "bench_common.h"
#include "defense/detector.h"

using namespace cityhunter;

int main() {
  bench::print_header("Countermeasures — detecting the attacker generations",
                      "Sec VI (countermeasures remain effective)");
  sim::World world = bench::make_world();

  support::TextTable t({"attacker", "h_b", "detected", "time-to-detect",
                        "ssids seen from rogue bssid"});

  // Every generation meets the same canteen crowd (same run seed); the
  // detector is one more observer on each run's medium.
  for (const auto kind :
       {sim::AttackerKind::kKarma, sim::AttackerKind::kMana,
        sim::AttackerKind::kPrelim, sim::AttackerKind::kCityHunter}) {
    sim::RunConfig cfg;
    cfg.kind = kind;
    cfg.venue = mobility::canteen_venue();
    cfg.slot.expected_clients = 640;
    cfg.duration = support::SimTime::minutes(30);
    sim::VenueRun run(world, cfg);
    defense::EvilTwinDetector detector(run.medium(), {12, 5}, 6,
                                       defense::EvilTwinDetector::Config{});
    detector.start();
    const auto out = run.run();

    bench::report_channel(out);
    const auto& bssid = run.attacker().bssid();
    const auto detect_time = detector.first_detection(bssid);
    t.add_row({sim::to_string(kind), support::TextTable::pct(out.result.h_b()),
               detect_time ? "yes" : "no",
               detect_time ? detect_time->str() : "-",
               std::to_string(detector.ssid_count(bssid))});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("expectation: every generation is detected; the stronger the "
              "attacker, the earlier (more SSIDs per response train). KARMA "
              "is detected only once a long-PNL legacy device walks by.\n");
  return 0;
}
