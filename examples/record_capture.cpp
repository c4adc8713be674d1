// Record a City-Hunter deployment to a pcap file: place a passive monitor
// next to the attacker and capture 5 minutes of canteen traffic — probe
// requests, the attacker's 40-SSID response trains, and the evil-twin
// handshakes — ready to open in Wireshark.
//
//   $ ./record_capture [output.pcap]
#include <cstdio>

#include "medium/pcap_recorder.h"
#include "sim/scenario.h"
#include "stats/report.h"

using namespace cityhunter;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "cityhunter_capture.pcap";

  sim::ScenarioConfig scenario;
  scenario.seed = 42;
  sim::World world(scenario);

  sim::RunConfig cfg;
  cfg.venue = mobility::canteen_venue();
  cfg.slot.expected_clients = 120;  // 5-minute slice of a canteen crowd
  cfg.duration = support::SimTime::minutes(5);

  // The recorder outlives the run, so the medium never holds a dangling
  // sink; the monitor radio sits next to the attacker.
  medium::PcapRecorder recorder(path);
  sim::VenueRun run(world, cfg);
  auto monitor = run.medium().attach({3, 3}, 6, 0.0, &recorder);

  std::printf("capturing 5 simulated minutes to %s ...\n", path.c_str());
  const auto out = run.run();
  recorder.flush();
  run.medium().detach(monitor);

  std::printf("%s\n", stats::summary_line(out.result).c_str());
  std::printf("%zu frames written to %s (linktype 802.11; open in "
              "Wireshark)\n",
              recorder.frames_written(), path.c_str());
  return 0;
}
