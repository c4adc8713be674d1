// Command-line front end: run any attacker in any venue with one command.
//
//   $ ./cityhunter_cli --venue canteen --attacker cityhunter
//         --clients 640 --minutes 30 --seed 42 [--deauth] [--carrier]
//
// Prints the campaign summary, the source breakdown and (for City-Hunter)
// the final buffer split.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "sim/scenario.h"
#include "stats/report.h"

using namespace cityhunter;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --venue V      subway-passage | canteen | shopping-center |\n"
      "                 railway-station            (default canteen)\n"
      "  --attacker A   karma | mana | prelim | cityhunter (default cityhunter)\n"
      "  --clients N    expected clients for the slot (default venue 12pm rate)\n"
      "  --minutes M    slot duration in minutes     (default 60)\n"
      "  --seed S       world seed                   (default 42)\n"
      "  --run-seed S   per-run seed                 (default 1)\n"
      "  --deauth       enable the Sec V-B deauth scenario (50%% parked)\n"
      "  --carrier      seed carrier hotspot SSIDs (Sec V-B)\n"
      "  --randomize F  fraction of MAC-randomising devices (default 0)\n",
      argv0);
}

mobility::VenueConfig venue_by_name(const std::string& name) {
  if (name == "subway-passage") return mobility::subway_passage_venue();
  if (name == "canteen") return mobility::canteen_venue();
  if (name == "shopping-center") return mobility::shopping_center_venue();
  if (name == "railway-station") return mobility::railway_station_venue();
  std::fprintf(stderr, "unknown venue '%s'\n", name.c_str());
  std::exit(2);
}

/// Parses the whole of `text` as a number: no sign on an unsigned value, no
/// trailing junk, nothing out of range, and only finite reals.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

sim::AttackerKind attacker_by_name(const std::string& name) {
  if (name == "karma") return sim::AttackerKind::kKarma;
  if (name == "mana") return sim::AttackerKind::kMana;
  if (name == "prelim") return sim::AttackerKind::kPrelim;
  if (name == "cityhunter") return sim::AttackerKind::kCityHunter;
  std::fprintf(stderr, "unknown attacker '%s'\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string venue_name = "canteen";
  std::string attacker_name = "cityhunter";
  std::optional<double> clients;  // unset = the venue's 12pm rate
  double minutes = 60;
  std::uint64_t seed = 42, run_seed = 1;
  bool deauth = false, carrier = false;
  double randomize = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&](auto& out) {
      if (!parse_number(next(), out)) {
        usage(argv[0]);
        std::exit(2);
      }
    };
    if (arg == "--venue") {
      venue_name = next();
    } else if (arg == "--attacker") {
      attacker_name = next();
    } else if (arg == "--clients") {
      number(clients.emplace());
    } else if (arg == "--minutes") {
      number(minutes);
    } else if (arg == "--seed") {
      number(seed);
    } else if (arg == "--run-seed") {
      number(run_seed);
    } else if (arg == "--deauth") {
      deauth = true;
    } else if (arg == "--carrier") {
      carrier = true;
    } else if (arg == "--randomize") {
      number(randomize);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  // A positive slot that SimTime::minutes can hold (it casts
  // minutes * 60 * 1e6 to int64 microseconds), a non-negative crowd and a
  // randomizing fraction in [0, 1].
  if (!(minutes > 0.0 && minutes * 60.0 * 1e6 < 0x1p63) ||
      (clients && *clients < 0.0) ||
      !(randomize >= 0.0 && randomize <= 1.0)) {
    usage(argv[0]);
    return 2;
  }

  sim::ScenarioConfig scenario;
  scenario.seed = seed;
  std::printf("building world (seed %llu)...\n",
              static_cast<unsigned long long>(seed));
  sim::World world(scenario);

  sim::RunConfig run;
  run.kind = attacker_by_name(attacker_name);
  run.venue = venue_by_name(venue_name);
  run.slot.expected_clients =
      clients ? *clients : run.venue.hourly_clients[4] * minutes / 60.0;
  run.slot.mac_randomizing_fraction = randomize;
  run.duration = support::SimTime::minutes(minutes);
  run.run_seed = run_seed;
  run.seed_carrier_ssids = carrier;
  if (deauth) {
    sim::DeauthScenario d;
    d.pre_associated_fraction = 0.5;
    run.deauth = d;
  }

  std::printf("deploying %s in %s for %.0f min (~%.0f clients)...\n",
              sim::to_string(run.kind), run.venue.name.c_str(), minutes,
              run.slot.expected_clients);
  const auto out = sim::run_campaign(world, run);

  std::printf("\n%s\n", stats::summary_line(out.result).c_str());
  std::printf("%s\n", stats::comparison_table({out.result}).c_str());
  std::printf("database: %zu SSIDs (%zu learned on site)\n",
              out.db_final_size, out.db_from_direct);
  if (run.kind == sim::AttackerKind::kCityHunter) {
    std::printf("buffers : PB=%d FB=%d\n", out.final_pb_size,
                out.final_fb_size);
    std::printf("sources : WiGLE %zu, direct-probe DB %zu, carrier %zu | "
                "popularity %zu, freshness %zu\n",
                out.result.hits_from_wigle, out.result.hits_from_direct_db,
                out.result.hits_from_carrier_seed,
                out.result.hits_via_popularity,
                out.result.hits_via_freshness);
  }
  if (out.deauths_sent > 0) {
    std::printf("deauths : %llu forged\n",
                static_cast<unsigned long long>(out.deauths_sent));
  }
  return 0;
}
