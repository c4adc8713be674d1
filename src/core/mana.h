// MANA attacker ("loud" mode; Dominic & de Vries, DEF CON 22).
//
// Collects SSIDs from observed direct probes into its database, and answers
// every broadcast probe by replaying the *whole* database in insertion
// order. The flaw the paper dissects in §III-A is reproduced mechanically:
// the client's scan window only admits the first ~40 responses, so the same
// first-40 SSIDs get tried on everyone and database growth buys nothing
// (Fig 1).
#pragma once

#include "core/attacker.h"

namespace cityhunter::core {

class ManaAttacker : public Attacker {
 public:
  struct Config {
    Attacker::BaseConfig base;
    /// Weight given to learned SSIDs (MANA has no weighting; keep them all
    /// equal so insertion order decides).
    double learned_weight = 1.0;
    /// Safety valve for simulation cost: cap the dump length. Real MANA has
    /// no cap; anything >= 3x the client budget behaves identically since
    /// later responses fall outside every scan window.
    int max_dump = 150;
  };

  ManaAttacker(medium::Medium& medium, Config cfg)
      : Attacker(medium, cfg.base), cfg_(cfg) {}

 protected:
  void handle_direct_probe_ssid(const std::string& ssid,
                                SimTime now) override {
    db_.add(ssid, cfg_.learned_weight, SsidSource::kDirectProbe, now);
  }

  void select_ssids(const ClientRecord&, int /*budget*/,
                    std::vector<SsidChoice>& out) override {
    // Deliberately ignores the budget and any per-client history: dump
    // everything, every time, in insertion (= id) order.
    const auto& records = db_.records();
    const auto n = std::min<std::size_t>(
        records.size(), static_cast<std::size_t>(cfg_.max_dump));
    for (SsidId id = 0; id < n; ++id) {
      out.push_back(SsidChoice{id, SelectionTag::kPlainDump,
                               records[id].source});
    }
  }

 private:
  Config cfg_;
};

}  // namespace cityhunter::core
