// KARMA attacker (Dai Zovi & Macaulay, 2005).
//
// Answers direct probes by mimicking the requested SSID; offers nothing to
// broadcast probes — which is exactly why its broadcast hit rate is zero on
// modern devices (paper Table I).
#pragma once

#include "core/attacker.h"

namespace cityhunter::core {

class KarmaAttacker : public Attacker {
 public:
  using Attacker::Attacker;

 protected:
  void select_ssids(const ClientRecord&, int,
                    std::vector<SsidChoice>&) override {}
};

}  // namespace cityhunter::core
