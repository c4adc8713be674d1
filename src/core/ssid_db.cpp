#include "core/ssid_db.h"

#include <algorithm>
#include <numeric>

namespace cityhunter::core {

const char* to_string(SsidSource s) {
  switch (s) {
    case SsidSource::kWigleNearby: return "wigle-nearby";
    case SsidSource::kWiglePopular: return "wigle-popular";
    case SsidSource::kDirectProbe: return "direct-probe";
    case SsidSource::kCarrierSeed: return "carrier-seed";
  }
  return "?";
}

bool SsidDatabase::add(const std::string& ssid, double weight,
                       SsidSource source, SimTime now) {
  auto it = index_.find(ssid);
  if (it != index_.end()) {
    auto& rec = records_[it->second];
    rec.weight = std::max(rec.weight, weight);
    ++version_;
    return false;
  }
  SsidRecord rec;
  rec.ssid = ssid;
  rec.weight = weight;
  rec.source = source;
  rec.added = now;
  rec.insertion_order = next_order_++;
  index_.emplace(ssid, records_.size());
  records_.push_back(std::move(rec));
  ++version_;
  return true;
}

void SsidDatabase::observe_direct(const std::string& ssid,
                                  double initial_weight, double seen_bonus,
                                  SimTime now) {
  auto it = index_.find(ssid);
  if (it == index_.end()) {
    add(ssid, initial_weight, SsidSource::kDirectProbe, now);
    return;
  }
  records_[it->second].weight += seen_bonus;
  ++version_;
}

void SsidDatabase::record_hit(const std::string& ssid, double hit_bonus,
                              SimTime now) {
  auto it = index_.find(ssid);
  if (it == index_.end()) return;
  auto& rec = records_[it->second];
  rec.weight += hit_bonus;
  ++rec.hits;
  rec.last_hit = now;
  ++version_;
}

const SsidRecord* SsidDatabase::find(const std::string& ssid) const {
  auto it = index_.find(ssid);
  return it == index_.end() ? nullptr : &records_[it->second];
}

std::optional<SsidId> SsidDatabase::find_id(const std::string& ssid) const {
  auto it = index_.find(ssid);
  if (it == index_.end()) return std::nullopt;
  return static_cast<SsidId>(it->second);
}

void SsidDatabase::by_weight(std::vector<SsidId>& out) const {
  // (weight descending, insertion order ascending) is a total order, so
  // the full sort and the insertion pass produce the same ids.
  const auto before = [this](SsidId a, SsidId b) {
    const SsidRecord& ra = records_[a];
    const SsidRecord& rb = records_[b];
    if (ra.weight != rb.weight) return ra.weight > rb.weight;
    return ra.insertion_order < rb.insertion_order;
  };
  const std::size_t kept = out.size();
  out.resize(records_.size());
  if (kept == 0 || kept > records_.size()) {
    std::iota(out.begin(), out.end(), SsidId{0});
    std::sort(out.begin(), out.end(), before);
    return;
  }
  // An earlier order of this database: records only grow and a mutation
  // moves or appends one record, so append the new ids and let one
  // insertion pass restore the order.
  std::iota(out.begin() + static_cast<std::ptrdiff_t>(kept), out.end(),
            static_cast<SsidId>(kept));
  for (std::size_t i = 1; i < out.size(); ++i) {
    const SsidId id = out[i];
    std::size_t j = i;
    for (; j > 0 && before(id, out[j - 1]); --j) out[j] = out[j - 1];
    out[j] = id;
  }
}

void SsidDatabase::by_freshness(std::vector<SsidId>& out) const {
  out.clear();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].last_hit) out.push_back(static_cast<SsidId>(i));
  }
  std::sort(out.begin(), out.end(), [this](SsidId a, SsidId b) {
    const SsidRecord& ra = records_[a];
    const SsidRecord& rb = records_[b];
    if (*ra.last_hit != *rb.last_hit) return *ra.last_hit > *rb.last_hit;
    return ra.insertion_order < rb.insertion_order;
  });
}

void SsidDatabase::restore(std::vector<SsidRecord> records) {
  records_ = std::move(records);
  index_.clear();
  next_order_ = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    index_.emplace(records_[i].ssid, i);
    next_order_ = std::max(next_order_, records_[i].insertion_order + 1);
  }
  // Any cached sorted view predates the restore by construction; one bump
  // invalidates it. The exact value never feeds into results.
  ++version_;
}

std::size_t SsidDatabase::count_from(SsidSource source) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.source == source) ++n;
  }
  return n;
}

}  // namespace cityhunter::core
