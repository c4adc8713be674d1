#include "core/attacker.h"

#include "obs/trace.h"

namespace cityhunter::core {

using dot11::Frame;

const char* to_string(SelectionTag t) {
  switch (t) {
    case SelectionTag::kDirectReply: return "direct-reply";
    case SelectionTag::kPlainDump: return "plain-dump";
    case SelectionTag::kUntriedSweep: return "untried-sweep";
    case SelectionTag::kPopularity: return "popularity";
    case SelectionTag::kPopularityGhost: return "popularity-ghost";
    case SelectionTag::kFreshness: return "freshness";
    case SelectionTag::kFreshnessGhost: return "freshness-ghost";
  }
  return "?";
}

Attacker::Attacker(medium::Medium& medium, BaseConfig cfg)
    : medium_(medium), cfg_(cfg) {}

Attacker::~Attacker() { stop(); }

void Attacker::start() {
  if (started_) return;
  started_ = true;
  radio_ = medium_.attach(cfg_.pos, cfg_.channel, cfg_.tx_power_dbm, this);
}

void Attacker::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  medium_.detach(radio_);
}

ClientRecord& Attacker::client(const dot11::MacAddress& mac) {
  auto it = clients_.find(mac);
  if (it == clients_.end()) {
    ClientRecord rec;
    rec.mac = mac;
    rec.first_seen = now();
    it = clients_.emplace(mac, std::move(rec)).first;
  }
  return it->second;
}

void Attacker::handle_direct_probe_ssid(const std::string&, SimTime) {}

void Attacker::on_hit(const ClientRecord&, const std::string&, SimTime) {}

void Attacker::note_offer(ClientRecord& c, SsidId id, Attribution offer) {
  if (id >= c.offered.size()) c.offered.resize(db_.size());
  c.offered[id] = offer;
}

void Attacker::respond_to_direct_probe(ClientRecord& c,
                                       const std::string& ssid) {
  // KARMA's core move: mimic whatever the victim asks for, as an open AP.
  dot11::make_probe_response_into(tx_frame_, cfg_.bssid, c.mac, ssid,
                                  cfg_.channel, /*open=*/true, next_seq());
  radio_.transmit(tx_frame_);
  const Attribution reply{SelectionTag::kDirectReply,
                          SsidSource::kDirectProbe};
  if (const auto id = db_.find_id(ssid)) {
    note_offer(c, *id, reply);
  } else {
    c.offered_unstored[ssid] = reply;
  }
}

void Attacker::respond_to_broadcast_probe(ClientRecord& c) {
  choices_.clear();
  select_ssids(c, cfg_.response_budget, choices_);
  const std::uint64_t fill = choices_.size();
  if (scan_windows_ == 0 || fill < min_window_fill_) min_window_fill_ = fill;
  if (fill > max_window_fill_) max_window_fill_ = fill;
  ++scan_windows_;
  responses_sent_ += fill;
  if (trace_ != nullptr) {
    trace_->record(now(), obs::Category::kAttacker,
                   obs::Event::kScanWindowFill, fill,
                   static_cast<std::uint64_t>(cfg_.response_budget));
  }
  const auto& records = db_.records();
  for (const SsidChoice& choice : choices_) {
    dot11::make_probe_response_into(tx_frame_, cfg_.bssid, c.mac,
                                    records[choice.id].ssid, cfg_.channel,
                                    /*open=*/true, next_seq());
    radio_.transmit(tx_frame_);
    if (choice.id >= c.sent.size()) c.sent.resize(records.size());
    if (c.sent[choice.id] == 0) {
      c.sent[choice.id] = 1;
      ++c.ssids_sent;
    }
    note_offer(c, choice.id, Attribution{choice.tag, choice.source});
  }
}

void Attacker::on_frame(const Frame& frame, const medium::RxInfo&) {
  if (stopped_) return;
  switch (frame.subtype()) {
    case dot11::MgmtSubtype::kProbeRequest: {
      const auto* body = frame.as<dot11::ProbeRequest>();
      auto& c = client(frame.header.addr2);
      if (c.connected) return;  // already ours
      if (body->is_broadcast()) {
        ++c.broadcast_probes;
        respond_to_broadcast_probe(c);
      } else {
        c.direct_prober = true;
        const auto ssid = body->ies.ssid();
        if (ssid && !ssid->empty()) {
          handle_direct_probe_ssid(*ssid, now());
          respond_to_direct_probe(c, *ssid);
        }
      }
      return;
    }
    case dot11::MgmtSubtype::kAuthentication: {
      if (!(frame.header.addr1 == cfg_.bssid)) return;
      const auto* body = frame.as<dot11::Authentication>();
      if (body->sequence != 1) return;
      radio_.transmit(dot11::make_auth_response(cfg_.bssid, frame.header.addr2,
                                                dot11::StatusCode::kSuccess,
                                                next_seq()));
      return;
    }
    case dot11::MgmtSubtype::kAssociationRequest: {
      if (!(frame.header.addr1 == cfg_.bssid)) return;
      const auto* body = frame.as<dot11::AssociationRequest>();
      auto& c = client(frame.header.addr2);
      radio_.transmit(dot11::make_assoc_response(
          cfg_.bssid, c.mac, dot11::StatusCode::kSuccess, next_aid_++,
          next_seq()));
      if (!c.connected) {
        c.connected = true;
        c.connect_time = now();
        ++connected_count_;
        const auto ssid = body->ies.ssid().value_or("");
        c.hit_ssid = ssid;
        // A filled id slot is newer than any unstored direct reply.
        const auto id = db_.find_id(ssid);
        if (id && *id < c.offered.size() && c.offered[*id]) {
          c.hit_choice = c.offered[*id];
        } else if (const auto it = c.offered_unstored.find(ssid);
                   it != c.offered_unstored.end()) {
          c.hit_choice = it->second;
        }
        on_hit(c, ssid, now());
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace cityhunter::core
