#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "common/expects.hpp"
#include "obs/metrics.hpp"

namespace uwb::obs {

std::atomic<bool> FlightRecorder::enabled_{false};

const char* to_string(FrKind kind) {
  switch (kind) {
    case FrKind::kTx: return "tx";
    case FrKind::kChannel: return "channel";
    case FrKind::kRx: return "rx";
    case FrKind::kFault: return "fault";
    case FrKind::kDetect: return "detect";
    case FrKind::kTwr: return "twr";
    case FrKind::kStatus: return "status";
    case FrKind::kAttack: return "attack";
    case FrKind::kVerdict: return "verdict";
  }
  return "unknown";
}

FrContext& fr_context() {
  thread_local FrContext ctx;
  return ctx;
}

FrShard::FrShard(int id, std::size_t capacity) : id_(id) {
  UWB_EXPECTS(capacity >= 1);
  ring_.resize(capacity);
}

// uwb-hot-path: every typed event from channel/RX/detect/TWR lands here;
// the ring slot reuse is what keeps recording allocation-free.
void FrShard::record(const FrEvent& event) {
  const FrContext& ctx = fr_context();
  FrRecord& slot = ring_[head_];
  slot.session = ctx.session;
  slot.chain = event.chain != 0 ? event.chain : ctx.chain;
  slot.seq = seq_++;
  slot.t_ps = event.t_ps != kFrTimeFromContext ? event.t_ps : ctx.t_ps;
  slot.round = ctx.round;
  slot.kind = event.kind;
  slot.node = event.node;
  slot.peer = event.peer;
  slot.name = event.name;
  slot.detail = event.detail;
  slot.v0 = event.v0;
  slot.v1 = event.v1;
  slot.v2 = event.v2;
  slot.v3 = event.v3;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  if (size_ < ring_.size())
    ++size_;
  else
    ++dropped_;  // the slot we just reused held the oldest record
}

void FrShard::append_to(std::vector<FrRecord>& out) const {
  // Oldest first: the ring's logical start is head_ when full, 0 otherwise.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
}

void FrShard::clear() {
  head_ = 0;
  size_ = 0;
  seq_ = 0;
  dropped_ = 0;
}

void FrShard::set_capacity(std::size_t capacity) {
  UWB_EXPECTS(capacity >= 1);
  ring_.assign(capacity, FrRecord{});
  clear();
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

namespace {

// Calls fn on every ring, in shard registration order.
template <typename Fn>
void for_each_ring(Fn&& fn) {
  for (Shard* shard : MetricsRegistry::instance().shards())
    if (FrShard* ring = shard->flight_ring()) fn(*ring);
}

}  // namespace

FrShard& FlightRecorder::local_shard() {
  Shard& shard = MetricsRegistry::instance().local_shard();
  if (shard.flight_ring_ == nullptr)
    shard.flight_ring_ = std::make_unique<FrShard>(shard.id(), capacity_);
  return *shard.flight_ring_;
}

void FlightRecorder::set_capacity(std::size_t capacity) {
  UWB_EXPECTS(capacity >= 1);
  capacity_ = capacity;
  for_each_ring([capacity](FrShard& ring) { ring.set_capacity(capacity); });
}

std::vector<FrRecord> FlightRecorder::collect() const {
  std::vector<FrRecord> out;
  for_each_ring([&out](const FrShard& ring) { ring.append_to(out); });
  // One session's events live on one shard with consecutive sequence
  // numbers, so (session, seq) reproduces the record order regardless of
  // which worker ran the session or how many shards exist. Ties (possible
  // only for context-less session-0 events on different shards) keep shard
  // registration order via the stable sort.
  std::stable_sort(out.begin(), out.end(),
                   [](const FrRecord& a, const FrRecord& b) {
                     if (a.session != b.session) return a.session < b.session;
                     return a.seq < b.seq;
                   });
  return out;
}

std::uint64_t FlightRecorder::dropped_events() const {
  std::uint64_t total = 0;
  for_each_ring([&total](const FrShard& ring) { total += ring.dropped(); });
  return total;
}

std::uint64_t FlightRecorder::recorded_events() const {
  std::uint64_t total = 0;
  for_each_ring([&total](const FrShard& ring) { total += ring.recorded(); });
  return total;
}

namespace {

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

void append_values(std::string& out, const FrRecord& r) {
  const FrValue* values[] = {&r.v0, &r.v1, &r.v2, &r.v3};
  bool any = false;
  for (const FrValue* v : values) {
    if (v->key == nullptr) continue;
    out += any ? "," : ",\"f\":{";
    any = true;
    out.push_back('"');
    append_escaped(out, v->key);
    out += "\":";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v->value);
    out += buf;
  }
  if (any) out.push_back('}');
}

}  // namespace

std::string FlightRecorder::to_jsonl() const {
  const std::vector<FrRecord> records = collect();
  std::string out;
  out.reserve(records.size() * 160 + 128);
  char buf[160];
  for (const FrRecord& r : records) {
    std::snprintf(buf, sizeof(buf),
                  "{\"session\":\"0x%016" PRIx64 "\",\"round\":%u,"
                  "\"chain\":\"0x%016" PRIx64 "\",\"t_ps\":%" PRId64
                  ",\"kind\":\"%s\",\"name\":\"",
                  r.session, r.round, r.chain, r.t_ps, to_string(r.kind));
    out += buf;
    append_escaped(out, r.name != nullptr ? r.name : "");
    out.push_back('"');
    if (r.node != kFrNoNode) {
      std::snprintf(buf, sizeof(buf), ",\"node\":%d", r.node);
      out += buf;
    }
    if (r.peer != kFrNoNode) {
      std::snprintf(buf, sizeof(buf), ",\"peer\":%d", r.peer);
      out += buf;
    }
    if (r.detail != nullptr) {
      out += ",\"detail\":\"";
      append_escaped(out, r.detail);
      out.push_back('"');
    }
    append_values(out, r);
    out += "}\n";
  }
  std::snprintf(buf, sizeof(buf),
                "{\"meta\":\"uwb_flight_recorder\",\"version\":1,"
                "\"events\":%zu,\"dropped_events\":%" PRIu64 "}\n",
                records.size(), dropped_events());
  out += buf;
  return out;
}

bool FlightRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = to_jsonl();
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && wrote;
}

void FlightRecorder::reset() {
  for_each_ring([](FrShard& ring) { ring.clear(); });
}

}  // namespace uwb::obs
