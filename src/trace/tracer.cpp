#include "trace/tracer.hpp"

#include <algorithm>

namespace agcm::trace {

namespace {
std::atomic<bool> g_enabled{false};
}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() {
  ranks_.resize(static_cast<std::size_t>(kMaxRanks));
}

void Tracer::begin_run(int nranks) {
  nranks_ = std::min(nranks, kMaxRanks);
  for (auto& buf : ranks_) {
    if (buf) {
      buf->events.clear();
      buf->open.clear();
    }
  }
}

Tracer::RankBuffer* Tracer::buffer(int rank) {
  if (rank < 0 || rank >= kMaxRanks) return nullptr;
  auto& slot = ranks_[static_cast<std::size_t>(rank)];
  // Lazy allocation is safe: only the owning rank thread touches its slot.
  if (!slot) slot = std::make_unique<RankBuffer>();
  return slot.get();
}

const Tracer::RankBuffer* Tracer::buffer(int rank) const {
  if (rank < 0 || rank >= kMaxRanks) return nullptr;
  return ranks_[static_cast<std::size_t>(rank)].get();
}

void Tracer::begin_span(int rank, std::string_view name, double t,
                        const TimeSplit& at) {
  if (!enabled()) return;
  RankBuffer* buf = buffer(rank);
  if (!buf) return;
  Event event;
  event.name.assign(name);
  event.t = t;
  event.split = at;
  event.kind = EventKind::kSpanBegin;
  event.depth = static_cast<std::int32_t>(buf->open.size());
  buf->open.push_back(buf->events.size());
  buf->events.push_back(std::move(event));
}

void Tracer::end_span(int rank, double t, const TimeSplit& at) {
  if (!enabled()) return;
  RankBuffer* buf = buffer(rank);
  if (!buf || buf->open.empty()) return;  // unmatched end: drop
  const std::size_t begin_index = buf->open.back();
  buf->open.pop_back();
  const Event& begin = buf->events[begin_index];
  Event event;
  event.name = begin.name;
  event.t = t;
  event.split = at;
  event.kind = EventKind::kSpanEnd;
  event.depth = begin.depth;
  buf->events.push_back(std::move(event));
}

void Tracer::instant(int rank, std::string_view name, double t) {
  if (!enabled()) return;
  RankBuffer* buf = buffer(rank);
  if (!buf) return;
  Event event;
  event.name.assign(name);
  event.t = t;
  event.kind = EventKind::kInstant;
  event.depth = static_cast<std::int32_t>(buf->open.size());
  buf->events.push_back(std::move(event));
}

void Tracer::counter(int rank, std::string_view name, double t, double value) {
  if (!enabled()) return;
  RankBuffer* buf = buffer(rank);
  if (!buf) return;
  Event event;
  event.name.assign(name);
  event.t = t;
  event.value = value;
  event.kind = EventKind::kCounter;
  event.depth = static_cast<std::int32_t>(buf->open.size());
  buf->events.push_back(std::move(event));
}

const std::vector<Event>& Tracer::events(int rank) const {
  static const std::vector<Event> kEmpty;
  const RankBuffer* buf = buffer(rank);
  return buf ? buf->events : kEmpty;
}

std::vector<Event> Tracer::take_events(int rank) {
  if (rank < 0 || rank >= kMaxRanks) return {};
  auto& slot = ranks_[static_cast<std::size_t>(rank)];
  if (!slot) return {};
  std::vector<Event> out = std::move(slot->events);
  slot->events.clear();  // moved-from is valid-but-unspecified; make it empty
  slot->open.clear();    // any still-open spans are dropped, like spans()
  return out;
}

std::vector<std::size_t> match_spans(const std::vector<Event>& events) {
  std::vector<std::size_t> ends(events.size(), kNoEnd);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kSpanBegin) {
      stack.push_back(i);
    } else if (events[i].kind == EventKind::kSpanEnd && !stack.empty()) {
      ends[stack.back()] = i;
      stack.pop_back();
    }
  }
  return ends;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::vector<SpanRecord> out;
  for (int rank = 0; rank < kMaxRanks; ++rank) {
    const std::vector<Event>& recorded = events(rank);
    const std::vector<std::size_t> ends = match_spans(recorded);
    for (std::size_t i = 0; i < recorded.size(); ++i) {
      if (ends[i] == kNoEnd) continue;
      const Event& begin = recorded[i];
      const Event& end = recorded[ends[i]];
      out.push_back({begin.name, rank, begin.depth, begin.t, end.t,
                     end.split - begin.split});
    }
  }
  return out;
}

std::size_t Tracer::total_events() const {
  std::size_t n = 0;
  for (int rank = 0; rank < kMaxRanks; ++rank) {
    const RankBuffer* buf = buffer(rank);
    if (buf) n += buf->events.size();
  }
  return n;
}

}  // namespace agcm::trace
