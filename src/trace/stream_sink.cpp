#include "trace/stream_sink.hpp"

#include <stdexcept>

#include "trace/export.hpp"

namespace agcm::trace {

StreamingTraceSink::StreamingTraceSink(std::string path,
                                       std::size_t chunk_bytes)
    : path_(std::move(path)), chunk_bytes_(chunk_bytes) {
  file_ = std::fopen(path_.c_str(), "wb");
  if (!file_) {
    throw std::runtime_error("StreamingTraceSink: cannot open " + path_);
  }
  buffer_.reserve(chunk_bytes_ + 4096);
}

StreamingTraceSink::~StreamingTraceSink() { close(); }

void StreamingTraceSink::flush_buffer() {
  if (buffer_.empty() || !file_) return;
  std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  bytes_written_ += buffer_.size();
  buffer_.clear();
}

void StreamingTraceSink::begin(int nranks) {
  if (began_) return;
  began_ = true;
  append_chrome_header(buffer_, nranks);
}

void StreamingTraceSink::drain(Tracer& tracer) {
  begin(tracer.nranks());  // no-op once begun
  for (int rank = 0; rank < Tracer::kMaxRanks; ++rank) {
    const std::vector<Event> events = tracer.take_events(rank);
    if (events.empty()) continue;
    spans_written_ += append_chrome_events(buffer_, rank, events);
    if (buffer_.size() >= chunk_bytes_) flush_buffer();
  }
}

void StreamingTraceSink::close() {
  if (closed_) return;
  closed_ = true;
  begin(0);  // no-op once begun; an undrained sink still gets rank metadata
  append_chrome_footer(buffer_);
  flush_buffer();
  if (file_) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace agcm::trace
