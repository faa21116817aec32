// Bounded-memory streaming Chrome-trace writer.
//
// chrome_trace_json (export.hpp) serialises a finished run from the
// Tracer's buffers, which is fine for a single run but not for a parameter
// sweep that traces dozens of cells: the buffers would grow without bound.
// StreamingTraceSink writes the same document incrementally. The launcher
// thread calls drain() between runs (or between sweep cells), which MOVES
// each rank's events out of the Tracer via Tracer::take_events, serialises
// them with the one Chrome-trace serializer (append_chrome_events in
// export.hpp) into a chunk buffer, flushes full chunks to the file, and
// discards the events. Steady-state memory is one rank's events and their
// text plus the chunk buffer, independent of sweep length.
//
// Header, events and footer come from export.hpp's append_chrome_*
// functions, so a sink drained once is byte-identical to
// chrome_trace_json over the same tracer (tested):
//
//   StreamingTraceSink sink("TRACE_sweep.json");
//   sink.begin(nranks);            // header + process/thread metadata
//   for (cell : sweep) {
//     Tracer::instance().begin_run(nranks);
//     machine.run(...);            // ranks record as usual
//     sink.drain(Tracer::instance());  // move out + append + free
//   }
//   sink.close();                  // footer; file is valid JSON from here
//
// Threading contract mirrors the Tracer's read accessors: drain() must be
// called from the launcher thread between runs, never while rank threads
// are recording. Spans still open at drain time are dropped, exactly as
// Tracer::spans() drops unterminated spans.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>

#include "trace/tracer.hpp"

namespace agcm::trace {

class StreamingTraceSink {
 public:
  /// Opens `path` for writing. Events are buffered and flushed to the file
  /// whenever the buffer exceeds `chunk_bytes` (default 1 MiB).
  explicit StreamingTraceSink(std::string path,
                              std::size_t chunk_bytes = std::size_t{1} << 20);
  ~StreamingTraceSink();

  StreamingTraceSink(const StreamingTraceSink&) = delete;
  StreamingTraceSink& operator=(const StreamingTraceSink&) = delete;

  /// Writes the document header and process/thread metadata for `nranks`
  /// ranks. Later calls are no-ops; drain() and close() call it with the
  /// tracer's rank count (close: one rank) when nothing has been written.
  void begin(int nranks);

  /// Moves every recorded event out of `tracer` (all ranks), appends the
  /// serialised events to the file, and leaves the tracer's buffers empty
  /// (tracer.total_events() == 0 afterwards). Callable any number of times.
  void drain(Tracer& tracer);

  /// Writes the footer and closes the file. Idempotent; also invoked by
  /// the destructor so the file is always syntactically complete.
  void close();

  // --- observability about the observability --------------------------------
  std::size_t spans_written() const { return spans_written_; }
  std::size_t bytes_written() const { return bytes_written_; }

 private:
  void flush_buffer();

  std::string path_;
  std::size_t chunk_bytes_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  bool began_ = false;
  bool closed_ = false;
  std::size_t spans_written_ = 0;
  std::size_t bytes_written_ = 0;
};

}  // namespace agcm::trace
