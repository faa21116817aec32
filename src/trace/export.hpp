// Trace exporters: Chrome trace JSON, flat CSV, and the aggregate
// per-phase table.
//
// Three views of the same per-rank virtual-time events (trace/tracer.hpp):
//  * chrome_trace_json — the Chrome Trace Event Format, loadable in
//    chrome://tracing and https://ui.perfetto.dev. Virtual seconds map to
//    trace microseconds; one trace "thread" per rank; span args carry the
//    compute/overhead/wait split so the paper's Fig. 1 breakdown can be
//    read straight off a span. The append_chrome_* functions are the one
//    serializer of that format: chrome_trace_json runs them over the
//    tracer's buffers in place, and StreamingTraceSink
//    (trace/stream_sink.hpp) runs them over drained buffers, so a
//    one-shot export and a single-drain stream are byte-identical.
//  * trace_csv — one line per completed span for spreadsheet/pandas use.
//  * aggregate_phases / phase_table — the paper's table form: per phase
//    name, call counts, per-rank virtual-time totals (mean/max), the
//    compute/overhead/wait split, and the paper's load-imbalance metric
//    (max-avg)/avg over per-rank totals. Built on util/table + util/stats.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "trace/json.hpp"
#include "trace/tracer.hpp"
#include "util/table.hpp"

namespace agcm::trace {

/// Cross-rank aggregate of all spans sharing one phase name.
struct PhaseStats {
  std::string name;
  std::uint64_t calls = 0;       ///< completed spans across all ranks
  int ranks_touched = 0;         ///< ranks with at least one such span
  double total_sec = 0.0;        ///< sum of span durations over all ranks
  double mean_rank_sec = 0.0;    ///< mean over ranks of per-rank totals
  double max_rank_sec = 0.0;     ///< max  over ranks of per-rank totals
  TimeSplit split;               ///< summed breakdown deltas
  double imbalance = 0.0;        ///< (max-avg)/avg of per-rank totals
};

/// Aggregates every completed span by phase name. Ranks that never entered
/// a phase contribute zero-load entries to that phase's imbalance (the
/// paper's convention: an idle rank is the imbalance). The rank universe is
/// Tracer::nranks() from the last begin_run. Nested spans aggregate under
/// their own names; hierarchical names ("dynamics.filter" inside
/// "model.step") keep the containment readable.
std::vector<PhaseStats> aggregate_phases(const Tracer& tracer);

/// Renders the aggregate as a util/table (sorted by total time,
/// descending).
Table phase_table(const std::vector<PhaseStats>& phases,
                  const std::string& title = "Per-phase virtual time");

/// JSON form of the aggregate (array of phase objects).
JsonValue phases_json(const std::vector<PhaseStats>& phases);

/// Chrome Trace Event Format document (JSON object with "traceEvents"),
/// one event per line: the header, then each rank's events in recording
/// order, then the footer. Rank r is trace thread r of process 0. Reads
/// the tracer's buffers without consuming them.
std::string chrome_trace_json(const Tracer& tracer);
void write_chrome_trace(const Tracer& tracer, const std::string& path);

/// Appends the document header: the process name and one thread name per
/// rank (at least one) as metadata ("M") events.
void append_chrome_header(std::string& out, int nranks);
/// Appends one rank's events in recording order: each matched span as a
/// complete ("X") event at its begin position, with the compute/overhead/
/// wait split in args; instants as "i" and counter samples as "C" events.
/// Unterminated spans are dropped, as Tracer::spans() drops them. Returns
/// the number of spans written.
std::size_t append_chrome_events(std::string& out, int rank,
                                 const std::vector<Event>& events);
/// Appends the footer that closes the document.
void append_chrome_footer(std::string& out);

/// Flat CSV: rank,name,depth,begin_s,end_s,duration_s,compute_s,
/// overhead_s,wait_s — one line per completed span.
std::string trace_csv(const Tracer& tracer);
void write_trace_csv(const Tracer& tracer, const std::string& path);

}  // namespace agcm::trace
