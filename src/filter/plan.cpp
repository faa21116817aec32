#include "filter/plan.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>

#include "comm/packed.hpp"
#include "util/error.hpp"
#include "util/exec_local.hpp"
#include "util/shared_cache.hpp"

namespace agcm::filter {

namespace {

/// Growth-only scratch for the per-destination message-size vectors handed
/// to alltoallv_packed. Per *rank*, not per thread: the exchange blocks in
/// recv, so under the fiber backend another rank's fiber can run on this
/// worker thread mid-call — a thread_local here would let it clobber the
/// sizes while the parked exchange still reads them.
struct SizesScratch {
  std::vector<std::size_t> send;
  std::vector<std::size_t> recv;
};

SizesScratch& sizes_scratch() {
  if (util::ExecSlot* slot = util::ExecSlot::current())
    return slot->get<SizesScratch>();
  thread_local SizesScratch scratch;  // off-machine callers (tests/tools)
  return scratch;
}

/// One processor row's part of the Figure-2 schedule.
struct RowSlice {
  std::vector<LineKey> my_lines;    ///< sourced in this row, schedule order
  std::vector<LineKey> held_lines;  ///< held here after redistribution
  std::vector<int> send_lines;      ///< per destination row
  std::vector<int> recv_lines;      ///< per source row
};

/// The global redistribution schedule: every filtered line sorted by source
/// row, ties in the bank's canonical (var, j, k) order — the concatenation
/// of the rows' my_lines. A pure function of the latitude partition and the
/// bank's line list, so one build serves every rank.
struct BalancedSchedule {
  std::vector<RowSlice> rows;
  double post_balance_ratio = 1.0;
};

std::shared_ptr<const BalancedSchedule> build_schedule(
    const grid::Partition1D& lat, const std::vector<LineKey>& lines) {
  const int nrows = lat.blocks();
  const auto urows = static_cast<std::size_t>(nrows);
  auto schedule = std::make_shared<BalancedSchedule>();
  schedule->rows.resize(urows);
  for (RowSlice& row : schedule->rows) {
    row.send_lines.assign(urows, 0);
    row.recv_lines.assign(urows, 0);
  }

  // Bucketing the lines by source row, in bank order within a row, is the
  // stable sort by source row. It makes each row's lines a contiguous
  // block, so the monotone block assignment below preserves latitudinal
  // locality (Figure 2: polar rows spill into their equatorward neighbours
  // first).
  for (const LineKey& line : lines)
    schedule->rows[static_cast<std::size_t>(lat.owner(line.j))]
        .my_lines.push_back(line);

  const std::size_t total = lines.size();
  std::size_t q = 0;  // position in the global schedule
  for (std::size_t src = 0; src < urows; ++src) {
    RowSlice& source = schedule->rows[src];
    for (const LineKey& line : source.my_lines) {
      const auto dst = q * urows / total;
      ++q;
      RowSlice& dest = schedule->rows[dst];
      ++source.send_lines[dst];
      ++dest.recv_lines[src];
      dest.held_lines.push_back(line);
    }
  }

  const double ideal = static_cast<double>(total) / nrows;
  std::size_t most_held = 0;
  for (const RowSlice& row : schedule->rows)
    most_held = std::max(most_held, row.held_lines.size());
  schedule->post_balance_ratio =
      ideal > 0.0 ? static_cast<double>(most_held) / ideal : 1.0;
  return schedule;
}

/// Process-wide schedule cache ("filter.plans"). Keyed exactly by the
/// inputs of build_schedule — nlat, mesh rows and the ordered line list —
/// never by a bank's address, which clear_all can hand to a new bank. A
/// process sees a handful of distinct keys, so lookup is a linear scan.
struct PlanCache {
  struct Entry {
    int nlat;
    int rows;
    std::vector<LineKey> lines;
    std::shared_ptr<const BalancedSchedule> schedule;
  };

  std::mutex mutex;
  std::vector<Entry> entries;
  util::SharedCacheStats stats;

  static PlanCache& instance() {
    static PlanCache cache;
    return cache;
  }

 private:
  PlanCache() {
    util::SharedCaches::register_cache(
        "filter.plans",
        [] {
          PlanCache& c = instance();
          std::lock_guard<std::mutex> lock(c.mutex);
          c.entries.clear();
        },
        [] {
          PlanCache& c = instance();
          std::lock_guard<std::mutex> lock(c.mutex);
          return c.stats;
        });
  }
};

/// The shared schedule for (lat partition, lines); with util::SharedCaches
/// disabled, a fresh unshared one.
std::shared_ptr<const BalancedSchedule> shared_schedule(
    const grid::Partition1D& lat, const std::vector<LineKey>& lines) {
  if (!util::SharedCaches::enabled()) return build_schedule(lat, lines);
  PlanCache& cache = PlanCache::instance();
  // Built under the lock: the ranks of a run ask at once, and one build
  // with P-1 waiters beats P concurrent builds.
  std::lock_guard<std::mutex> lock(cache.mutex);
  for (const PlanCache::Entry& entry : cache.entries) {
    if (entry.nlat == lat.n() && entry.rows == lat.blocks() &&
        entry.lines == lines) {
      ++cache.stats.hits;
      return entry.schedule;
    }
  }
  ++cache.stats.misses;
  auto schedule = build_schedule(lat, lines);
  cache.entries.push_back({lat.n(), lat.blocks(), lines, schedule});
  return schedule;
}

}  // namespace

RowTransposePlan::RowTransposePlan(const comm::Mesh2D& mesh,
                                   const grid::Decomp2D& decomp,
                                   std::vector<LineKey> lines)
    : lines_(std::move(lines)),
      ncols_(mesh.cols()),
      mycol_(mesh.coord().col),
      nlon_(decomp.nlon()) {
  col_width_.resize(static_cast<std::size_t>(ncols_));
  col_start_.resize(static_cast<std::size_t>(ncols_));
  for (int c = 0; c < ncols_; ++c) {
    col_width_[static_cast<std::size_t>(c)] = decomp.lon_partition().size(c);
    col_start_[static_cast<std::size_t>(c)] = decomp.lon_partition().start(c);
  }
  for (std::size_t q = 0; q < lines_.size(); ++q) {
    if (owner_col(q) == mycol_) {
      owned_.push_back(q);
      owned_keys_.push_back(lines_[q]);
    }
  }
}

void RowTransposePlan::to_lines_into(const comm::Mesh2D& mesh,
                                     std::span<const double> my_chunks,
                                     std::span<double> full) const {
  const auto& row = mesh.row_comm();
  auto& clock = row.context().clock();
  const auto ni =
      static_cast<std::size_t>(col_width_[static_cast<std::size_t>(mycol_)]);
  AGCM_ASSERT(my_chunks.size() == lines_.size() * ni);
  AGCM_ASSERT(full.size() == line_elems());

  // Per-column message sizes (bytes). Round-robin ownership makes the
  // per-destination line list pure arithmetic (q = c, c+ncols, ...), so no
  // permutation tables and no staging buffer: each destination's chunks are
  // gathered straight into its pooled wire buffer. The count scratch is
  // rank-local growth-only, so the steady-state path never allocates.
  auto& [send_tl, recv_tl] = sizes_scratch();
  send_tl.resize(static_cast<std::size_t>(ncols_));
  recv_tl.resize(static_cast<std::size_t>(ncols_));
  std::size_t send_total = 0;
  for (int c = 0; c < ncols_; ++c) {
    const auto uc = static_cast<std::size_t>(c);
    send_tl[uc] = lines_to_col(c) * ni * sizeof(double);
    recv_tl[uc] = owned_.size() *
                  static_cast<std::size_t>(col_width_[uc]) * sizeof(double);
    send_total += send_tl[uc];
  }
  clock.memory_traffic(static_cast<double>(send_total));

  row.alltoallv_packed(
      send_tl, recv_tl,
      [&](int dst, comm::PackedWriter& w) {
        for (std::size_t q = static_cast<std::size_t>(dst);
             q < lines_.size(); q += static_cast<std::size_t>(ncols_)) {
          w.write<double>(my_chunks.subspan(q * ni, ni));
        }
      },
      [&](int src, comm::PackedReader& r) {
        const auto usrc = static_cast<std::size_t>(src);
        const auto w = static_cast<std::size_t>(col_width_[usrc]);
        const auto start = static_cast<std::size_t>(col_start_[usrc]);
        for (std::size_t p = 0; p < owned_.size(); ++p) {
          const auto slice = r.view<double>(w);
          std::memcpy(full.data() + p * static_cast<std::size_t>(nlon_) + start,
                      slice.data(), slice.size_bytes());
        }
      });
  clock.memory_traffic(static_cast<double>(full.size()) * sizeof(double));
}

void RowTransposePlan::to_chunks_into(const comm::Mesh2D& mesh,
                                      std::span<const double> full_lines,
                                      std::span<double> chunks) const {
  const auto& row = mesh.row_comm();
  auto& clock = row.context().clock();
  const auto ni =
      static_cast<std::size_t>(col_width_[static_cast<std::size_t>(mycol_)]);
  AGCM_ASSERT(full_lines.size() == line_elems());
  AGCM_ASSERT(chunks.size() == lines_.size() * ni);

  auto& [send_tl, recv_tl] = sizes_scratch();
  send_tl.resize(static_cast<std::size_t>(ncols_));
  recv_tl.resize(static_cast<std::size_t>(ncols_));
  std::size_t send_total = 0;
  for (int c = 0; c < ncols_; ++c) {
    const auto uc = static_cast<std::size_t>(c);
    send_tl[uc] = owned_.size() *
                  static_cast<std::size_t>(col_width_[uc]) * sizeof(double);
    recv_tl[uc] = lines_to_col(c) * ni * sizeof(double);
    send_total += send_tl[uc];
  }
  clock.memory_traffic(static_cast<double>(send_total));

  row.alltoallv_packed(
      send_tl, recv_tl,
      [&](int dst, comm::PackedWriter& w) {
        // Destination column gets its slice of every owned line.
        const auto udst = static_cast<std::size_t>(dst);
        const auto width = static_cast<std::size_t>(col_width_[udst]);
        const auto start = static_cast<std::size_t>(col_start_[udst]);
        for (std::size_t p = 0; p < owned_.size(); ++p) {
          w.write<double>(full_lines.subspan(
              p * static_cast<std::size_t>(nlon_) + start, width));
        }
      },
      [&](int src, comm::PackedReader& r) {
        // From owner column `src`: my chunks of its lines, in global line
        // order — q = src, src+ncols, ... (arithmetic, no tables).
        for (std::size_t q = static_cast<std::size_t>(src);
             q < lines_.size(); q += static_cast<std::size_t>(ncols_)) {
          const auto slice = r.view<double>(ni);
          std::memcpy(chunks.data() + q * ni, slice.data(),
                      slice.size_bytes());
        }
      });
  clock.memory_traffic(static_cast<double>(chunks.size()) * sizeof(double));
}

std::vector<double> RowTransposePlan::to_lines(
    const comm::Mesh2D& mesh, std::span<const double> my_chunks) const {
  std::vector<double> full(line_elems());
  to_lines_into(mesh, my_chunks, full);
  return full;
}

std::vector<double> RowTransposePlan::to_chunks(
    const comm::Mesh2D& mesh, std::span<const double> full_lines) const {
  std::vector<double> chunks(chunk_elems());
  to_chunks_into(mesh, full_lines, chunks);
  return chunks;
}

BalancedFilterPlan::BalancedFilterPlan(const comm::Mesh2D& mesh,
                                       const grid::Decomp2D& decomp,
                                       const FilterBank& bank) {
  const int nrows = mesh.rows();
  AGCM_ASSERT(decomp.lat_partition().blocks() == nrows);
  ni_ = decomp.box(mesh.coord()).ni;

  const auto schedule = shared_schedule(decomp.lat_partition(), bank.lines());
  const RowSlice& mine =
      schedule->rows[static_cast<std::size_t>(mesh.coord().row)];
  my_lines_ = mine.my_lines;
  held_lines_ = mine.held_lines;
  send_lines_ = mine.send_lines;
  recv_lines_ = mine.recv_lines;
  post_balance_ratio_ = schedule->post_balance_ratio;

  // Cached prefix offsets (elements) into the two chunk layouts: my_lines_
  // is grouped by destination row and held_lines_ by source row, so each
  // peer's block is a contiguous subspan — the pack/unpack closures below
  // are single memcpys.
  send_offsets_.assign(static_cast<std::size_t>(nrows) + 1, 0);
  recv_offsets_.assign(static_cast<std::size_t>(nrows) + 1, 0);
  for (int r = 0; r < nrows; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    send_offsets_[ur + 1] =
        send_offsets_[ur] +
        static_cast<std::size_t>(send_lines_[ur]) * static_cast<std::size_t>(ni_);
    recv_offsets_[ur + 1] =
        recv_offsets_[ur] +
        static_cast<std::size_t>(recv_lines_[ur]) * static_cast<std::size_t>(ni_);
  }

  row_plan_ = RowTransposePlan(mesh, decomp, held_lines_);
}

void BalancedFilterPlan::redistribute_into(const comm::Mesh2D& mesh,
                                           std::span<const double> my_chunks,
                                           std::span<double> held) const {
  const auto& col = mesh.col_comm();
  AGCM_ASSERT(my_chunks.size() == my_chunk_elems());
  AGCM_ASSERT(held.size() == held_chunk_elems());
  const auto nrows = send_lines_.size();
  auto& [send_tl, recv_tl] = sizes_scratch();
  send_tl.resize(nrows);
  recv_tl.resize(nrows);
  for (std::size_t r = 0; r < nrows; ++r) {
    send_tl[r] = (send_offsets_[r + 1] - send_offsets_[r]) * sizeof(double);
    recv_tl[r] = (recv_offsets_[r + 1] - recv_offsets_[r]) * sizeof(double);
  }
  // my_lines_ is ordered by global q, and dest rows are monotone in q, so
  // the chunk buffer is already grouped by destination: no permutation.
  col.alltoallv_packed(
      send_tl, recv_tl,
      [&](int dst, comm::PackedWriter& w) {
        const auto ud = static_cast<std::size_t>(dst);
        w.write<double>(my_chunks.subspan(
            send_offsets_[ud], send_offsets_[ud + 1] - send_offsets_[ud]));
      },
      [&](int src, comm::PackedReader& r) {
        const auto us = static_cast<std::size_t>(src);
        const auto n = recv_offsets_[us + 1] - recv_offsets_[us];
        r.read<double>(held.subspan(recv_offsets_[us], n));
      });
}

void BalancedFilterPlan::restore_into(const comm::Mesh2D& mesh,
                                      std::span<const double> held_chunks,
                                      std::span<double> mine) const {
  const auto& col = mesh.col_comm();
  AGCM_ASSERT(held_chunks.size() == held_chunk_elems());
  AGCM_ASSERT(mine.size() == my_chunk_elems());
  const auto nrows = send_lines_.size();
  auto& [send_tl, recv_tl] = sizes_scratch();
  send_tl.resize(nrows);
  recv_tl.resize(nrows);
  for (std::size_t r = 0; r < nrows; ++r) {
    send_tl[r] = (recv_offsets_[r + 1] - recv_offsets_[r]) * sizeof(double);
    recv_tl[r] = (send_offsets_[r + 1] - send_offsets_[r]) * sizeof(double);
  }
  col.alltoallv_packed(
      send_tl, recv_tl,
      [&](int dst, comm::PackedWriter& w) {
        const auto ud = static_cast<std::size_t>(dst);
        w.write<double>(held_chunks.subspan(
            recv_offsets_[ud], recv_offsets_[ud + 1] - recv_offsets_[ud]));
      },
      [&](int src, comm::PackedReader& r) {
        const auto us = static_cast<std::size_t>(src);
        const auto n = send_offsets_[us + 1] - send_offsets_[us];
        r.read<double>(mine.subspan(send_offsets_[us], n));
      });
}

std::vector<double> BalancedFilterPlan::redistribute(
    const comm::Mesh2D& mesh, std::span<const double> my_chunks) const {
  std::vector<double> held(held_chunk_elems());
  redistribute_into(mesh, my_chunks, held);
  return held;
}

std::vector<double> BalancedFilterPlan::restore(
    const comm::Mesh2D& mesh, std::span<const double> held_chunks) const {
  std::vector<double> mine(my_chunk_elems());
  restore_into(mesh, held_chunks, mine);
  return mine;
}

}  // namespace agcm::filter
