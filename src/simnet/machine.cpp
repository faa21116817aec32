#include "simnet/machine.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "simnet/fiber.hpp"
#include "util/error.hpp"

namespace agcm::simnet {

void RankContext::send_bytes(int dst, std::int64_t tag,
                             std::span<const std::byte> bytes) {
  Buffer payload = acquire_buffer(bytes.size());
  if (!bytes.empty()) {
    std::memcpy(payload.data(), bytes.data(), bytes.size());
  }
  send_bytes(dst, tag, std::move(payload));
}

void RankContext::send_bytes(int dst, std::int64_t tag, Buffer&& payload) {
  if (dst < 0 || dst >= nranks()) {
    throw CommError("send to invalid rank " + std::to_string(dst));
  }
  clock_.charge_send_overhead();
  Packet packet;
  packet.payload = std::move(payload);
  packet.depart_time = clock_.now();
  packet.src = rank_;
  packet.tag = tag;
  network_->count_message(packet.payload.size());
  network_->mailbox(dst).push(std::move(packet));
}

Buffer RankContext::recv_bytes(int src, std::int64_t tag) {
  if (src < 0 || src >= nranks()) {
    throw CommError("recv from invalid rank " + std::to_string(src));
  }
  Packet packet = network_->mailbox(rank_).pop(src, tag);
  const double arrival =
      packet.depart_time +
      clock_.profile().transfer_time(static_cast<double>(packet.payload.size()));
  clock_.apply_arrival(arrival);
  return std::move(packet.payload);
}

double RunResult::makespan() const {
  if (finish_times.empty()) return 0.0;
  return *std::max_element(finish_times.begin(), finish_times.end());
}

RunResult Machine::run(int nranks,
                       const std::function<void(RankContext&)>& program) {
  check_config(nranks > 0, "Machine::run requires nranks > 0");
  Network network(nranks);

  std::vector<std::unique_ptr<RankContext>> contexts;
  contexts.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    contexts.push_back(std::make_unique<RankContext>(r, network, profile_));
  }

  FiberSchedulerOptions options;
  options.workers = workers_;
  run_fibers(
      nranks,
      [&](int r) { program(*contexts[static_cast<std::size_t>(r)]); },
      options);

  return collect(nranks, network, contexts);
}

RunResult Machine::collect(
    int nranks, Network& network,
    const std::vector<std::unique_ptr<RankContext>>& contexts) {
  RunResult result;
  result.finish_times.reserve(static_cast<std::size_t>(nranks));
  result.breakdowns.reserve(static_cast<std::size_t>(nranks));
  for (const auto& ctx : contexts) {
    result.finish_times.push_back(ctx->clock().now());
    result.breakdowns.push_back(ctx->clock().breakdown());
  }
  result.total_messages = network.total_messages();
  result.total_bytes = network.total_bytes();
  return result;
}

}  // namespace agcm::simnet
