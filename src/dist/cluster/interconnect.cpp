#include "dist/cluster/interconnect.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "fault/failpoint.h"
#include "obs/metrics.h"

namespace salient::dist {

Interconnect::Interconnect(int num_nodes, InterconnectConfig config)
    : config_(config), num_nodes_(num_nodes) {
  if (num_nodes < 1) {
    throw std::invalid_argument("interconnect: num_nodes must be >= 1");
  }
  if (config_.link_gbps <= 0) {
    throw std::invalid_argument("interconnect: link_gbps must be > 0");
  }
  LockGuard lock(mu_);
  tx_free_.assign(static_cast<std::size_t>(num_nodes), 0.0);
  rx_free_.assign(static_cast<std::size_t>(num_nodes), 0.0);
}

double Interconnect::wire_seconds(std::size_t bytes,
                                  double degrade_factor) const {
  const double gbps = config_.link_gbps / std::max(1.0, degrade_factor);
  return static_cast<double>(bytes) * 8.0 / (gbps * 1e9);
}

PostedFetch Interconnect::post_fetch(int src, int dst, const void* payload,
                                     void* out, std::size_t bytes,
                                     double start) {
  if (src < 0 || src >= num_nodes_ || dst < 0 || dst >= num_nodes_) {
    throw std::invalid_argument("interconnect: node out of range");
  }
  auto& reg = obs::Registry::global();
  static obs::Counter& m_bytes = reg.counter("dist.net.bytes");
  static obs::Counter& m_messages = reg.counter("dist.net.messages");
  static obs::Counter& m_retries = reg.counter("dist.net.retries");

  LockGuard lock(mu_);
  const std::size_t framed = bytes + config_.message_overhead_bytes;
  // Duplex occupancy: the message holds src's TX and dst's RX for its whole
  // duration, but leaves src's RX and dst's TX free — opposite-direction
  // messages between the same pair overlap.
  double begin = std::max({start, tx_free_[static_cast<std::size_t>(src)],
                           rx_free_[static_cast<std::size_t>(dst)]});
  double clock = begin;
  const int attempts = 1 + std::max(0, config_.max_retries);
  bool delivered = false;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    // Link degradation: the armed trigger's arg divides the bandwidth for
    // this attempt (e.g. arg 4 => quarter rate).
    double degrade = 1.0;
    if (SALIENT_FAILPOINT("dist.net.degrade")) {
      degrade = std::max(
          1.0,
          fault::Registry::global().failpoint("dist.net.degrade").arg());
    }
    clock += config_.latency_us * 1e-6 + wire_seconds(framed, degrade);
    if (SALIENT_FAILPOINT("dist.net.drop")) {
      // The attempt's wire time is already charged; pay the backoff and
      // retry. The payload is only committed on a successful attempt, so a
      // drop can never leave torn bytes at the receiver.
      ++retries_;
      m_retries.add();
      clock += config_.retry_backoff_us * 1e-6 * static_cast<double>(1 << attempt);
      continue;
    }
    delivered = true;
    break;
  }
  if (!delivered) {
    busy_seconds_ += clock - begin;  // the failed attempts still burned wire
    throw NetError("interconnect: message " + std::to_string(src) + "->" +
                   std::to_string(dst) + " dropped after " +
                   std::to_string(attempts) + " attempts");
  }
  tx_free_[static_cast<std::size_t>(src)] = clock;
  rx_free_[static_cast<std::size_t>(dst)] = clock;
  bytes_ += framed;
  ++messages_;
  busy_seconds_ += clock - begin;
  m_bytes.add(static_cast<std::int64_t>(framed));
  m_messages.add();
  if (timeline_ != nullptr) {
    timeline_->add("net.rx" + std::to_string(dst),
                   "msg" + std::to_string(src), -1, begin, clock);
  }

  Pending p;
  p.out = out;
  p.completion = clock;
  if (payload != nullptr && out != nullptr && bytes > 0) {
    // Snapshot now so the caller may reuse its staging buffer; the receiver
    // sees the bytes only at wait_fetch, like a NIC receive ring.
    const auto* first = static_cast<const unsigned char*>(payload);
    p.data.assign(first, first + bytes);
  }
  const FetchId id = next_fetch_id_++;
  pending_.emplace(id, std::move(p));
  return {id, clock};
}

double Interconnect::wait_fetch(FetchId id) {
  LockGuard lock(mu_);
  const auto it = pending_.find(id);
  if (it == pending_.end()) {
    throw std::invalid_argument("interconnect: unknown fetch handle " +
                                std::to_string(id));
  }
  Pending p = std::move(it->second);
  pending_.erase(it);
  if (!p.data.empty()) {
    std::memcpy(p.out, p.data.data(), p.data.size());
  }
  return p.completion;
}

std::int64_t Interconnect::pending_fetches() const {
  LockGuard lock(mu_);
  return static_cast<std::int64_t>(pending_.size());
}

double Interconnect::busy_seconds() const {
  LockGuard lock(mu_);
  return busy_seconds_;
}

double Interconnect::allreduce_time(std::size_t buffer_bytes, double start) {
  LockGuard lock(mu_);
  double begin = start;
  for (std::size_t p = 0; p < tx_free_.size(); ++p) {
    begin = std::max({begin, tx_free_[p], rx_free_[p]});
  }
  if (num_nodes_ < 2) return begin;
  // Classic two-phase ring: 2*(N-1) steps, each moving buffer/N per node
  // with every link busy simultaneously (dist/allreduce.h runs the real
  // data movement; this charges its modelled wall cost).
  const auto chunk = static_cast<std::size_t>(
      static_cast<double>(buffer_bytes) / static_cast<double>(num_nodes_));
  const double per_step = config_.latency_us * 1e-6 +
                          wire_seconds(chunk + config_.message_overhead_bytes,
                                       1.0);
  const double end =
      begin + 2.0 * static_cast<double>(num_nodes_ - 1) * per_step;
  for (std::size_t p = 0; p < tx_free_.size(); ++p) {
    tx_free_[p] = end;
    rx_free_[p] = end;
  }
  busy_seconds_ += end - begin;
  if (timeline_ != nullptr) {
    timeline_->add("net.allreduce", "ring", -1, begin, end);
  }
  return end;
}

std::size_t Interconnect::bytes_on_wire() const {
  LockGuard lock(mu_);
  return bytes_;
}

std::int64_t Interconnect::messages() const {
  LockGuard lock(mu_);
  return messages_;
}

std::int64_t Interconnect::retries() const {
  LockGuard lock(mu_);
  return retries_;
}

void Interconnect::set_timeline(sim::Timeline* timeline) {
  LockGuard lock(mu_);
  timeline_ = timeline;
}

}  // namespace salient::dist
