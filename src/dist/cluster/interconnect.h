// Bandwidth/latency-modelled cluster interconnect (docs/DISTRIBUTED.md).
//
// The simulated-cluster analogue of the DMA engine (device/dma.h): where the
// DMA engine models the host->device PCIe link of one machine, this models
// the network links between N simulated nodes — the paper's 10 GigE testbed
// shape. Like the DMA engine it really copies the payload bytes (so data
// integrity is testable under injected faults) and it charges the modelled
// cost of every message: per-message latency plus bytes over the configured
// link bandwidth, serialized on the sender's TX and the receiver's RX NIC
// occupancy. Unlike the DMA engine it advances a *virtual* clock rather than
// sleeping out wall time: a whole epoch-time-vs-cache-size sweep runs in
// seconds and its simulated timings are exactly reproducible.
//
// Messages move asynchronously (post_fetch/wait_fetch): the timing is
// modelled and the payload snapshotted at post, committed at wait — the
// completion event ClusterTrainer overlaps with training compute. Links are
// full duplex: a node's TX and RX NICs are accounted independently, so
// concurrent opposite-direction messages between two nodes take the time of
// one, not two (tests/test_cluster.cpp pins this).
//
// Fault sites (src/fault/failpoint.h, armed by the chaos suite):
//   * `dist.net.drop`    — the attempt's payload is lost on the wire; the
//     message is retried with bounded backoff (the attempt's time is still
//     charged), and NetError is thrown once retries are exhausted;
//   * `dist.net.degrade` — the attempt's effective bandwidth is divided by
//     the trigger's `arg` (>= 1), modelling link degradation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "sim/timeline.h"
#include "util/thread_annotations.h"

/// \file
/// \brief The simulated cluster interconnect: modelled message timing with
/// real payload copies, NIC occupancy serialization, and chaos fault sites.

namespace salient::dist {

/// Link/NIC model parameters for the simulated interconnect.
struct InterconnectConfig {
  /// Per-node full-duplex link bandwidth in gigabits per second (the
  /// paper's testbed interconnect is 10 GigE).
  double link_gbps = 10.0;
  /// Per-message setup latency in microseconds.
  double latency_us = 25.0;
  /// Fixed per-message framing overhead added to every payload.
  std::size_t message_overhead_bytes = 64;
  /// A dropped message (the `dist.net.drop` failpoint) is retried up to
  /// this many times before NetError.
  int max_retries = 3;
  /// Modelled backoff before retry attempt k is retry_backoff_us * 2^k.
  double retry_backoff_us = 100.0;
};

/// A message that still failed after max_retries attempts (injected via the
/// `dist.net.drop` failpoint; a real fabric would surface NIC/switch errors
/// here).
struct NetError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Handle of an in-flight asynchronous fetch (post_fetch / wait_fetch).
using FetchId = std::uint64_t;

/// Result of posting an asynchronous fetch: the handle to wait on plus the
/// message's modelled completion time on the virtual clock. The completion
/// time is known at post — the model computes the whole timing up front —
/// but the payload only becomes readable at wait_fetch, mirroring a real
/// NIC's receive buffer.
struct PostedFetch {
  FetchId id = 0;        ///< pass to wait_fetch exactly once
  double completion = 0; ///< simulated completion time (seconds)
};

/// N-node simulated network. Thread-safe; all timing state is guarded by an
/// internal mutex. Simulated times are seconds on the caller's virtual
/// clock: post_fetch() receives the message's earliest-start time and
/// returns its completion time, serializing concurrent messages on each
/// node's TX/RX NIC occupancy exactly like the DMA engine serializes its
/// copy engine.
class Interconnect {
 public:
  /// Create a fabric connecting `num_nodes` nodes.
  /// \throws std::invalid_argument when num_nodes < 1.
  explicit Interconnect(int num_nodes, InterconnectConfig config = {});

  /// Post `bytes` of `payload` from node `src` to node `dst`. The message
  /// starts no earlier than `start` (simulated seconds) and no earlier than
  /// src's TX and dst's RX NICs free up — the two directions of a link are
  /// duplex and never contend with each other — and costs latency plus
  /// framed wire time; the returned completion is its end. The payload is
  /// snapshotted at post so the caller may reuse its buffer, but it is
  /// committed into `out` (when both pointers are non-null) only at
  /// wait_fetch — the per-batch completion event the trainer overlaps
  /// sampling and training against. Retries of dropped attempts
  /// (`dist.net.drop`) happen inside the post, so a successfully posted
  /// fetch always delivers the intact payload. Counts the
  /// `dist.net.{bytes,messages,retries}` metrics and records a timeline
  /// span when a timeline is attached.
  /// \throws NetError when every attempt was dropped (the model detects
  /// undeliverability at post time because timing is precomputed).
  PostedFetch post_fetch(int src, int dst, const void* payload, void* out,
                         std::size_t bytes, double start);

  /// Complete a posted fetch: commit its payload into the destination
  /// buffer given at post_fetch and return the completion time. Consumes
  /// the handle.
  /// \throws std::invalid_argument on an unknown or already-waited handle.
  double wait_fetch(FetchId id);

  /// Number of posted fetches not yet waited on (the trainer drains to
  /// zero even when a step fails mid-overlap).
  std::int64_t pending_fetches() const;

  /// Cumulative seconds the fabric spent busy moving messages (including
  /// retried attempts and backoff) and running allreduce rings. Unlike the
  /// per-node clocks this is a sum over links, so overlapped transfers on
  /// different links each contribute their full duration.
  double busy_seconds() const;

  /// Modelled completion time of a ring allreduce over `buffer_bytes` per
  /// node starting at `start`: 2*(N-1) pipeline steps of `buffer_bytes / N`
  /// plus per-step latency. Advances every NIC to the returned time; 0-cost
  /// at N == 1.
  double allreduce_time(std::size_t buffer_bytes, double start);

  /// The fabric's configuration.
  const InterconnectConfig& config() const { return config_; }
  /// Number of connected nodes.
  int num_nodes() const { return num_nodes_; }

  /// Total payload bytes put on the wire (successful messages, overhead
  /// included; retried attempts count once).
  std::size_t bytes_on_wire() const;
  /// Total messages delivered.
  std::int64_t messages() const;
  /// Total retried attempts (dropped by the `dist.net.drop` failpoint).
  std::int64_t retries() const;

  /// Attach a timeline: every delivered message records a span on lane
  /// "net.rx<dst>" (nullptr detaches). The timeline must outlive the
  /// interconnect or the next set_timeline call.
  void set_timeline(sim::Timeline* timeline);

 private:
  /// A posted-but-not-yet-waited fetch: the payload snapshot and where to
  /// commit it.
  struct Pending {
    std::vector<unsigned char> data;
    void* out = nullptr;
    double completion = 0;
  };

  /// Seconds to move `bytes` at the (possibly degraded) link rate.
  double wire_seconds(std::size_t bytes, double degrade_factor) const;

  const InterconnectConfig config_;  // unguarded: const topology
  const int num_nodes_;              // unguarded: const topology

  mutable Mutex mu_;
  std::vector<double> tx_free_ GUARDED_BY(mu_);  ///< per-node TX NIC free time
  std::vector<double> rx_free_ GUARDED_BY(mu_);  ///< per-node RX NIC free time
  std::size_t bytes_ GUARDED_BY(mu_) = 0;
  std::int64_t messages_ GUARDED_BY(mu_) = 0;
  std::int64_t retries_ GUARDED_BY(mu_) = 0;
  double busy_seconds_ GUARDED_BY(mu_) = 0;
  FetchId next_fetch_id_ GUARDED_BY(mu_) = 1;
  std::unordered_map<FetchId, Pending> pending_ GUARDED_BY(mu_);
  sim::Timeline* timeline_ GUARDED_BY(mu_) = nullptr;
};

}  // namespace salient::dist
