// The frontier engine: sparse/dense frontier representations and the
// Beamer-style direction policy that picks between them per round
// (ROADMAP item 3; the PaperWasp hybrid_bfs/bitmap/sliding_queue
// pattern adapted to the AMPC cost model).
//
// A frontier-shaped core advances a set of active vertices each
// adaptive round. Two representations:
//
//  - *Sparse* (SlidingQueue): the active vertices as an explicit work
//    list. The round costs per-vertex remote lookups through the
//    batched/pipelined read path — cheap when the frontier is small,
//    latency-bound when it covers most of the graph.
//  - *Dense* (common/bitmap.h AtomicBitmap): one bit per vertex. The
//    round broadcasts the bitmap to every machine and each machine
//    sweeps its *local* shard against it (sim::Cluster::RunPullPhase),
//    replacing per-vertex round trips with one broadcast plus one
//    aggregate exchange — cheap when the frontier is large.
//
// FrontierPolicy implements the switch: go dense when the frontier's
// out-edges exceed total_edges / alpha, back to sparse when the
// frontier shrinks below num_vertices / beta. The two thresholds plus
// the sticky current state give hysteresis — sizes inside the band
// keep the previous representation, so a frontier hovering near one
// threshold never flaps. Decisions are a pure function of the
// (size, edges) sequence, preserving the determinism contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ampc {

/// Which frontier representation a cluster's frontier-shaped phases
/// use. kSparse always pushes the active work list through the lookup
/// client; kDense forces every frontier phase through the pull model;
/// kHybrid lets FrontierPolicy choose per round. Outputs are identical
/// in every mode; only the charged cost differs.
enum class FrontierMode {
  kSparse,
  kDense,
  kHybrid,
};

/// "sparse" / "dense" / "hybrid" — stable names used by the CLI flags
/// and bench JSON.
const char* FrontierModeName(FrontierMode mode);

/// Parses a FrontierModeName back; returns false (mode untouched) on
/// an unknown name.
bool ParseFrontierMode(const std::string& name, FrontierMode* mode);

/// The sparse frontier: a queue with an explicit window. Producers
/// Push next-round vertices behind the window while consumers read the
/// current window; SlideWindow drops the consumed window and promotes
/// everything pushed since the last slide into the new one, so the queue
/// holds at most two rounds' vertices. Single-threaded by design — cores
/// collect per-chunk discoveries deterministically and push them in
/// chunk order, so the window's element order is schedule-independent.
class SlidingQueue {
 public:
  SlidingQueue() = default;
  explicit SlidingQueue(int64_t capacity_hint) {
    items_.reserve(static_cast<size_t>(capacity_hint));
  }

  /// Appends `v` to the *next* window (not visible until SlideWindow).
  void Push(int64_t v) {
    items_.push_back(v);
    ++total_pushed_;
  }

  /// Drops the current window and promotes everything pushed since the
  /// previous slide into the new current window.
  void SlideWindow() {
    items_.erase(items_.begin(),
                 items_.begin() + static_cast<std::ptrdiff_t>(window_end_));
    window_end_ = items_.size();
  }

  /// The current window — the frontier a round consumes.
  std::span<const int64_t> Window() const {
    return std::span<const int64_t>(items_.data(), window_end_);
  }

  int64_t WindowSize() const { return static_cast<int64_t>(window_end_); }
  bool WindowEmpty() const { return window_end_ == 0; }

  /// Items pushed since the last slide (the next window's size so far).
  int64_t PendingSize() const {
    return static_cast<int64_t>(items_.size() - window_end_);
  }

  /// Total items ever pushed (all windows).
  int64_t TotalPushed() const { return total_pushed_; }

  void Reset() {
    items_.clear();
    window_end_ = 0;
    total_pushed_ = 0;
  }

 private:
  // The current window, items_[0, window_end_), then the next one.
  std::vector<int64_t> items_;
  size_t window_end_ = 0;
  int64_t total_pushed_ = 0;
};

/// Per-phase direction selector. Construct once per frontier-shaped
/// phase (so the sticky state carries across that phase's rounds) with
/// the graph's vertex and directed-edge totals, then ask UseDense once
/// per round with the current frontier's size and out-edge count.
class FrontierPolicy {
 public:
  /// Beamer's growing-frontier threshold: dense when
  /// frontier_edges > total_edges / alpha.
  static constexpr double kDefaultAlpha = 15.0;
  /// Beamer's shrinking-frontier threshold: back to sparse when
  /// frontier_size < num_vertices / beta.
  static constexpr double kDefaultBeta = 18.0;

  FrontierPolicy(FrontierMode mode, double alpha, double beta,
                 int64_t num_vertices, int64_t total_edges)
      : mode_(mode),
        alpha_(alpha > 0 ? alpha : kDefaultAlpha),
        beta_(beta > 0 ? beta : kDefaultBeta),
        num_vertices_(num_vertices),
        total_edges_(total_edges),
        dense_(mode == FrontierMode::kDense) {}

  /// Picks this round's representation and updates the sticky state.
  bool UseDense(int64_t frontier_size, int64_t frontier_edges);

  /// The representation the last UseDense call chose.
  bool dense() const { return dense_; }

  FrontierMode mode() const { return mode_; }

 private:
  FrontierMode mode_;
  double alpha_;
  double beta_;
  int64_t num_vertices_;
  int64_t total_edges_;
  bool dense_;
};

}  // namespace ampc
