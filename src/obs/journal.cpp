#include "obs/journal.hpp"

#include <algorithm>
#include <tuple>

namespace pramsim::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kFaultOnset: return "fault_onset";
    case EventKind::kDegradedVote: return "degraded_vote";
    case EventKind::kDegradedDecode: return "degraded_decode";
    case EventKind::kChecksumReject: return "checksum_reject";
    case EventKind::kUncorrectable: return "uncorrectable";
    case EventKind::kRelocation: return "relocation";
    case EventKind::kScrubRepair: return "scrub_repair";
    case EventKind::kWrongRead: return "wrong_read";
    case EventKind::kRehash: return "rehash";
    case EventKind::kCacheInvalidateDead: return "cache_invalidate_dead";
    case EventKind::kCacheInvalidateScrub: return "cache_invalidate_scrub";
    case EventKind::kCheckpointBegin: return "checkpoint_begin";
    case EventKind::kCheckpointEnd: return "checkpoint_end";
    case EventKind::kWalReplay: return "wal_replay";
  }
  return "unknown";
}

namespace {

/// The canonical within-step order: makes the journal independent of
/// append order.
bool canonical_less(const Event& x, const Event& y) {
  return std::tie(x.kind, x.entity, x.unit, x.a, x.b) <
         std::tie(y.kind, y.entity, y.unit, y.a, y.b);
}

}  // namespace

Journal::Journal(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

void Journal::append(const Event& event) {
  if (!pending_.empty() && event.step != pending_step_) {
    commit_pending();
  }
  pending_step_ = event.step;
  pending_.push_back(event);
  ++recorded_;
}

void Journal::commit_pending() {
  std::sort(pending_.begin(), pending_.end(), canonical_less);
  ring_.insert(ring_.end(), pending_.begin(), pending_.end());
  pending_.clear();
  // Amortized bound: evict in batches once the vector doubles past
  // capacity. Intermediate evictions only drop events the final trim
  // would drop anyway, so the flushed content is exactly the last
  // `capacity_` events of the full stream.
  if (ring_.size() > 2 * capacity_) {
    trim(capacity_);
  }
}

void Journal::trim(std::size_t keep) {
  if (ring_.size() <= keep) {
    return;
  }
  const std::size_t evict = ring_.size() - keep;
  ring_.erase(ring_.begin(),
              ring_.begin() + static_cast<std::ptrdiff_t>(evict));
  dropped_ += evict;
}

void Journal::flush() {
  if (!pending_.empty()) {
    commit_pending();
  }
  trim(capacity_);
}

void Journal::merge(const Journal& other) {
  flush();
  ring_.insert(ring_.end(), other.ring_.begin(), other.ring_.end());
  if (!other.pending_.empty()) {
    std::vector<Event> tail = other.pending_;
    std::sort(tail.begin(), tail.end(), canonical_less);
    ring_.insert(ring_.end(), tail.begin(), tail.end());
  }
  recorded_ += other.recorded_;
  dropped_ += other.dropped_;
  trim(capacity_);
}

void Journal::clear() {
  ring_.clear();
  pending_.clear();
  pending_step_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

}  // namespace pramsim::obs
