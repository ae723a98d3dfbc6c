// durability::Checkpointer — periodic full-state snapshots of a
// pram::MemorySystem, written through the scheme-agnostic
// snapshot()/restore() surface so every SchemeKind (and every wrapper
// stack: faults over cache over scheme) checkpoints unmodified.
//
// Checkpoint file layout (host-endian, machine-local):
//
//   u32 magic 'PCKP', u32 version, u64 step, u64 payload_len,
//   payload (the MemorySystem snapshot frame), u32 crc32(payload)
//
// Files are named `ckpt-<step>.bin` in the configured directory; the
// newest `keep` checkpoints are retained. latest() returns the newest
// file that VALIDATES end to end (header, length, CRC), so a checkpoint
// torn mid-write falls back to its predecessor — the crash matrix's
// kMidCheckpoint case.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "pram/memory_system.hpp"

namespace pramsim::durability {

struct CheckpointConfig {
  std::string directory;
  std::uint32_t keep = 2;  ///< retained checkpoint files (>= 1)
};

class Checkpointer {
 public:
  explicit Checkpointer(CheckpointConfig config, obs::Sink* sink = nullptr);

  /// Serialize `memory` as of committed step `step` and write it
  /// (fwrite + fflush, durable against process death; no fsync), then
  /// prune to the retention bound. Journals
  /// kCheckpointBegin/kCheckpointEnd and bumps checkpoint.* counters.
  /// Returns the serialized byte count.
  std::uint64_t write(pram::MemorySystem& memory, std::uint64_t step);

  [[nodiscard]] std::uint64_t checkpoints_written() const {
    return written_;
  }
  [[nodiscard]] std::uint64_t last_step() const { return last_step_; }
  [[nodiscard]] std::uint64_t last_bytes() const { return last_bytes_; }

  /// The complete on-disk image (header + payload + CRC) for `memory`
  /// at `step` — the crash matrix writes torn PREFIXES of this image to
  /// simulate a checkpoint interrupted mid-write.
  [[nodiscard]] static std::vector<std::uint8_t> file_image(
      pram::MemorySystem& memory, std::uint64_t step);

  [[nodiscard]] static std::string path_for(const std::string& directory,
                                            std::uint64_t step);

  struct Found {
    std::string path;
    std::uint64_t step = 0;
  };
  /// Newest checkpoint in `directory` that validates end to end; a torn
  /// or corrupt newest file falls back to the next-newest valid one.
  [[nodiscard]] static std::optional<Found> latest(
      const std::string& directory);

  /// Validate `path` and restore its payload into `memory` (freshly
  /// constructed, same configuration). False on any validation or
  /// restore failure; `memory` may be partially written then and must
  /// be discarded.
  [[nodiscard]] static bool load(const std::string& path,
                                 pram::MemorySystem& memory);

 private:
  CheckpointConfig config_;
  obs::Sink* obs_ = nullptr;
  std::uint64_t written_ = 0;
  std::uint64_t last_step_ = 0;
  std::uint64_t last_bytes_ = 0;
};

}  // namespace pramsim::durability
