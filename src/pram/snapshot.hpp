// Snapshot byte-stream abstractions for the durability layer.
//
// MemorySystem::snapshot/restore serialize an engine's committed state
// through these two minimal interfaces so the durability subsystem
// (src/durability: checkpoint files, recovery) and tests (in-memory
// round trips) share one serialization path. Streams are raw
// host-endian bytes: snapshots are consumed by the same build that
// produced them (a checkpoint is machine-local recovery state, not an
// interchange format), and the checkpoint file frame carries a CRC so a
// torn or corrupted snapshot is detected before restore ever runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "pram/types.hpp"

namespace pramsim::pram {

/// Byte-stream target a snapshot serializes into (a memory buffer, a
/// checkpoint file writer, ...). write() must accept every byte handed
/// to it; durability failures surface at the file layer, not here.
class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;
  virtual void write(const void* data, std::size_t size) = 0;
};

/// Byte-stream source a snapshot restores from. read() fills exactly
/// `size` bytes and returns false on a short read (truncated snapshot),
/// which aborts the restore.
class SnapshotSource {
 public:
  virtual ~SnapshotSource() = default;
  [[nodiscard]] virtual bool read(void* data, std::size_t size) = 0;
};

/// In-memory sink: accumulates the snapshot bytes after an optional
/// prefix (the checkpoint writer passes its reserved frame header, so
/// the payload is serialized straight into the file image).
class BufferSink final : public SnapshotSink {
 public:
  BufferSink() = default;
  explicit BufferSink(std::vector<std::uint8_t> prefix)
      : bytes_(std::move(prefix)) {}

  void write(const void* data, std::size_t size) override {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), bytes, bytes + size);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// In-memory source over a borrowed byte span (must outlive the source).
class BufferSource final : public SnapshotSource {
 public:
  explicit BufferSource(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  [[nodiscard]] bool read(void* data, std::size_t size) override {
    if (size > bytes_.size() - offset_) {
      return false;
    }
    std::memcpy(data, bytes_.data() + offset_, size);
    offset_ += size;
    return true;
  }

  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] bool exhausted() const { return offset_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

// ----- fixed-width field helpers (host-endian, memcpy-safe) ---------------

inline void put_u32(SnapshotSink& sink, std::uint32_t v) {
  sink.write(&v, sizeof(v));
}
inline void put_u64(SnapshotSink& sink, std::uint64_t v) {
  sink.write(&v, sizeof(v));
}
inline void put_word(SnapshotSink& sink, Word v) { sink.write(&v, sizeof(v)); }

[[nodiscard]] inline bool get_u32(SnapshotSource& source, std::uint32_t& v) {
  return source.read(&v, sizeof(v));
}
[[nodiscard]] inline bool get_u64(SnapshotSource& source, std::uint64_t& v) {
  return source.read(&v, sizeof(v));
}
[[nodiscard]] inline bool get_word(SnapshotSource& source, Word& v) {
  return source.read(&v, sizeof(v));
}

}  // namespace pramsim::pram
