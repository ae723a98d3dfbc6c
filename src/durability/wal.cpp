#include "durability/wal.hpp"

#include <algorithm>
#include <cstring>

#include "durability/crc32.hpp"
#include "util/assert.hpp"

namespace pramsim::durability {

namespace {

constexpr std::size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc

void put_bytes(std::vector<std::uint8_t>& out, const void* data,
               std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), bytes, bytes + size);
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t value) {
  out.push_back(value);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  put_bytes(out, &value, sizeof(value));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  put_bytes(out, &value, sizeof(value));
}

void put_word(std::vector<std::uint8_t>& out, pram::Word value) {
  put_bytes(out, &value, sizeof(value));
}

/// Cursor over a decoded payload; every read is bounds-checked so a
/// CRC-valid but semantically short payload rejects instead of reading
/// past the end.
struct PayloadReader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t offset = 0;

  bool read(void* out, std::size_t n) {
    if (size - offset < n) {
      return false;
    }
    std::memcpy(out, data + offset, n);
    offset += n;
    return true;
  }
};

}  // namespace

const char* to_string(WalRecordKind kind) {
  switch (kind) {
    case WalRecordKind::kStepCommit:
      return "step_commit";
    case WalRecordKind::kScrubRelocation:
      return "scrub_relocation";
    case WalRecordKind::kFaultOnset:
      return "fault_onset";
  }
  return "unknown";
}

Wal::Wal(WalConfig config, obs::Sink* sink)
    : config_(std::move(config)), obs_(sink) {
  PRAMSIM_ASSERT(config_.flush_interval >= 1);
  file_ = std::fopen(config_.path.c_str(), "wb");
  PRAMSIM_ASSERT(file_ != nullptr);
}

Wal::~Wal() {
  if (file_ != nullptr) {
    std::fclose(file_);  // buffered tail intentionally lost (crash model)
  }
}

void Wal::frame_record(std::uint64_t step,
                       std::span<const std::uint8_t> payload) {
  const std::uint32_t length =
      static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  last_record_.offset = file_bytes_ + buffer_.size();
  last_record_.length = kFrameHeaderBytes + payload.size();
  put_u32(buffer_, length);
  put_u32(buffer_, crc);
  put_bytes(buffer_, payload.data(), payload.size());
  ++appended_records_;
  newest_step_ = std::max(newest_step_, step);
  if (obs_ != nullptr) {
    obs_->metrics.add("wal.records");
  }
}

void Wal::append_step(std::uint64_t step,
                      std::span<const pram::VarWrite> writes) {
  payload_.clear();
  put_u8(payload_, static_cast<std::uint8_t>(WalRecordKind::kStepCommit));
  put_u64(payload_, step);
  put_u32(payload_, static_cast<std::uint32_t>(writes.size()));
  for (const auto& write : writes) {
    put_u64(payload_, write.var.index());
    put_word(payload_, write.value);
  }
  frame_record(step, payload_);
  buffered_commit_step_ = step;
}

void Wal::append_relocation(std::uint64_t step, std::uint64_t relocated) {
  payload_.clear();
  put_u8(payload_,
         static_cast<std::uint8_t>(WalRecordKind::kScrubRelocation));
  put_u64(payload_, step);
  put_u64(payload_, relocated);
  frame_record(step, payload_);
}

void Wal::append_onset(std::uint64_t step, std::uint32_t module) {
  payload_.clear();
  put_u8(payload_, static_cast<std::uint8_t>(WalRecordKind::kFaultOnset));
  put_u64(payload_, step);
  put_u32(payload_, module);
  frame_record(step, payload_);
}

void Wal::maybe_flush(std::uint64_t step) {
  if (step % config_.flush_interval == 0) {
    flush();
  }
}

void Wal::flush() {
  if (buffer_.empty()) {
    return;
  }
  const std::size_t written =
      std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  PRAMSIM_ASSERT(written == buffer_.size());
  PRAMSIM_ASSERT(std::fflush(file_) == 0);
  file_bytes_ += buffer_.size();
  if (obs_ != nullptr) {
    obs_->metrics.add("wal.flushes");
    obs_->metrics.add("wal.flushed_bytes", buffer_.size());
  }
  buffer_.clear();
  durable_step_ = buffered_commit_step_;
}

void Wal::truncate_through(std::uint64_t through_step) {
  flush();
  std::fclose(file_);
  file_ = nullptr;
  if (newest_step_ <= through_step) {
    // Nothing survives (the driver checkpoints at the step it flushed
    // through): reopening empty loses no record, so skip the read-back.
    file_ = std::fopen(config_.path.c_str(), "wb");
    PRAMSIM_ASSERT(file_ != nullptr);
    file_bytes_ = 0;
    if (obs_ != nullptr) {
      obs_->metrics.add("wal.truncations");
    }
    return;
  }
  const WalReadResult old = read_wal(config_.path);
  file_ = std::fopen(config_.path.c_str(), "wb");
  PRAMSIM_ASSERT(file_ != nullptr);
  file_bytes_ = 0;
  // Re-frame the surviving tail. last_record_ tracking restarts with the
  // re-framed records; durable_step_ is unchanged (the checkpoint now
  // covers the dropped prefix).
  for (const WalRecord& record : old.records) {
    if (record.step <= through_step) {
      continue;
    }
    payload_.clear();
    put_u8(payload_, static_cast<std::uint8_t>(record.kind));
    put_u64(payload_, record.step);
    switch (record.kind) {
      case WalRecordKind::kStepCommit:
        put_u32(payload_,
                static_cast<std::uint32_t>(record.writes.size()));
        for (const auto& write : record.writes) {
          put_u64(payload_, write.var.index());
          put_word(payload_, write.value);
        }
        break;
      case WalRecordKind::kScrubRelocation:
        put_u64(payload_, record.relocated);
        break;
      case WalRecordKind::kFaultOnset:
        put_u32(payload_, record.module);
        break;
    }
    --appended_records_;  // frame_record re-counts the re-framed record
    frame_record(record.step, payload_);
  }
  const std::size_t written =
      std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  PRAMSIM_ASSERT(written == buffer_.size());
  PRAMSIM_ASSERT(std::fflush(file_) == 0);
  file_bytes_ = buffer_.size();
  buffer_.clear();
  if (obs_ != nullptr) {
    obs_->metrics.add("wal.truncations");
  }
}

WalReadResult read_wal(const std::string& path) {
  WalReadResult result;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return result;  // no log yet: empty, untorn
  }
  std::vector<std::uint8_t> bytes;
  {
    std::uint8_t chunk[4096];
    std::size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
      bytes.insert(bytes.end(), chunk, chunk + got);
    }
  }
  std::fclose(file);

  std::size_t offset = 0;
  while (true) {
    if (bytes.size() - offset < kFrameHeaderBytes) {
      result.torn_tail = offset < bytes.size();
      break;
    }
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
    std::memcpy(&length, bytes.data() + offset, sizeof(length));
    std::memcpy(&crc, bytes.data() + offset + sizeof(length), sizeof(crc));
    if (bytes.size() - offset - kFrameHeaderBytes < length) {
      result.torn_tail = true;
      break;
    }
    const std::uint8_t* body = bytes.data() + offset + kFrameHeaderBytes;
    if (crc32(body, length) != crc) {
      result.torn_tail = true;
      break;
    }
    PayloadReader reader{body, length};
    WalRecord record;
    std::uint8_t kind = 0;
    if (!reader.read(&kind, sizeof(kind)) ||
        !reader.read(&record.step, sizeof(record.step))) {
      result.torn_tail = true;
      break;
    }
    bool ok = true;
    switch (static_cast<WalRecordKind>(kind)) {
      case WalRecordKind::kStepCommit: {
        record.kind = WalRecordKind::kStepCommit;
        std::uint32_t count = 0;
        ok = reader.read(&count, sizeof(count));
        if (ok) {
          record.writes.reserve(count);
          for (std::uint32_t i = 0; ok && i < count; ++i) {
            std::uint64_t var = 0;
            pram::Word value = 0;
            ok = reader.read(&var, sizeof(var)) &&
                 reader.read(&value, sizeof(value));
            if (ok) {
              record.writes.push_back(
                  {VarId(static_cast<std::uint32_t>(var)), value});
            }
          }
        }
        break;
      }
      case WalRecordKind::kScrubRelocation:
        record.kind = WalRecordKind::kScrubRelocation;
        ok = reader.read(&record.relocated, sizeof(record.relocated));
        break;
      case WalRecordKind::kFaultOnset:
        record.kind = WalRecordKind::kFaultOnset;
        ok = reader.read(&record.module, sizeof(record.module));
        break;
      default:
        ok = false;  // unknown kind: treat as corruption, stop here
        break;
    }
    if (!ok) {
      result.torn_tail = true;
      break;
    }
    offset += kFrameHeaderBytes + length;
    result.valid_bytes = offset;
    if (record.kind == WalRecordKind::kStepCommit) {
      result.durable_step = record.step;
    }
    result.records.push_back(std::move(record));
  }
  return result;
}

}  // namespace pramsim::durability
