#include "durability/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <string_view>
#include <system_error>
#include <utility>

#include "durability/crc32.hpp"
#include "pram/snapshot.hpp"
#include "util/assert.hpp"

namespace pramsim::durability {

namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kCheckpointMagic = 0x50434B50u;  // 'PCKP'
constexpr std::uint32_t kCheckpointVersion = 1;
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;  // magic,ver,step,len
constexpr std::size_t kTrailerBytes = 4;             // crc32(payload)

template <typename T>
void put_field(std::vector<std::uint8_t>& image, std::size_t offset,
               T value) {
  std::memcpy(image.data() + offset, &value, sizeof(value));
}

/// The whole file in one read (empty if it cannot be opened).
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return bytes;
  }
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (!ec) {
    bytes.resize(size);
    bytes.resize(std::fread(bytes.data(), 1, bytes.size(), file));
  }
  std::fclose(file);
  return bytes;
}

/// Validate a checkpoint image end to end; on success returns the
/// payload span (borrowing `bytes`) and fills `step`.
[[nodiscard]] bool validate_image(std::span<const std::uint8_t> bytes,
                                  std::uint64_t& step,
                                  std::span<const std::uint8_t>& payload) {
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    return false;
  }
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t payload_len = 0;
  std::size_t offset = 0;
  std::memcpy(&magic, bytes.data() + offset, 4);
  offset += 4;
  std::memcpy(&version, bytes.data() + offset, 4);
  offset += 4;
  std::memcpy(&step, bytes.data() + offset, 8);
  offset += 8;
  std::memcpy(&payload_len, bytes.data() + offset, 8);
  offset += 8;
  if (magic != kCheckpointMagic || version != kCheckpointVersion) {
    return false;
  }
  if (bytes.size() - offset < payload_len + kTrailerBytes) {
    return false;  // torn mid-payload or mid-trailer
  }
  payload = bytes.subspan(offset, payload_len);
  std::uint32_t crc = 0;
  std::memcpy(&crc, bytes.data() + offset + payload_len, 4);
  return crc32(payload.data(), payload.size()) == crc;
}

/// Parse `ckpt-<step>.bin`; nullopt for any other filename.
[[nodiscard]] std::optional<std::uint64_t> step_of(
    const std::string& filename) {
  constexpr std::string_view kPrefix = "ckpt-";
  constexpr std::string_view kSuffix = ".bin";
  if (filename.size() <= kPrefix.size() + kSuffix.size() ||
      filename.compare(0, kPrefix.size(), kPrefix) != 0 ||
      filename.compare(filename.size() - kSuffix.size(), kSuffix.size(),
                       kSuffix) != 0) {
    return std::nullopt;
  }
  const char* first = filename.data() + kPrefix.size();
  const char* last = filename.data() + filename.size() - kSuffix.size();
  std::uint64_t step = 0;
  const auto [ptr, ec] = std::from_chars(first, last, step);
  if (ec != std::errc() || ptr != last) {
    return std::nullopt;
  }
  return step;
}

/// Scan `directory` newest first for a checkpoint that validates end
/// to end (a torn or corrupt newest file falls back to its
/// predecessor), reading and CRC-checking each candidate once, and hand
/// the winner's payload to `accept`. Returns the winner when `accept`
/// does; nullopt when no file validates or `accept` refuses.
template <typename Accept>
[[nodiscard]] std::optional<Checkpointer::Found> newest_valid(
    const std::string& directory, Accept&& accept) {
  if (!fs::is_directory(directory)) {
    return std::nullopt;
  }
  std::vector<std::uint64_t> steps;
  for (const auto& entry : fs::directory_iterator(directory)) {
    if (const auto s = step_of(entry.path().filename().string())) {
      steps.push_back(*s);
    }
  }
  std::sort(steps.rbegin(), steps.rend());
  for (const std::uint64_t step : steps) {
    std::string path = Checkpointer::path_for(directory, step);
    const std::vector<std::uint8_t> bytes = read_file(path);
    std::uint64_t header_step = 0;
    std::span<const std::uint8_t> payload;
    if (validate_image(bytes, header_step, payload) &&
        header_step == step) {
      if (!accept(payload)) {
        return std::nullopt;
      }
      return Checkpointer::Found{std::move(path), step};
    }
  }
  return std::nullopt;
}

[[nodiscard]] bool restore_payload(std::span<const std::uint8_t> payload,
                                   pram::MemorySystem& memory) {
  pram::BufferSource source(payload);
  return memory.restore(source) && source.exhausted();
}

}  // namespace

Checkpointer::Checkpointer(CheckpointConfig config, obs::Sink* sink)
    : config_(std::move(config)), obs_(sink) {
  PRAMSIM_ASSERT(config_.keep >= 1);
  fs::create_directories(config_.directory);
}

std::vector<std::uint8_t> Checkpointer::file_image(
    pram::MemorySystem& memory, std::uint64_t step) {
  // One buffer: the snapshot lands after the reserved header, which is
  // patched once the payload length is known; the CRC runs in place.
  pram::BufferSink sink{std::vector<std::uint8_t>(kHeaderBytes)};
  memory.snapshot(sink);
  std::vector<std::uint8_t> image = sink.take();
  const std::uint64_t payload_len = image.size() - kHeaderBytes;
  put_field(image, 0, kCheckpointMagic);
  put_field(image, 4, kCheckpointVersion);
  put_field(image, 8, step);
  put_field(image, 16, payload_len);
  const std::uint32_t crc = crc32(image.data() + kHeaderBytes, payload_len);
  image.resize(image.size() + kTrailerBytes);
  put_field(image, kHeaderBytes + payload_len, crc);
  return image;
}

std::string Checkpointer::path_for(const std::string& directory,
                                   std::uint64_t step) {
  return (fs::path(directory) / ("ckpt-" + std::to_string(step) + ".bin"))
      .string();
}

std::uint64_t Checkpointer::write(pram::MemorySystem& memory,
                                  std::uint64_t step) {
  if (obs_ != nullptr) {
    obs_->journal.append(step, obs::EventKind::kCheckpointBegin, step, 0,
                         written_);
  }
  const std::vector<std::uint8_t> image = file_image(memory, step);
  const std::string path = path_for(config_.directory, step);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  PRAMSIM_ASSERT(file != nullptr);
  const std::size_t written = std::fwrite(image.data(), 1, image.size(), file);
  PRAMSIM_ASSERT(written == image.size());
  PRAMSIM_ASSERT(std::fflush(file) == 0);
  std::fclose(file);

  ++written_;
  last_step_ = step;
  last_bytes_ = image.size();
  if (obs_ != nullptr) {
    obs_->journal.append(step, obs::EventKind::kCheckpointEnd, step, 0,
                         image.size());
    obs_->metrics.add("checkpoint.writes");
    obs_->metrics.add("checkpoint.bytes", image.size());
  }

  // Retention: keep the newest `keep` checkpoints by step number.
  std::vector<std::uint64_t> steps;
  for (const auto& entry : fs::directory_iterator(config_.directory)) {
    if (const auto s = step_of(entry.path().filename().string())) {
      steps.push_back(*s);
    }
  }
  std::sort(steps.begin(), steps.end());
  while (steps.size() > config_.keep) {
    fs::remove(path_for(config_.directory, steps.front()));
    steps.erase(steps.begin());
  }
  return image.size();
}

std::optional<Checkpointer::Found> Checkpointer::latest(
    const std::string& directory) {
  return newest_valid(directory,
                      [](std::span<const std::uint8_t>) { return true; });
}

bool Checkpointer::load(const std::string& path,
                        pram::MemorySystem& memory) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  std::uint64_t step = 0;
  std::span<const std::uint8_t> payload;
  return validate_image(bytes, step, payload) &&
         restore_payload(payload, memory);
}

std::optional<Checkpointer::Found> Checkpointer::load_latest(
    const std::string& directory, pram::MemorySystem& memory) {
  return newest_valid(directory, [&](std::span<const std::uint8_t> payload) {
    return restore_payload(payload, memory);
  });
}

}  // namespace pramsim::durability
