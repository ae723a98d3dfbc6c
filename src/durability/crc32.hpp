// CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320) — the frame
// check sealing every WAL record payload and checkpoint payload, so a
// torn write (partial fwrite at the crash) or bit rot is DETECTED at
// recovery instead of replayed as garbage. Stdlib-only.
//
// Slicing-by-8: table k maps a byte to its CRC contribution k bytes
// further along the stream, so eight input bytes fold into the register
// with eight independent lookups instead of eight dependent ones. The
// values are exactly the byte-at-a-time CRC's (same polynomial, same
// init/xorout); bytes are assembled little-endian explicitly, so the
// result does not depend on host byte order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace pramsim::durability {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

[[nodiscard]] inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

[[nodiscard]] inline std::uint32_t crc32(const void* data,
                                         std::size_t size) {
  const auto& t = detail::kCrc32Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint32_t lo = detail::load_le32(bytes) ^ crc;
    const std::uint32_t hi = detail::load_le32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace pramsim::durability
