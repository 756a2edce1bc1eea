#pragma once
// CRC-32 (IEEE 802.3 polynomial, reflected) used for end-to-end integrity of
// simulated wire packages, message-log frames, checkpoint frames, CYCS store
// sections and service snapshots. Every package the fabric delivers is
// stamped, so this is a throughput path: slice-by-16 tables (16 KiB, built at
// compile time) consume 16 bytes per step, and a bytewise loop on table 0
// finishes the tail. The values are those of the plain bytewise CRC-32 on
// every input, so digests and goldens do not depend on the slice width.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace cyclops {

namespace detail {
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

// tables[0] is the bytewise table; tables[k][b] is the CRC of byte b followed
// by k zero bytes, so one step folds 16 bytes with 16 independent lookups.
consteval Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

// The word loads below put the first byte in the low bits, as the reflected
// CRC needs; the repo's binary formats assume little-endian hosts as well.
static_assert(std::endian::native == std::endian::little);

/// 32-bit load through memcpy: no alignment or aliasing rules.
inline std::uint32_t load32(const std::uint8_t* p) noexcept {
  std::uint32_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}
}  // namespace detail

/// One-shot CRC-32 of a byte span. crc32({}) == 0.
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  const auto& t = detail::kCrc32Tables;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t c = 0xffffffffu;
  for (; n >= 16; p += 16, n -= 16) {
    const std::uint32_t w0 = detail::load32(p) ^ c;
    const std::uint32_t w1 = detail::load32(p + 4);
    const std::uint32_t w2 = detail::load32(p + 8);
    const std::uint32_t w3 = detail::load32(p + 12);
    c = t[15][w0 & 0xffu] ^ t[14][(w0 >> 8) & 0xffu] ^ t[13][(w0 >> 16) & 0xffu] ^
        t[12][w0 >> 24] ^ t[11][w1 & 0xffu] ^ t[10][(w1 >> 8) & 0xffu] ^
        t[9][(w1 >> 16) & 0xffu] ^ t[8][w1 >> 24] ^ t[7][w2 & 0xffu] ^
        t[6][(w2 >> 8) & 0xffu] ^ t[5][(w2 >> 16) & 0xffu] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xffu] ^ t[2][(w3 >> 8) & 0xffu] ^ t[1][(w3 >> 16) & 0xffu] ^ t[0][w3 >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace cyclops
