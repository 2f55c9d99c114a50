// The one checksum module every self-certifying persistent byte in this
// repo goes through (DESIGN.md §14).
//
// Two families, chosen per use:
//
//   FNV-1a (32-bit)  — the undo log's record check words (PR 2). Cheap,
//                      byte-at-a-time, and already baked into every durable
//                      log image: the incremental Fnv32 class reproduces the
//                      historical per-record mixing order bit-for-bit, so
//                      logs written before this module existed still
//                      certify after reopen.
//   CRC32C (Castagnoli) — region/heap metadata seals and data-line
//                      verification (NVC_VERIFY_DATA, the online scrubber).
//                      Detects burst errors FNV can miss; the polynomial
//                      real NVRAM/storage stacks use (iSCSI, ext4, NVMe).
//                      Computed with the SSE4.2 crc32 instruction where the
//                      build targets it, else by a byte-at-a-time table.
//
// Everything here is header-only, constexpr-friendly, and allocation-free;
// recovery code calls it on arbitrary untrusted bytes, so nothing in this
// file may read outside [data, data+len) or branch on byte values.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

// Same compile-time idiom as common/simd.hpp: -march=native sets __SSE4_2__
// on hosts that have it, NVC_NO_SIMD=ON forces the portable table path for
// differential testing. No runtime dispatch.
#if defined(__SSE4_2__) && !defined(NVC_NO_SIMD)
#define NVC_CRC32C_HW 1
#include <nmmintrin.h>
#else
#define NVC_CRC32C_HW 0
#endif

namespace nvc {

/// Incremental FNV-1a (32-bit). Mix order defines the certified layout:
/// callers feed fields in a fixed sequence and any reordering changes the
/// check word (which is the point — a field swap is corruption).
class Fnv32 {
 public:
  static constexpr std::uint32_t kOffsetBasis = 0x811c9dc5u;
  static constexpr std::uint32_t kPrime = 0x01000193u;

  constexpr void mix_byte(std::uint8_t byte) noexcept {
    h_ ^= byte;
    h_ *= kPrime;
  }

  constexpr void mix_bytes(const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) mix_byte(p[i]);
  }

  /// Mix an unsigned integral value little-endian (byte 0 = low byte),
  /// independent of host endianness — durable images are byte streams.
  template <typename T>
  constexpr void mix_le(T value) noexcept {
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      mix_byte(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

  constexpr std::uint32_t value() const noexcept { return h_; }

 private:
  std::uint32_t h_ = kOffsetBasis;
};

/// One-shot FNV-1a over a byte range.
constexpr std::uint32_t fnv1a32(const void* data, std::size_t len) noexcept {
  Fnv32 h;
  h.mix_bytes(data, len);
  return h.value();
}

namespace detail {

/// Reflected CRC32C (Castagnoli, poly 0x1EDC6F41 => reflected 0x82F63B78),
/// byte-at-a-time table generated at compile time: the fallback for builds
/// without SSE4.2 (or with NVC_NO_SIMD) and the constant-evaluation path.
constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82f63b78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32cTable =
    make_crc32c_table();

/// Table-driven CRC32C with crc32c()'s contract (seed chaining included).
constexpr std::uint32_t crc32c_table(const void* data, std::size_t len,
                                     std::uint32_t seed = 0) noexcept {
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ p[i]) & 0xffu];
  }
  return ~crc;
}

#if NVC_CRC32C_HW
/// SSE4.2 CRC32C: eight bytes per crc32 instruction, then a byte tail. The
/// instruction implements the same reflected polynomial, and x86 loads are
/// little-endian, so a u64 step equals eight table steps in memory order.
inline std::uint32_t crc32c_hw(const void* data, std::size_t len,
                               std::uint32_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = static_cast<std::uint32_t>(~seed);
  for (; len >= 8; len -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // unaligned-safe load
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; len != 0; --len, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

}  // namespace detail

/// CRC32C of [data, data+len), chainable: pass a previous return value as
/// `seed` to continue a running checksum over a split buffer (the identity
/// crc32c(a+b) == crc32c(b, seed=crc32c(a)) holds).
constexpr std::uint32_t crc32c(const void* data, std::size_t len,
                               std::uint32_t seed = 0) noexcept {
#if NVC_CRC32C_HW
  if (!std::is_constant_evaluated()) return detail::crc32c_hw(data, len, seed);
#endif
  return detail::crc32c_table(data, len, seed);
}

}  // namespace nvc
