// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) -- the integrity
// check shared by every persisted artifact and pipe: journal record frames
// and wire frames.  A deliberately boring, dependency-free
// implementation so checkpoint files remain readable by any tool that can
// compute a standard CRC-32 (`crc32 <file>`, Python's zlib.crc32, ...).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace divlib {

// Incremental CRC-32 for streamed framing (journal writer).
class Crc32 {
 public:
  void update(const void* data, std::size_t size);
  void update(std::string_view data) { update(data.data(), data.size()); }

  // Finalized value for the bytes fed so far; update() may continue after.
  std::uint32_t value() const { return ~state_; }

  void reset() { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

// One-shot convenience: crc32_of("123456789") == 0xCBF43926.
std::uint32_t crc32_of(const void* data, std::size_t size);
std::uint32_t crc32_of(std::string_view data);

}  // namespace divlib
