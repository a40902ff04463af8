#include "encoding/block_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace sj::encoding {
namespace {

constexpr uint8_t kModeFor = 0;
constexpr uint8_t kModeDelta = 1;

/// Bits needed to store `v` (0 for v == 0).
uint32_t BitsFor(uint64_t v) {
  return v == 0 ? 0 : 64 - static_cast<uint32_t>(std::countl_zero(v));
}

/// Zig-zag maps a signed delta onto an unsigned code so small negative
/// steps stay small: 0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Appends `count` `width`-bit values to a little-endian bit stream.
void PackBits(const uint64_t* values, size_t count, uint32_t width,
              uint8_t* out) {
  uint64_t acc = 0;
  uint32_t filled = 0;
  size_t pos = 0;
  for (size_t i = 0; i < count; ++i) {
    acc |= values[i] << filled;
    filled += width;
    while (filled >= 8) {
      out[pos++] = static_cast<uint8_t>(acc & 0xFF);
      acc >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) out[pos++] = static_cast<uint8_t>(acc & 0xFF);
}

/// Reads `count` `width`-bit values from a little-endian bit stream.
void UnpackBits(const uint8_t* in, size_t count, uint32_t width,
                uint64_t* out) {
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  uint64_t acc = 0;
  uint32_t filled = 0;
  size_t pos = 0;
  for (size_t i = 0; i < count; ++i) {
    while (filled < width) {
      acc |= static_cast<uint64_t>(in[pos++]) << filled;
      filled += 8;
    }
    out[i] = acc & mask;
    acc >>= width;
    filled -= width;
  }
}

/// Payload bytes of `packed_count` values at `width` bits.
constexpr size_t PayloadBytes(size_t packed_count, uint32_t width) {
  return (packed_count * width + 7) / 8;
}

void WriteHeader(uint8_t* out, uint8_t mode, uint32_t width, size_t count,
                 uint32_t base) {
  out[0] = mode;
  out[1] = static_cast<uint8_t>(width);
  out[2] = static_cast<uint8_t>(count & 0xFF);
  out[3] = static_cast<uint8_t>((count >> 8) & 0xFF);
  std::memcpy(out + 4, &base, sizeof(uint32_t));
}

}  // namespace

size_t EncodeBlock(std::span<const uint32_t> values, uint8_t* out) {
  const size_t n = values.size();
  if (n == 0) {
    WriteHeader(out, kModeFor, 0, 0, 0);
    return kBlockHeaderBytes;
  }

  // Circular FOR: the classic frame [min, max] is blown up by
  // wrap-around sentinels (kNoTag / kNilNode = 0xFFFFFFFF sitting next
  // to tiny ranks in the tag and parent columns). Choosing the frame
  // base just past the largest *circular* gap in the sorted block
  // shrinks the width back: the sentinels become base + small offsets
  // mod 2^32. Decoding is the plain FOR decode -- base + offset already
  // wraps -- so this is purely an encoder-side choice.
  // Zeroed only because GCC 12 at -O3 cannot see that the copy fills
  // sorted[0, n) and warns -Wmaybe-uninitialized on the reads below.
  uint32_t sorted[kBlockValues] = {};
  std::copy(values.begin(), values.end(), sorted);
  std::sort(sorted, sorted + n);
  size_t base_idx = 0;  // start of the frame in sorted order
  uint64_t best_gap = sorted[0] + (uint64_t{1} << 32) - sorted[n - 1];
  for (size_t i = 1; i < n; ++i) {
    const uint64_t gap = uint64_t{sorted[i]} - sorted[i - 1];
    if (gap > best_gap) {
      best_gap = gap;
      base_idx = i;
    }
  }
  const uint32_t base = sorted[base_idx];
  // The farthest frame member is the value just before the gap
  // (circularly); uint32 subtraction is the mod-2^32 offset.
  const uint32_t span =
      sorted[base_idx == 0 ? n - 1 : base_idx - 1] - base;
  const uint32_t for_width = BitsFor(span);
  const size_t for_bytes = PayloadBytes(n, for_width);

  // DELTA: base = first value, zig-zag deltas for the rest. A width
  // above 32 bits (pathological alternation between the extremes of the
  // uint32 range) cannot beat FOR, which is capped at 32.
  uint32_t delta_width = 0;
  for (size_t i = 1; i < n; ++i) {
    int64_t d = static_cast<int64_t>(values[i]) -
                static_cast<int64_t>(values[i - 1]);
    delta_width = std::max(delta_width, BitsFor(ZigZag(d)));
  }
  const size_t delta_bytes = PayloadBytes(n - 1, delta_width);

  uint64_t scratch[kBlockValues];
  if (delta_width <= 32 && delta_bytes < for_bytes) {
    WriteHeader(out, kModeDelta, delta_width, n, values[0]);
    for (size_t i = 1; i < n; ++i) {
      scratch[i - 1] = ZigZag(static_cast<int64_t>(values[i]) -
                              static_cast<int64_t>(values[i - 1]));
    }
    PackBits(scratch, n - 1, delta_width, out + kBlockHeaderBytes);
    return kBlockHeaderBytes + delta_bytes;
  }
  WriteHeader(out, kModeFor, for_width, n, base);
  for (size_t i = 0; i < n; ++i) scratch[i] = values[i] - base;
  PackBits(scratch, n, for_width, out + kBlockHeaderBytes);
  return kBlockHeaderBytes + for_bytes;
}

Result<size_t> EncodedBlockSize(const uint8_t* data, size_t available) {
  if (available < kBlockHeaderBytes) {
    return Status::InvalidArgument("compressed block: truncated header");
  }
  const uint8_t mode = data[0];
  const uint32_t width = data[1];
  const size_t count = static_cast<size_t>(data[2]) |
                       (static_cast<size_t>(data[3]) << 8);
  if (mode > kModeDelta || width > 32 || count > kBlockValues) {
    return Status::InvalidArgument("compressed block: malformed header");
  }
  const size_t packed = mode == kModeDelta && count > 0 ? count - 1 : count;
  const size_t total = kBlockHeaderBytes + PayloadBytes(packed, width);
  if (total > available) {
    return Status::InvalidArgument("compressed block: truncated payload");
  }
  return total;
}

Status DecodeBlock(const uint8_t* data, size_t available,
                   size_t expected_count, uint32_t* out) {
  SJ_ASSIGN_OR_RETURN(size_t total, EncodedBlockSize(data, available));
  (void)total;
  const uint8_t mode = data[0];
  const uint32_t width = data[1];
  const size_t count = static_cast<size_t>(data[2]) |
                       (static_cast<size_t>(data[3]) << 8);
  if (count != expected_count) {
    return Status::InvalidArgument("compressed block: count mismatch");
  }
  if (count == 0) return Status::OK();
  uint32_t base;
  std::memcpy(&base, data + 4, sizeof(uint32_t));

  uint64_t scratch[kBlockValues];
  if (mode == kModeDelta) {
    UnpackBits(data + kBlockHeaderBytes, count - 1, width, scratch);
    out[0] = base;
    for (size_t i = 1; i < count; ++i) {
      out[i] = static_cast<uint32_t>(static_cast<int64_t>(out[i - 1]) +
                                     UnZigZag(scratch[i - 1]));
    }
    return Status::OK();
  }
  UnpackBits(data + kBlockHeaderBytes, count, width, scratch);
  for (size_t i = 0; i < count; ++i) {
    out[i] = base + static_cast<uint32_t>(scratch[i]);
  }
  return Status::OK();
}

}  // namespace sj::encoding
