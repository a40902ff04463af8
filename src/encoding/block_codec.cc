#include "encoding/block_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

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
  // base just past the largest *circular* gap of the block's value set
  // shrinks the width back: the sentinels become base + small offsets
  // mod 2^32. Decoding is the plain FOR decode -- base + offset already
  // wraps -- so this is purely an encoder-side choice.
  uint32_t min = values[0];
  uint32_t max = values[0];
  for (uint32_t v : values) {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  // The inner gaps sum to max - min. When that is at most 2^31, no inner
  // gap can beat the wrap-around gap 2^32 - (max - min), and the frame
  // is the classic [min, max].
  uint32_t base = min;
  uint32_t span = max - min;
  if (span > (uint32_t{1} << 31)) {
    // Bucketed max-gap: n buckets of width span / n + 1 cover [min, max].
    // A gap inside a bucket is at most span / n, while the largest gap is
    // at least span / (n - 1), so the largest gaps all run between the
    // maximum of one non-empty bucket and the minimum of the next.
    // Scanning those boundaries in value order with strict '>' against
    // the wrap-around gap picks the same base and span a scan over the
    // sorted block would: the first of tied largest gaps, and the
    // wrap-around gap on a tie with an inner one.
    const uint64_t width = span / n + 1;
    uint32_t bucket_min[kBlockValues];
    uint32_t bucket_max[kBlockValues];
    std::fill_n(bucket_min, n, std::numeric_limits<uint32_t>::max());
    std::fill_n(bucket_max, n, uint32_t{0});
    for (uint32_t v : values) {
      const size_t b = static_cast<size_t>((v - min) / width);
      bucket_min[b] = std::min(bucket_min[b], v);
      bucket_max[b] = std::max(bucket_max[b], v);
    }
    uint64_t best_gap = uint64_t{min} + (uint64_t{1} << 32) - max;
    uint32_t prev_max = bucket_max[0];  // bucket 0 holds min
    for (size_t b = 1; b < n; ++b) {
      if (bucket_min[b] > bucket_max[b]) continue;  // empty bucket
      const uint64_t gap = uint64_t{bucket_min[b]} - prev_max;
      if (gap > best_gap) {
        best_gap = gap;
        base = bucket_min[b];
        // The farthest frame member is the value just before the gap
        // (circularly); uint32 subtraction is the mod-2^32 offset.
        span = prev_max - base;
      }
      prev_max = bucket_max[b];
    }
  }
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
