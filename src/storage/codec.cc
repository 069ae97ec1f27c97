#include "storage/codec.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/simd.h"

namespace oreo {

const char* EncodingName(Encoding e) {
  switch (e) {
    case Encoding::kPlain:
      return "plain";
    case Encoding::kRle:
      return "rle";
    case Encoding::kDeltaVarint:
      return "delta-varint";
    case Encoding::kDictionary:
      return "dictionary";
    case Encoding::kFrameOfReference:
      return "frame-of-reference";
  }
  return "unknown";
}

void PutVarint64(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint64(std::string_view data, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < data.size() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(data[*pos]);
    ++(*pos);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

namespace {

template <typename T>
void AppendRaw(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadRaw(std::string_view data, size_t* pos, T* v) {
  if (*pos + sizeof(T) > data.size()) return false;
  std::memcpy(v, data.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

// Bits needed to hold `v` (0 for 0).
int BitWidth(uint64_t v) { return v == 0 ? 0 : 64 - __builtin_clzll(v); }

// Code width of a dictionary with `used` entries: ceil(log2(used)).
int CodeWidth(uint64_t used) { return used == 0 ? 0 : BitWidth(used - 1); }

size_t VarintLength(uint64_t v) { return 1 + (BitWidth(v | 1) - 1) / 7; }

// Bytes of `n` packed `w`-bit fields.
size_t PackedBytes(size_t n, int w) {
  return (n * static_cast<size_t>(w) + 7) / 8;
}

// True when `bytes` is exactly the packed size of `n` `w`-bit fields. The
// division comes first, so a corrupt row count cannot overflow n * w.
bool PackedSizeIs(size_t n, int w, size_t bytes) {
  if (w == 0) return bytes == 0;
  if (n > bytes * 8 / static_cast<size_t>(w)) return false;
  return PackedBytes(n, w) == bytes;
}

// Appends `width`-bit fields to `out`, least significant bit first. At most
// 7 bits wait in the accumulator between fields, so a field of up to 56
// bits always fits beside them; wider fields go in two halves.
class BitWriter {
 public:
  BitWriter(std::string* out, int width) : out_(out), width_(width) {}

  void Put(uint64_t v) {
    if (width_ > 56) {
      Append(v & 0xffffffffu, 32);
      Append(v >> 32, width_ - 32);
    } else {
      Append(v, width_);
    }
  }

  /// Writes the last partial byte, zero-padded.
  void Finish() {
    if (pending_ > 0) out_->push_back(static_cast<char>(acc_));
    acc_ = 0;
    pending_ = 0;
  }

 private:
  void Append(uint64_t v, int w) {
    acc_ |= v << pending_;
    pending_ += w;
    while (pending_ >= 8) {
      out_->push_back(static_cast<char>(acc_ & 0xff));
      acc_ >>= 8;
      pending_ -= 8;
    }
  }

  std::string* out_;
  int width_;
  uint64_t acc_ = 0;
  int pending_ = 0;
};

// Field `i` of a packed stream, read one byte at a time: the reference the
// word-load path in UnpackFields must match. Touches only the bytes that
// hold the field's bits.
uint64_t PackedFieldScalar(const uint8_t* p, size_t i, int w) {
  if (w == 0) return 0;
  const uint64_t bit = static_cast<uint64_t>(i) * static_cast<uint64_t>(w);
  size_t byte = static_cast<size_t>(bit >> 3);
  int shift = static_cast<int>(bit & 7);
  uint64_t v = 0;
  int got = 0;
  while (got < w) {
    v |= static_cast<uint64_t>(p[byte++] >> shift) << got;
    got += 8 - shift;
    shift = 0;
  }
  return w == 64 ? v : v & ((uint64_t{1} << w) - 1);
}

// Calls sink(i, field_i) for every field of a stream whose size was
// already checked with PackedSizeIs. The vectorized path reads each field
// of 1 to 56 bits with one unaligned 8-byte load (its bit offset within
// the first byte is at most 7, so shift + w <= 63); fields whose load would
// run past the stream, and 0- or wider fields, take the byte-wise reference.
template <typename Sink>
void UnpackFields(std::string_view packed, size_t n, int w, const Sink& sink) {
  const auto* p = reinterpret_cast<const uint8_t*>(packed.data());
  size_t i = 0;
  if (simd::VectorEnabled() && w > 0 && w <= 56) {
    // Field i's load stays in bounds while (i * w) / 8 + 8 <= size.
    size_t fast = 0;
    if (packed.size() >= 8) {
      fast = std::min(n, ((packed.size() - 8) * 8 + 7) /
                                 static_cast<size_t>(w) +
                             1);
    }
    const uint64_t mask = (uint64_t{1} << w) - 1;
    for (; i < fast; ++i) {
      const uint64_t bit = static_cast<uint64_t>(i) * static_cast<uint64_t>(w);
      uint64_t word;
      std::memcpy(&word, p + (bit >> 3), sizeof(word));
      sink(i, (word >> (bit & 7)) & mask);
    }
  }
  for (; i < n; ++i) sink(i, PackedFieldScalar(p, i, w));
}

// Vectorized decode paths, besides UnpackFields above. They read exactly the
// format the encoders below write, only faster. Both return the
// exact bytes and the exact Status the scalar loops in DecodeInt64 produce —
// corruption and truncation are detected at the same points with the same
// messages — pinned by the codec fuzz cases in tests/kernels_test.cc.
// `out` is unspecified on a non-OK return (true of the scalar paths too:
// they leave a partially-filled vector).

// RLE: run headers are varint-decoded as before, but each run is expanded
// with one bulk fill (resize-with-value into the reserved buffer) — exactly
// one write per element. Pre-sizing the whole vector would zero-fill n
// elements and then overwrite them: double the memory traffic of a decode
// that is bandwidth-bound to begin with.
Status DecodeRleFast(std::string_view data, size_t n,
                     std::vector<int64_t>* out) {
  size_t pos = 0;
  while (out->size() < n) {
    uint64_t run, zz;
    if (!GetVarint64(data, &pos, &run) || !GetVarint64(data, &pos, &zz)) {
      return Status::Corruption("truncated RLE chunk");
    }
    // `run > n - size` rather than `size + run > n`: the subtraction cannot
    // wrap (size <= n), so an absurd 2^64-scale run cannot slip past the
    // bound check.
    if (run == 0 || run > n - out->size()) {
      return Status::Corruption("RLE run overflows row count");
    }
    out->resize(out->size() + run, ZigZagDecode(zz));
  }
  if (pos != data.size()) {
    return Status::Corruption("trailing bytes in RLE chunk");
  }
  return Status::OK();
}

// Delta-varint: sorted columns produce mostly small deltas, i.e. runs of
// single-byte varints. Load 8 bytes at a time; when no continuation bit is
// set, decode all 8 with an unrolled zigzag + prefix sum. Any byte with a
// continuation bit drops to the scalar GetVarint64 for that one element, so
// multi-byte varints, truncation and over-long encodings take exactly the
// reference path.
Status DecodeDeltaVarintFast(std::string_view data, size_t n,
                             std::vector<int64_t>* out) {
  out->resize(n);
  int64_t* dst = out->data();
  size_t pos = 0;
  uint64_t prev = 0;  // wrapping accumulator, mirrors the encoder
  size_t i = 0;
  while (i < n) {
    if (i + 8 <= n && pos + 8 <= data.size()) {
      uint64_t w;
      std::memcpy(&w, data.data() + pos, sizeof(w));
      if ((w & 0x8080808080808080ULL) == 0) {
        for (int b = 0; b < 8; ++b) {
          const uint64_t zz = (w >> (b * 8)) & 0x7f;
          prev += static_cast<uint64_t>(ZigZagDecode(zz));
          dst[i + static_cast<size_t>(b)] = static_cast<int64_t>(prev);
        }
        pos += 8;
        i += 8;
        continue;
      }
    }
    uint64_t zz;
    if (!GetVarint64(data, &pos, &zz)) {
      return Status::Corruption("truncated delta-varint chunk");
    }
    prev += static_cast<uint64_t>(ZigZagDecode(zz));
    dst[i++] = static_cast<int64_t>(prev);
  }
  if (pos != data.size()) {
    return Status::Corruption("trailing bytes in delta-varint chunk");
  }
  return Status::OK();
}

}  // namespace

void EncodeInt64(const std::vector<int64_t>& values, Encoding enc,
                 std::string* out) {
  switch (enc) {
    case Encoding::kPlain: {
      out->append(reinterpret_cast<const char*>(values.data()),
                  values.size() * sizeof(int64_t));
      return;
    }
    case Encoding::kRle: {
      size_t i = 0;
      while (i < values.size()) {
        size_t j = i;
        while (j < values.size() && values[j] == values[i]) ++j;
        PutVarint64(out, j - i);
        PutVarint64(out, ZigZagEncode(values[i]));
        i = j;
      }
      return;
    }
    case Encoding::kDeltaVarint: {
      // Deltas are computed with wrapping uint64 arithmetic: a signed
      // difference overflows (UB) on extreme pairs like INT64_MIN ->
      // INT64_MAX, while the two's-complement wrap round-trips exactly.
      uint64_t prev = 0;
      for (int64_t v : values) {
        uint64_t delta = static_cast<uint64_t>(v) - prev;
        PutVarint64(out, ZigZagEncode(static_cast<int64_t>(delta)));
        prev = static_cast<uint64_t>(v);
      }
      return;
    }
    case Encoding::kFrameOfReference: {
      // Offsets from the minimum, in wrapping uint64 arithmetic: the full
      // INT64_MIN..INT64_MAX range needs all 64 bits and still round-trips.
      uint64_t base = 0;
      uint64_t range = 0;
      if (!values.empty()) {
        const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
        base = static_cast<uint64_t>(*lo);
        range = static_cast<uint64_t>(*hi) - base;
      }
      const int width = BitWidth(range);
      AppendRaw(out, static_cast<int64_t>(base));
      out->push_back(static_cast<char>(width));
      out->reserve(out->size() + PackedBytes(values.size(), width));
      BitWriter writer(out, width);
      for (int64_t v : values) writer.Put(static_cast<uint64_t>(v) - base);
      writer.Finish();
      return;
    }
    case Encoding::kDictionary:
      OREO_CHECK(false) << "kDictionary is not an int64 encoding";
  }
}

Status DecodeInt64(std::string_view data, Encoding enc, size_t n,
                   std::vector<int64_t>* out) {
  out->clear();
  switch (enc) {
    case Encoding::kPlain: {
      if (data.size() != n * sizeof(int64_t)) {
        return Status::Corruption("plain int64 chunk size mismatch");
      }
      out->resize(n);
      if (n > 0) std::memcpy(out->data(), data.data(), data.size());
      return Status::OK();
    }
    case Encoding::kRle: {
      out->reserve(n);
      if (simd::VectorEnabled()) return DecodeRleFast(data, n, out);
      size_t pos = 0;
      while (out->size() < n) {
        uint64_t run, zz;
        if (!GetVarint64(data, &pos, &run) || !GetVarint64(data, &pos, &zz)) {
          return Status::Corruption("truncated RLE chunk");
        }
        if (run == 0 || out->size() + run > n) {
          return Status::Corruption("RLE run overflows row count");
        }
        int64_t v = ZigZagDecode(zz);
        out->insert(out->end(), run, v);
      }
      if (pos != data.size()) {
        return Status::Corruption("trailing bytes in RLE chunk");
      }
      return Status::OK();
    }
    case Encoding::kDeltaVarint: {
      out->reserve(n);
      if (simd::VectorEnabled()) return DecodeDeltaVarintFast(data, n, out);
      size_t pos = 0;
      uint64_t prev = 0;  // wrapping accumulator, mirrors the encoder
      for (size_t i = 0; i < n; ++i) {
        uint64_t zz;
        if (!GetVarint64(data, &pos, &zz)) {
          return Status::Corruption("truncated delta-varint chunk");
        }
        prev += static_cast<uint64_t>(ZigZagDecode(zz));
        out->push_back(static_cast<int64_t>(prev));
      }
      if (pos != data.size()) {
        return Status::Corruption("trailing bytes in delta-varint chunk");
      }
      return Status::OK();
    }
    case Encoding::kFrameOfReference: {
      size_t pos = 0;
      int64_t base;
      if (!ReadRaw(data, &pos, &base) || pos >= data.size()) {
        return Status::Corruption("truncated frame-of-reference header");
      }
      const int width = static_cast<uint8_t>(data[pos++]);
      if (width > 64) {
        return Status::Corruption("frame-of-reference width out of range");
      }
      const std::string_view packed = data.substr(pos);
      if (!PackedSizeIs(n, width, packed.size())) {
        return Status::Corruption("frame-of-reference chunk size mismatch");
      }
      out->resize(n);
      int64_t* dst = out->data();
      const uint64_t ubase = static_cast<uint64_t>(base);
      UnpackFields(packed, n, width, [dst, ubase](size_t i, uint64_t off) {
        dst[i] = static_cast<int64_t>(ubase + off);
      });
      return Status::OK();
    }
    case Encoding::kDictionary:
      return Status::InvalidArgument("kDictionary is not an int64 encoding");
  }
  return Status::Corruption("unknown int64 encoding");
}

Encoding ChooseInt64Encoding(const std::vector<int64_t>& values) {
  if (values.empty()) return Encoding::kPlain;
  const size_t n = values.size();
  size_t runs = 1;
  bool sorted = true;
  int64_t lo = values[0];
  int64_t hi = values[0];
  for (size_t i = 1; i < n; ++i) {
    if (values[i] != values[i - 1]) ++runs;
    if (values[i] < values[i - 1]) sorted = false;
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  // Few runs -> RLE wins decisively. Sorted (the common case after layout
  // assignment on the sort column) -> small deltas, varint wins. Otherwise
  // plain. Each is sized exactly, as EncodeInt64 would write it.
  Encoding pick = Encoding::kPlain;
  size_t pick_bytes = n * sizeof(int64_t);
  if (runs * 16 <= n) {
    pick = Encoding::kRle;
    pick_bytes = 0;
    for (size_t i = 0; i < n;) {
      size_t j = i;
      while (j < n && values[j] == values[i]) ++j;
      pick_bytes += VarintLength(j - i) + VarintLength(ZigZagEncode(values[i]));
      i = j;
    }
  } else if (sorted) {
    pick = Encoding::kDeltaVarint;
    pick_bytes = 0;
    uint64_t prev = 0;
    for (int64_t v : values) {
      pick_bytes += VarintLength(ZigZagEncode(
          static_cast<int64_t>(static_cast<uint64_t>(v) - prev)));
      prev = static_cast<uint64_t>(v);
    }
  }
  // Frame of reference: i64 base, width byte, packed offsets.
  const int width =
      BitWidth(static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo));
  const size_t for_bytes = sizeof(int64_t) + 1 + PackedBytes(n, width);
  return for_bytes < pick_bytes ? Encoding::kFrameOfReference : pick;
}

void EncodeDouble(const std::vector<double>& values, std::string* out) {
  out->append(reinterpret_cast<const char*>(values.data()),
              values.size() * sizeof(double));
}

Status DecodeDouble(std::string_view data, size_t n,
                    std::vector<double>* out) {
  if (data.size() != n * sizeof(double)) {
    return Status::Corruption("double chunk size mismatch");
  }
  out->resize(n);
  if (n > 0) std::memcpy(out->data(), data.data(), data.size());
  return Status::OK();
}

namespace {

// Per-thread scratch of the string encoder, indexed by the column's codes.
// Between calls every slot is zero: a call clears only the slots it set, so
// it costs O(rows + used entries) however large the column's dictionary is,
// and the buffer grows once to the largest dictionary the thread has seen.
thread_local std::vector<uint32_t> tls_block_code;  // column code -> block code + 1
thread_local std::vector<uint32_t> tls_used;         // column codes, first use order
thread_local std::vector<uint32_t> tls_renumbered;   // block code per row

}  // namespace

void EncodeStringDict(const std::vector<uint32_t>& codes,
                      const std::vector<std::string>& dict, std::string* out) {
  std::vector<uint32_t>& block_code = tls_block_code;
  std::vector<uint32_t>& used = tls_used;
  std::vector<uint32_t>& renumbered = tls_renumbered;
  if (block_code.size() < dict.size()) block_code.resize(dict.size(), 0);
  used.clear();
  renumbered.resize(codes.size());
  for (size_t i = 0; i < codes.size(); ++i) {
    const uint32_t c = codes[i];
    OREO_DCHECK(c < dict.size());
    if (block_code[c] == 0) {
      used.push_back(c);
      block_code[c] = static_cast<uint32_t>(used.size());
    }
    renumbered[i] = block_code[c] - 1;
  }
  PutVarint64(out, used.size());
  for (uint32_t c : used) {
    block_code[c] = 0;
    PutVarint64(out, dict[c].size());
    out->append(dict[c]);
  }
  const int width = CodeWidth(used.size());
  out->reserve(out->size() + PackedBytes(codes.size(), width));
  BitWriter writer(out, width);
  for (uint32_t c : renumbered) writer.Put(c);
  writer.Finish();
}

Status DecodeStringDict(std::string_view data, size_t n,
                        std::vector<uint32_t>* codes,
                        std::vector<std::string>* dict) {
  size_t pos = 0;
  uint64_t dict_size;
  if (!GetVarint64(data, &pos, &dict_size)) {
    return Status::Corruption("truncated dictionary header");
  }
  // Every entry takes at least its length byte, which bounds the reserve.
  if (dict_size > data.size() - pos) {
    return Status::Corruption("truncated dictionary entry");
  }
  dict->clear();
  dict->reserve(dict_size);
  for (uint64_t i = 0; i < dict_size; ++i) {
    uint64_t len;
    if (!GetVarint64(data, &pos, &len) || len > data.size() - pos) {
      return Status::Corruption("truncated dictionary entry");
    }
    dict->emplace_back(data.substr(pos, len));
    pos += len;
  }
  const int width = CodeWidth(dict_size);
  const std::string_view packed = data.substr(pos);
  if (!PackedSizeIs(n, width, packed.size())) {
    return Status::Corruption("dictionary code array size mismatch");
  }
  codes->resize(n);
  uint32_t* dst = codes->data();
  UnpackFields(packed, n, width, [dst](size_t i, uint64_t c) {
    dst[i] = static_cast<uint32_t>(c);
  });
  // A w-bit code can still name a missing entry when the dictionary size is
  // not a power of two (or is zero).
  if (simd::VectorEnabled()) {
    // Branchless max-scan (auto-vectorizes), one range check at the end —
    // same verdict as the early-exit reference loop below.
    uint32_t max_code = 0;
    for (uint32_t c : *codes) max_code = c > max_code ? c : max_code;
    if (n > 0 && max_code >= dict_size) {
      return Status::Corruption("dictionary code out of range");
    }
    return Status::OK();
  }
  for (uint32_t c : *codes) {
    if (c >= dict_size) return Status::Corruption("dictionary code out of range");
  }
  return Status::OK();
}

}  // namespace oreo
