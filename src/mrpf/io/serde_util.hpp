// Shared little-endian byte serialization primitives for the io module.
//
// ByteWriter appends into a caller-owned byte vector; ByteReader parses
// with hard bounds checks — every read validates remaining bytes first and
// throws mrpf::Error on truncation, and element counts that are about to
// drive an allocation are validated against the remaining stream size
// *before* allocating (`count`), so a hostile length field can never force
// an oversized resize. result_serde.cpp (plan frames) and serve/protocol
// (request/response payloads) parse with the same hardened reader.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mrpf/common/bits.hpp"
#include "mrpf/common/error.hpp"

namespace mrpf::io {

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  }
  void u64v(u64 v) {
    for (int b = 0; b < 8; ++b) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  }
  void i32(int v) { u32(static_cast<std::uint32_t>(v)); }
  void i64v(i64 v) { u64v(static_cast<u64>(v)); }
  void f64(double v) { u64v(std::bit_cast<u64>(v)); }

  void i64_array(const std::vector<i64>& values) {
    u64v(values.size());
    for (const i64 v : values) i64v(v);
  }
  void int_array(const std::vector<int>& values) {
    u64v(values.size());
    for (const int v : values) i32(v);
  }
  void bool_array(const std::vector<bool>& values) {
    u64v(values.size());
    for (const bool v : values) u8(v ? 1 : 0);
  }
  void str(const std::string& s) {
    u64v(s.size());
    for (const char c : s) u8(static_cast<std::uint8_t>(c));
  }

 private:
  std::vector<std::uint8_t>& out_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t remaining() const { return size_ - pos_; }
  /// Bytes consumed so far (the offset io::deserialize_plan takes).
  std::size_t pos() const { return pos_; }
  void skip(std::size_t n) { need(n); pos_ += n; }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) {
      v |= static_cast<std::uint32_t>(data_[pos_ + b]) << (8 * b);
    }
    pos_ += 4;
    return v;
  }
  u64 u64v() {
    need(8);
    u64 v = 0;
    for (int b = 0; b < 8; ++b) {
      v |= static_cast<u64>(data_[pos_ + b]) << (8 * b);
    }
    pos_ += 8;
    return v;
  }
  int i32() { return static_cast<int>(u32()); }
  i64 i64v() { return static_cast<i64>(u64v()); }
  double f64() { return std::bit_cast<double>(u64v()); }

  /// An element count about to drive an allocation: each element occupies
  /// at least `min_elem_bytes` in the stream, so a count the remaining
  /// bytes cannot hold is corrupt — reject before allocating.
  std::size_t count(std::size_t min_elem_bytes) {
    const u64 n = u64v();
    MRPF_CHECK(min_elem_bytes == 0 || n <= remaining() / min_elem_bytes,
               "serde: corrupt element count");
    return static_cast<std::size_t>(n);
  }

  std::vector<i64> i64_array() {
    const std::size_t n = count(8);
    std::vector<i64> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = i64v();
    return values;
  }
  std::vector<int> int_array() {
    const std::size_t n = count(4);
    std::vector<int> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = i32();
    return values;
  }
  std::vector<bool> bool_array() {
    const std::size_t n = count(1);
    std::vector<bool> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = u8() != 0;
    return values;
  }
  std::string str() {
    const std::size_t n = count(1);
    std::string s(n, '\0');
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = static_cast<char>(u8());
    }
    return s;
  }

 private:
  void need(std::size_t n) {
    MRPF_CHECK(n <= remaining(), "serde: truncated payload");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace mrpf::io
