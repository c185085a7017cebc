// Bounded binary (de)serialization for snapshot payloads.
//
// ByteWriter appends fixed-width little-endian fields to a growable
// buffer; ByteReader walks untrusted bytes and *never* trusts a length it
// just read: every size-prefixed read is validated against the remaining
// buffer before a single byte is allocated, so a hostile 8-byte header
// cannot demand a multi-gigabyte vector.  The reader is sticky-error: the
// first failure latches a Status, every later read returns the zero value,
// and callers check status() once at the end instead of after each field.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "pragma/util/status.hpp"

namespace pragma::io {

class ByteWriter {
 public:
  void u8(std::uint8_t value) { buffer_.push_back(value); }
  void u32(std::uint32_t value) { append(&value, sizeof value); }
  void u64(std::uint64_t value) { append(&value, sizeof value); }
  void i32(std::int32_t value) { append(&value, sizeof value); }
  void i64(std::int64_t value) { append(&value, sizeof value); }
  void f64(double value) { append(&value, sizeof value); }

  /// Size-prefixed string (u32 length + raw bytes).
  void str(const std::string& value) {
    u32(static_cast<std::uint32_t>(value.size()));
    append(value.data(), value.size());
  }

  void raw(const void* data, std::size_t size) { append(data, size); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() {
    return std::move(buffer_);
  }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  void append(const void* data, std::size_t size) {
    if (size == 0) return;
    const std::size_t offset = buffer_.size();
    buffer_.resize(offset + size);
    std::memcpy(buffer_.data() + offset, data, size);
  }
  std::vector<std::uint8_t> buffer_;
};

class ByteReader {
 public:
  /// Longest string any snapshot field may carry (partitioner names,
  /// octant labels).  Longer prefixes are rejected as malformed.
  static constexpr std::uint32_t kMaxStringBytes = 4096;

  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint8_t u8() {
    std::uint8_t v = 0;
    extract(&v, sizeof v, "u8");
    return v;
  }
  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    extract(&v, sizeof v, "u32");
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    extract(&v, sizeof v, "u64");
    return v;
  }
  [[nodiscard]] std::int32_t i32() {
    std::int32_t v = 0;
    extract(&v, sizeof v, "i32");
    return v;
  }
  [[nodiscard]] std::int64_t i64() {
    std::int64_t v = 0;
    extract(&v, sizeof v, "i64");
    return v;
  }
  [[nodiscard]] double f64() {
    double v = 0.0;
    extract(&v, sizeof v, "f64");
    return v;
  }

  [[nodiscard]] std::string str() {
    const std::uint32_t length = u32();
    if (!ok()) return {};
    if (length > kMaxStringBytes) {
      fail("string length " + std::to_string(length) + " exceeds cap");
      return {};
    }
    if (length > remaining()) {
      fail("string overruns buffer");
      return {};
    }
    std::string out(reinterpret_cast<const char*>(data_ + pos_), length);
    pos_ += length;
    return out;
  }

  /// Read a u32 element count for a sequence whose elements occupy at
  /// least `min_element_bytes` each.  Rejects counts that could not
  /// possibly fit in the remaining buffer — the guard that makes hostile
  /// "count = 2^31" headers cheap to reject.
  [[nodiscard]] std::uint32_t count(std::size_t min_element_bytes,
                                    std::uint32_t cap) {
    const std::uint32_t n = u32();
    if (!ok()) return 0;
    if (n > cap) {
      fail("element count " + std::to_string(n) + " exceeds cap " +
           std::to_string(cap));
      return 0;
    }
    if (min_element_bytes > 0 && n > remaining() / min_element_bytes) {
      fail("element count " + std::to_string(n) + " overruns buffer");
      return 0;
    }
    return n;
  }

  /// Latch an application-level validation failure.
  void fail(std::string message) {
    if (status_.is_ok())
      status_ = util::Status::invalid(std::move(message));
  }

  [[nodiscard]] bool ok() const { return status_.is_ok(); }
  [[nodiscard]] const util::Status& status() const { return status_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == size_; }

 private:
  void extract(void* out, std::size_t size, const char* what) {
    if (!ok()) return;
    if (size > remaining()) {
      fail(std::string("truncated ") + what + " at offset " +
           std::to_string(pos_));
      return;
    }
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  util::Status status_;
};

}  // namespace pragma::io
