#pragma once
// Append-only text writer for large numeric text artifacts (the .macro
// model text): characters, strings, integers and doubles go into a fixed
// buffer through std::to_chars, and each full buffer is passed to the
// sink — an std::ostream, an std::string, or nothing (count only). It
// prints exactly what an std::ostream at precision(9) prints: doubles as
// printf "%.9g" (std::chars_format::general, 9 significant digits),
// integers in decimal, chars verbatim. Call flush() when done: bytes
// still buffered at destruction are dropped.

#include <charconv>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

namespace tmm::util {

class TextWriter {
 public:
  /// Count only: bytes are formatted and counted, then dropped.
  TextWriter() = default;
  /// Pass bytes on to `os`; a failed write leaves `os` in a failed state.
  explicit TextWriter(std::ostream& os) : os_(&os) {}
  /// Append bytes to `out`.
  explicit TextWriter(std::string& out) : str_(&out) {}
  TextWriter(const TextWriter&) = delete;
  TextWriter& operator=(const TextWriter&) = delete;

  TextWriter& operator<<(char c) {
    if (pos_ == kBufSize) drain();
    buf_[pos_++] = c;
    return *this;
  }
  TextWriter& operator<<(std::string_view s);
  TextWriter& operator<<(double v) {
    return put_number(v, std::chars_format::general, 9);
  }
  TextWriter& operator<<(int v) { return put_number(v); }
  TextWriter& operator<<(unsigned v) { return put_number(v); }
  TextWriter& operator<<(long v) { return put_number(v); }
  TextWriter& operator<<(unsigned long v) { return put_number(v); }
  TextWriter& operator<<(long long v) { return put_number(v); }
  TextWriter& operator<<(unsigned long long v) { return put_number(v); }

  /// True when the writer has no sink and only counts.
  bool counting_only() const noexcept {
    return os_ == nullptr && str_ == nullptr;
  }
  /// Count `n` more bytes without formatting them; count-only writers
  /// use it for text whose length is already known.
  void skip(std::size_t n) noexcept { skipped_ += n; }
  /// Bytes written (or counted) so far, buffered ones included.
  std::size_t count() const noexcept { return passed_ + skipped_ + pos_; }
  /// Pass buffered bytes on; returns count().
  std::size_t flush();

 private:
  static constexpr std::size_t kBufSize = 8192;
  /// Longest to_chars output of a double at 9 digits ("-1.23456789e-308")
  /// or of a 64-bit integer, rounded up.
  static constexpr std::size_t kMaxNumberChars = 32;

  void drain();

  template <typename T, typename... Format>
  TextWriter& put_number(T v, Format... format) {
    if (kBufSize - pos_ < kMaxNumberChars) drain();
    pos_ = static_cast<std::size_t>(
        std::to_chars(buf_ + pos_, buf_ + kBufSize, v, format...).ptr - buf_);
    return *this;
  }

  std::ostream* os_ = nullptr;
  std::string* str_ = nullptr;
  std::size_t pos_ = 0;
  std::size_t passed_ = 0;   ///< bytes already drained to the sink
  std::size_t skipped_ = 0;  ///< bytes counted via skip()
  char buf_[kBufSize] = {};
};

}  // namespace tmm::util
