#include "util/text_writer.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>

namespace tmm::util {

TextWriter& TextWriter::operator<<(std::string_view s) {
  while (!s.empty()) {
    if (pos_ == kBufSize) drain();
    const std::size_t n = std::min(s.size(), kBufSize - pos_);
    std::memcpy(buf_ + pos_, s.data(), n);
    pos_ += n;
    s.remove_prefix(n);
  }
  return *this;
}

void TextWriter::drain() {
  if (os_ != nullptr) os_->write(buf_, static_cast<std::streamsize>(pos_));
  if (str_ != nullptr) str_->append(buf_, pos_);
  passed_ += pos_;
  pos_ = 0;
}

std::size_t TextWriter::flush() {
  drain();
  return count();
}

}  // namespace tmm::util
