// Line-oriented control channel between the generator and the SUT
// harness (a pair of pipes), plus the key=value record format the SUT
// reports in.
#pragma once

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "stats.h"

namespace perfbench {

class LineChannel {
 public:
  LineChannel(int in_fd, int out_fd) : in_fd_(in_fd), out_fd_(out_fd) {}

  /// Reads one line (without the newline). False on EOF, error or when
  /// `timeout_s` passes first.
  bool ReadLine(std::string* line, double timeout_s) {
    const std::int64_t deadline =
        NowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      const std::int64_t left_ms = (deadline - NowNs()) / 1000000;
      if (left_ms <= 0) return false;
      pollfd p{in_fd_, POLLIN, 0};
      const int r = ::poll(&p, 1, static_cast<int>(left_ms));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      char tmp[65536];
      const ssize_t n = ::read(in_fd_, tmp, sizeof(tmp));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

  /// Reads exactly `size` raw bytes (after any buffered line data).
  bool ReadBytes(void* out, std::size_t size, double timeout_s) {
    auto* dst = static_cast<char*>(out);
    const std::size_t from_buf = std::min(size, buf_.size());
    std::copy(buf_.data(), buf_.data() + from_buf, dst);
    buf_.erase(0, from_buf);
    std::size_t got = from_buf;
    const std::int64_t deadline =
        NowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (got < size) {
      const std::int64_t left_ms = (deadline - NowNs()) / 1000000;
      if (left_ms <= 0) return false;
      pollfd p{in_fd_, POLLIN, 0};
      const int r = ::poll(&p, 1, static_cast<int>(left_ms));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      const ssize_t n = ::read(in_fd_, dst + got, size - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool Write(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::write(out_fd_, bytes.data(), bytes.size());
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }
  bool WriteLine(std::string_view line) {
    std::string s(line);
    s.push_back('\n');
    return Write(s);
  }

 private:
  int in_fd_;
  int out_fd_;
  std::string buf_;
};

/// "key=value key=value ..." with full-precision doubles.
class Record {
 public:
  void Set(const std::string& key, double value) {
    char tmp[64];
    std::snprintf(tmp, sizeof(tmp), "%.17g", value);
    text_ += (text_.empty() ? "" : " ") + key + "=" + tmp;
  }
  const std::string& text() const { return text_; }

  static std::map<std::string, double> Parse(std::string_view line) {
    std::map<std::string, double> out;
    std::istringstream in{std::string(line)};
    std::string tok;
    while (in >> tok) {
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos) continue;
      out[tok.substr(0, eq)] = std::strtod(tok.c_str() + eq + 1, nullptr);
    }
    return out;
  }

 private:
  std::string text_;
};

}  // namespace perfbench
