#pragma once

/// \file log.hpp
/// Minimal leveled logging to stderr.  Benches use it for progress lines
/// that should not pollute their stdout tables/CSV data.

#include <sstream>
#include <string>

namespace npd {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3 };

/// Global log threshold (default Info).  Not thread-safe by design: the
/// simulator is single-threaded and programs set this once at startup.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Emit one line at `level` to stderr if `level >= log_level()`.
void log_line(LogLevel level, const std::string& message);

namespace detail {

template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream oss;
  (oss << ... << args);
  return oss.str();
}

}  // namespace detail

template <typename... Args>
void log_info(Args&&... args) {
  log_line(LogLevel::Info, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_warn(Args&&... args) {
  log_line(LogLevel::Warn, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_debug(Args&&... args) {
  log_line(LogLevel::Debug, detail::concat(std::forward<Args>(args)...));
}

}  // namespace npd
