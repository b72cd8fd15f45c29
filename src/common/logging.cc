#include "common/logging.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <thread>

namespace c2mn {
namespace {

// Stable short id for the calling thread (std::thread::id has no portable
// compact rendering; hash it once per thread).
unsigned long ThreadTag() {
  static thread_local const unsigned long tag = static_cast<unsigned long>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff);
  return tag;
}

}  // namespace

Logger& Logger::Global() {
  static Logger logger;
  return logger;
}

Logger::Logger()
    : level_(ParseLevel(std::getenv("C2MN_LOG_LEVEL"), LogLevel::kInfo)) {}

LogLevel Logger::ParseLevel(const char* spec, LogLevel fallback) {
  if (spec == nullptr || *spec == '\0') return fallback;
  std::string lower;
  for (const char* p = spec; *p != '\0'; ++p) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  if (lower == "debug" || lower == "0") return LogLevel::kDebug;
  if (lower == "info" || lower == "1") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning" || lower == "2") {
    return LogLevel::kWarning;
  }
  if (lower == "error" || lower == "3") return LogLevel::kError;
  if (lower == "off" || lower == "none" || lower == "4") return LogLevel::kOff;
  return fallback;
}

void Logger::Log(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) <
      static_cast<int>(level_.load(std::memory_order_relaxed))) {
    return;
  }
  const char* tag = "INFO";
  switch (level) {
    case LogLevel::kDebug:
      tag = "DEBUG";
      break;
    case LogLevel::kInfo:
      tag = "INFO";
      break;
    case LogLevel::kWarning:
      tag = "WARN";
      break;
    case LogLevel::kError:
      tag = "ERROR";
      break;
    case LogLevel::kOff:
      return;
  }

  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm tm_utc{};
#if defined(_WIN32)
  gmtime_s(&tm_utc, &secs);
#else
  gmtime_r(&secs, &tm_utc);
#endif
  // Sized for seven fields of any int width (11 chars each) plus the
  // separators, so the stamp can never truncate.
  char stamp[96];
  std::snprintf(stamp, sizeof(stamp), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec,
                static_cast<int>(millis));

  // Assemble the full line first and emit it with one fwrite so lines from
  // concurrent shard workers never interleave mid-line (POSIX makes a
  // single stdio write atomic with respect to other stdio writes).
  std::string line;
  line.reserve(message.size() + 64);
  line.append("[c2mn ");
  line.append(stamp);
  line.push_back(' ');
  line.append(tag);
  char tid[16];
  std::snprintf(tid, sizeof(tid), " t%06lx] ", ThreadTag());
  line.append(tid);
  line.append(message);
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace c2mn
