#include "common/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/thread_safety.hpp"

namespace gv {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};
Mutex g_mutex{gv::lockrank::kTelemetry};

LogLevel level_from_env() {
  const char* env = std::getenv("GNNVAULT_LOG");
  if (env == nullptr) return LogLevel::kInfo;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "off") == 0) return LogLevel::kOff;
  return LogLevel::kInfo;
}

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    default: return "?????";
  }
}

struct EnvInit {
  EnvInit() { g_level.store(level_from_env()); }
};
EnvInit g_env_init;
}  // namespace

LogLevel log_level() { return g_level.load(); }
void set_log_level(LogLevel level) { g_level.store(level); }

void log_line(LogLevel level, const std::string& msg) {
  if (static_cast<int>(level) < static_cast<int>(g_level.load())) return;
  MutexLock lock(g_mutex);
  std::fprintf(stderr, "[gnnvault %s] %s\n", level_tag(level), msg.c_str());
}

}  // namespace gv
