#include "obs/recorder.h"

#ifdef CARDIR_OBS_ENABLED

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstring>

#include "obs/metrics.h"
#include "obs/raw_format.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace cardir {
namespace obs {
namespace {

// Per-thread ring. Single writer (the owning thread); `head` is the
// monotonic count of events ever appended, published with release so the
// dump path sees fully written slots for every sequence number below it.
struct ThreadRing {
  RecorderEvent events[kRingCapacity];
  std::atomic<uint64_t> head{0};
  uint32_t tid = 0;
};

// Fixed lock-free registration array: the dump path must be able to walk
// all rings from a signal handler, where taking a mutex could deadlock
// against the thread that crashed while holding it. Rings are leaked on
// thread exit so post-mortem dumps still include joined workers.
constexpr size_t kMaxRings = 256;
std::atomic<ThreadRing*> g_rings[kMaxRings] = {};
std::atomic<size_t> g_ring_count{0};

std::atomic<bool> g_recording{false};

ThreadRing* LocalRing() {
  thread_local ThreadRing* ring = [] {
    auto* fresh = new ThreadRing();
    fresh->tid = static_cast<uint32_t>(ThisThreadIndex());
    const size_t slot = g_ring_count.fetch_add(1, std::memory_order_relaxed);
    if (slot < kMaxRings) {
      g_rings[slot].store(fresh, std::memory_order_release);
    }
    return fresh;
  }();
  return ring;
}

const char* KindName(uint16_t kind) {
  switch (static_cast<RecordKind>(kind)) {
    case RecordKind::kMark: return "mark";
    case RecordKind::kPhase: return "phase";
    case RecordKind::kChunk: return "chunk";
    case RecordKind::kLog: return "log";
    case RecordKind::kSweep: return "sweep";
    case RecordKind::kDelta: return "delta";
  }
  return "unknown";
}

void RawWrite(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n <= 0) return;
    written += static_cast<size_t>(n);
  }
}

void WriteHeaderLine(int fd, const char* text) {
  RawWrite(fd, text, std::strlen(text));
}

// --- Log-line tail ---------------------------------------------------------

void LogTailHook(const char* line, size_t length) {
  if (!FlightRecorderEnabled()) return;
  // Strip the trailing newline; RecordEvent sanitises the rest on dump.
  if (length > 0 && line[length - 1] == '\n') --length;
  char clipped[sizeof(RecorderEvent{}.label)];
  const size_t n = length < sizeof(clipped) - 1 ? length : sizeof(clipped) - 1;
  std::memcpy(clipped, line, n);
  clipped[n] = '\0';
  RecordEvent(RecordKind::kLog, clipped, length, 0);
}

// --- Crash handler ---------------------------------------------------------

char g_dump_path[512] = {};

void CrashHandler(int sig) {
  // SA_RESETHAND already restored the default disposition. Dump, then
  // re-raise so the process still dies with the original signal status.
  if (g_dump_path[0] != '\0') {
    DumpFlightRecordToPath(g_dump_path);
  }
  ::raise(sig);
}

}  // namespace

void EnableFlightRecorder(bool enabled) {
  g_recording.store(enabled, std::memory_order_release);
}

bool FlightRecorderEnabled() {
  return g_recording.load(std::memory_order_relaxed);
}

void RecordEvent(RecordKind kind, const char* label, uint64_t a, uint64_t b) {
  if (!FlightRecorderEnabled()) return;
  ThreadRing* ring = LocalRing();
  const uint64_t seq = ring->head.load(std::memory_order_relaxed);
  RecorderEvent& slot = ring->events[seq % kRingCapacity];
  slot.time_us = TraceNowMicros();
  slot.tid = ring->tid;
  slot.kind = static_cast<uint16_t>(kind);
  slot.a = a;
  slot.b = b;
  if (label == nullptr) label = "";
  const size_t n = std::strlen(label);
  const size_t clip = n < sizeof(slot.label) - 1 ? n : sizeof(slot.label) - 1;
  std::memcpy(slot.label, label, clip);
  slot.label[clip] = '\0';
  ring->head.store(seq + 1, std::memory_order_release);
}

uint64_t ThisThreadRecordedCount() {
  return LocalRing()->head.load(std::memory_order_relaxed);
}

size_t FormatRecordLine(const RecorderEvent& event, char* buf, size_t cap) {
  size_t len = 0;
  len = raw::AppendStr(buf, len, cap, "event t_us=");
  len = raw::AppendU64(buf, len, cap, event.time_us);
  len = raw::AppendStr(buf, len, cap, " tid=");
  len = raw::AppendU64(buf, len, cap, event.tid);
  len = raw::AppendStr(buf, len, cap, " kind=");
  len = raw::AppendStr(buf, len, cap, KindName(event.kind));
  len = raw::AppendStr(buf, len, cap, " a=");
  len = raw::AppendU64(buf, len, cap, event.a);
  len = raw::AppendStr(buf, len, cap, " b=");
  len = raw::AppendU64(buf, len, cap, event.b);
  len = raw::AppendStr(buf, len, cap, " label=");
  len = raw::AppendSanitised(buf, len, cap, event.label);
  len = raw::AppendChar(buf, len, cap, '\n');
  return len;
}

size_t DumpFlightRecord(int fd) {
  WriteHeaderLine(fd, "cardir-flight-record v1\n");
  size_t lines = 0;
  const size_t ring_count = g_ring_count.load(std::memory_order_acquire);
  const size_t walk = ring_count < kMaxRings ? ring_count : kMaxRings;
  for (size_t i = 0; i < walk; ++i) {
    const ThreadRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;  // Registration still in flight.
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t start = head > kRingCapacity ? head - kRingCapacity : 0;
    {
      char buf[128];
      size_t len = 0;
      len = raw::AppendStr(buf, len, sizeof(buf), "ring tid=");
      len = raw::AppendU64(buf, len, sizeof(buf), ring->tid);
      len = raw::AppendStr(buf, len, sizeof(buf), " recorded=");
      len = raw::AppendU64(buf, len, sizeof(buf), head);
      len = raw::AppendStr(buf, len, sizeof(buf), " retained=");
      len = raw::AppendU64(buf, len, sizeof(buf), head - start);
      len = raw::AppendChar(buf, len, sizeof(buf), '\n');
      RawWrite(fd, buf, len);
    }
    for (uint64_t seq = start; seq < head; ++seq) {
      char buf[256];
      const size_t len =
          FormatRecordLine(ring->events[seq % kRingCapacity], buf, sizeof(buf));
      RawWrite(fd, buf, len);
      ++lines;
    }
  }
  MetricsRegistry::Global().TryDumpRaw(fd);
  WriteHeaderLine(fd, "end\n");
  return lines;
}

bool DumpFlightRecordToPath(const char* path) {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  DumpFlightRecord(fd);
  ::close(fd);
  return true;
}

void InstallCrashDump(const char* path) {
  const size_t n = std::strlen(path);
  const size_t clip = n < sizeof(g_dump_path) - 1 ? n : sizeof(g_dump_path) - 1;
  std::memcpy(g_dump_path, path, clip);
  g_dump_path[clip] = '\0';
  EnableFlightRecorder(true);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &CrashHandler;
  sigemptyset(&action.sa_mask);
  // One shot: the handler runs once, the disposition resets to default,
  // and the re-raise terminates with the original signal.
  action.sa_flags = SA_RESETHAND;
  ::sigaction(SIGSEGV, &action, nullptr);
  ::sigaction(SIGABRT, &action, nullptr);
  ::sigaction(SIGBUS, &action, nullptr);
}

void CaptureLogTail() { SetLogLineHook(&LogTailHook); }

}  // namespace obs
}  // namespace cardir

#endif  // CARDIR_OBS_ENABLED
