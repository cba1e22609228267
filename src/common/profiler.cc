#include "common/profiler.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/strings.h"
#include "common/trace.h"

#if defined(__linux__)
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>

#include <cstdlib>
#include <cstring>
#endif

namespace ddgms {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

#if defined(__linux__)
/// The handler's target. Set under Profiler::mu_ before the signal is
/// installed and cleared after it is restored.
std::atomic<Profiler*> g_profiler{nullptr};

/// Leading frames of every capture that belong to the profiler itself:
/// Capture(), SignalHandler(), and the kernel signal trampoline
/// (__restore_rt). Dropping them keeps flamegraphs rooted at the
/// interrupted code. Off-by-one here only leaves (or trims) one
/// trampoline frame — cosmetic, never incorrect.
constexpr int kSkipFrames = 3;
#endif

}  // namespace

Profiler& Profiler::Global() {
  static Profiler* profiler = new Profiler();
  return *profiler;
}

#if defined(__linux__)

void Profiler::SignalHandler(int /*signum*/) {
  Profiler* p = g_profiler.load(std::memory_order_acquire);
  if (p == nullptr) return;
  p->Capture();
}

// Not inlined so the fixed kSkipFrames prefix (Capture -> handler ->
// trampoline) stays stable across optimization levels.
__attribute__((noinline)) void Profiler::Capture() {
  if (!armed_.load(std::memory_order_acquire)) return;
  // Everything below is async-signal-safe: backtrace(3) after its
  // first (priming) call, clock_gettime via NowMicros, thread-local
  // reads, and relaxed atomics. No allocation, no locks.
  void* raw[96];
  const int want = std::min<int>(armed_max_depth_ + kSkipFrames, 96);
  int depth = ::backtrace(raw, want);
  int skip = std::min(depth, kSkipFrames);
  depth -= skip;
  const uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
  const size_t slot = index % armed_capacity_;
  void** frames = armed_frames_ + slot * armed_max_depth_;
  for (int i = 0; i < depth; ++i) frames[i] = raw[skip + i];
  SampleMeta& meta = armed_meta_[slot];
  meta.time_us = TraceCollector::Global().NowMicros();
  meta.span_id = TraceCollector::CurrentSpanId();
  meta.depth = depth;
}

Status Profiler::Start(const ProfilerOptions& options) {
  if (options.hz <= 0 || options.hz > 10000) {
    return Status::InvalidArgument("profiler hz must be in [1, 10000]");
  }
  if (options.capacity == 0 || options.max_depth <= 0) {
    return Status::InvalidArgument(
        "profiler capacity and max_depth must be positive");
  }
  MutexLock lock(mu_);
  if (running_) {
    return Status::FailedPrecondition("profiler already running");
  }
  options_ = options;
  options_.max_depth = std::min(options_.max_depth, 64);
  frame_slab_.assign(options_.capacity * options_.max_depth, nullptr);
  meta_.assign(options_.capacity, SampleMeta{0, 0, 0});
  next_.store(0, std::memory_order_relaxed);
  armed_frames_ = frame_slab_.data();
  armed_meta_ = meta_.data();
  armed_capacity_ = options_.capacity;
  armed_max_depth_ = options_.max_depth;

  // backtrace(3) lazily loads libgcc on first use (which mallocs);
  // prime it here so the handler never does.
  void* prime[4];
  (void)::backtrace(prime, 4);
  // Ensure the collector epoch exists before the handler reads it.
  (void)TraceCollector::Global().NowMicros();

  g_profiler.store(this, std::memory_order_release);
  armed_.store(true, std::memory_order_release);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &Profiler::SignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  if (sigaction(SIGALRM, &action, nullptr) != 0) {
    armed_.store(false, std::memory_order_release);
    g_profiler.store(nullptr, std::memory_order_release);
    return Status::Internal("profiler: sigaction(SIGALRM) failed");
  }

  itimerval timer;
  const long interval_us = 1000000L / options_.hz;
  timer.it_interval.tv_sec = interval_us / 1000000L;
  timer.it_interval.tv_usec = interval_us % 1000000L;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_REAL, &timer, nullptr) != 0) {
    armed_.store(false, std::memory_order_release);
    struct sigaction dfl;
    std::memset(&dfl, 0, sizeof(dfl));
    dfl.sa_handler = SIG_DFL;
    sigaction(SIGALRM, &dfl, nullptr);
    g_profiler.store(nullptr, std::memory_order_release);
    return Status::Internal("profiler: setitimer(ITIMER_REAL) failed");
  }
  running_ = true;
  return Status::OK();
}

Status Profiler::Stop() {
  MutexLock lock(mu_);
  if (!running_) {
    return Status::FailedPrecondition("profiler not running");
  }
  itimerval off;
  std::memset(&off, 0, sizeof(off));
  setitimer(ITIMER_REAL, &off, nullptr);
  armed_.store(false, std::memory_order_release);
  struct sigaction dfl;
  std::memset(&dfl, 0, sizeof(dfl));
  dfl.sa_handler = SIG_DFL;
  sigaction(SIGALRM, &dfl, nullptr);
  g_profiler.store(nullptr, std::memory_order_release);
  running_ = false;
  return Status::OK();
}

#else  // !defined(__linux__)

Status Profiler::Start(const ProfilerOptions& /*options*/) {
  return Status::Unimplemented(
      "sampling profiler requires Linux (SIGALRM + execinfo)");
}

Status Profiler::Stop() {
  return Status::FailedPrecondition("profiler not running");
}

void Profiler::SignalHandler(int /*signum*/) {}
void Profiler::Capture() {}

#endif  // defined(__linux__)

bool Profiler::running() const {
  MutexLock lock(mu_);
  return running_;
}

void Profiler::Clear() {
  MutexLock lock(mu_);
  if (running_) return;
  next_.store(0, std::memory_order_relaxed);
  frame_slab_.clear();
  meta_.clear();
  armed_frames_ = nullptr;
  armed_meta_ = nullptr;
  armed_capacity_ = 0;
  armed_max_depth_ = 0;
}

namespace {

std::string SymbolizeFrame(
    void* address, std::unordered_map<void*, std::string>* cache) {
  auto it = cache->find(address);
  if (it != cache->end()) return it->second;
  std::string name;
#if defined(__linux__)
  Dl_info info;
  if (dladdr(address, &info) != 0 && info.dli_sname != nullptr) {
    int demangle_status = 0;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr,
                                          &demangle_status);
    if (demangle_status == 0 && demangled != nullptr) {
      name = demangled;
    } else {
      name = info.dli_sname;
    }
    std::free(demangled);
  }
#endif
  if (name.empty()) {
    name = StrFormat("0x%llx", static_cast<unsigned long long>(
                                   reinterpret_cast<uintptr_t>(address)));
  }
  (*cache)[address] = name;
  return name;
}

}  // namespace

Result<ProfileDump> Profiler::Dump() const {
  MutexLock lock(mu_);
  if (running_) {
    return Status::FailedPrecondition(
        "profiler still running; `profile stop` before dumping");
  }
  ProfileDump dump;
  dump.hz = options_.hz;
  const uint64_t captured = next_.load(std::memory_order_relaxed);
  dump.captured = captured;
  if (meta_.empty() || captured == 0) return dump;
  const size_t capacity = meta_.size();
  const int max_depth =
      static_cast<int>(frame_slab_.size() / capacity);
  const uint64_t retained = std::min<uint64_t>(captured, capacity);
  dump.dropped = captured - retained;
  dump.samples.reserve(retained);
  std::unordered_map<void*, std::string> cache;
  for (uint64_t i = captured - retained; i < captured; ++i) {
    const size_t slot = i % capacity;
    const SampleMeta& meta = meta_[slot];
    ProfileStack stack;
    stack.span_id = meta.span_id;
    stack.time_us = meta.time_us;
    const int depth = std::min(meta.depth, max_depth);
    stack.frames.reserve(depth);
    // backtrace() records leaf-first; store root -> leaf.
    const void* const* frames = frame_slab_.data() + slot * max_depth;
    for (int f = depth - 1; f >= 0; --f) {
      stack.frames.push_back(
          SymbolizeFrame(const_cast<void*>(frames[f]), &cache));
    }
    dump.samples.push_back(std::move(stack));
  }
  return dump;
}

std::string ProfileDump::ToCollapsed() const {
  std::map<std::string, uint64_t> folded;
  for (const ProfileStack& stack : samples) {
    if (stack.frames.empty()) continue;
    std::string key = Join(stack.frames, ";");
    ++folded[key];
  }
  std::string out;
  for (const auto& [key, count] : folded) {
    out += key;
    out += StrFormat(" %llu\n", static_cast<unsigned long long>(count));
  }
  return out;
}

std::string ProfileDump::ToJson() const {
  std::string out = StrFormat(
      "{\"hz\":%d,\"captured\":%llu,\"dropped\":%llu,\"samples\":[", hz,
      static_cast<unsigned long long>(captured),
      static_cast<unsigned long long>(dropped));
  for (size_t i = 0; i < samples.size(); ++i) {
    const ProfileStack& stack = samples[i];
    if (i > 0) out += ",";
    out += StrFormat("{\"time_us\":%llu,\"span_id\":%llu,\"frames\":[",
                     static_cast<unsigned long long>(stack.time_us),
                     static_cast<unsigned long long>(stack.span_id));
    for (size_t f = 0; f < stack.frames.size(); ++f) {
      if (f > 0) out += ",";
      out += '"';
      out += JsonEscape(stack.frames[f]);
      out += '"';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string ProfileDump::Summary() const {
  return StrFormat("%llu samples @%dHz (%llu retained, %llu dropped)",
                   static_cast<unsigned long long>(captured), hz,
                   static_cast<unsigned long long>(samples.size()),
                   static_cast<unsigned long long>(dropped));
}

}  // namespace ddgms
