//===- support/Trace.h - Structured tracing with Perfetto export -*- C++ -*-===//
///
/// \file
/// Low-overhead structured tracing for the whole stack (DESIGN.md §3.9).
///
/// Three event primitives, modelled on the Chrome/Perfetto trace-event
/// format so a capture opens directly in ui.perfetto.dev:
///
///   TRACE_SCOPE(cat, name)        duration pair (ph B/E) via RAII
///   TRACE_INSTANT(cat, name)      point event (ph i)
///   TRACE_COUNTER(name, value)    counter-track sample (ph C)
///
/// The sink is a fixed-capacity ring of POD events behind an atomic write
/// cursor ("lock-free-ish": producers are wait-free; the rare dynamic-name
/// intern and the export paths take a mutex). Tracing costs one relaxed
/// atomic load per call site while disabled, and the whole subsystem
/// compiles out to nothing under -DSCAV_TRACE_OFF (the macros expand
/// empty and SCAV_TRACE_ENABLED() folds to `false`, so every guarded
/// block is dead code).
///
/// Event names must be *stable* strings: string literals, or dynamic
/// strings registered once through TraceSink::intern (region names, code
/// labels). Events carry a steady-clock nanosecond timestamp; the exporter
/// re-bases to microseconds relative to the first retained event.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_SUPPORT_TRACE_H
#define SCAV_SUPPORT_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace scav::support {

/// Perfetto phase of one trace event.
enum class TracePhase : uint8_t {
  Begin,   ///< "B" — scope open
  End,     ///< "E" — scope close
  Instant, ///< "i" — point event
  Counter, ///< "C" — counter sample
};

struct TraceEvent {
  TracePhase Ph = TracePhase::Instant;
  const char *Cat = "";  ///< Category (stable string).
  const char *Name = ""; ///< Event / counter name (stable string).
  uint64_t TsNs = 0;     ///< steady_clock nanoseconds.
  double Value = 0;      ///< Counter events only.
  uint32_t Tid = 1;      ///< Small per-thread id (TraceSink::threadId).
};

/// Process-global event sink: a fixed ring that keeps the most recent
/// events. Disabled by default; enabling is idempotent and cheap.
class TraceSink {
public:
  static TraceSink &get() {
    static TraceSink S;
    return S;
  }
  static bool enabled() {
    return get().On.load(std::memory_order_relaxed);
  }

  /// Enables recording into a ring of \p Capacity events (rounded up to a
  /// power of two). Re-enabling with a different capacity reallocates and
  /// clears; re-enabling with the same capacity is a no-op.
  void enable(size_t Capacity = DefaultCapacity) {
    std::lock_guard<std::mutex> L(Mu);
    size_t Cap = 1;
    while (Cap < Capacity)
      Cap <<= 1;
    if (Ring.size() != Cap) {
      Ring.assign(Cap, TraceEvent{});
      Next.store(0, std::memory_order_relaxed);
    }
    On.store(true, std::memory_order_relaxed);
  }
  void disable() { On.store(false, std::memory_order_relaxed); }

  /// Drops every recorded event (capacity is kept).
  void clear() {
    std::lock_guard<std::mutex> L(Mu);
    Next.store(0, std::memory_order_relaxed);
    for (TraceEvent &E : Ring)
      E = TraceEvent{};
  }

  static uint64_t nowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Small dense id for the calling thread (1 = first caller, normally the
  /// mutator/main thread), used as the Perfetto tid so serve session
  /// workers and the async checker get their own tracks.
  static uint32_t threadId() {
    static std::atomic<uint32_t> NextTid{1};
    thread_local uint32_t Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
    return Tid;
  }

  /// The disabled path stays one relaxed load (the E11 tracing-overhead
  /// gate measures exactly this); the enabled path takes the sink mutex so
  /// concurrent producers — collector workers, the async checker — never
  /// race on a ring slot. Tracing *enabled* is already the slow, observed
  /// configuration, so a mutex there is an acceptable price for events
  /// that are well-formed under TSan.
  void record(TracePhase Ph, const char *Cat, const char *Name,
              double Value = 0) {
    if (!On.load(std::memory_order_relaxed))
      return;
    uint32_t Tid = threadId();
    std::lock_guard<std::mutex> L(Mu);
    if (Ring.empty())
      return;
    uint64_t Slot = Next.fetch_add(1, std::memory_order_relaxed);
    TraceEvent &E = Ring[Slot & (Ring.size() - 1)];
    E.Ph = Ph;
    E.Cat = Cat;
    E.Name = Name;
    E.TsNs = nowNs();
    E.Value = Value;
    E.Tid = Tid;
  }

  void begin(const char *Cat, const char *Name) {
    record(TracePhase::Begin, Cat, Name);
  }
  void end(const char *Cat, const char *Name) {
    record(TracePhase::End, Cat, Name);
  }
  void instant(const char *Cat, const char *Name) {
    record(TracePhase::Instant, Cat, Name);
  }
  void counter(const char *Name, double Value) {
    record(TracePhase::Counter, "counter", Name, Value);
  }

  /// Returns a stable copy of \p S for use as an event name. Interning is
  /// slow-path only (region creation, code install) — never per event.
  const char *intern(std::string_view S) {
    std::lock_guard<std::mutex> L(Mu);
    for (const std::string &Have : Interned)
      if (Have == S)
        return Have.c_str();
    Interned.emplace_back(S);
    return Interned.back().c_str();
  }

  /// Events recorded minus events retained (ring overwrite count).
  uint64_t dropped() const {
    uint64_t N = Next.load(std::memory_order_relaxed);
    return N > Ring.size() ? N - Ring.size() : 0;
  }
  uint64_t recorded() const { return Next.load(std::memory_order_relaxed); }

  /// The retained events, oldest first.
  std::vector<TraceEvent> snapshot() const {
    std::lock_guard<std::mutex> L(Mu);
    std::vector<TraceEvent> Out;
    uint64_t N = Next.load(std::memory_order_relaxed);
    if (Ring.empty() || N == 0)
      return Out;
    uint64_t Count = N < Ring.size() ? N : Ring.size();
    Out.reserve(Count);
    for (uint64_t I = N - Count; I != N; ++I)
      Out.push_back(Ring[I & (Ring.size() - 1)]);
    return Out;
  }

  /// Human-readable dump of the last \p N events (fuzz triage reports).
  std::string formatTail(size_t N) const {
    std::vector<TraceEvent> Evs = snapshot();
    size_t Start = Evs.size() > N ? Evs.size() - N : 0;
    std::string Out;
    char Buf[256];
    for (size_t I = Start; I != Evs.size(); ++I) {
      const TraceEvent &E = Evs[I];
      const char *Ph = E.Ph == TracePhase::Begin    ? "B"
                       : E.Ph == TracePhase::End    ? "E"
                       : E.Ph == TracePhase::Counter ? "C"
                                                     : "i";
      if (E.Ph == TracePhase::Counter)
        std::snprintf(Buf, sizeof(Buf), "  [trace] %s %s %s = %.17g\n", Ph,
                      E.Cat, E.Name, E.Value);
      else
        std::snprintf(Buf, sizeof(Buf), "  [trace] %s %s %s\n", Ph, E.Cat,
                      E.Name);
      Out += Buf;
    }
    if (Start > 0 || dropped() > 0) {
      std::snprintf(Buf, sizeof(Buf),
                    "  [trace] (%llu earlier events not shown)\n",
                    static_cast<unsigned long long>(Start + dropped()));
      Out = Buf + Out;
    }
    return Out;
  }

  /// Serializes the retained events as Chrome/Perfetto trace-event JSON
  /// ({"traceEvents": [...]}, the legacy JSON format every Perfetto build
  /// accepts). Duration pairs are balanced *per thread track* — B/E
  /// nesting is only meaningful within one tid: an End whose Begin was
  /// overwritten by the ring gets a synthetic Begin at the window start,
  /// and an unclosed Begin gets a synthetic End at the window end, so no
  /// track ever contains an unpaired duration event.
  std::string toChromeJson() const {
    std::vector<TraceEvent> Evs = snapshot();
    // One pass: per-tid open-Begin stacks; Ends with no open Begin on
    // their track are window-sliced orphans.
    std::map<uint32_t, std::vector<TraceEvent>> Open;
    std::vector<TraceEvent> Orphans;
    for (const TraceEvent &E : Evs) {
      if (E.Ph == TracePhase::Begin)
        Open[E.Tid].push_back(E);
      else if (E.Ph == TracePhase::End) {
        auto &Stack = Open[E.Tid];
        if (!Stack.empty())
          Stack.pop_back();
        else
          Orphans.push_back(E);
      }
    }
    uint64_t T0 = Evs.empty() ? 0 : Evs.front().TsNs;
    uint64_t TEnd = Evs.empty() ? 0 : Evs.back().TsNs;
    std::string Out = "{\"traceEvents\": [\n";
    bool First = true;
    char Buf[512];
    auto Emit = [&](const TraceEvent &E, uint64_t Ts) {
      const char *Ph = E.Ph == TracePhase::Begin    ? "B"
                       : E.Ph == TracePhase::End    ? "E"
                       : E.Ph == TracePhase::Counter ? "C"
                                                     : "i";
      double Us = static_cast<double>(Ts - T0) / 1000.0;
      unsigned Tid = E.Tid;
      if (E.Ph == TracePhase::Counter)
        std::snprintf(Buf, sizeof(Buf),
                      "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"C\", "
                      "\"ts\": %.3f, \"pid\": 1, \"tid\": %u, "
                      "\"args\": {\"value\": %.17g}}",
                      First ? "" : ",\n", E.Name, E.Cat, Us, Tid, E.Value);
      else if (E.Ph == TracePhase::Instant)
        std::snprintf(Buf, sizeof(Buf),
                      "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"i\", "
                      "\"s\": \"t\", \"ts\": %.3f, \"pid\": 1, \"tid\": %u}",
                      First ? "" : ",\n", E.Name, E.Cat, Us, Tid);
      else
        std::snprintf(Buf, sizeof(Buf),
                      "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\", "
                      "\"ts\": %.3f, \"pid\": 1, \"tid\": %u}",
                      First ? "" : ",\n", E.Name, E.Cat, Ph, Us, Tid);
      Out += Buf;
      First = false;
    };
    // Synthetic Begins for window-sliced scopes (encounter order preserves
    // per-track nesting: on each track the outermost orphan End came last,
    // so its Begin is emitted last → innermost... outermost order holds).
    for (const TraceEvent &E : Orphans) {
      TraceEvent B = E;
      B.Ph = TracePhase::Begin;
      Emit(B, T0);
    }
    for (const TraceEvent &E : Evs)
      Emit(E, E.TsNs);
    // Synthetic Ends for still-open scopes, innermost first per track.
    for (auto &[Tid, Stack] : Open) {
      for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
        TraceEvent End = *It;
        End.Ph = TracePhase::End;
        Emit(End, TEnd);
      }
    }
    Out += "\n]}\n";
    return Out;
  }

  /// Writes toChromeJson() to \p Path; returns false on I/O failure.
  bool writeChromeJson(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::string S = toChromeJson();
    bool Ok = std::fwrite(S.data(), 1, S.size(), F) == S.size();
    return std::fclose(F) == 0 && Ok;
  }

  static constexpr size_t DefaultCapacity = 1u << 16;

private:
  TraceSink() = default;

  std::atomic<bool> On{false};
  std::atomic<uint64_t> Next{0};
  std::vector<TraceEvent> Ring;
  mutable std::mutex Mu;
  std::deque<std::string> Interned; ///< Stable storage for dynamic names.
};

/// RAII duration event.
class TraceScope {
public:
  TraceScope(const char *Cat, const char *Name) : Cat(Cat), Name(Name) {
    TraceSink::get().begin(Cat, Name);
  }
  ~TraceScope() { TraceSink::get().end(Cat, Name); }
  TraceScope(const TraceScope &) = delete;
  TraceScope &operator=(const TraceScope &) = delete;

private:
  const char *Cat;
  const char *Name;
};

} // namespace scav::support

// Compile-out toggle: -DSCAV_TRACE_OFF removes every call site (the hot
// paths guard instrumentation blocks with SCAV_TRACE_ENABLED(), which
// folds to a constant false and lets the compiler delete the block).
#ifdef SCAV_TRACE_OFF

#define SCAV_TRACE_COMPILED_IN 0
#define SCAV_TRACE_ENABLED() (false)
#define TRACE_SCOPE(CAT, NAME)
#define TRACE_INSTANT(CAT, NAME)
#define TRACE_COUNTER(NAME, VALUE)

#else

#define SCAV_TRACE_COMPILED_IN 1
#define SCAV_TRACE_ENABLED() (::scav::support::TraceSink::enabled())
#define SCAV_TRACE_CONCAT_(A, B) A##B
#define SCAV_TRACE_CONCAT(A, B) SCAV_TRACE_CONCAT_(A, B)
#define TRACE_SCOPE(CAT, NAME)                                                 \
  ::scav::support::TraceScope SCAV_TRACE_CONCAT(ScavTraceScope_,               \
                                                __LINE__)(CAT, NAME)
#define TRACE_INSTANT(CAT, NAME)                                               \
  do {                                                                         \
    if (SCAV_TRACE_ENABLED())                                                  \
      ::scav::support::TraceSink::get().instant(CAT, NAME);                    \
  } while (0)
#define TRACE_COUNTER(NAME, VALUE)                                             \
  do {                                                                         \
    if (SCAV_TRACE_ENABLED())                                                  \
      ::scav::support::TraceSink::get().counter(                               \
          NAME, static_cast<double>(VALUE));                                   \
  } while (0)

#endif // SCAV_TRACE_OFF

#endif // SCAV_SUPPORT_TRACE_H
