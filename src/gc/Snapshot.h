//===- gc/Snapshot.h - Versioned machine-state snapshots --------*- C++ -*-===//
///
/// \file
/// Post-mortem heap snapshots (DESIGN.md §3.14): serialize a machine's
/// entire typed state — memory M, the typing witness Ψ,
/// step count / status / stuck reason, the delta-journal tail, and the
/// fresh-name bookkeeping — to a self-describing binary file, and load it
/// back into a standalone context for offline inspection.
///
/// The design goal is *verdict fidelity*: re-running checkState (or the
/// incremental checker) over a loaded snapshot must reproduce the live
/// run's diagnostic byte for byte. Three ingredients make that hold:
///
///  * the whole SymbolTable is serialized in id order, so the loaded
///    context's symbol ids — and with them every sortedRegionSyms ordering
///    and every fresh() collision-skip — replay identically;
///  * the context's fresh-name namespace tag and the oracle counter are
///    saved and restored, so checker-minted names are spelled the same;
///  * cells are serialized from the *decoded* view (decodeAll runs first),
///    so a corrupted-but-decodable heap round-trips exactly.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_GC_SNAPSHOT_H
#define SCAV_GC_SNAPSHOT_H

#include "gc/StateCheck.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace scav::gc {

/// Why a snapshot was taken, and the checking configuration that produced
/// the recorded diagnostic — everything certgc_inspect needs to re-run the
/// checkers with the live run's exact options.
struct SnapshotMeta {
  /// Failure class: "check-failure", "stuck", "stall", "manual", ...
  std::string Kind;
  /// The live run's verdict/diagnostic text ("" for healthy snapshots).
  std::string Diagnostic;
  /// Which checker produced Diagnostic: "full", "incremental", or "".
  std::string Checker;
  /// The StateCheckOptions the live run checked under.
  bool RestrictToReachable = false;
  bool CheckCodeRegion = false;
};

/// A machine state loaded back from a snapshot: a standalone context plus
/// the reconstructed memory/Ψ and every header field. Non-copyable — Memory
/// holds interior pointers and the nodes live in Ctx's arena.
class Snapshot {
public:
  Snapshot() = default;
  Snapshot(const Snapshot &) = delete;
  Snapshot &operator=(const Snapshot &) = delete;
  ~Snapshot();

  std::unique_ptr<GcContext> Ctx;
  std::unique_ptr<Memory> Mem;
  MemoryType Psi;

  LanguageLevel Level = LanguageLevel::Base;
  Machine::Status Status = Machine::Status::Running;
  uint64_t Steps = 0;
  std::string StuckReason;
  const Term *CurrentTerm = nullptr; ///< Closed term, null when halted.
  const Value *HaltValue = nullptr;
  bool TypeTrackingOk = true;
  std::string TypeTrackingError;
  /// Fresh-name reproduction state (see file comment).
  std::string FreshNamespace;
  uint64_t OracleFreshCtr = 0;
  SnapshotMeta Meta;
  /// Delta-journal tail (absolute base index + retained events).
  uint64_t JournalBase = 0;
  std::vector<DeltaEvent> Journal;
};

/// CheckSubject over a loaded snapshot: lets both state checkers run
/// offline against post-mortem state exactly as they run against a live
/// machine. Journal mutation methods are no-ops (the tail is a record, not
/// a live stream).
class SnapshotSubject final : public CheckSubject {
public:
  explicit SnapshotSubject(Snapshot &S) : S(S) {}

  GcContext &context() override { return *S.Ctx; }
  LanguageLevel level() const override { return S.Level; }
  Memory &memory() override { return *S.Mem; }
  const Memory &memory() const override { return *S.Mem; }
  MemoryType &psi() override { return S.Psi; }
  const MemoryType &psi() const override { return S.Psi; }
  const Term *currentTerm() const override { return S.CurrentTerm; }
  bool typeTrackingOk() const override { return S.TypeTrackingOk; }
  std::string typeTrackingError() const override {
    return S.TypeTrackingError;
  }
  void enableDeltaJournal() override {}
  uint64_t journalEnd() const override {
    return S.JournalBase + S.Journal.size();
  }
  const DeltaEvent &journalEvent(uint64_t AbsIdx) const override {
    return S.Journal[static_cast<size_t>(AbsIdx - S.JournalBase)];
  }
  void trimJournal(uint64_t) override {}

private:
  Snapshot &S;
};

/// Serializes \p M's full state (format v1, little-endian, magic
/// "SCAVSNP1"). Decodes every compact cell first; \p M is otherwise
/// unchanged.
std::string serializeSnapshot(Machine &M, const SnapshotMeta &Meta = {});

/// serializeSnapshot + write to \p Path. Returns false (filling \p Error)
/// on I/O failure.
bool saveSnapshot(Machine &M, const SnapshotMeta &Meta,
                  const std::string &Path, std::string &Error);

/// Parses a snapshot image back into a standalone context. Returns null and
/// fills \p Error on malformed input — any byte sequence either parses or
/// is rejected, never crashing the process.
std::unique_ptr<Snapshot> parseSnapshot(std::string_view Bytes,
                                        std::string &Error);

/// Reads + parses \p Path.
std::unique_ptr<Snapshot> loadSnapshot(const std::string &Path,
                                       std::string &Error);

/// Re-runs the full state checker over a loaded snapshot under the meta's
/// recorded options — the offline reproduction of the live verdict.
StateCheckResult recheckSnapshot(Snapshot &S);

/// Same, with the incremental engine (first check = full resync).
StateCheckResult recheckSnapshotIncremental(Snapshot &S);

/// Structural diff of two snapshots (step N vs N+1, say): regions present
/// in one but not the other, per-cell value/Ψ differences (compared by
/// printed form — name-based, so cross-context comparison is exact),
/// current term, status, steps, journal. Returns "" when equal.
std::string diffSnapshots(const Snapshot &A, const Snapshot &B);

/// One-line-per-region summary ("name: cells=N capacity=C psi=P").
std::string describeSnapshot(const Snapshot &S);

} // namespace scav::gc

#endif // SCAV_GC_SNAPSHOT_H
