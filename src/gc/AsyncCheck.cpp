//===- gc/AsyncCheck.cpp - Pipelined state certification ------------------===//

#include "gc/AsyncCheck.h"

#include "gc/Ops.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace scav;
using namespace scav::gc;

//===----------------------------------------------------------------------===//
// MirrorSubject
//===----------------------------------------------------------------------===//

MirrorSubject::MirrorSubject(GcContext &MachineCtx, LanguageLevel Level)
    : Ctx(MachineCtx.symbols()), Lvl(Level), Mem(MachineCtx.cd().sym(), Ctx) {
  // Inherit the machine context's fresh namespace so the mirror's
  // "c"-scoped checker mints (FreshScope appends) stay disjoint from other
  // sessions' checkers when many sessions share one SymbolTable — and keep
  // the exact spellings the synchronous checker would produce.
  Ctx.setFreshNamespace(MachineCtx.freshNamespace());
}

const Term *MirrorSubject::currentTerm() const {
  if (!Cur)
    return nullptr;
  if (Env.empty())
    return Cur;
  // Forcing allocates in the observer context, on the checker thread —
  // this is the work the capture deliberately deferred off the mutator.
  // Unmemoized for the same reason Machine::currentTerm is: callers run
  // under a GcContext::Scope that reclaims the result.
  auto *Self = const_cast<MirrorSubject *>(this);
  return closeTerm(Self->Ctx, Cur, Env);
}

void MirrorSubject::trimJournal(uint64_t UpToAbs) {
  while (JBase < UpToAbs && !J.empty()) {
    J.pop_front();
    ++JBase;
  }
}

void MirrorSubject::applyDelta(const RegionDelta &D) {
  // A region's first delta may arrive before any create event for it (it
  // predates the session), so the delta itself brings the region in.
  if (D.HasMem && !Mem.hasRegion(D.S))
    Mem.addRegion(D.S, 0);
  if (D.Snapshot) {
    if (D.HasMem)
      Mem.replaceCells(D.S, D.SnapCells, D.MemOverflow);
    if (D.HasPsi) {
      RegionType &PT = Psi.Regions[D.S];
      PT.Cells = D.SnapPsi;
      PT.clearDirty();
      PT.DirtyOverflow = D.PsiOverflow;
      ++PT.Version;
    }
    return;
  }
  if (D.HasMem) {
    for (const Value *V : D.Tail)
      Mem.put(D.S, V);
    for (auto [Off, V] : D.Dirty) {
      bool Ok = Mem.fill(Address{Region::name(D.S), Off}, V);
      assert(Ok && "dirty offset past mirror extent");
      (void)Ok;
    }
  }
  if (D.HasPsi) {
    RegionType &PT = Psi.Regions[D.S];
    for (const Type *T : D.PsiTail)
      PT.Cells.push_back(T);
    for (auto [Off, T] : D.PsiDirty) {
      assert(Off < PT.Cells.size() && "psi dirty offset past mirror extent");
      PT.Cells[Off] = T;
      PT.logDirty(Off);
    }
    if (!D.PsiTail.empty() || !D.PsiDirty.empty())
      ++PT.Version;
  }
}

void MirrorSubject::apply(CheckUnit &U) {
  TtOk = U.TypeTrackingOk;
  TtErr = std::move(U.TypeTrackingError);
  Cur = U.Cur;
  Env = std::move(U.Env);

  // Journal first: structural create/drop events must land before the
  // deltas that reference (or no longer reference) those regions. The
  // engine re-reads the same events from the mirror journal on its own
  // cursor, so invalidation semantics match the synchronous run exactly.
  for (const DeltaEvent &Ev : U.Journal) {
    J.push_back(Ev);
    switch (Ev.Kind) {
    case DeltaKind::RegionCreated:
      // Machine::createRegion makes both sides (Memory.addRegion +
      // Psi.addRegion); reproduce that.
      if (!Mem.hasRegion(Ev.R))
        Mem.addRegion(Ev.R, 0);
      Psi.addRegion(Ev.R);
      break;
    case DeltaKind::RegionDropped:
      Mem.removeRegion(Ev.R);
      Psi.removeRegion(Ev.R);
      break;
    case DeltaKind::RegionWidened:
    case DeltaKind::ExternalMutation:
      break; // data arrives via snapshot deltas
    }
  }

  if (U.FullSnapshot) {
    // Wholesale rebuild: drop every region the snapshot does not list (the
    // listed ones are replaced cell for cell below). The journal's
    // ExternalMutation event makes the engine resync, so no per-region
    // dirty bookkeeping is needed.
    RegionSet Listed;
    for (const RegionDelta &D : U.Deltas)
      if (D.HasMem)
        Listed.insert(Region::name(D.S));
    Mem.restrictTo(Listed);
    Psi.Regions.clear();
  }
  for (const RegionDelta &D : U.Deltas)
    applyDelta(D);
}

//===----------------------------------------------------------------------===//
// AsyncCheckSession
//===----------------------------------------------------------------------===//

AsyncCheckSession::AsyncCheckSession(Machine &M, Options Opts)
    : M(M), Opts(Opts), Queue(std::max<size_t>(1, Opts.QueueCapacity)),
      Mirror(std::make_unique<MirrorSubject>(M.context(), M.level())),
      Engine(std::make_unique<IncrementalStateCheck>(*Mirror, Opts.Check)) {
  M.enableDeltaJournal();
  CaptureJCursor = M.journalEnd();
  Checker = std::thread([this] { checkerLoop(); });
}

AsyncCheckSession::~AsyncCheckSession() { finish(); }

bool AsyncCheckSession::failed() const {
  return FailedFlag.load(std::memory_order_acquire);
}

void AsyncCheckSession::recordFailure(AsyncVerdict V) {
  std::lock_guard<std::mutex> L(Mu);
  // Earliest unit wins: the checker consumes in order, so its first
  // failure already is the earliest; a mutator-side lag-net failure can
  // only be *later* than anything still queued, so keep an existing entry.
  if (!Failure || V.UnitIndex < Failure->UnitIndex)
    Failure = std::move(V);
  FailedFlag.store(true, std::memory_order_release);
}

void AsyncCheckSession::checkerLoop() {
  TRACE_SCOPE("checker", "check.async.thread");
  while (std::optional<CheckUnit> U = Queue.pop()) {
    TRACE_SCOPE("checker", "check.async.unit");
    Mirror->apply(*U);
    StateCheckResult R = Engine->check();
    ++Stats.UnitsChecked;
    if (!R.Ok) {
      recordFailure(AsyncVerdict{false, U->Index, U->Steps,
                                 std::move(R.Error)});
      return; // stop consuming; remaining units die with the queue
    }
  }
}

void AsyncCheckSession::buildUnit(CheckUnit &U) {
  U.Index = NextIndex++;
  U.Steps = M.stats().Steps;
  U.TypeTrackingOk = M.typeTrackingOk();
  if (!U.TypeTrackingOk)
    U.TypeTrackingError = M.typeTrackingError();
  U.Cur = M.rawTerm();
  U.Env = M.rawEnv();

  // Snapshot/tail/dirty capture below reads Cells directly, so
  // word-written cells must be decoded first. Mutator-thread only — the
  // checker thread sees the already-decoded pointers in the unit.
  M.memory().decodeAll();

  // Consume the machine journal (this session is its sole consumer; the
  // engine consumes the *mirror's* copy on its own cursor).
  bool External = false;
  std::unordered_set<Symbol, SymbolHash> Widened;
  uint64_t End = M.journalEnd();
  for (; CaptureJCursor != End; ++CaptureJCursor) {
    const DeltaEvent &Ev = M.journalEvent(CaptureJCursor);
    U.Journal.push_back(Ev);
    switch (Ev.Kind) {
    case DeltaKind::ExternalMutation:
      External = true;
      break;
    case DeltaKind::RegionWidened:
      Widened.insert(Ev.R);
      break;
    case DeltaKind::RegionDropped:
      Cursors.erase(Ev.R);
      break;
    case DeltaKind::RegionCreated:
      break;
    }
  }
  M.trimJournal(End);

  if (External || PendingResync) {
    // Out-of-band mutation (the journal cannot say what changed) or a
    // lag-dropped unit whose deltas are gone: ship the whole state. A
    // synthetic ExternalMutation event makes the engine resync for the
    // lag case exactly as it would for real external surgery.
    U.FullSnapshot = true;
    ++Stats.Snapshots;
    if (!External)
      U.Journal.push_back(DeltaEvent{DeltaKind::ExternalMutation, {}, {}});
    PendingResync = false;
    Cursors.clear();
    for (auto &[S, RD] : M.memory().Regions) {
      RegionDelta D;
      D.S = S;
      D.Snapshot = true;
      D.SnapCells = RD.Cells;
      D.MemOverflow = false; // snapshot is exact; resync revisits all cells
      RD.clearDirty();
      auto PIt = M.psi().Regions.find(S);
      D.HasPsi = PIt != M.psi().Regions.end();
      size_t PsiN = 0;
      if (D.HasPsi) {
        D.SnapPsi = PIt->second.Cells;
        PIt->second.clearDirty();
        PsiN = D.SnapPsi.size();
      }
      Cursors[S] = CaptureCursor{RD.Cells.size(), PsiN};
      U.Deltas.push_back(std::move(D));
    }
    // Ψ-only regions (forged domain mismatches) must survive the mirror
    // rebuild so the engine rejects them identically.
    for (auto &[S, PT] : M.psi().Regions) {
      if (M.memory().hasRegion(S))
        continue;
      RegionDelta D;
      D.S = S;
      D.Snapshot = true;
      D.HasMem = false;
      D.SnapPsi = PT.Cells;
      PT.clearDirty();
      Cursors[S] = CaptureCursor{0, PT.Cells.size()};
      U.Deltas.push_back(std::move(D));
    }
    return;
  }

  // Delta path: per region, the appended tail plus the dirty log — which
  // this capture consumes (satisfying Memory.h's clear-on-consumption
  // contract). A widen rewrote cells/Ψ in place *without* logging, and an
  // overflowed log forgot its offsets: both degrade to a region snapshot.
  for (auto &[S, RD] : M.memory().Regions) {
    auto PIt = M.psi().Regions.find(S);
    RegionType *PT = PIt == M.psi().Regions.end() ? nullptr : &PIt->second;
    // A region without a cursor has never been captured: it must ship a
    // delta even when empty and quiet (an empty pre-session region — the
    // fresh old generation, say — would otherwise never reach the mirror,
    // and every type mentioning it would fail the Dom(Ψ) check there).
    bool Known = Cursors.count(S) != 0;
    CaptureCursor &Cap = Cursors[S]; // zero-init for regions new this window
    RegionDelta D;
    D.S = S;
    D.HasPsi = PT != nullptr;
    if (Widened.count(S) != 0 || RD.DirtyOverflow ||
        (PT && PT->DirtyOverflow)) {
      D.Snapshot = true;
      D.SnapCells = RD.Cells;
      // Only a real overflow needs the flag on the mirror (all-established
      // -dirty); a widen's journal event already invalidates the region.
      D.MemOverflow = RD.DirtyOverflow;
      if (PT) {
        D.SnapPsi = PT->Cells;
        D.PsiOverflow = PT->DirtyOverflow;
      }
    } else {
      bool MemQuiet = Cap.MemCells == RD.Cells.size() && RD.DirtyLog.empty();
      bool PsiQuiet =
          !PT || (Cap.PsiCells == PT->Cells.size() && PT->DirtyLog.empty());
      if (Known && MemQuiet && PsiQuiet)
        continue; // untouched region the mirror already tracks
      D.Tail.assign(RD.Cells.begin() + Cap.MemCells, RD.Cells.end());
      D.Dirty.reserve(RD.DirtyLog.size());
      for (uint32_t Off : RD.DirtyLog)
        D.Dirty.emplace_back(Off, RD.Cells[Off]);
      if (PT) {
        D.PsiTail.assign(PT->Cells.begin() + Cap.PsiCells, PT->Cells.end());
        D.PsiDirty.reserve(PT->DirtyLog.size());
        for (uint32_t Off : PT->DirtyLog)
          D.PsiDirty.emplace_back(Off, PT->Cells[Off]);
      }
    }
    RD.clearDirty();
    if (PT)
      PT->clearDirty();
    Cap.MemCells = RD.Cells.size();
    Cap.PsiCells = PT ? PT->Cells.size() : 0;
    U.Deltas.push_back(std::move(D));
  }
  // Ψ-only regions on the delta path can only appear through surgery that
  // also journals ExternalMutation (handled above); nothing to do here.
}

bool AsyncCheckSession::capture() {
  if (failed())
    return false;
  TRACE_SCOPE("checker", "check.async.capture");
  CheckUnit U;
  buildUnit(U);
  ++Stats.UnitsCaptured;

  using std::chrono::milliseconds;
  if (Queue.tryPushFor(U, milliseconds(Opts.PushTimeoutMs))) {
    DepthSamples.push_back(Queue.size());
    return !failed();
  }
  if (failed())
    return false; // checker stopped on a verdict; nothing to fall back to

  // Lag safety net: the checker is more than a full queue behind. Certify
  // synchronously right now (bounded staleness), drop this unit — its
  // consumed dirty logs are covered by the snapshot the next capture will
  // ship — and resync the pipeline.
  TRACE_INSTANT("checker", "check.async.lag_resync");
  ++Stats.LagResyncs;
  PendingResync = true;
  StateCheckOptions Sync;
  Sync.CheckCodeRegion = false; // post-attach cadence, same as the engine
  Sync.RestrictToReachable = Opts.Check.RestrictToReachable;
  StateCheckResult R = checkState(M, Sync);
  if (!R.Ok) {
    recordFailure(AsyncVerdict{false, U.Index, U.Steps, std::move(R.Error)});
    return false;
  }
  return true;
}

AsyncVerdict AsyncCheckSession::finish() {
  if (!Finished) {
    Finished = true;
    Queue.close();
    if (Checker.joinable())
      Checker.join();
    Stats.Engine = Engine->stats();
    if (!DepthSamples.empty()) {
      std::sort(DepthSamples.begin(), DepthSamples.end());
      auto Pct = [&](double P) {
        size_t I = static_cast<size_t>(P * (DepthSamples.size() - 1));
        return DepthSamples[I];
      };
      Stats.QueueDepthP50 = Pct(0.50);
      Stats.QueueDepthP99 = Pct(0.99);
      Stats.QueueDepthMax = DepthSamples.back();
    }
  }
  std::lock_guard<std::mutex> L(Mu);
  return Failure ? *Failure : AsyncVerdict{};
}
