#include "cpu/core.hh"

#include <algorithm>
#include <iostream>

#include "ckpt/checkpoint.hh"
#include "common/errors.hh"
#include "common/log.hh"

namespace dgsim
{

namespace
{

/// Orders a seq-sorted handle list against a sequence number.
bool
seqBefore(const DynInstPtr &inst, SeqNum seq)
{
    return inst->seq < seq;
}

/** Insert @p inst into the seq-sorted @p list at its place. */
void
insertBySeq(std::vector<DynInstPtr> &list, const DynInstPtr &inst)
{
    list.insert(std::lower_bound(list.begin(), list.end(), inst->seq,
                                 seqBefore),
                inst);
}

/** Remove @p inst, which must be present, from the seq-sorted @p list. */
void
eraseBySeq(std::vector<DynInstPtr> &list, const DynInstPtr &inst)
{
    const auto it =
        std::lower_bound(list.begin(), list.end(), inst->seq, seqBefore);
    DGSIM_ASSERT(it != list.end() && *it == inst,
                 "scheduling list lost seq " + std::to_string(inst->seq));
    list.erase(it);
}

/** Drop the suffix of the seq-sorted @p list with seq >= @p first_bad. */
void
truncateFrom(std::vector<DynInstPtr> &list, SeqNum first_bad)
{
    while (!list.empty() && list.back()->seq >= first_bad)
        list.pop_back();
}

} // namespace

OooCore::OooCore(const Program &program, const SimConfig &config,
                 StatRegistry &stats)
    : program_(program),
      config_(config),
      stats_(stats),
      policy_(makePolicy(config)),
      hierarchy_(std::make_unique<MemoryHierarchy>(config, stats)),
      stride_table_(std::make_unique<StrideTable>(
          config.predictorEntries, config.predictorAssoc,
          config.predictorConfidenceThreshold, stats)),
      branch_pred_(std::make_unique<BranchPredictor>(
          config.bpHistoryBits, config.btbEntries, stats)),
      dg_unit_(std::make_unique<DoppelgangerUnit>(config, *stride_table_,
                                                  stats)),
      regfile_(config.numPhysRegs),
      data_mem_(program.initialData),
      reg_waiters_(config.numPhysRegs),
      fetch_pc_(program.entry),
      committedInstrs_(stats.counter("core.committedInstrs")),
      committedLoadsStat_(stats.counter("core.committedLoads")),
      committedStores_(stats.counter("core.committedStores")),
      committedBranches_(stats.counter("core.committedBranches")),
      branchSquashes_(stats.counter("core.branchSquashes")),
      memOrderSquashes_(stats.counter("core.memOrderSquashes")),
      snoopSquashes_(stats.counter("core.snoopSquashes")),
      stlForwards_(stats.counter("core.stlForwards")),
      domRetries_(stats.counter("core.domRetries")),
      prefetchesIssued_(stats.counter("core.prefetchesIssued")),
      cyclesStat_(stats.counter("core.cycles")),
      idleSkippedStat_(stats.hostCounter("core.idleCyclesSkipped")),
      skipEventsStat_(stats.hostCounter("core.skipEvents")),
      loadToUseDist_(stats.histogram("core.loadToUseDist", 4, 64)),
      shadowReleaseDelayDist_(
          stats.histogram("core.shadowReleaseDelayDist", 4, 64)),
      robOccupancyDist_(stats.histogram("core.robOccupancyDist", 16, 32)),
      iqOccupancyDist_(stats.histogram("core.iqOccupancyDist", 8, 32)),
      lqOccupancyDist_(stats.histogram("core.lqOccupancyDist", 8, 24)),
      panic_hook_(&OooCore::panicDumpThunk, this)
{
    if (config.checkArchState)
        oracle_ = std::make_unique<FunctionalCore>(program);
    if (!config.tracePath.empty()) {
        tracer_ = std::make_unique<PipeTracer>(
            config.tracePath, config.traceStartInst, config.traceMaxInsts);
        tracing_ = tracer_->ok();
    }
}

OooCore::~OooCore() = default;

void
OooCore::restoreFromCheckpoint(const ckpt::Checkpoint &checkpoint)
{
    DGSIM_ASSERT(cycle_ == 0 && committed_count_ == 0,
                 "checkpoint restore requires a fresh core");
    if (checkpoint.workload != program_.name)
        DGSIM_FATAL("checkpoint is for workload '" + checkpoint.workload +
                    "' but the core runs '" + program_.name + "'");
    // The reset RAT maps arch reg i to phys reg i, so writing through
    // lookup() establishes the architectural values without renaming.
    for (RegIndex i = 1; i < kNumArchRegs; ++i)
        regfile_.setValue(regfile_.lookup(i), checkpoint.regs[i]);
    data_mem_ = checkpoint.memory;
    fetch_pc_ = checkpoint.pc;
    hierarchy_->restoreWarmState(checkpoint.hierarchy);
    branch_pred_->restoreState(checkpoint.branch);
    stride_table_->restoreState(checkpoint.stride);
    if (oracle_) {
        oracle_->restoreArchState(checkpoint.regs, checkpoint.memory,
                                  checkpoint.pc, checkpoint.halted,
                                  checkpoint.instret);
    }
}

// ---------------------------------------------------------------------
// Policy context helpers.
// ---------------------------------------------------------------------

bool
OooCore::operandsTainted(const DynInst &inst) const
{
    if (inst.usesRs1 &&
        taint_tracker_.tainted(regfile_.taintRoot(inst.prs1))) {
        return true;
    }
    if (inst.usesRs2 &&
        taint_tracker_.tainted(regfile_.taintRoot(inst.prs2))) {
        return true;
    }
    return false;
}

SpecContext
OooCore::contextFor(const DynInst &inst) const
{
    SpecContext ctx;
    ctx.shadowed = shadow_tracker_.isShadowed(inst.seq);
    ctx.operandsTainted = operandsTainted(inst);
    ctx.addressPrediction = config_.addressPrediction;
    return ctx;
}

// ---------------------------------------------------------------------
// Top-level loop.
// ---------------------------------------------------------------------

void
OooCore::tick()
{
    ++cycle_;
    ++cyclesStat_;
    // Quiescence detection: any stage action or wake-epoch bump below
    // marks this tick as having made forward progress. run() consults
    // the flag to decide whether warping to the next event is safe.
    progress_ = false;
    const std::uint64_t epoch_at_entry = wake_epoch_;
    // Occupancy distributions, sampled sparsely (1 in 64 cycles): the
    // shape of the distribution is the point, not the exact integral,
    // and per-cycle sampling is measurable in the cycle loop.
    if ((cycle_ & 63) == 0) {
        robOccupancyDist_.sample(rob_.size());
        iqOccupancyDist_.sample(iq_count_);
        lqOccupancyDist_.sample(lq_.size());
    }
    commitStage();
    if (done_)
        return;
    if (config_.watchdogCycles != 0 &&
        cycle_ - last_commit_cycle_ >= config_.watchdogCycles) {
        watchdogFire();
    }
    // Wall-clock sibling of the commit watchdog: sampled sparsely so
    // the steady_clock read stays off the per-cycle path, and thrown
    // (not panicked) because a slow host is a recoverable condition.
    if (job_deadline_armed_ && (cycle_ & 8191) == 0 &&
        std::chrono::steady_clock::now() >= job_deadline_) {
        jobDeadlineFire();
    }
    writebackStage();
    executeStage();
    memoryIssueStage();
    issueStage();
    dispatchStage();
    fetchStage();
    if (wake_epoch_ != epoch_at_entry)
        progress_ = true;
}

std::uint64_t
OooCore::run()
{
    if (config_.jobTimeoutMs != 0) {
        job_deadline_armed_ = true;
        job_deadline_ = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.jobTimeoutMs);
    }
    while (!done_) {
        tick();
        if (config_.maxCycles != 0 && cycle_ >= config_.maxCycles) {
            // A sweep whose config systematically hits the limit would
            // otherwise print one of these per job; the per-job numbers
            // are in the stats dump regardless.
            DGSIM_WARN_ONCE(program_.name + ": cycle limit reached at " +
                            std::to_string(cycle_) + " cycles, " +
                            std::to_string(committed_count_) +
                            " instructions (warned once per process)");
            done_ = true;
        }
        if (!config_.idleSkip || progress_ || done_)
            continue;
        // Quiescent tick: every later tick before the next event is a
        // provable no-op, so warp straight to it. Clamped so the commit
        // watchdog and the cycle limit fire at the exact cycle the
        // per-cycle loop would reach them (the landing tick runs the
        // normal checks). No finite horizon and no limit means a
        // genuinely wedged machine: keep ticking, matching the
        // per-cycle infinite spin instead of inventing a termination.
        Cycle target = nextEventCycle();
        if (config_.watchdogCycles != 0) {
            target = std::min(target,
                              last_commit_cycle_ + config_.watchdogCycles);
        }
        if (config_.maxCycles != 0)
            target = std::min(target, config_.maxCycles);
        if (target != kInvalidCycle && target > cycle_ + 1)
            skipTo(target);
    }
    return committed_count_;
}

Cycle
OooCore::nextEventCycle() const
{
    Cycle horizon = kInvalidCycle;
    const auto consider = [&horizon, this](Cycle at) {
        if (at > cycle_ && at < horizon)
            horizon = at;
    };
    // In-flight functional units (includes load/store AGU latency).
    for (const DynInstPtr &inst : exec_pending_) {
        if (!inst->squashed)
            consider(inst->execDoneAt);
    }
    // LQ data arrivals: demand fills, forwarded data and doppelganger
    // fills. Every data time not yet due is still in arrivals_, so its
    // live loads are the only ones that can owe a future arrival; each
    // contributes the time of the path writeback currently waits on.
    for (const Arrival &arrival : arrivals_) {
        const DynInst &load = *arrival.load;
        if (load.seq != arrival.seq || load.squashed || load.completed)
            continue;
        if (load.dgState == DgState::Verified && load.dgAccessIssued) {
            if (!load.dgDataArrived)
                consider(load.dgDataAt);
        } else if ((load.memIssued || load.forwarded) &&
                   !load.dataArrived) {
            consider(load.dataAt);
        }
    }
    // Frontend: the oldest fetched-but-not-decoded slot, and the
    // post-squash redirect stall.
    if (!fetch_queue_.empty())
        consider(fetch_queue_.front().readyAt);
    if (!fetch_halted_ && cycle_ < fetch_stall_until_)
        consider(fetch_stall_until_);
    // Memory system: the next MSHR fill completion is the first cycle
    // a Rejected (MSHR-full) retry can succeed.
    consider(hierarchy_->nextFillCompletion(cycle_));
    return horizon;
}

void
OooCore::skipTo(Cycle target)
{
    // Stop one short: the next tick() pre-increments onto the target
    // cycle itself and runs the full stage sequence there, so the
    // landing cycle is simulated exactly as the per-cycle loop would.
    const Cycle advance_to = target - 1;
    const std::uint64_t skipped = advance_to - cycle_;
    // The skipped ticks would each have taken a sparse occupancy sample
    // at cycles divisible by 64. Queue sizes cannot change across a
    // quiescent span, so those samples are this many repeats of the
    // current sizes.
    const std::uint64_t samples = advance_to / 64 - cycle_ / 64;
    if (samples != 0) {
        robOccupancyDist_.sample(rob_.size(), samples);
        iqOccupancyDist_.sample(iq_count_, samples);
        lqOccupancyDist_.sample(lq_.size(), samples);
    }
    cycle_ = advance_to;
    cyclesStat_ += skipped;
    idleSkippedStat_ += skipped;
    ++skipEventsStat_;
    // The per-cycle loop polls the wall-clock deadline every 8192
    // cycles; a warp can jump any number of those polls, so re-check
    // here or a wedged-but-warping run could overstay its budget.
    if (job_deadline_armed_ &&
        std::chrono::steady_clock::now() >= job_deadline_) {
        jobDeadlineFire();
    }
}

// ---------------------------------------------------------------------
// Commit.
// ---------------------------------------------------------------------

void
OooCore::commitStage()
{
    unsigned committed_this_cycle = 0;
    unsigned stores_this_cycle = 0;
    while (committed_this_cycle < config_.commitWidth && !rob_.empty() &&
           !done_) {
        DynInstPtr inst = rob_.front();
        DGSIM_ASSERT(!inst->squashed, "squashed instruction at ROB head");
        if (!commitOne(inst, stores_this_cycle))
            break;
        if (inst->traced)
            tracer_->flush(*inst, cycle_);
        rob_.pop_front();
        DGSIM_ASSERT(inst->lazyRefs == 0,
                     "committed instruction still on a lazy list");
        pool_.release(inst);
        ++committed_this_cycle;
    }
    if (committed_this_cycle != 0) {
        last_commit_cycle_ = cycle_;
        progress_ = true;
    }
}

bool
OooCore::commitOne(const DynInstPtr &inst, unsigned &stores_this_cycle)
{
    // --- Is the instruction committable this cycle? --------------------
    switch (inst->cls) {
      case OpClass::No_OpClass:
        break; // Completed at dispatch.
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv:
      case OpClass::MemRead:
        if (!inst->completed)
            return false;
        break;
      case OpClass::Branch:
        if (!inst->executed || !inst->resolved)
            return false;
        break;
      case OpClass::MemWrite: {
        if (!inst->addrReady)
            return false;
        if (!regfile_.ready(inst->prs2))
            return false; // Store data not yet propagated.
        if (stores_this_cycle >= config_.storePorts)
            return false;
        // Drain to the memory system. Non-speculative by construction.
        MemAccessFlags flags;
        flags.isWrite = true;
        AccessOutcome outcome =
            hierarchy_->access(inst->effAddr, cycle_, flags);
        if (outcome.status == AccessStatus::Rejected) {
            flight_recorder_.record(FrEvent::MshrReject, cycle_, inst->seq,
                                    inst->effAddr);
            return false; // MSHRs full; retry next cycle.
        }
        ++stores_this_cycle;
        data_mem_.write(inst->effAddr, regfile_.value(inst->prs2));
        break;
      }
    }

    // --- Lockstep oracle cross-check -----------------------------------
    if (oracle_) {
        DGSIM_ASSERT(!oracle_->halted() || inst->inst.op == Opcode::Halt,
                     "oracle halted before the pipeline");
        DGSIM_ASSERT(oracle_->pc() == inst->pc,
                     "committed PC diverged from functional oracle at seq " +
                         std::to_string(inst->seq));
        const StepResult step = oracle_->step();
        if (inst->isLoad() || inst->isStore()) {
            DGSIM_ASSERT(step.effAddr == inst->effAddr,
                         "effective address diverged from oracle at " +
                             disassemble(inst->inst));
        }
        if (inst->isBranch()) {
            DGSIM_ASSERT(step.taken == inst->actualTaken,
                         "branch outcome diverged from oracle");
        }
        if (inst->hasDest) {
            DGSIM_ASSERT(regfile_.value(inst->prd) ==
                             oracle_->reg(inst->inst.rd),
                         "register value diverged from oracle at " +
                             disassemble(inst->inst));
        }
    }

    // --- Commit actions --------------------------------------------------
    if (inst->hasDest)
        regfile_.releaseAtCommit(inst->prevPrd);

    if (inst->isBranch()) {
        ++committedBranches_;
        branch_pred_->update(inst->pc, inst->inst, inst->actualTaken,
                             inst->actualTarget, inst->ghrSnapshot);
    }

    if (inst->isLoad()) {
        ++committedLoadsStat_;
        DGSIM_ASSERT(!lq_.empty() && lq_.front() == inst,
                     "LQ head out of sync with ROB");
        lq_.pop_front();
        taint_tracker_.clearRoot(inst->seq);
        if (policy_->taintsLoads())
            ++wake_epoch_; // Untaint can unblock gated work.
        if (inst->domDeferredTouch)
            hierarchy_->commitTouch(inst->effAddr);
        if (inst->dgDeferredTouch &&
            inst->dgState == DgState::Verified) {
            hierarchy_->commitTouch(inst->dgPredictedAddr);
        }
        dg_unit_->commitLoad(*inst);
        // Prefetching mode of the shared stride structure (paper §5.1):
        // at commit, predict future instances and prefetch them.
        if (config_.prefetcherEnabled) {
            auto ahead = stride_table_->predictAhead(
                inst->pc, inst->effAddr, config_.prefetchDegree);
            if (ahead &&
                hierarchy_->lineAddr(*ahead) !=
                    hierarchy_->lineAddr(inst->effAddr)) {
                MemAccessFlags flags;
                flags.isPrefetch = true;
                AccessOutcome outcome =
                    hierarchy_->access(*ahead, cycle_, flags);
                if (outcome.accepted())
                    ++prefetchesIssued_;
            }
        }
    }

    if (inst->isStore()) {
        ++committedStores_;
        DGSIM_ASSERT(!sq_.empty() && sq_.front() == inst,
                     "SQ head out of sync with ROB");
        sq_.pop_front();
    }

    if (inst->inst.op == Opcode::Halt) {
        done_ = true;
        halted_ = true;
    }

    ++committed_count_;
    ++committedInstrs_;

    if (config_.maxInstructions != 0 &&
        committed_count_ >= config_.maxInstructions) {
        done_ = true;
    }
    if (config_.warmupInstructions != 0 && !stats_reset_done_ &&
        committed_count_ >= config_.warmupInstructions) {
        stats_.resetAll();
        stats_reset_done_ = true;
    }
    return true;
}

// ---------------------------------------------------------------------
// Writeback: load data arrival/propagation, branch resolution, untaint.
// ---------------------------------------------------------------------

void
OooCore::propagateLoad(const DynInstPtr &inst, RegValue value)
{
    if (inst->prd != kInvalidPhysReg) {
        regfile_.setValue(inst->prd, value);
        if (policy_->taintsLoads() &&
            shadow_tracker_.isShadowed(inst->seq)) {
            regfile_.setTaintRoot(inst->prd, inst->seq);
            taint_tracker_.addRoot(inst->seq);
            inst->resultTainted = true;
        }
        wakeRegister(inst->prd);
    }
    ++wake_epoch_; // Register wakeup (and possibly a new taint root).
    // A doppelganger-fed load can complete without ever issuing its
    // demand access; it leaves the address-ready list here if so.
    if (!inst->memIssued && !inst->forwarded)
        eraseBySeq(lq_addr_ready_, inst);
    inst->completed = true;
    inst->completedAt = cycle_;
    // Load-to-use latency: dispatch to value propagation, i.e. what
    // the consumer actually observes (includes every policy delay).
    loadToUseDist_.sample(cycle_ - inst->dispatchedAt);
}

std::optional<std::pair<RegValue, SeqNum>>
OooCore::loadValueNow(const DynInst &inst, Addr addr) const
{
    // Youngest older store with a resolved matching address wins
    // (store-to-load forwarding / doppelganger preload override §4.4).
    for (auto it = sq_.rbegin(); it != sq_.rend(); ++it) {
        const DynInstPtr &store = *it;
        if (store->seq >= inst.seq)
            continue;
        if (!store->addrReady || store->effAddr != addr)
            continue;
        if (!regfile_.ready(store->prs2))
            return std::nullopt; // Data not produced yet; retry.
        return std::make_pair(regfile_.value(store->prs2), store->seq);
    }
    return std::make_pair(data_mem_.read(addr), kInvalidSeq);
}

void
OooCore::scheduleArrival(const DynInstPtr &load, Cycle at)
{
    arrivals_.push_back({at, load->seq, load});
    std::push_heap(arrivals_.begin(), arrivals_.end(), Arrival::later);
}

void
OooCore::writebackStage()
{
    // --- Load data arrival and propagation ------------------------------
    // Admit every load whose data time has come. A load pushed twice
    // (demand and doppelganger fill) or already admitted is dropped,
    // and so is a stale entry: the seq check catches a recycled handle.
    while (!arrivals_.empty() && arrivals_.front().at <= cycle_) {
        std::pop_heap(arrivals_.begin(), arrivals_.end(),
                      Arrival::later);
        const Arrival arrival = arrivals_.back();
        arrivals_.pop_back();
        const DynInstPtr load = arrival.load;
        if (load->seq != arrival.seq || load->squashed || load->completed ||
            load->wbCandidate) {
            continue;
        }
        load->wbCandidate = true;
        insertBySeq(wb_candidates_, load);
    }
    // Only an admitted load can act below: every other one is still
    // waiting for data. Candidates are walked oldest first and stay on
    // the list until they complete; the body switches between the
    // doppelganger and the demand path as the load's state moves.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < wb_candidates_.size(); ++i) {
        const DynInstPtr load = wb_candidates_[i];
        wb_candidates_[kept++] = load; // Until it completes below.

        if (load->dgState == DgState::Verified && load->dgAccessIssued) {
            if (!load->dgDataArrived && load->dgDataAt <= cycle_) {
                load->dgDataArrived = true;
                progress_ = true;
            }
            if (!load->dgDataArrived)
                continue;
            if (load->propSleepEpoch == wake_epoch_)
                continue; // Gate-blocked; nothing changed since.
            const SpecContext ctx = contextFor(*load);
            if (!policy_->dgMayPropagate(*load, ctx)) {
                load->propSleepEpoch = wake_epoch_;
                load->policyBlocked = true;
                flight_recorder_.record(
                    FrEvent::PropBlocked, cycle_, load->seq, load->effAddr,
                    static_cast<std::uint32_t>(FrGate::Policy));
                continue;
            }
            if (load->invalSnooped) {
                // §4.5: the noted invalidation takes effect when the
                // preloaded data would propagate. The squash truncates
                // this load and every younger candidate.
                wb_candidates_.resize(kept);
                ++snoopSquashes_;
                squashFrom(load->seq, load->pc,
                           SquashReason::InvalidationSnoop);
                return;
            }
            auto value = loadValueNow(*load, load->effAddr);
            if (!value) {
                load->propSleepEpoch = wake_epoch_;
                flight_recorder_.record(
                    FrEvent::PropBlocked, cycle_, load->seq, load->effAddr,
                    static_cast<std::uint32_t>(FrGate::StoreData));
                continue;
            }
            load->fwdFromSeq = value->second;
            propagateLoad(load, value->first);
            --kept; // Completed: off the list before commit recycles it.
            continue;
        }

        if ((load->memIssued || load->forwarded) && !load->dataArrived &&
            load->dataAt <= cycle_) {
            load->dataArrived = true;
            progress_ = true;
        }
        if (!load->dataArrived)
            continue;
        if (load->propSleepEpoch == wake_epoch_)
            continue; // Gate-blocked; nothing changed since.
        const SpecContext ctx = contextFor(*load);
        if (!policy_->loadMayPropagate(*load, ctx)) {
            load->propSleepEpoch = wake_epoch_;
            load->policyBlocked = true;
            flight_recorder_.record(
                FrEvent::PropBlocked, cycle_, load->seq, load->effAddr,
                static_cast<std::uint32_t>(FrGate::Policy));
            continue;
        }
        if (load->invalSnooped) {
            wb_candidates_.resize(kept);
            ++snoopSquashes_;
            squashFrom(load->seq, load->pc, SquashReason::InvalidationSnoop);
            return;
        }
        auto value = loadValueNow(*load, load->effAddr);
        if (!value) {
            load->propSleepEpoch = wake_epoch_;
            flight_recorder_.record(
                FrEvent::PropBlocked, cycle_, load->seq, load->effAddr,
                static_cast<std::uint32_t>(FrGate::StoreData));
            continue;
        }
        load->fwdFromSeq = value->second;
        propagateLoad(load, value->first);
        --kept;
    }
    wb_candidates_.resize(kept);

    // --- Deferred branch resolutions, oldest first -----------------------
    // The list is kept seq-sorted by insertUnresolved(), so no per-cycle
    // sort is needed.
    kept = 0;
    for (std::size_t i = 0; i < unresolved_branches_.size(); ++i) {
        const DynInstPtr inst = unresolved_branches_[i];
        if (inst->squashed) {
            dropLazyRef(inst);
            continue;
        }
        if (inst->propSleepEpoch == wake_epoch_) {
            unresolved_branches_[kept++] = inst;
            continue; // Resolution still gated; nothing changed since.
        }
        const std::size_t rob_size_before = rob_.size();
        resolveBranch(inst);
        if (!inst->resolved) {
            inst->propSleepEpoch = wake_epoch_;
            unresolved_branches_[kept++] = inst;
        } else {
            dropLazyRef(inst);
        }
        if (rob_.size() != rob_size_before) {
            // A squash truncated the ROB; keep the rest for next cycle.
            for (std::size_t j = i + 1; j < unresolved_branches_.size();
                 ++j) {
                unresolved_branches_[kept++] = unresolved_branches_[j];
            }
            break;
        }
    }
    unresolved_branches_.resize(kept);

    // --- STT untaint sweep -------------------------------------------------
    // Every root older than the oldest unresolved shadow caster has
    // reached its visibility point.
    if (policy_->taintsLoads() && !taint_tracker_.empty()) {
        const SeqNum oldest_caster = shadow_tracker_.oldest();
        const std::size_t cleared =
            taint_tracker_.clearRootsBelow(oldest_caster);
        if (cleared != 0) {
            ++wake_epoch_; // Untaint can unblock gated work.
            flight_recorder_.record(
                FrEvent::Untaint, cycle_, oldest_caster, 0,
                static_cast<std::uint32_t>(cleared));
        }
    }
}

void
OooCore::insertUnresolved(const DynInstPtr &inst)
{
    ++inst->lazyRefs;
    // Issue order is not program order (an older branch can issue after
    // a younger one), so insert at the sorted position. The list is a
    // handful of entries; the shift is cheaper than the per-cycle sort
    // it replaces.
    insertBySeq(unresolved_branches_, inst);
}

void
OooCore::resolveBranch(const DynInstPtr &inst)
{
    SpecContext ctx = contextFor(*inst);
    if (!policy_->branchMayResolve(*inst, ctx))
        return;
    inst->resolved = true;
    shadow_tracker_.release(inst->seq);
    ++wake_epoch_; // A lifted shadow can unblock gated work.
    // Only actual casters (conditional branches, indirect jumps) held a
    // shadow; release() was a no-op for the rest.
    if (isCondBranch(inst->inst.op) || inst->inst.op == Opcode::Jalr) {
        flight_recorder_.record(FrEvent::ShadowRelease, cycle_, inst->seq,
                                inst->pc);
        shadowReleaseDelayDist_.sample(cycle_ - inst->dispatchedAt);
    }
    if (!inst->mispredicted)
        return;

    ++branchSquashes_;
    // Repair the speculative global history.
    if (isCondBranch(inst->inst.op)) {
        branch_pred_->repairHistory(inst->ghrSnapshot, inst->actualTaken);
    } else {
        // Indirect jumps never shifted the history; restore the snapshot.
        branch_pred_->repairHistory(inst->ghrSnapshot >> 1,
                                    inst->ghrSnapshot & 1);
    }
    const Addr redirect =
        inst->actualTaken ? inst->actualTarget : inst->pc + 1;
    squashFrom(inst->seq + 1, redirect, SquashReason::BranchMispredict);
}

// ---------------------------------------------------------------------
// Execute: retire functional units, resolve addresses, detect
// violations, verify doppelgangers.
// ---------------------------------------------------------------------

void
OooCore::executeStage()
{
    // exec_pending_ holds issued-but-unfinished instructions in issue
    // order (== program order, since select is oldest-first). Squashed
    // entries are filtered lazily.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < exec_pending_.size(); ++i) {
        const DynInstPtr inst = exec_pending_[i];
        if (inst->squashed) {
            dropLazyRef(inst);
            continue;
        }
        if (inst->execDoneAt > cycle_) {
            exec_pending_[kept++] = inst;
            continue;
        }
        // Leaving the list either way below; a deferred branch re-adds
        // itself to unresolved_branches_.
        --inst->lazyRefs;
        DGSIM_ASSERT(!inst->executed, "double execution");
        inst->executed = true;
        progress_ = true;
        bool squashed_younger = false;
        switch (inst->cls) {
          case OpClass::IntAlu:
          case OpClass::IntMul:
          case OpClass::IntDiv:
            if (inst->prd != kInvalidPhysReg) {
                wakeRegister(inst->prd);
                ++wake_epoch_; // Register wakeup.
            }
            inst->completed = true;
            inst->completedAt = cycle_;
            break;
          case OpClass::Branch: {
            if (inst->prd != kInvalidPhysReg) {
                wakeRegister(inst->prd);
                ++wake_epoch_; // Register wakeup.
            }
            inst->completedAt = cycle_;
            // Resolution is attempted immediately; if the policy defers
            // it (tainted predicate, out-of-order under DoM+AP), the
            // writeback stage retries every cycle.
            const std::size_t rob_size_before = rob_.size();
            resolveBranch(inst);
            if (!inst->resolved) {
                // Once per deferral (retries are epoch-gated): makes a
                // resolution-wedged pipeline legible in the dump.
                flight_recorder_.record(
                    FrEvent::PropBlocked, cycle_, inst->seq, inst->pc,
                    static_cast<std::uint32_t>(FrGate::Policy));
                insertUnresolved(inst);
            }
            squashed_younger = rob_.size() != rob_size_before;
            break;
          }
          case OpClass::MemRead: {
            inst->addrReady = true;
            // Issue order is not program order: insert at its place.
            insertBySeq(lq_addr_ready_, inst);
            const bool had_prediction = inst->dgState == DgState::Predicted;
            dg_unit_->verify(*inst);
            if (had_prediction) {
                if (inst->dgState == DgState::Verified) {
                    flight_recorder_.record(FrEvent::DgVerifyOk, cycle_,
                                            inst->seq, inst->effAddr);
                } else if (inst->dgState == DgState::Mispredicted) {
                    flight_recorder_.record(FrEvent::DgVerifyBad, cycle_,
                                            inst->seq, inst->effAddr);
                }
            }
            break;
          }
          case OpClass::MemWrite: {
            inst->addrReady = true;
            // Address known: the data shadow lifts.
            shadow_tracker_.release(inst->seq);
            ++wake_epoch_; // A lifted shadow can unblock gated work.
            flight_recorder_.record(FrEvent::ShadowRelease, cycle_,
                                    inst->seq, inst->effAddr);
            shadowReleaseDelayDist_.sample(cycle_ - inst->dispatchedAt);
            const std::size_t rob_size_before = rob_.size();
            checkMemOrderViolation(inst);
            squashed_younger = rob_.size() != rob_size_before;
            // Commit-readiness is tracked via addrReady + data ready.
            inst->completed = true;
            inst->completedAt = cycle_;
            break;
          }
          case OpClass::No_OpClass:
            inst->completed = true;
            inst->completedAt = cycle_;
            break;
        }
        if (squashed_younger) {
            // Keep the unprocessed tail (squashed entries in it are
            // filtered next cycle) and stop this scan.
            for (std::size_t j = i + 1; j < exec_pending_.size(); ++j)
                exec_pending_[kept++] = exec_pending_[j];
            break;
        }
    }
    exec_pending_.resize(kept);
}

void
OooCore::checkMemOrderViolation(const DynInstPtr &store)
{
    // A younger load that already propagated a value not obtained from
    // this store (or a store younger than it) read stale data. The LQ
    // is seq-sorted; skip straight past the older loads.
    for (auto it = std::lower_bound(lq_.begin(), lq_.end(), store->seq + 1,
                                    seqBefore);
         it != lq_.end(); ++it) {
        const DynInstPtr &load = *it;
        if (load->squashed)
            continue;
        if (!load->completed || !load->addrReady)
            continue;
        if (load->effAddr != store->effAddr)
            continue;
        if (load->fwdFromSeq != kInvalidSeq &&
            load->fwdFromSeq >= store->seq) {
            continue; // Got its value from this store or a younger one.
        }
        ++memOrderSquashes_;
        squashFrom(load->seq, load->pc, SquashReason::MemOrderViolation);
        return;
    }
}

// ---------------------------------------------------------------------
// Memory issue: demand loads first, doppelgangers fill idle ports.
// ---------------------------------------------------------------------

void
OooCore::memoryIssueStage()
{
    unsigned slots = config_.loadPorts;

    // --- Pass 1: demand loads (priority; paper §5 "non-predicted
    // addresses are always prioritized for execution") ------------------
    // Only a load with a known address can issue, so the pass walks
    // the address-ready list, oldest first. A load leaves it once it
    // issues or forwards; the rest are kept in place.
    std::size_t kept = 0;
    std::size_t visited = 0;
    for (; visited < lq_addr_ready_.size() && slots != 0; ++visited) {
        const DynInstPtr load = lq_addr_ready_[visited];
        lq_addr_ready_[kept++] = load; // Until it issues or forwards.
        if (load->dgState == DgState::Verified && load->dgAccessIssued)
            continue; // Data comes from the doppelganger access.
        if (load->issueSleepEpoch == wake_epoch_)
            continue; // Gate-blocked; nothing changed since.

        const SpecContext ctx = contextFor(*load);
        if (load->dgState == DgState::Mispredicted &&
            !policy_->dgReplayMayIssue(*load, ctx)) {
            load->issueSleepEpoch = wake_epoch_;
            load->policyBlocked = true;
            flight_recorder_.record(
                FrEvent::IssueBlocked, cycle_, load->seq, load->effAddr,
                static_cast<std::uint32_t>(FrGate::DgReplay));
            continue;
        }
        if (!policy_->loadMayIssue(*load, ctx)) {
            load->issueSleepEpoch = wake_epoch_;
            load->policyBlocked = true;
            flight_recorder_.record(
                FrEvent::IssueBlocked, cycle_, load->seq, load->effAddr,
                static_cast<std::uint32_t>(FrGate::Policy));
            continue;
        }
        if (load->domDelayed && ctx.shadowed) {
            load->issueSleepEpoch = wake_epoch_;
            load->policyBlocked = true;
            flight_recorder_.record(
                FrEvent::IssueBlocked, cycle_, load->seq, load->effAddr,
                static_cast<std::uint32_t>(FrGate::DomWait));
            continue; // DoM: wait until non-speculative.
        }

        // Store-to-load forwarding: the youngest older resolved store
        // with a matching address supplies the value without a cache
        // access.
        bool handled = false;
        for (auto it = sq_.rbegin(); it != sq_.rend(); ++it) {
            const DynInstPtr &store = *it;
            if (store->seq >= load->seq)
                continue;
            if (!store->addrReady || store->effAddr != load->effAddr)
                continue;
            if (regfile_.ready(store->prs2)) {
                load->forwarded = true;
                load->fwdFromSeq = store->seq;
                load->dataAt = cycle_ + 1;
                scheduleArrival(load, load->dataAt);
                --kept;
                ++stlForwards_;
                progress_ = true;
            } else {
                // Wait for the store data (a register wakeup); either
                // way no cache access.
                load->issueSleepEpoch = wake_epoch_;
                flight_recorder_.record(
                    FrEvent::IssueBlocked, cycle_, load->seq, load->effAddr,
                    static_cast<std::uint32_t>(FrGate::StoreData));
            }
            handled = true;
            break;
        }
        if (handled)
            continue;

        MemAccessFlags flags = policy_->loadAccessFlags(*load, ctx);
        if (load->domDelayed) {
            // Counted per attempt, including MSHR-rejected ones below —
            // a golden counter moves on this tick, so it must never be
            // treated as quiescent (the time warp would compress the
            // per-cycle retry spin and undercount).
            ++domRetries_;
            progress_ = true;
            flags.speculative = false; // Non-speculative re-issue.
        }
        const AccessOutcome outcome =
            hierarchy_->access(load->effAddr, cycle_, flags);
        switch (outcome.status) {
          case AccessStatus::Hit:
          case AccessStatus::Miss:
            load->memIssued = true;
            load->dataAt = outcome.completeAt;
            scheduleArrival(load, load->dataAt);
            --kept;
            load->domDeferredTouch = flags.delayReplacementUpdate &&
                                     outcome.status == AccessStatus::Hit;
            --slots;
            progress_ = true;
            break;
          case AccessStatus::DomDelayed:
            load->domDelayed = true;
            flight_recorder_.record(FrEvent::DomDelay, cycle_, load->seq,
                                    load->effAddr);
            --slots;
            progress_ = true;
            break;
          case AccessStatus::Rejected:
            flight_recorder_.record(FrEvent::MshrReject, cycle_, load->seq,
                                    load->effAddr);
            --slots; // Port spent on the rejected attempt.
            break;
        }
    }
    lq_addr_ready_.erase(
        lq_addr_ready_.begin() + static_cast<std::ptrdiff_t>(kept),
        lq_addr_ready_.begin() + static_cast<std::ptrdiff_t>(visited));

    // --- Pass 2: doppelgangers into the remaining slots ------------------
    // Only loads that dispatched with a prediction can ever issue one,
    // so the pass walks the short dg_pending_ list (seq-sorted) instead
    // of the LQ, pruning stale entries as it goes.
    if (!dg_unit_->enabled())
        return;
    kept = 0;
    for (std::size_t i = 0; i < dg_pending_.size(); ++i) {
        const DynInstPtr load = dg_pending_[i];
        if (load->squashed) {
            dropLazyRef(load);
            continue;
        }
        // Issued, completed and confirmed-mispredicted loads can never
        // issue a doppelganger again; drop them for good.
        if (load->dgAccessIssued || load->completed ||
            load->dgState == DgState::Mispredicted) {
            --load->lazyRefs;
            continue;
        }
        if (slots == 0) {
            // Ports exhausted: keep the unexamined tail for next cycle.
            for (std::size_t j = i; j < dg_pending_.size(); ++j)
                dg_pending_[kept++] = dg_pending_[j];
            break;
        }
        // Unverified predictions always qualify. A *verified* prediction
        // may still issue if the demand access is being held by DoM: the
        // predicted address is secret-independent either way (§4.6).
        const bool eligible =
            load->dgState == DgState::Predicted ||
            (load->dgState == DgState::Verified && load->domDelayed);
        if (!eligible) {
            dg_pending_[kept++] = load;
            continue;
        }
        const bool shadowed = shadow_tracker_.isShadowed(load->seq);
        MemAccessFlags flags;
        flags.isDoppelganger = true;
        flags.speculative = shadowed;
        // A doppelganger may miss even under DoM (its address cannot
        // depend on a secret, §4.6), but a DoM speculative hit defers
        // its replacement update like any DoM hit (§5.3).
        flags.delayReplacementUpdate =
            config_.scheme == Scheme::Dom && shadowed;
        const AccessOutcome outcome =
            hierarchy_->access(load->dgPredictedAddr, cycle_, flags);
        switch (outcome.status) {
          case AccessStatus::Hit:
          case AccessStatus::Miss:
            load->dgAccessIssued = true;
            load->dgDataAt = outcome.completeAt;
            scheduleArrival(load, load->dgDataAt);
            load->dgL1Hit = outcome.status == AccessStatus::Hit;
            load->dgDeferredTouch = flags.delayReplacementUpdate &&
                                    outcome.status == AccessStatus::Hit;
            ++dg_unit_->issuedDg;
            flight_recorder_.record(FrEvent::DgIssue, cycle_, load->seq,
                                    load->dgPredictedAddr);
            --slots;
            --load->lazyRefs; // Done with the list.
            progress_ = true;
            break;
          case AccessStatus::Rejected:
            flight_recorder_.record(FrEvent::MshrReject, cycle_, load->seq,
                                    load->dgPredictedAddr);
            --slots; // Retry next cycle.
            dg_pending_[kept++] = load;
            break;
          case AccessStatus::DomDelayed:
            DGSIM_PANIC("doppelganger access must never be DoM-delayed");
        }
    }
    dg_pending_.resize(kept);
}

// ---------------------------------------------------------------------
// Issue: wake up and select from the IQ, oldest first.
// ---------------------------------------------------------------------

void
OooCore::startExecution(const DynInstPtr &inst)
{
    const RegValue a = inst->usesRs1 ? regfile_.value(inst->prs1) : 0;
    const RegValue b = inst->usesRs2 ? regfile_.value(inst->prs2) : 0;

    switch (inst->cls) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv:
        if (inst->prd != kInvalidPhysReg) {
            regfile_.setValue(inst->prd, evalAlu(inst->inst, a, b));
            // Taint propagates through register dataflow (STT).
            const SeqNum root = taint_tracker_.combine(
                inst->usesRs1 ? regfile_.taintRoot(inst->prs1)
                              : kInvalidSeq,
                inst->usesRs2 ? regfile_.taintRoot(inst->prs2)
                              : kInvalidSeq);
            regfile_.setTaintRoot(inst->prd, root);
        }
        break;
      case OpClass::Branch: {
        inst->actualTaken = evalBranchTaken(inst->inst, a, b);
        if (inst->inst.op == Opcode::Jal) {
            inst->actualTarget = static_cast<Addr>(inst->inst.imm);
        } else if (inst->inst.op == Opcode::Jalr) {
            inst->actualTarget = a + static_cast<Addr>(inst->inst.imm);
        } else {
            inst->actualTarget = inst->actualTaken
                                     ? static_cast<Addr>(inst->inst.imm)
                                     : inst->pc + 1;
        }
        const Addr predicted_next = inst->predictedTaken
                                        ? inst->predictedTarget
                                        : inst->pc + 1;
        const Addr actual_next =
            inst->actualTaken ? inst->actualTarget : inst->pc + 1;
        inst->mispredicted = predicted_next != actual_next ||
                             inst->predictedTaken != inst->actualTaken;
        if (inst->prd != kInvalidPhysReg) {
            regfile_.setValue(inst->prd, inst->pc + 1);
            regfile_.setTaintRoot(inst->prd, kInvalidSeq);
        }
        break;
      }
      case OpClass::MemRead:
      case OpClass::MemWrite:
        // AGU: word-aligned effective address (wrong-path addresses may
        // be arbitrary; mask instead of faulting).
        inst->effAddr =
            (a + static_cast<Addr>(inst->inst.imm)) &
            ~static_cast<Addr>(kWordBytes - 1);
        break;
      case OpClass::No_OpClass:
        break;
    }
}

void
OooCore::enterIq(const DynInstPtr &inst)
{
    inst->inIq = true;
    ++iq_count_;
    // The operands mayIssueNow() checks: a store reads its data
    // register at commit, not at issue.
    const auto wait_on = [this, &inst](PhysReg reg) {
        if (regfile_.ready(reg))
            return;
        reg_waiters_[reg].push_back({inst, inst->seq});
        ++inst->unreadySrcs;
    };
    if (inst->usesRs1)
        wait_on(inst->prs1);
    if (inst->usesRs2 && !inst->isStore())
        wait_on(inst->prs2);
    if (inst->unreadySrcs == 0)
        iq_ready_.push_back(inst); // Youngest in flight: sorted append.
}

void
OooCore::wakeRegister(PhysReg reg)
{
    regfile_.setReady(reg);
    std::vector<Waiter> &waiters = reg_waiters_[reg];
    for (const Waiter &waiter : waiters) {
        // A squashed waiter may already have been recycled; its seq
        // then no longer matches.
        const DynInstPtr inst = waiter.inst;
        if (inst->seq != waiter.seq || inst->squashed)
            continue;
        if (--inst->unreadySrcs == 0)
            insertBySeq(iq_ready_, inst);
    }
    waiters.clear();
}

bool
OooCore::mayIssueNow(const DynInstPtr &inst, unsigned alu_used,
                     unsigned muldiv_used, unsigned agu_used) const
{
    // Operand readiness (stores only need the address operand; the
    // data register is read at commit).
    if (inst->usesRs1 && !regfile_.ready(inst->prs1))
        return false;
    if (inst->usesRs2 && !inst->isStore() &&
        !regfile_.ready(inst->prs2)) {
        return false;
    }

    // Functional unit availability.
    switch (inst->cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
        if (alu_used >= config_.numAlus)
            return false;
        break;
      case OpClass::IntMul:
      case OpClass::IntDiv:
        if (muldiv_used >= config_.numMulDivs)
            return false;
        break;
      case OpClass::MemRead:
      case OpClass::MemWrite:
        if (agu_used >= config_.numAgus)
            return false;
        break;
      case OpClass::No_OpClass:
        break;
    }

    // Scheme gates at the AGU.
    if (inst->isStore()) {
        SpecContext ctx = contextFor(*inst);
        if (!policy_->storeMayIssueAgu(*inst, ctx))
            return false;
    }
    return true;
}

void
OooCore::issueStage()
{
    // A full select pass that issued nothing stays fruitless until a
    // wakeup-relevant event occurs (with zero functional units in use,
    // the FU gates cannot be the blocker).
    if (iq_sleep_epoch_ == wake_epoch_)
        return;

    unsigned total = 0;
    unsigned alu_used = 0;
    unsigned muldiv_used = 0;
    unsigned agu_used = 0;

    // Single pass: oldest-first select over the operand-ready entries,
    // compacting issued ones out of the list in place. An IQ entry with
    // an unready operand can never pass mayIssueNow(), and no register
    // becomes ready during select, so skipping those entries changes
    // nothing. Squashes truncate a suffix, so nothing here is squashed.
    std::size_t kept = 0;
    const std::size_t n = iq_ready_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (total >= config_.issueWidth) {
            // Width exhausted: bulk-compact the unexamined tail.
            std::copy(iq_ready_.begin() + static_cast<std::ptrdiff_t>(i),
                      iq_ready_.end(),
                      iq_ready_.begin() + static_cast<std::ptrdiff_t>(kept));
            kept += n - i;
            break;
        }
        const DynInstPtr inst = iq_ready_[i];
        DGSIM_ASSERT(!inst->squashed, "squashed instruction in IQ");
        if (!mayIssueNow(inst, alu_used, muldiv_used, agu_used)) {
            iq_ready_[kept++] = inst;
            continue;
        }

        inst->inIq = false;
        --iq_count_;
        inst->issued = true;
        inst->issuedAt = cycle_;
        inst->execDoneAt = cycle_ + execLatency(inst->inst.op);
        startExecution(inst);
        ++inst->lazyRefs;
        exec_pending_.push_back(inst);
        ++total;
        switch (inst->cls) {
          case OpClass::IntAlu:
          case OpClass::Branch:
            ++alu_used;
            break;
          case OpClass::IntMul:
          case OpClass::IntDiv:
            ++muldiv_used;
            break;
          case OpClass::MemRead:
          case OpClass::MemWrite:
            ++agu_used;
            break;
          default:
            break;
        }
    }
    iq_ready_.resize(kept);
    if (total == 0)
        iq_sleep_epoch_ = wake_epoch_;
    else
        progress_ = true;
}

// ---------------------------------------------------------------------
// Dispatch: rename and allocate ROB/IQ/LQ/SQ entries.
// ---------------------------------------------------------------------

void
OooCore::dispatchStage()
{
    unsigned dispatched = 0;
    while (dispatched < config_.decodeWidth && !fetch_queue_.empty() &&
           fetch_queue_.front().readyAt <= cycle_) {
        const FetchSlot &slot = fetch_queue_.front();
        const Opcode op = slot.inst.op;
        const OpClass cls = opClass(op);
        const bool needs_iq = cls != OpClass::No_OpClass;

        // Structural hazards: stall dispatch in order.
        if (rob_.size() >= config_.robEntries)
            break;
        if (needs_iq && iq_count_ >= config_.iqEntries)
            break;
        if (cls == OpClass::MemRead && lq_.size() >= config_.lqEntries)
            break;
        if (cls == OpClass::MemWrite && sq_.size() >= config_.sqEntries)
            break;
        const bool has_dest = writesDest(slot.inst);
        if (has_dest && regfile_.freeListEmpty())
            break;

        const DynInstPtr inst = pool_.alloc();
        inst->seq = next_seq_++;
        inst->pc = slot.pc;
        inst->inst = slot.inst;
        inst->cls = cls;
        inst->dispatchedAt = cycle_;
        if (tracing_ && tracer_->shouldArm(committed_count_)) {
            inst->traced = true;
            inst->tsFetch = slot.readyAt - config_.frontendDelay;
            inst->tsDecode = slot.readyAt;
        }
        inst->usesRs1 = readsRs1(slot.inst);
        inst->usesRs2 = readsRs2(slot.inst);
        inst->hasDest = has_dest;
        if (inst->usesRs1)
            inst->prs1 = regfile_.lookup(slot.inst.rs1);
        if (inst->usesRs2)
            inst->prs2 = regfile_.lookup(slot.inst.rs2);
        if (has_dest) {
            auto [fresh, previous] = regfile_.rename(slot.inst.rd);
            inst->prd = fresh;
            inst->prevPrd = previous;
            // A free register's waiters were all squashed with its last
            // producer; none of them may see this producer's wakeup.
            reg_waiters_[fresh].clear();
        }

        if (cls == OpClass::Branch) {
            inst->predictedTaken = slot.predictedTaken;
            inst->predictedTarget = slot.predictedTarget;
            inst->ghrSnapshot = slot.ghrBefore;
            // Control shadows: conditional branches and indirect jumps
            // speculate; direct unconditional jumps do not.
            if (isCondBranch(op) || op == Opcode::Jalr)
                shadow_tracker_.cast(inst->seq);
        } else if (cls == OpClass::MemWrite) {
            // Data shadow until the store address resolves.
            shadow_tracker_.cast(inst->seq);
        } else if (cls == OpClass::No_OpClass) {
            inst->completed = true;
            inst->completedAt = cycle_;
        }

        rob_.push_back(inst);
        if (needs_iq) {
            enterIq(inst);
            ++wake_epoch_; // New IQ entry: the select pass must look.
        }
        if (cls == OpClass::MemRead) {
            lq_.push_back(inst);
            dg_unit_->attachPrediction(*inst);
            if (inst->dgState == DgState::Predicted) {
                flight_recorder_.record(FrEvent::DgPredict, cycle_,
                                        inst->seq, inst->dgPredictedAddr);
                ++inst->lazyRefs;
                dg_pending_.push_back(inst);
            }
        }
        if (cls == OpClass::MemWrite)
            sq_.push_back(inst);

        fetch_queue_.pop_front();
        ++dispatched;
    }
    if (dispatched != 0)
        progress_ = true;
}

// ---------------------------------------------------------------------
// Fetch.
// ---------------------------------------------------------------------

void
OooCore::fetchStage()
{
    if (fetch_halted_ || cycle_ < fetch_stall_until_)
        return;
    // Bound the frontend buffer (fetch-to-rename skid).
    const std::size_t cap =
        static_cast<std::size_t>(config_.fetchWidth) *
        (config_.frontendDelay + 4);
    const std::size_t queued_before = fetch_queue_.size();
    for (unsigned i = 0;
         i < config_.fetchWidth && fetch_queue_.size() < cap; ++i) {
        const Instruction inst = program_.fetch(fetch_pc_);
        FetchSlot slot;
        slot.pc = fetch_pc_;
        slot.inst = inst;
        slot.readyAt = cycle_ + config_.frontendDelay;

        if (isControl(inst.op)) {
            const BranchPrediction prediction =
                branch_pred_->predict(fetch_pc_, inst);
            slot.predictedTaken = prediction.taken;
            slot.predictedTarget = prediction.target;
            slot.ghrBefore = prediction.ghrBefore;
            fetch_queue_.push_back(slot);
            if (prediction.taken) {
                fetch_pc_ = prediction.target;
                break; // Taken-branch fetch break.
            }
            ++fetch_pc_;
        } else {
            fetch_queue_.push_back(slot);
            if (inst.op == Opcode::Halt) {
                fetch_halted_ = true;
                break;
            }
            ++fetch_pc_;
        }
    }
    if (fetch_queue_.size() != queued_before)
        progress_ = true;
}

// ---------------------------------------------------------------------
// Squash.
// ---------------------------------------------------------------------

void
OooCore::squashFrom(SeqNum first_bad, Addr redirect_pc, SquashReason why)
{
    flight_recorder_.record(FrEvent::Squash, cycle_, first_bad, redirect_pc,
                            static_cast<std::uint32_t>(why));
    // Rename rollback, shadow and taint cleanup below can all unblock
    // older gated work; wake every sleeper.
    ++wake_epoch_;
    // LQ/SQ and the scheduling lists are in program order, so a squash
    // removes a suffix. Drop their references before the ROB walk
    // recycles the entries. Stale arrivals and register waiters are
    // left in place; both are validated by seq when they surface.
    while (!lq_.empty() && lq_.back()->seq >= first_bad)
        lq_.pop_back();
    while (!sq_.empty() && sq_.back()->seq >= first_bad)
        sq_.pop_back();
    truncateFrom(iq_ready_, first_bad);
    truncateFrom(wb_candidates_, first_bad);
    truncateFrom(lq_addr_ready_, first_bad);
    while (!rob_.empty() && rob_.back()->seq >= first_bad) {
        const DynInstPtr inst = rob_.back();
        inst->squashed = true;
        if (inst->inIq)
            --iq_count_;
        if (inst->traced)
            tracer_->flush(*inst, 0); // Retire tick 0 == squashed.
        // Undo rename youngest-first so RAT state unwinds correctly.
        if (inst->hasDest)
            regfile_.rollback(inst->inst.rd, inst->prd, inst->prevPrd);
        // Idempotent cleanups.
        shadow_tracker_.release(inst->seq);
        if (inst->isLoad()) {
            taint_tracker_.clearRoot(inst->seq);
            dg_unit_->squashLoad(*inst);
        }
        rob_.pop_back();
        // exec_pending_/unresolved_branches_ may still reference the
        // entry; their lazy filters recycle it when they drop it.
        if (inst->lazyRefs == 0)
            pool_.release(inst);
    }

    fetch_queue_.clear();
    fetch_pc_ = redirect_pc;
    fetch_stall_until_ = cycle_ + config_.mispredictPenalty;
    fetch_halted_ = false;
}

// ---------------------------------------------------------------------
// Observability: commit watchdog and wedge-state dump.
// ---------------------------------------------------------------------

namespace
{

const char *
dgStateName(DgState state)
{
    switch (state) {
      case DgState::None: return "none";
      case DgState::Predicted: return "predicted";
      case DgState::Verified: return "verified";
      case DgState::Mispredicted: return "mispredicted";
    }
    return "?";
}

} // namespace

void
OooCore::dumpPipelineState(std::ostream &os)
{
    os << "=== dgsim pipeline state (" << program_.name << " / "
       << config_.label() << ") ===\n";
    os << "cycle " << cycle_ << ", committed " << committed_count_
       << ", last commit at cycle " << last_commit_cycle_ << "\n";
    std::size_t lq_unissued = 0;
    std::size_t lq_incomplete = 0;
    for (const DynInstPtr &load : lq_) {
        if (load->completed)
            continue;
        ++lq_incomplete;
        if (!load->memIssued && !load->forwarded)
            ++lq_unissued;
    }
    os << "occupancy: rob " << rob_.size() << "/" << config_.robEntries
       << ", iq " << iq_count_ << "/" << config_.iqEntries << ", lq "
       << lq_.size() << "/" << config_.lqEntries << " (" << lq_unissued
       << " unissued, " << lq_incomplete << " incomplete), sq "
       << sq_.size() << "/" << config_.sqEntries << ", fetchq "
       << fetch_queue_.size() << "\n";
    os << "speculation: " << shadow_tracker_.size()
       << " unresolved shadow(s), oldest caster seq ";
    if (shadow_tracker_.empty())
        os << "-";
    else
        os << shadow_tracker_.oldest();
    os << "; " << taint_tracker_.roots().size() << " live taint root(s)\n";
    os << "l1 mshrs outstanding: " << hierarchy_->l1MshrOutstanding(cycle_)
       << "/" << config_.l1d.numMshrs << "\n";
    if (rob_.empty()) {
        os << "rob head: <empty>\n";
    } else {
        const DynInstPtr head = rob_.front();
        os << "rob head: seq " << head->seq << " pc 0x" << std::hex
           << head->pc << std::dec << "  " << disassemble(head->inst)
           << "\n  flags:";
        if (head->issued)
            os << " issued";
        if (head->executed)
            os << " executed";
        if (head->completed)
            os << " completed";
        if (head->addrReady)
            os << " addrReady";
        if (head->resolved)
            os << " resolved";
        if (head->memIssued)
            os << " memIssued";
        if (head->dataArrived)
            os << " dataArrived";
        if (head->forwarded)
            os << " forwarded";
        if (head->domDelayed)
            os << " domDelayed";
        if (head->policyBlocked)
            os << " policyBlocked";
        os << "\n  dgState " << dgStateName(head->dgState) << ", shadowed "
           << (shadow_tracker_.isShadowed(head->seq) ? "yes" : "no")
           << ", operands tainted "
           << (operandsTainted(*head) ? "yes" : "no") << "\n";
    }
    flight_recorder_.dump(os, 64);
}

std::string
OooCore::checkSchedulerInvariants() const
{
    const auto in_rob = [this](const DynInstPtr &inst) {
        const auto it =
            std::lower_bound(rob_.begin(), rob_.end(), inst->seq, seqBefore);
        return it != rob_.end() && *it == inst;
    };
    const auto check_list = [&in_rob](const std::vector<DynInstPtr> &list,
                                      const std::string &name) {
        SeqNum previous = 0;
        for (const DynInstPtr &inst : list) {
            if (inst->seq <= previous) {
                return name + ": not strictly seq-sorted at seq " +
                       std::to_string(inst->seq);
            }
            previous = inst->seq;
            if (inst->squashed || !in_rob(inst)) {
                return name + ": holds seq " + std::to_string(inst->seq) +
                       ", which is squashed or not in the ROB";
            }
        }
        return std::string();
    };
    for (const auto &[list, name] :
         {std::pair{&iq_ready_, "ready list"},
          std::pair{&wb_candidates_, "writeback candidates"},
          std::pair{&lq_addr_ready_, "address-ready list"}}) {
        if (std::string error = check_list(*list, name); !error.empty())
            return error;
    }

    // Membership: each list holds exactly the entries its walk must
    // visit. The lists are duplicate-free (strictly sorted), so
    // matching sizes plus per-entry checks prove set equality.
    std::size_t in_iq = 0;
    std::size_t operands_ready = 0;
    for (const DynInstPtr &inst : rob_) {
        if (!inst->inIq)
            continue;
        ++in_iq;
        const bool ready =
            (!inst->usesRs1 || regfile_.ready(inst->prs1)) &&
            (!inst->usesRs2 || inst->isStore() ||
             regfile_.ready(inst->prs2));
        if (ready != (inst->unreadySrcs == 0)) {
            return "seq " + std::to_string(inst->seq) +
                   ": unready-source count disagrees with the regfile";
        }
        operands_ready += ready;
    }
    if (in_iq != iq_count_) {
        return "IQ count " + std::to_string(iq_count_) + " but " +
               std::to_string(in_iq) + " ROB entries are in the IQ";
    }
    for (const DynInstPtr &inst : iq_ready_) {
        if (!inst->inIq || inst->unreadySrcs != 0) {
            return "ready list holds seq " + std::to_string(inst->seq) +
                   ", which is not an operand-ready IQ entry";
        }
    }
    if (operands_ready != iq_ready_.size())
        return "ready list misses an operand-ready IQ entry";

    // Between ticks, writeback has admitted every data time up to now.
    const auto data_due = [this](const DynInstPtr &load) {
        return ((load->memIssued || load->forwarded) &&
                load->dataAt <= cycle_) ||
               (load->dgAccessIssued && load->dgDataAt <= cycle_);
    };
    std::size_t addr_ready = 0;
    std::size_t due = 0;
    for (const DynInstPtr &load : lq_) {
        if (load->completed)
            continue;
        addr_ready += load->addrReady && !load->memIssued && !load->forwarded;
        due += data_due(load);
    }
    for (const DynInstPtr &load : lq_addr_ready_) {
        if (!load->isLoad() || !load->addrReady || load->memIssued ||
            load->forwarded || load->completed) {
            return "address-ready list holds seq " +
                   std::to_string(load->seq) + ", which cannot issue";
        }
    }
    if (addr_ready != lq_addr_ready_.size())
        return "address-ready list misses a load that can issue";
    for (const DynInstPtr &load : wb_candidates_) {
        if (!load->isLoad() || !load->wbCandidate || load->completed ||
            !data_due(load)) {
            return "writeback candidates hold seq " +
                   std::to_string(load->seq) + ", which cannot complete";
        }
    }
    if (due != wb_candidates_.size())
        return "writeback candidates miss a load whose data time came";
    return "";
}

void
OooCore::panicDumpThunk(void *ctx)
{
    static_cast<OooCore *>(ctx)->dumpPipelineState(std::cerr);
}

void
OooCore::watchdogFire()
{
    flight_recorder_.record(FrEvent::WatchdogArm, cycle_,
                            rob_.empty() ? 0 : rob_.front()->seq);
    if (config_.watchdogThrows) {
        // Oracle mode: a wedged attacker program is a classifiable
        // outcome (`inconclusive`), not a process-fatal bug. No state
        // dump — the fuzzer may hit thousands of these.
        throw WatchdogError(
            "commit watchdog: no instruction committed for " +
            std::to_string(cycle_ - last_commit_cycle_) + " cycles (cycle " +
            std::to_string(cycle_) + ", " + program_.name + " / " +
            config_.label() + ")");
    }
    // The panic hook (panicDumpThunk) dumps the pipeline state and the
    // flight recorder to stderr before aborting.
    DGSIM_PANIC("commit watchdog: no instruction committed for " +
                std::to_string(cycle_ - last_commit_cycle_) +
                " cycles (cycle " + std::to_string(cycle_) + ", " +
                program_.name + " / " + config_.label() + ")");
}

void
OooCore::jobDeadlineFire()
{
    // Leave a trace in the flight recorder so a later panic dump of a
    // retried run shows the earlier deadline hit, then hand the
    // decision to the caller: the experiment runner treats this as a
    // transient host failure and retries with backoff.
    flight_recorder_.record(FrEvent::WatchdogArm, cycle_,
                            rob_.empty() ? 0 : rob_.front()->seq);
    throw JobTimeoutError(
        program_.name + " / " + config_.label() + ": wall-clock job "
        "timeout of " + std::to_string(config_.jobTimeoutMs) +
        "ms exceeded at cycle " + std::to_string(cycle_) + " (" +
        std::to_string(committed_count_) + " instructions committed)");
}

// ---------------------------------------------------------------------
// External coherence events (paper §4.5).
// ---------------------------------------------------------------------

void
OooCore::externalInvalidate(Addr byte_addr)
{
    hierarchy_->invalidate(byte_addr);
    ++wake_epoch_; // invalSnooped changes propagation outcomes.
    const Addr line = hierarchy_->lineAddr(byte_addr);
    for (const DynInstPtr &load : lq_) {
        if (load->squashed)
            continue;
        // A load that already propagated speculatively read data that
        // another core has now invalidated: squash it (conventional LQ
        // snooping).
        if (load->completed && load->addrReady &&
            hierarchy_->lineAddr(load->effAddr) == line &&
            shadow_tracker_.isShadowed(load->seq)) {
            ++snoopSquashes_;
            squashFrom(load->seq, load->pc, SquashReason::InvalidationSnoop);
            return;
        }
        // Doppelgangers are *not* squashed: the invalidation is noted
        // and takes effect at propagation; it is ignored if the
        // prediction turns out wrong (§4.5).
        if (load->dgAccessIssued &&
            hierarchy_->lineAddr(load->dgPredictedAddr) == line) {
            load->invalSnooped = true;
        }
        // Unpropagated conventional loads re-read the value at
        // propagation time, so no action is needed.
    }
}

} // namespace dgsim
