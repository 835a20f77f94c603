/**
 * @file
 * The interactive / script-driven debugger session.
 *
 * The simulator is emit-driven: a kernel is a host C++ function
 * calling Machine emit methods, with no event loop to pause. The
 * session therefore pauses *inside* the OoOCore's TimingObserver
 * hook — when a stop condition fires, the command loop runs
 * reentrantly while the kernel driver is suspended on the host
 * stack. Observers are passive by contract (they cannot feed back
 * into the schedule), so a paused-and-continued run commits the
 * exact instruction stream of an uninterrupted one; the `final:`
 * line's stats fingerprint makes that checkable from CTest.
 *
 * Rewind works by deterministic replay, not by in-place restore:
 * the suspended kernel driver's host state (loop indices, operand
 * base addresses) is not part of the machine checkpoint, so
 * `checkpoint load` abandons the current run via an exception,
 * rebuilds a fresh target from the factory, re-runs the kernel
 * suppressing every pause until the saved instruction marker, then
 * re-captures and byte-compares against the saved image — turning
 * every rewind into a machine-level determinism proof.
 */

#ifndef VIA_DEBUG_SESSION_HH
#define VIA_DEBUG_SESSION_HH

#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "cpu/multi_machine.hh"
#include "debug/breakpoints.hh"
#include "sample/checkpoint.hh"

namespace via::debug
{

/**
 * Rebuilds a fresh machine under debug, of one core or several
 * (used at start and on every rewind). Only a one-core machine
 * checkpoints.
 */
using TargetFactory = std::function<std::unique_ptr<MultiMachine>()>;

/**
 * Runs the kernel under debug against the target; returns whether
 * the result check passed. Must be deterministic: the factory +
 * kernel pair is re-invoked verbatim on rewind.
 */
using KernelFn = std::function<bool(MultiMachine &)>;

/** I/O wiring for a session. */
struct SessionConfig
{
    std::istream *commands = nullptr; //!< nullptr: std::cin
    std::ostream *out = nullptr;      //!< nullptr: std::cout
    bool echo = false;   //!< echo each command (script transcripts)
    bool prompt = false; //!< print "(via_db) " before reads
};

class DebugSession
{
  public:
    DebugSession(TargetFactory factory, KernelFn kernel,
                 SessionConfig cfg);
    ~DebugSession();

    /**
     * Drive the whole session: pre-run command loop, kernel
     * execution with pauses, post-run command loop. Returns the
     * process exit code (0 = result ok and every checkpoint
     * verification passed).
     */
    int run();

    /** The engine, exposed for unit tests. */
    BreakpointEngine &engine() { return _engine; }

  private:
    /** Thrown through the kernel driver by `checkpoint load`. */
    struct RewindRequest
    {
        std::string name;
    };

    /** Per-core observer relay (identifies the committing core). */
    struct CoreTap : TimingObserver
    {
        DebugSession *sess = nullptr;
        unsigned core = 0;
        void
        onInstTiming(const Inst &inst,
                     const InstTiming &timing) override
        {
            sess->onInst(core, inst, timing);
        }
        void onTimingReset() override {}
    };

    void onInst(unsigned core_id, const Inst &inst,
                const InstTiming &timing);

    void buildTarget();
    void attachTaps();
    void detachTaps();

    /**
     * Read and execute commands until one resumes execution (or
     * input is exhausted, which detaches). @p at_pause selects the
     * wording of state-dependent messages.
     */
    void commandLoop(bool at_pause);

    /** Execute one line; true = resume (leave the command loop). */
    bool execute(const std::string &line, bool at_pause);

    bool cmdInfo(const std::vector<std::string> &words);
    bool cmdBreak(const std::vector<std::string> &words);
    bool cmdWatch(const std::vector<std::string> &words);
    void cmdCheckpointSave(const std::string &name);
    /** True if the load resumes (throws or schedules a rewind). */
    bool cmdCheckpointLoad(const std::string &name, bool at_pause);
    void printHelp();

    void clearResumeConditions();
    void drainPendingRewinds();
    void pause(const std::string &reason, unsigned core_id,
               const InstTiming &timing, const Inst &inst);
    void prepareReplay(const std::string &name);
    /** Re-capture at the marker and byte-compare with the image. */
    void verifyReplay();
    /** Print `result:` + `final:` lines after a completed run. */
    void printFinal(bool ok);
    std::uint64_t combinedFingerprint();

    TargetFactory _factory;
    KernelFn _kernel;
    SessionConfig _cfg;
    std::istream *_in = nullptr;
    std::ostream *_out = nullptr;

    std::unique_ptr<MultiMachine> _target;
    std::vector<std::unique_ptr<CoreTap>> _taps;
    BreakpointEngine _engine;
    /** A saved checkpoint: the global instruction count at capture
     *  and the image the replay is compared against. */
    struct Saved
    {
        std::uint64_t inst = 0;
        sample::Checkpoint image;
    };
    std::map<std::string, Saved> _saved;

    std::uint64_t _instCount = 0;

    // one-shot resume conditions (cleared on every stop)
    bool _stepArmed = false;
    std::uint64_t _stepRemaining = 0;
    bool _runToCycleArmed = false;
    Tick _runToCycle = 0;
    bool _runToInstArmed = false;
    std::uint64_t _runToInst = 0;

    bool _running = false;  //!< kernel driver active
    bool _inPause = false;  //!< reentrancy guard for the loop
    bool _detached = false; //!< quit/EOF: run silently to the end
    bool _eof = false;
    bool _failed = false; //!< a verification or command failed

    bool _replaying = false;
    std::uint64_t _replayUntil = 0;
    std::string _replayName;
    std::optional<std::string> _pendingRewind; //!< post-run load
};

} // namespace via::debug

#endif // VIA_DEBUG_SESSION_HH
