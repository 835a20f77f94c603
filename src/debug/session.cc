#include "debug/session.hh"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "cpu/ooo_core.hh"
#include "debug/inspect.hh"
#include "isa/opcodes.hh"
#include "simcore/fnv.hh"
#include "simcore/serialize.hh"
#include "via/sspm.hh"

namespace via::debug
{

namespace
{

std::vector<std::string>
split(const std::string &line)
{
    std::vector<std::string> words;
    std::istringstream iss(line);
    std::string w;
    while (iss >> w)
        words.push_back(w);
    return words;
}

/**
 * Parse a decimal or 0x-prefixed number; false on junk. A leading
 * sign is junk: std::stoull would silently negate a '-' into a huge
 * unsigned value.
 */
bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    try {
        std::size_t pos = 0;
        out = std::stoull(s, &pos, 0);
        return pos == s.size();
    } catch (...) {
        return false;
    }
}

/** Mnemonic -> opcode; false for an unknown mnemonic. */
bool
parseOp(const std::string &name, Op &out)
{
    for (int i = 0; i < int(Op::NumOps); ++i) {
        if (mnemonic(Op(i)) == name) {
            out = Op(i);
            return true;
        }
    }
    return false;
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

} // namespace

DebugSession::DebugSession(TargetFactory factory, KernelFn kernel,
                           SessionConfig cfg)
    : _factory(std::move(factory)), _kernel(std::move(kernel)),
      _cfg(cfg),
      _in(cfg.commands != nullptr ? cfg.commands : &std::cin),
      _out(cfg.out != nullptr ? cfg.out : &std::cout)
{}

DebugSession::~DebugSession()
{
    detachTaps();
}

void
DebugSession::buildTarget()
{
    _target = _factory();
}

void
DebugSession::attachTaps()
{
    _taps.clear();
    for (unsigned c = 0; c < _target->cores(); ++c) {
        auto tap = std::make_unique<CoreTap>();
        tap->sess = this;
        tap->core = c;
        _target->core(c).core().addTimingObserver(tap.get());
        _taps.push_back(std::move(tap));
    }
}

void
DebugSession::detachTaps()
{
    if (_target == nullptr) {
        _taps.clear();
        return;
    }
    for (unsigned c = 0; c < _target->cores() && c < _taps.size();
         ++c)
        _target->core(c).core().removeTimingObserver(_taps[c].get());
    _taps.clear();
}

int
DebugSession::run()
{
    buildTarget();
    attachTaps();
    commandLoop(/*at_pause=*/false);
    drainPendingRewinds();

    bool ok = false;
    for (;;) {
        bool rewound = false;
        _running = true;
        try {
            ok = _kernel(*_target);
        } catch (const RewindRequest &rr) {
            rewound = true;
            _running = false;
            prepareReplay(rr.name);
            drainPendingRewinds();
        }
        _running = false;
        if (rewound)
            continue;

        printFinal(ok);
        if (_detached)
            break;
        commandLoop(/*at_pause=*/false);
        if (_pendingRewind.has_value()) {
            drainPendingRewinds();
            continue;
        }
        break;
    }
    return (ok && !_failed) ? 0 : 1;
}

void
DebugSession::onInst(unsigned core_id, const Inst &inst,
                     const InstTiming &timing)
{
    if (_inPause || !_running)
        return;
    ++_instCount;

    if (_replaying) {
        if (_instCount < _replayUntil)
            return;
        _replaying = false;
        verifyReplay();
        pause("rewound to checkpoint '" + _replayName + "'",
              core_id, timing, inst);
        return;
    }
    if (_detached)
        return;

    std::string reason;
    if (_stepArmed && --_stepRemaining == 0) {
        reason = "step";
    } else if (_runToCycleArmed && timing.commit >= _runToCycle) {
        reason = "run-to-cycle " + std::to_string(_runToCycle);
    } else if (_runToInstArmed && _instCount >= _runToInst) {
        reason = "run-to-inst " + std::to_string(_runToInst);
    }

    const Machine &m = _target->core(core_id);
    StopContext ctx;
    ctx.inst = &inst;
    ctx.camCount = m.sspm().count();
    ctx.sspmValid = m.sspm().validCount();
    ctx.lineBytes = m.memSystem().lineBytes();
    for (const StopSpec &hit : _engine.evaluate(ctx)) {
        if (!reason.empty())
            reason += "; ";
        reason += (hit.kind == StopKind::OpBreak ? "breakpoint "
                                                 : "watchpoint ") +
                  std::to_string(hit.id) + " (" + hit.describe() +
                  ")";
    }

    if (!reason.empty())
        pause(reason, core_id, timing, inst);
}

void
DebugSession::pause(const std::string &reason, unsigned core_id,
                    const InstTiming &timing, const Inst &inst)
{
    clearResumeConditions();
    *_out << "stopped: " << reason;
    if (_target->cores() > 1)
        *_out << " core " << core_id;
    *_out << " at inst " << _instCount << " cycle " << timing.commit
          << " (" << mnemonic(inst.op) << ")\n";
    _inPause = true;
    try {
        commandLoop(/*at_pause=*/true);
    } catch (...) {
        // RewindRequest unwinds through here; the replay run must
        // observe instructions again.
        _inPause = false;
        throw;
    }
    _inPause = false;
}

void
DebugSession::clearResumeConditions()
{
    _stepArmed = false;
    _stepRemaining = 0;
    _runToCycleArmed = false;
    _runToInstArmed = false;
}

void
DebugSession::commandLoop(bool at_pause)
{
    if (_eof || _detached) {
        // Input exhausted: run to completion without stopping.
        _detached = true;
        return;
    }
    std::string line;
    for (;;) {
        if (_cfg.prompt)
            *_out << "(via_db) " << std::flush;
        if (!std::getline(*_in, line)) {
            _eof = true;
            if (_running || !at_pause) {
                // Let the kernel finish so the final lines print.
                _detached = true;
            }
            return;
        }
        if (_cfg.echo && !line.empty())
            *_out << "(via_db) " << line << "\n";
        if (execute(line, at_pause))
            return;
    }
}

bool
DebugSession::execute(const std::string &line, bool at_pause)
{
    const std::vector<std::string> words = split(line);
    if (words.empty() || words[0][0] == '#')
        return false;
    const std::string &cmd = words[0];

    if (cmd == "help") {
        printHelp();
        return false;
    }
    if (cmd == "echo") {
        std::string rest;
        for (std::size_t i = 1; i < words.size(); ++i)
            rest += (i > 1 ? " " : "") + words[i];
        *_out << rest << "\n";
        return false;
    }
    if (cmd == "info")
        return cmdInfo(words);
    if (cmd == "break")
        return cmdBreak(words);
    if (cmd == "watch")
        return cmdWatch(words);
    if (cmd == "delete") {
        std::uint64_t id = 0;
        if (words.size() != 2 || !parseU64(words[1], id)) {
            *_out << "usage: delete <id>\n";
        } else if (!_engine.remove(int(id))) {
            *_out << "no breakpoint " << id << "\n";
        } else {
            *_out << "deleted " << id << "\n";
        }
        return false;
    }
    if (cmd == "list") {
        _engine.list(*_out);
        return false;
    }
    if (cmd == "step") {
        std::uint64_t n = 1;
        if (words.size() > 1 && !parseU64(words[1], n)) {
            *_out << "usage: step [N]\n";
            return false;
        }
        if (!_running && at_pause) {
            *_out << "program is not running\n";
            return false;
        }
        _stepArmed = true;
        _stepRemaining = n > 0 ? n : 1;
        return true;
    }
    if (cmd == "run-to-cycle" || cmd == "run-to-inst") {
        std::uint64_t n = 0;
        if (words.size() != 2 || !parseU64(words[1], n)) {
            *_out << "usage: " << cmd << " N\n";
            return false;
        }
        if (cmd == "run-to-cycle") {
            if (_running && _target->cycles() >= Tick(n)) {
                *_out << "already at cycle " << _target->cycles()
                      << "\n";
                return false;
            }
            _runToCycleArmed = true;
            _runToCycle = Tick(n);
        } else {
            if (_instCount >= n) {
                *_out << "already at inst " << _instCount << "\n";
                return false;
            }
            _runToInstArmed = true;
            _runToInst = n;
        }
        return true;
    }
    if (cmd == "continue")
        return true;
    if (cmd == "quit") {
        if (_running)
            *_out << "detaching: running to completion\n";
        _detached = true;
        return true;
    }
    if (cmd == "checkpoint") {
        if (words.size() != 3 ||
            (words[1] != "save" && words[1] != "load")) {
            *_out << "usage: checkpoint save|load <name>\n";
            return false;
        }
        if (words[1] == "save") {
            cmdCheckpointSave(words[2]);
            return false;
        }
        return cmdCheckpointLoad(words[2], at_pause);
    }

    *_out << "unknown command: " << cmd
          << " (try 'help')\n";
    return false;
}

bool
DebugSession::cmdInfo(const std::vector<std::string> &words)
{
    if (words.size() < 2) {
        *_out << "usage: info "
                 "rob|lsq|sspm|cam|cache <addr>|stats|backend "
                 "[core]\n";
        return false;
    }
    const std::string &what = words[1];
    std::size_t arg_idx = 2;
    Addr addr = 0;
    if (what == "cache") {
        std::uint64_t a = 0;
        if (words.size() < 3 || !parseU64(words[2], a)) {
            *_out << "usage: info cache <addr> [core]\n";
            return false;
        }
        addr = Addr(a);
        arg_idx = 3;
    }
    std::uint64_t core_id = 0;
    if (words.size() > arg_idx &&
        (!parseU64(words[arg_idx], core_id) ||
         core_id >= _target->cores())) {
        *_out << "info: bad core index\n";
        return false;
    }
    const Machine &m = _target->core(unsigned(core_id));

    if (what == "rob")
        infoRob(*_out, m);
    else if (what == "lsq")
        infoLsq(*_out, m);
    else if (what == "sspm")
        infoSspm(*_out, m);
    else if (what == "cam")
        infoCam(*_out, m);
    else if (what == "cache")
        infoCache(*_out, m, addr);
    else if (what == "stats")
        infoStats(*_out, m);
    else if (what == "backend")
        infoBackend(*_out, m);
    else
        *_out << "unknown info target: " << what << "\n";
    return false;
}

bool
DebugSession::cmdBreak(const std::vector<std::string> &words)
{
    if (words.size() < 2) {
        *_out << "usage: break <mnemonic> [once]\n";
        return false;
    }
    Op op = Op::Nop;
    if (!parseOp(words[1], op)) {
        *_out << "unknown mnemonic: " << words[1] << "\n";
        return false;
    }
    const bool once = words.size() > 2 && words[2] == "once";
    const int id = _engine.addOpBreak(op, once);
    *_out << "breakpoint " << id << ": break " << words[1] << "\n";
    return false;
}

bool
DebugSession::cmdWatch(const std::vector<std::string> &words)
{
    const auto usage = [this] {
        *_out << "usage: watch addr <A> [bytes] | watch line <A> | "
                 "watch cam <N> | watch sspm <N>  [once]\n";
    };
    if (words.size() < 3) {
        usage();
        return false;
    }
    const bool once = words.back() == "once";
    const std::string &kind = words[1];
    std::uint64_t a = 0;
    if (!parseU64(words[2], a)) {
        usage();
        return false;
    }
    int id = 0;
    if (kind == "addr") {
        std::uint64_t bytes = 1;
        if (words.size() > 3 && words[3] != "once" &&
            !parseU64(words[3], bytes)) {
            usage();
            return false;
        }
        id = _engine.addAddrWatch(Addr(a), bytes, once);
    } else if (kind == "line") {
        id = _engine.addLineWatch(
            Addr(a), _target->core(0).memSystem().lineBytes(), once);
    } else if (kind == "cam") {
        id = _engine.addCamWatch(a, once);
    } else if (kind == "sspm") {
        id = _engine.addSspmWatch(a, once);
    } else {
        usage();
        return false;
    }
    *_out << "watchpoint " << id << ": watch " << kind << " "
          << words[2] << "\n";
    return false;
}

void
DebugSession::cmdCheckpointSave(const std::string &name)
{
    if (_target->cores() > 1) {
        *_out << "checkpoint: multi-core targets cannot be "
                 "checkpointed\n";
        return;
    }
    try {
        sample::Checkpoint cp =
            sample::Checkpoint::capture(_target->core(0));
        const std::size_t bytes = cp.bytes().size();
        _saved.insert_or_assign(name, Saved{_instCount, std::move(cp)});
        *_out << "checkpoint '" << name << "' saved at inst "
              << _instCount << " (" << bytes << " bytes)\n";
    } catch (const SerializeError &e) {
        *_out << "checkpoint save failed: " << e.what() << "\n";
        _failed = true;
    }
}

bool
DebugSession::cmdCheckpointLoad(const std::string &name,
                                bool at_pause)
{
    auto saved = _saved.find(name);
    if (saved == _saved.end()) {
        *_out << "no checkpoint '" << name << "'\n";
        return false;
    }
    *_out << "rewinding to checkpoint '" << name << "' (inst "
          << saved->second.inst << ") via deterministic replay\n";
    if (at_pause && _running)
        throw RewindRequest{name};
    // Pre-run or post-run: rewind from the session driver instead
    // of unwinding a kernel that is not on the stack.
    _pendingRewind = name;
    return true;
}

void
DebugSession::drainPendingRewinds()
{
    // A replay to a marker at inst 0 re-enters the command loop,
    // which may itself request another rewind; settle them all
    // before (re)starting the kernel.
    while (_pendingRewind.has_value()) {
        const std::string name = *_pendingRewind;
        _pendingRewind.reset();
        prepareReplay(name);
    }
}

void
DebugSession::prepareReplay(const std::string &name)
{
    detachTaps();
    _target.reset();
    buildTarget();
    attachTaps();
    _instCount = 0;
    clearResumeConditions();
    _replayName = name;
    _replayUntil = _saved.at(name).inst;
    if (_replayUntil == 0) {
        // Captured before the first instruction: verify against
        // the fresh target and hand control back immediately.
        verifyReplay();
        commandLoop(/*at_pause=*/false);
    } else {
        _replaying = true;
    }
}

void
DebugSession::verifyReplay()
{
    if (_target->cores() > 1) {
        *_out << "replay verification skipped (multi-core)\n";
        return;
    }
    try {
        const sample::Checkpoint now =
            sample::Checkpoint::capture(_target->core(0));
        const sample::Checkpoint &saved =
            _saved.at(_replayName).image;
        if (now.bytes() == saved.bytes()) {
            *_out << "checkpoint '" << _replayName
                  << "': replayed to inst " << _instCount
                  << ", state verified bit-identical ("
                  << now.bytes().size() << " bytes)\n";
        } else {
            *_out << "checkpoint '" << _replayName
                  << "': REPLAY MISMATCH (" << now.bytes().size()
                  << " vs " << saved.bytes().size() << " bytes)\n";
            _failed = true;
        }
    } catch (const SerializeError &e) {
        *_out << "replay verification failed: " << e.what() << "\n";
        _failed = true;
    }
}

std::uint64_t
DebugSession::combinedFingerprint()
{
    if (_target->cores() == 1)
        return statsFingerprint(_target->core(0).stats());
    // Hash the per-core fingerprints and the shared-level stats'
    // one, each as 8 little-endian bytes.
    std::string bytes;
    auto append = [&bytes](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            bytes += char(v >> (8 * i));
    };
    for (unsigned c = 0; c < _target->cores(); ++c)
        append(statsFingerprint(_target->core(c).stats()));
    append(statsFingerprint(_target->stats()));
    return fnv1a64(bytes);
}

void
DebugSession::printFinal(bool ok)
{
    *_out << "result: " << (ok ? "ok" : "MISMATCH") << "\n";
    *_out << "final: cycles=" << _target->cycles()
          << " insts=" << _instCount
          << " stats_fnv64=" << hex64(combinedFingerprint()) << "\n";
}

void
DebugSession::printHelp()
{
    *_out <<
        "commands:\n"
        "  step [N]              advance N committed insts "
        "(default 1)\n"
        "  run-to-cycle N        stop at the first commit >= "
        "cycle N\n"
        "  run-to-inst N         stop once N insts committed\n"
        "  continue              run until a breakpoint or the "
        "end\n"
        "  break <mnemonic> [once]\n"
        "  watch addr <A> [bytes] [once]\n"
        "  watch line <A> [once]\n"
        "  watch cam <N> [once]  stop when CAM occupancy >= N\n"
        "  watch sspm <N> [once] stop when SSPM valid words >= N\n"
        "  delete <id> | list\n"
        "  info rob|lsq|sspm|cam|stats|backend [core]\n"
        "  info cache <addr> [core]\n"
        "  checkpoint save <name> | checkpoint load <name>\n"
        "  echo <text> | help | quit\n";
}

} // namespace via::debug
