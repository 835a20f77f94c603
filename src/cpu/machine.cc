#include "cpu/machine.hh"

#include <algorithm>

#include "check/invariants.hh"
#include "sample/functional.hh"
#include "simcore/log.hh"
#include "simcore/serialize.hh"

namespace via
{

namespace
{

/** Pack a host double into a raw lane container for element type t. */
std::uint64_t
fToRaw(ElemType t, double v)
{
    VecValue tmp;
    tmp.setFAs(t, 0, v);
    return tmp.raw[0];
}

/** Unpack a raw lane container as a double for element type t. */
double
rawToF(ElemType t, std::uint64_t raw)
{
    VecValue tmp;
    tmp.raw[0] = raw;
    return tmp.fAs(t, 0);
}

} // namespace

Machine::Machine(const MachineParams &params)
    : Machine(params, nullptr, nullptr, 0)
{
}

Machine::Machine(const MachineParams &params,
                 BackingStore &shared_store, SharedLlc &llc,
                 unsigned core_id)
    : Machine(params, &shared_store, &llc, core_id)
{
}

Machine::Machine(const MachineParams &params,
                 BackingStore *shared_store, SharedLlc *llc,
                 unsigned core_id)
    : _params(params),
      _memSys(std::make_unique<MemSystem>(params.mem)),
      _sspm(std::make_unique<Sspm>(params.via)),
      _fivu(std::make_unique<Fivu>(params.via)),
      _backend(makeBackend(params.backend, *_fivu, *_sspm,
                           _memSys->lineBytes())),
      _core(std::make_unique<OoOCore>(params.core, *_memSys,
                                      *_backend)),
      _func(std::make_unique<sample::FunctionalExecutor>(*_memSys,
                                                         *_core))
{
    if (shared_store != nullptr)
        _mem = shared_store;
    // Attach before registering stats so the hierarchy knows to
    // skip its (unused) private DRAM counters.
    if (llc != nullptr)
        _memSys->attachShared(llc, core_id);
    _memSys->registerStats(_stats);
    _core->registerStats(_stats);
    _func->registerStats(_stats);

    const SspmStats &ss = _sspm->stats();
    _stats.addScalar("sspm.direct_reads", "direct-mapped reads",
                     &ss.directReads);
    _stats.addScalar("sspm.direct_writes", "direct-mapped writes",
                     &ss.directWrites);
    _stats.addScalar("sspm.cam_reads", "CAM-mode reads",
                     &ss.camReads);
    _stats.addScalar("sspm.cam_writes", "CAM-mode writes",
                     &ss.camWrites);
    _stats.addScalar("sspm.bitmap_clears", "flash clears",
                     &ss.bitmapClears);

    const IndexTableStats &its = _sspm->indexTable().stats();
    _stats.addScalar("cam.searches", "index table searches",
                     &its.searches);
    _stats.addScalar("cam.comparisons",
                     "comparators activated (energy proxy)",
                     &its.comparisons);
    _stats.addScalar("cam.banks_searched",
                     "banks not clock-gated during searches",
                     &its.banksSearched);
    _stats.addScalar("cam.inserts", "new tracked indices",
                     &its.inserts);
    _stats.addScalar("cam.overflows", "rejected inserts (table full)",
                     &its.overflows);

    const FivuStats &fs = _fivu->stats();
    _stats.addScalar("fivu.insts", "VIA instructions executed",
                     &fs.viaInsts);
    _stats.addScalar("fivu.busy_cycles", "FIVU occupancy",
                     &fs.busyCycles);
    _stats.addScalar("fivu.sspm_read_cycles",
                     "cycles spent on SSPM read phases",
                     &fs.sspmReadCycles);
    _stats.addScalar("fivu.sspm_write_cycles",
                     "cycles spent on SSPM write phases",
                     &fs.sspmWriteCycles);

    // Via/Base register nothing here, keeping the dump (and every
    // fingerprint over it) byte-identical to the pre-backend layout.
    _backend->registerStats(_stats);

    if (check::envEnabled())
        attachChecker();
}

Machine::~Machine()
{
    if (_checker && check::envEnabled())
        _checker->checkOrDie();
}

check::TimingInvariantChecker &
Machine::attachChecker()
{
    if (!_checker)
        _checker =
            std::make_unique<check::TimingInvariantChecker>(*this);
    return *_checker;
}

void
Machine::enableTracing(std::size_t limit)
{
    _trace = std::make_unique<TraceManager>(limit);
    _core->setTrace(_trace.get());
    _memSys->setTrace(_trace.get());
    _sspm->setTrace(_trace.get());
    _fivu->setTrace(_trace.get());
}

void
Machine::tracePhase(const std::string &name)
{
    if (_trace)
        _trace->beginPhase(name, cycles());
}

VecValue &
Machine::vreg(VReg r)
{
    return _vrf[r.id];
}

std::uint64_t
Machine::sregRaw(SReg r) const
{
    via_assert(r.id >= 0 && r.id < NUM_SREGS, "bad sreg ", r.id);
    return _srf[std::size_t(r.id)];
}

std::int64_t
Machine::sregI(SReg r) const
{
    return std::int64_t(sregRaw(r));
}

void
Machine::setSregI(SReg r, std::int64_t v)
{
    via_assert(r.id >= 0 && r.id < NUM_SREGS, "bad sreg ", r.id);
    _srf[std::size_t(r.id)] = std::uint64_t(v);
}

double
Machine::sregF(SReg r) const
{
    double out;
    std::uint64_t raw = sregRaw(r);
    std::memcpy(&out, &raw, sizeof(out));
    return out;
}

void
Machine::setSregF(SReg r, double v)
{
    std::uint64_t raw;
    std::memcpy(&raw, &v, sizeof(raw));
    via_assert(r.id >= 0 && r.id < NUM_SREGS, "bad sreg ", r.id);
    _srf[std::size_t(r.id)] = raw;
}

std::uint32_t
Machine::resolveVl(ElemType t, int vl) const
{
    std::uint32_t max = lanesFor(t);
    if (vl < 0)
        return max;
    via_assert(std::uint32_t(vl) <= max, "vl ", vl,
               " exceeds lanes for this element type (", max, ")");
    return std::uint32_t(vl);
}

std::int16_t
Machine::vid(VReg r)
{
    via_assert(r.id >= 0 && r.id < NUM_VREGS, "bad vreg ", r.id);
    return std::int16_t(NUM_SREGS + r.id);
}

std::int16_t
Machine::sid(SReg r)
{
    if (r.id < 0)
        return REG_NONE;
    via_assert(r.id < NUM_SREGS, "bad sreg ", r.id);
    return std::int16_t(r.id);
}

Inst
Machine::makeInst(Op op, int vl, std::int16_t dst, std::int16_t s0,
                  std::int16_t s1, std::int16_t s2)
{
    Inst inst;
    inst.op = op;
    inst.vl = std::uint8_t(vl < 0 ? 0 : vl);
    inst.dst = dst;
    inst.src = {s0, s1, s2};
    inst.seq = _seq++;
    return inst;
}

void
Machine::issue(const Inst &inst)
{
    if (_policy == nullptr || _policy->detailedNext(inst))
        _core->push(inst);
    else
        _func->execute(inst);
}

void
Machine::saveState(Serializer &ser) const
{
    if (_mem != &_store)
        throw SerializeError("multi-core machines cannot be "
                             "checkpointed (shared memory)");

    ser.tag("MACH");
    ser.put(_params.valueType);
    ser.put(_params.indexType);
    // The clock: the commit front, checked against the core on load.
    ser.put(cycles());
    ser.put(_seq);
    for (int r = 0; r < NUM_VREGS; ++r)
        for (std::uint64_t raw : _vrf[r].raw)
            ser.put(raw);
    for (std::uint64_t s : _srf)
        ser.put(s);
    _store.saveState(ser);
    _memSys->saveState(ser);
    _sspm->saveState(ser);
    _fivu->saveState(ser);
    _core->saveState(ser);
    // Appended last; Via/Base backends write nothing, so their
    // checkpoints are byte-identical to the pre-backend format.
    _backend->saveState(ser);
}

void
Machine::loadState(Deserializer &des)
{
    if (_mem != &_store)
        throw SerializeError("multi-core machines cannot be "
                             "restored (shared memory)");

    des.expectTag("MACH");
    if (des.get<ElemType>() != _params.valueType ||
        des.get<ElemType>() != _params.indexType)
        throw SerializeError("machine element type mismatch");
    Tick front = des.get<Tick>();
    SeqNum seq = des.get<SeqNum>();
    for (int r = 0; r < NUM_VREGS; ++r)
        for (std::uint64_t &raw : _vrf[r].raw)
            raw = des.get<std::uint64_t>();
    for (std::uint64_t &s : _srf)
        s = des.get<std::uint64_t>();
    _store.loadState(des);
    _memSys->loadState(des);
    _sspm->loadState(des);
    _fivu->loadState(des);
    _core->loadState(des);
    _backend->loadState(des);
    if (front != cycles())
        throw SerializeError(
            "machine clock " + std::to_string(front) +
            " disagrees with the restored commit front " +
            std::to_string(cycles()));
    _seq = seq;
}

// ================= scalar ======================================

void
Machine::simm(SReg dst, std::int64_t value)
{
    setSregI(dst, value);
    issue(makeInst(Op::SAlu, 0, sid(dst), REG_NONE));
}

void
Machine::salu(SReg dst, std::int64_t result, SReg a, SReg b)
{
    setSregI(dst, result);
    issue(makeInst(Op::SAlu, 0, sid(dst), sid(a), sid(b)));
}

void
Machine::sfadd(SReg dst, SReg a, SReg b)
{
    setSregF(dst, sregF(a) + sregF(b));
    issue(makeInst(Op::SFAdd, 0, sid(dst), sid(a), sid(b)));
}

void
Machine::sfmul(SReg dst, SReg a, SReg b)
{
    setSregF(dst, sregF(a) * sregF(b));
    issue(makeInst(Op::SFMul, 0, sid(dst), sid(a), sid(b)));
}

void
Machine::sbranch(SReg cond)
{
    issue(makeInst(Op::SBranch, 0, REG_NONE, sid(cond)));
}

void
Machine::sbranchData(SReg cond, std::uint64_t site, bool taken)
{
    Inst inst = makeInst(Op::SBranch, 0, REG_NONE, sid(cond));
    inst.isDataBranch = true;
    inst.branchSite = std::uint32_t(site);
    inst.branchTaken = taken;
    issue(inst);
}

void
Machine::sload(SReg dst, Addr addr, std::uint32_t bytes,
               SReg addr_dep)
{
    via_assert(bytes >= 1 && bytes <= 8, "bad scalar load size");
    std::uint64_t raw = 0;
    _mem->read(addr, &raw, bytes);
    if (bytes == 4) {
        // Sign-extend 32-bit loads: indices are int32.
        raw = std::uint64_t(std::int64_t(std::int32_t(raw)));
    }
    via_assert(dst.id >= 0 && dst.id < NUM_SREGS, "bad sreg");
    _srf[std::size_t(dst.id)] = raw;

    Inst inst = makeInst(Op::SLoad, 0, sid(dst), sid(addr_dep));
    inst.addAccess(addr, bytes, false);
    issue(inst);
}

void
Machine::sstore(Addr addr, SReg src, std::uint32_t bytes,
                SReg addr_dep)
{
    via_assert(bytes >= 1 && bytes <= 8, "bad scalar store size");
    std::uint64_t raw = sregRaw(src);
    _mem->write(addr, &raw, bytes);

    Inst inst = makeInst(Op::SStore, 0, REG_NONE, sid(src),
                         sid(addr_dep));
    inst.addAccess(addr, bytes, true);
    issue(inst);
}

void
Machine::sloadF(SReg dst, Addr addr, ElemType t, SReg addr_dep)
{
    double v;
    if (t == ElemType::F64) {
        v = _mem->load<double>(addr);
    } else {
        via_assert(t == ElemType::F32, "sloadF needs an FP type");
        v = double(_mem->load<float>(addr));
    }
    setSregF(dst, v);

    Inst inst = makeInst(Op::SLoad, 0, sid(dst), sid(addr_dep));
    inst.addAccess(addr, elemBytes(t), false);
    issue(inst);
}

void
Machine::sstoreF(Addr addr, SReg src, ElemType t, SReg addr_dep)
{
    double v = sregF(src);
    if (t == ElemType::F64) {
        _mem->store<double>(addr, v);
    } else {
        via_assert(t == ElemType::F32, "sstoreF needs an FP type");
        _mem->store<float>(addr, float(v));
    }

    Inst inst = makeInst(Op::SStore, 0, REG_NONE, sid(src),
                         sid(addr_dep));
    inst.addAccess(addr, elemBytes(t), true);
    issue(inst);
}

// ================= vector memory ================================

void
Machine::vload(VReg dst, Addr addr, ElemType t, int vl, SReg addr_dep)
{
    std::uint32_t n = resolveVl(t, vl);
    std::uint32_t eb = elemBytes(t);
    VecValue &d = _vrf[dst.id];
    for (std::uint32_t l = 0; l < n; ++l) {
        std::uint64_t raw = 0;
        _mem->read(addr + Addr(l) * eb, &raw, eb);
        if (t == ElemType::I32)
            raw = std::uint64_t(std::int64_t(std::int32_t(raw)));
        d.raw[l] = raw;
    }
    for (std::uint32_t l = n; l < MAX_LANES; ++l)
        d.raw[l] = 0;

    Inst inst = makeInst(Op::VLoad, int(n), vid(dst), sid(addr_dep));
    inst.addAccess(addr, n * eb, false);
    issue(inst);
}

void
Machine::vstore(Addr addr, VReg src, ElemType t, int vl,
                SReg addr_dep)
{
    std::uint32_t n = resolveVl(t, vl);
    std::uint32_t eb = elemBytes(t);
    const VecValue &s = _vrf[src.id];
    for (std::uint32_t l = 0; l < n; ++l)
        _mem->write(addr + Addr(l) * eb, &s.raw[l], eb);

    Inst inst = makeInst(Op::VStore, int(n), REG_NONE, vid(src),
                         sid(addr_dep));
    inst.addAccess(addr, n * eb, true);
    issue(inst);
}

void
Machine::vgather(VReg dst, Addr base, VReg idx, ElemType t, int vl)
{
    std::uint32_t n = resolveVl(t, vl);
    std::uint32_t eb = elemBytes(t);
    const VecValue &ix = _vrf[idx.id];
    VecValue &d = _vrf[dst.id];

    Inst inst = makeInst(Op::VGather, int(n), vid(dst), vid(idx));
    for (std::uint32_t l = 0; l < n; ++l) {
        Addr a = base + Addr(ix.i(l)) * eb;
        std::uint64_t raw = 0;
        _mem->read(a, &raw, eb);
        if (t == ElemType::I32)
            raw = std::uint64_t(std::int64_t(std::int32_t(raw)));
        d.raw[l] = raw;
        inst.addAccess(a, eb, false);
    }
    for (std::uint32_t l = n; l < MAX_LANES; ++l)
        d.raw[l] = 0;
    issue(inst);
}

void
Machine::vscatter(Addr base, VReg idx, VReg src, ElemType t, int vl)
{
    std::uint32_t n = resolveVl(t, vl);
    std::uint32_t eb = elemBytes(t);
    const VecValue &ix = _vrf[idx.id];
    const VecValue &s = _vrf[src.id];

    Inst inst = makeInst(Op::VScatter, int(n), REG_NONE, vid(idx),
                         vid(src));
    for (std::uint32_t l = 0; l < n; ++l) {
        Addr a = base + Addr(ix.i(l)) * eb;
        _mem->write(a, &s.raw[l], eb);
        inst.addAccess(a, eb, true);
    }
    issue(inst);
}

// ================= vector arithmetic ============================

void
Machine::vbroadcastF(VReg dst, double v)
{
    ElemType t = valueType();
    VecValue &d = _vrf[dst.id];
    for (std::uint32_t l = 0; l < lanesFor(t); ++l)
        d.setFAs(t, l, v);
    issue(makeInst(Op::VBroadcastF, int(lanesFor(t)), vid(dst),
                         REG_NONE));
}

void
Machine::vbroadcastI(VReg dst, std::int64_t v)
{
    VecValue &d = _vrf[dst.id];
    for (std::uint32_t l = 0; l < MAX_LANES; ++l)
        d.setI(l, v);
    issue(makeInst(Op::VBroadcastI, int(MAX_LANES), vid(dst),
                         REG_NONE));
}

void
Machine::viotaI(VReg dst, std::int64_t base, std::int64_t step)
{
    VecValue &d = _vrf[dst.id];
    for (std::uint32_t l = 0; l < MAX_LANES; ++l)
        d.setI(l, base + std::int64_t(l) * step);
    issue(makeInst(Op::VIota, int(MAX_LANES), vid(dst),
                         REG_NONE));
}

void
Machine::vpatternI(VReg dst, const std::vector<std::int64_t> &lanes)
{
    via_assert(lanes.size() <= MAX_LANES, "pattern too wide");
    VecValue &d = _vrf[dst.id];
    for (std::uint32_t l = 0; l < MAX_LANES; ++l)
        d.setI(l, l < lanes.size() ? lanes[l] : 0);
    issue(makeInst(Op::VIota, int(MAX_LANES), vid(dst),
                         REG_NONE));
}

double
Machine::combineF(ArithKind k, double a, double b) const
{
    switch (k) {
      case ArithKind::Add:
        return a + b;
      case ArithKind::Sub:
        return a - b;
      case ArithKind::Mul:
        return a * b;
    }
    via_panic("bad arith kind");
}

void
Machine::vaddF(VReg dst, VReg a, VReg b, int vl_)
{
    ElemType t = valueType();
    std::uint32_t n = resolveVl(t, vl_);
    VecValue &d = _vrf[dst.id];
    const VecValue &x = _vrf[a.id];
    const VecValue &y = _vrf[b.id];
    for (std::uint32_t l = 0; l < n; ++l)
        d.setFAs(t, l, x.fAs(t, l) + y.fAs(t, l));
    issue(makeInst(Op::VAddF, int(n), vid(dst), vid(a),
                         vid(b)));
}

void
Machine::vmulF(VReg dst, VReg a, VReg b, int vl_)
{
    ElemType t = valueType();
    std::uint32_t n = resolveVl(t, vl_);
    VecValue &d = _vrf[dst.id];
    const VecValue &x = _vrf[a.id];
    const VecValue &y = _vrf[b.id];
    for (std::uint32_t l = 0; l < n; ++l)
        d.setFAs(t, l, x.fAs(t, l) * y.fAs(t, l));
    issue(makeInst(Op::VMulF, int(n), vid(dst), vid(a),
                         vid(b)));
}

void
Machine::vfmaF(VReg dst, VReg a, VReg b, VReg c, int vl_)
{
    ElemType t = valueType();
    std::uint32_t n = resolveVl(t, vl_);
    VecValue &d = _vrf[dst.id];
    const VecValue &x = _vrf[a.id];
    const VecValue &y = _vrf[b.id];
    const VecValue &z = _vrf[c.id];
    for (std::uint32_t l = 0; l < n; ++l)
        d.setFAs(t, l, x.fAs(t, l) * y.fAs(t, l) + z.fAs(t, l));
    issue(makeInst(Op::VFmaF, int(n), vid(dst), vid(a), vid(b),
                         vid(c)));
}

void
Machine::vaddI(VReg dst, VReg a, VReg b, int vl_)
{
    std::uint32_t n = vl_ < 0 ? MAX_LANES : std::uint32_t(vl_);
    VecValue &d = _vrf[dst.id];
    const VecValue &x = _vrf[a.id];
    const VecValue &y = _vrf[b.id];
    for (std::uint32_t l = 0; l < n; ++l)
        d.setI(l, x.i(l) + y.i(l));
    issue(makeInst(Op::VAddI, int(n), vid(dst), vid(a),
                         vid(b)));
}

void
Machine::vsubI(VReg dst, VReg a, VReg b, int vl_)
{
    std::uint32_t n = vl_ < 0 ? MAX_LANES : std::uint32_t(vl_);
    VecValue &d = _vrf[dst.id];
    const VecValue &x = _vrf[a.id];
    const VecValue &y = _vrf[b.id];
    for (std::uint32_t l = 0; l < n; ++l)
        d.setI(l, x.i(l) - y.i(l));
    issue(makeInst(Op::VAddI, int(n), vid(dst), vid(a),
                         vid(b)));
}

void
Machine::vandI(VReg dst, VReg src, std::int64_t imm, int vl_)
{
    std::uint32_t n = vl_ < 0 ? MAX_LANES : std::uint32_t(vl_);
    VecValue &d = _vrf[dst.id];
    const VecValue &x = _vrf[src.id];
    for (std::uint32_t l = 0; l < n; ++l)
        d.setI(l, x.i(l) & imm);
    issue(makeInst(Op::VAndI, int(n), vid(dst), vid(src)));
}

void
Machine::vshrI(VReg dst, VReg src, std::uint32_t shift, int vl_)
{
    std::uint32_t n = vl_ < 0 ? MAX_LANES : std::uint32_t(vl_);
    VecValue &d = _vrf[dst.id];
    const VecValue &x = _vrf[src.id];
    for (std::uint32_t l = 0; l < n; ++l)
        d.setI(l, x.i(l) >> shift);
    issue(makeInst(Op::VShrI, int(n), vid(dst), vid(src)));
}

void
Machine::vcmpLtI(VReg dst, VReg a, VReg b, int vl_)
{
    std::uint32_t n = vl_ < 0 ? MAX_LANES : std::uint32_t(vl_);
    VecValue &d = _vrf[dst.id];
    const VecValue &x = _vrf[a.id];
    const VecValue &y = _vrf[b.id];
    for (std::uint32_t l = 0; l < n; ++l)
        d.setI(l, x.i(l) < y.i(l) ? 1 : 0);
    issue(makeInst(Op::VCmpLtI, int(n), vid(dst), vid(a),
                         vid(b)));
}

void
Machine::vredsumF(SReg dst, VReg src, int vl_)
{
    ElemType t = valueType();
    std::uint32_t n = resolveVl(t, vl_);
    const VecValue &s = _vrf[src.id];
    double sum = 0.0;
    for (std::uint32_t l = 0; l < n; ++l)
        sum += s.fAs(t, l);
    setSregF(dst, sum);
    issue(makeInst(Op::VRedSumF, int(n), sid(dst), vid(src)));
}

void
Machine::vcompress(VReg dst, VReg src, VReg mask, int vl_)
{
    std::uint32_t n = vl_ < 0 ? MAX_LANES : std::uint32_t(vl_);
    const VecValue s = _vrf[src.id]; // copy: dst may alias src
    const VecValue m = _vrf[mask.id];
    VecValue &d = _vrf[dst.id];
    std::uint32_t k = 0;
    for (std::uint32_t l = 0; l < n; ++l)
        if (m.i(l) != 0)
            d.raw[k++] = s.raw[l];
    for (; k < MAX_LANES; ++k)
        d.raw[k] = 0;
    issue(makeInst(Op::VCompress, int(n), vid(dst), vid(src),
                         vid(mask)));
}

void
Machine::vexpandMask(VReg dst, VReg src, std::uint32_t mask, int vl_,
                     SReg mask_dep)
{
    std::uint32_t n = vl_ < 0 ? MAX_LANES : std::uint32_t(vl_);
    const VecValue s = _vrf[src.id];
    VecValue &d = _vrf[dst.id];
    std::uint32_t k = 0;
    for (std::uint32_t l = 0; l < n; ++l)
        d.raw[l] = ((mask >> l) & 1u) ? s.raw[k++] : 0;
    for (std::uint32_t l = n; l < MAX_LANES; ++l)
        d.raw[l] = 0;
    issue(makeInst(Op::VExpand, int(n), vid(dst), vid(src),
                         sid(mask_dep)));
}

void
Machine::vconflict(VReg dst, VReg idx, int vl_)
{
    std::uint32_t n = vl_ < 0 ? MAX_LANES : std::uint32_t(vl_);
    const VecValue ix = _vrf[idx.id];
    VecValue &d = _vrf[dst.id];
    for (std::uint32_t l = 0; l < n; ++l) {
        std::int64_t mask = 0;
        for (std::uint32_t j = 0; j < l; ++j)
            if (ix.i(j) == ix.i(l))
                mask |= std::int64_t(1) << j;
        d.setI(l, mask);
    }
    for (std::uint32_t l = n; l < MAX_LANES; ++l)
        d.raw[l] = 0;
    issue(makeInst(Op::VConflict, int(n), vid(dst), vid(idx)));
}

void
Machine::vmergeIdx(VReg dst, VReg src, VReg idx, int vl_)
{
    ElemType t = valueType();
    std::uint32_t n = resolveVl(t, vl_);
    const VecValue s = _vrf[src.id];
    const VecValue ix = _vrf[idx.id];
    VecValue &d = _vrf[dst.id];
    for (std::uint32_t l = 0; l < n; ++l) {
        double sum = 0.0;
        for (std::uint32_t j = 0; j < n; ++j)
            if (ix.i(j) == ix.i(l))
                sum += s.fAs(t, j);
        d.setFAs(t, l, sum);
    }
    for (std::uint32_t l = n; l < MAX_LANES; ++l)
        d.raw[l] = 0;
    issue(makeInst(Op::VMergeIdx, int(n), vid(dst), vid(src),
                         vid(idx)));
}

// ================= VIA ==========================================

void
Machine::vidxClear()
{
    _sspm->clearAll();
    issue(makeInst(Op::VidxClear, 0, REG_NONE, REG_NONE));
}

void
Machine::vidxClearSegment(std::uint64_t lo, std::uint64_t hi)
{
    _sspm->clearSegment(lo, hi);
    issue(makeInst(Op::VidxClear, 0, REG_NONE, REG_NONE));
}

void
Machine::vidxCount(SReg dst)
{
    setSregI(dst, _sspm->count());
    issue(makeInst(Op::VidxCount, 0, sid(dst), REG_NONE));
}

void
Machine::vidxLoadD(VReg data, VReg idx, int vl_)
{
    std::uint32_t n = resolveVl(valueType(), vl_);
    const VecValue &d = _vrf[data.id];
    const VecValue &ix = _vrf[idx.id];
    for (std::uint32_t l = 0; l < n; ++l)
        _sspm->writeDirect(std::uint64_t(ix.i(l)), d.raw[l]);

    Inst inst = makeInst(Op::VidxLoadD, int(n), REG_NONE, vid(data),
                         vid(idx));
    inst.sspmWrites = std::uint16_t(n);
    issue(inst);
}

void
Machine::vidxLoadC(VReg data, VReg keys, int vl_)
{
    std::uint32_t n = resolveVl(valueType(), vl_);
    const VecValue &d = _vrf[data.id];
    const VecValue &k = _vrf[keys.id];
    for (std::uint32_t l = 0; l < n; ++l) {
        auto slot = _sspm->camWrite(k.i(l), d.raw[l]);
        if (slot == IndexTable::NO_SLOT)
            via_fatal("SSPM index table overflow on vidx.load.c; "
                      "the kernel must tile rows to the CAM size (",
                      _sspm->config().camEntries(), " entries)");
    }

    Inst inst = makeInst(Op::VidxLoadC, int(n), REG_NONE, vid(data),
                         vid(keys));
    inst.sspmWrites = std::uint16_t(n);
    inst.camSearches = std::uint16_t(n);
    issue(inst);
}

void
Machine::vidxMov(VReg dst, VReg idx, int vl_)
{
    std::uint32_t n = resolveVl(valueType(), vl_);
    const VecValue ix = _vrf[idx.id];
    VecValue &d = _vrf[dst.id];
    for (std::uint32_t l = 0; l < n; ++l)
        d.raw[l] = _sspm->readDirect(std::uint64_t(ix.i(l)));
    for (std::uint32_t l = n; l < MAX_LANES; ++l)
        d.raw[l] = 0;

    Inst inst = makeInst(Op::VidxMov, int(n), vid(dst), vid(idx));
    inst.sspmReads = std::uint16_t(n);
    issue(inst);
}

void
Machine::vidxKeys(VReg dst, std::uint32_t slot_offset, int vl_)
{
    std::uint32_t n = resolveVl(indexType(), vl_);
    VecValue &d = _vrf[dst.id];
    std::uint32_t count = _sspm->count();
    for (std::uint32_t l = 0; l < n; ++l) {
        std::uint32_t slot = slot_offset + l;
        d.setI(l, slot < count ? _sspm->keyAt(slot) : 0);
    }
    for (std::uint32_t l = n; l < MAX_LANES; ++l)
        d.raw[l] = 0;

    Inst inst = makeInst(Op::VidxKeys, int(n), vid(dst), REG_NONE);
    inst.sspmReads = std::uint16_t(n);
    issue(inst);
}

void
Machine::vidxVals(VReg dst, std::uint32_t slot_offset, int vl_)
{
    std::uint32_t n = resolveVl(valueType(), vl_);
    VecValue &d = _vrf[dst.id];
    std::uint32_t count = _sspm->count();
    for (std::uint32_t l = 0; l < n; ++l) {
        std::uint32_t slot = slot_offset + l;
        d.raw[l] = slot < count ? _sspm->valueAt(slot) : 0;
    }
    for (std::uint32_t l = n; l < MAX_LANES; ++l)
        d.raw[l] = 0;

    Inst inst = makeInst(Op::VidxVals, int(n), vid(dst), REG_NONE);
    inst.sspmReads = std::uint16_t(n);
    issue(inst);
}

void
Machine::vidxArithD(Op op, ArithKind k, VReg data, VReg idx,
                    ViaOut out, VReg dst, std::int64_t offset,
                    int vl_)
{
    ElemType t = valueType();
    std::uint32_t n = resolveVl(t, vl_);
    const VecValue d = _vrf[data.id];
    const VecValue ix = _vrf[idx.id];

    Inst inst = makeInst(op, int(n),
                         out == ViaOut::Vrf ? vid(dst) : REG_NONE,
                         vid(data), vid(idx));
    inst.sspmReads = std::uint16_t(n);

    if (out == ViaOut::Vrf) {
        VecValue &o = _vrf[dst.id];
        for (std::uint32_t l = 0; l < n; ++l) {
            double cur = rawToF(t, _sspm->readDirect(
                                       std::uint64_t(ix.i(l))));
            o.setFAs(t, l, combineF(k, cur, d.fAs(t, l)));
        }
        for (std::uint32_t l = n; l < MAX_LANES; ++l)
            o.raw[l] = 0;
    } else {
        // Lanes are processed in order; software merges duplicate
        // indices beforehand (vconflict), as in the paper's
        // histogram kernel.
        for (std::uint32_t l = 0; l < n; ++l) {
            auto src_idx = std::uint64_t(ix.i(l));
            double cur = rawToF(t, _sspm->readDirect(src_idx));
            double res = combineF(k, cur, d.fAs(t, l));
            _sspm->writeDirect(std::uint64_t(ix.i(l) + offset),
                               fToRaw(t, res));
        }
        inst.sspmWrites = std::uint16_t(n);
    }
    issue(inst);
}

void
Machine::vidxAddD(VReg data, VReg idx, ViaOut out, VReg dst,
                  std::int64_t offset, int vl_)
{
    vidxArithD(Op::VidxAddD, ArithKind::Add, data, idx, out, dst,
               offset, vl_);
}

void
Machine::vidxSubD(VReg data, VReg idx, ViaOut out, VReg dst,
                  std::int64_t offset, int vl_)
{
    vidxArithD(Op::VidxSubD, ArithKind::Sub, data, idx, out, dst,
               offset, vl_);
}

void
Machine::vidxMulD(VReg data, VReg idx, ViaOut out, VReg dst,
                  std::int64_t offset, int vl_)
{
    vidxArithD(Op::VidxMulD, ArithKind::Mul, data, idx, out, dst,
               offset, vl_);
}

void
Machine::vidxArithC(Op op, ArithKind k, VReg data, VReg keys,
                    ViaOut out, VReg dst, int vl_)
{
    ElemType t = valueType();
    std::uint32_t n = resolveVl(t, vl_);
    const VecValue d = _vrf[data.id];
    const VecValue ks = _vrf[keys.id];

    Inst inst = makeInst(op, int(n),
                         out == ViaOut::Vrf ? vid(dst) : REG_NONE,
                         vid(data), vid(keys));
    inst.sspmReads = std::uint16_t(n);
    inst.camSearches = std::uint16_t(n);

    if (out == ViaOut::Vrf) {
        VecValue &o = _vrf[dst.id];
        for (std::uint32_t l = 0; l < n; ++l) {
            bool found = false;
            std::uint64_t raw = _sspm->camRead(ks.i(l), found);
            double res = found
                             ? combineF(k, rawToF(t, raw),
                                        d.fAs(t, l))
                             : 0.0;
            o.setFAs(t, l, res);
        }
        for (std::uint32_t l = n; l < MAX_LANES; ++l)
            o.raw[l] = 0;
    } else {
        // Union read-modify-write (SpMA): matches combine in place,
        // misses insert the incoming value.
        for (std::uint32_t l = 0; l < n; ++l) {
            double incoming = d.fAs(t, l);
            auto combine = [&](std::uint64_t cur_raw,
                               std::uint64_t new_raw) {
                double cur = rawToF(t, cur_raw);
                double inc = rawToF(t, new_raw);
                return fToRaw(t, combineF(k, cur, inc));
            };
            auto slot = _sspm->camUpdate(ks.i(l),
                                         fToRaw(t, incoming),
                                         combine);
            if (slot == IndexTable::NO_SLOT)
                via_fatal("SSPM index table overflow on ",
                          mnemonic(op), "; tile rows to ",
                          _sspm->config().camEntries(), " entries");
        }
        inst.sspmWrites = std::uint16_t(n);
    }
    issue(inst);
}

void
Machine::vidxAddC(VReg data, VReg keys, ViaOut out, VReg dst, int vl_)
{
    vidxArithC(Op::VidxAddC, ArithKind::Add, data, keys, out, dst,
               vl_);
}

void
Machine::vidxSubC(VReg data, VReg keys, ViaOut out, VReg dst, int vl_)
{
    vidxArithC(Op::VidxSubC, ArithKind::Sub, data, keys, out, dst,
               vl_);
}

void
Machine::vidxMulC(VReg data, VReg keys, ViaOut out, VReg dst, int vl_)
{
    vidxArithC(Op::VidxMulC, ArithKind::Mul, data, keys, out, dst,
               vl_);
}

void
Machine::vidxBlkMulD(VReg data, VReg idx, std::uint32_t idx_offset,
                     std::int64_t offset, int vl_)
{
    ElemType t = valueType();
    std::uint32_t n = resolveVl(t, vl_);
    via_assert(idx_offset > 0 && idx_offset < 32,
               "bad in-block index split ", idx_offset);
    const VecValue d = _vrf[data.id];
    const VecValue ix = _vrf[idx.id];
    const std::int64_t col_mask = (std::int64_t(1) << idx_offset) - 1;

    for (std::uint32_t l = 0; l < n; ++l) {
        std::int64_t packed = ix.i(l);
        auto col = std::uint64_t(packed & col_mask);
        auto row = std::uint64_t(packed >> idx_offset);
        double x = rawToF(t, _sspm->readDirect(col));
        double acc = rawToF(t, _sspm->readDirect(row + offset));
        acc += x * d.fAs(t, l);
        _sspm->writeDirect(row + std::uint64_t(offset),
                           fToRaw(t, acc));
    }

    Inst inst = makeInst(Op::VidxBlkMulD, int(n), REG_NONE,
                         vid(data), vid(idx));
    inst.sspmReads = std::uint16_t(2 * n);
    inst.sspmWrites = std::uint16_t(n);
    issue(inst);
}

// ================= SSR ==========================================

SsrBackend &
Machine::ssr()
{
    if (_backend->kind() != BackendKind::Ssr)
        via_fatal("SSR emit on a backend=",
                  backendName(_backend->kind()), " machine");
    return static_cast<SsrBackend &>(*_backend);
}

void
Machine::ssrBindAffine(std::uint32_t s, Addr base, ElemType t)
{
    SsrBackend &b = ssr();
    SsrBackend::Stream &st = b.stream(s);
    st.kind = SsrBackend::Stream::Kind::Affine;
    st.base = base;
    st.dataType = t;
    st.cursor = 0;
    ++b.archStats().binds;
    issue(makeInst(Op::SsrCfg, 0, REG_NONE, REG_NONE));
}

void
Machine::ssrBindIndirect(std::uint32_t s, Addr idx_base,
                         ElemType idx_t, Addr data_base,
                         ElemType data_t)
{
    SsrBackend &b = ssr();
    SsrBackend::Stream &st = b.stream(s);
    st.kind = SsrBackend::Stream::Kind::Indirect;
    st.base = data_base;
    st.dataType = data_t;
    st.idxBase = idx_base;
    st.idxType = idx_t;
    st.cursor = 0;
    ++b.archStats().binds;
    issue(makeInst(Op::SsrCfg, 0, REG_NONE, REG_NONE));
}

void
Machine::ssrPopV(VReg dst, std::uint32_t s, int vl_, int advance)
{
    SsrBackend &b = ssr();
    SsrBackend::Stream &st = b.stream(s);
    via_assert(st.kind != SsrBackend::Stream::Kind::None,
               "ssr.popv from unbound stream ", s);
    ElemType t = st.dataType;
    std::uint32_t n = resolveVl(t, vl_);
    std::uint32_t eb = elemBytes(t);
    VecValue &d = _vrf[dst.id];

    Inst inst = makeInst(Op::SsrPopV, int(n), vid(dst), REG_NONE);
    if (st.kind == SsrBackend::Stream::Kind::Affine) {
        Addr a = st.base + Addr(st.cursor) * eb;
        for (std::uint32_t l = 0; l < n; ++l) {
            std::uint64_t raw = 0;
            _mem->read(a + Addr(l) * eb, &raw, eb);
            if (t == ElemType::I32)
                raw = std::uint64_t(std::int64_t(std::int32_t(raw)));
            d.raw[l] = raw;
        }
        inst.addAccess(a, n * eb, false);
    } else {
        // The streamer fetches the next n indices, then their data.
        std::uint32_t ib = elemBytes(st.idxType);
        Addr ia = st.idxBase + Addr(st.cursor) * ib;
        inst.addAccess(ia, n * ib, false);
        for (std::uint32_t l = 0; l < n; ++l) {
            std::uint64_t iraw = 0;
            _mem->read(ia + Addr(l) * ib, &iraw, ib);
            auto idx = std::int64_t(std::int32_t(iraw));
            Addr da = st.base + Addr(idx) * eb;
            std::uint64_t raw = 0;
            _mem->read(da, &raw, eb);
            if (t == ElemType::I32)
                raw = std::uint64_t(std::int64_t(std::int32_t(raw)));
            d.raw[l] = raw;
            inst.addAccess(da, eb, false);
        }
    }
    for (std::uint32_t l = n; l < MAX_LANES; ++l)
        d.raw[l] = 0;

    st.cursor += advance < 0 ? n : std::uint32_t(advance);
    ++b.archStats().pops;
    b.archStats().elements += n;
    issue(inst);
}

void
Machine::ssrPopS(SReg dst, std::uint32_t s)
{
    SsrBackend &b = ssr();
    SsrBackend::Stream &st = b.stream(s);
    via_assert(st.kind != SsrBackend::Stream::Kind::None,
               "ssr.pops from unbound stream ", s);
    ElemType t = st.dataType;
    std::uint32_t eb = elemBytes(t);

    Inst inst = makeInst(Op::SsrPopS, 0, sid(dst), REG_NONE);
    Addr da;
    if (st.kind == SsrBackend::Stream::Kind::Affine) {
        da = st.base + Addr(st.cursor) * eb;
    } else {
        std::uint32_t ib = elemBytes(st.idxType);
        Addr ia = st.idxBase + Addr(st.cursor) * ib;
        std::uint64_t iraw = 0;
        _mem->read(ia, &iraw, ib);
        da = st.base + Addr(std::int64_t(std::int32_t(iraw))) * eb;
        inst.addAccess(ia, ib, false);
    }
    std::uint64_t raw = 0;
    _mem->read(da, &raw, eb);
    inst.addAccess(da, eb, false);
    if (t == ElemType::F32 || t == ElemType::F64) {
        setSregF(dst, rawToF(t, raw));
    } else {
        if (eb == 4)
            raw = std::uint64_t(std::int64_t(std::int32_t(raw)));
        setSregI(dst, std::int64_t(raw));
    }

    st.cursor += 1;
    ++b.archStats().pops;
    ++b.archStats().elements;
    issue(inst);
}

void
Machine::ssrFma(VReg acc, std::uint32_t val_s, std::uint32_t idx_s,
                int vl_, int advance)
{
    SsrBackend &b = ssr();
    SsrBackend::Stream &vs = b.stream(val_s);
    SsrBackend::Stream &is = b.stream(idx_s);
    via_assert(vs.kind == SsrBackend::Stream::Kind::Affine,
               "ssr.fma value stream must be affine");
    via_assert(is.kind == SsrBackend::Stream::Kind::Indirect,
               "ssr.fma gather stream must be indirect");

    ElemType t = valueType();
    std::uint32_t n = resolveVl(t, vl_);
    std::uint32_t veb = elemBytes(vs.dataType);
    std::uint32_t deb = elemBytes(is.dataType);
    std::uint32_t ib = elemBytes(is.idxType);
    VecValue &a = _vrf[acc.id];

    // acc is both read and written: name it as a source so the
    // scheduler sees the accumulation chain.
    Inst inst = makeInst(Op::SsrFma, int(n), vid(acc), vid(acc));
    Addr va = vs.base + Addr(vs.cursor) * veb;
    inst.addAccess(va, n * veb, false);
    Addr ia = is.idxBase + Addr(is.cursor) * ib;
    inst.addAccess(ia, n * ib, false);

    for (std::uint32_t l = 0; l < n; ++l) {
        std::uint64_t vraw = 0;
        _mem->read(va + Addr(l) * veb, &vraw, veb);
        std::uint64_t iraw = 0;
        _mem->read(ia + Addr(l) * ib, &iraw, ib);
        Addr da = is.base +
                  Addr(std::int64_t(std::int32_t(iraw))) * deb;
        std::uint64_t graw = 0;
        _mem->read(da, &graw, deb);
        inst.addAccess(da, deb, false);

        double prod = rawToF(vs.dataType, vraw) *
                      rawToF(is.dataType, graw);
        a.setFAs(t, l, a.fAs(t, l) + prod);
    }

    std::uint32_t adv = advance < 0 ? n : std::uint32_t(advance);
    vs.cursor += adv;
    is.cursor += adv;
    ++b.archStats().pops;
    b.archStats().elements += 2 * std::uint64_t(n);
    issue(inst);
}

// ================= IndexMAC =====================================

IndexMacBackend &
Machine::imac()
{
    if (_backend->kind() != BackendKind::IndexMac)
        via_fatal("IndexMAC emit on a backend=",
                  backendName(_backend->kind()), " machine");
    return static_cast<IndexMacBackend &>(*_backend);
}

void
Machine::vimacF(VReg acc, Addr base, VReg idx, VReg val, int n_)
{
    IndexMacBackend &b = imac();
    ElemType t = valueType();
    std::uint32_t n = resolveVl(t, n_);
    std::uint32_t eb = elemBytes(t);
    const VecValue ix = _vrf[idx.id];
    const VecValue v = _vrf[val.id];
    VecValue &a = _vrf[acc.id];

    Inst inst = makeInst(Op::VImacF, int(n), vid(acc), vid(idx),
                         vid(val), vid(acc));
    for (std::uint32_t l = 0; l < n; ++l) {
        Addr da = base + Addr(ix.i(l)) * eb;
        std::uint64_t raw = 0;
        _mem->read(da, &raw, eb);
        a.setFAs(t, l,
                 a.fAs(t, l) + v.fAs(t, l) * rawToF(t, raw));
        // A lane whose line sits in the row buffer is served by the
        // MAC unit's buffered copy — no cache access.
        if (!b.touchLine(da))
            inst.addAccess(da, eb, false);
    }
    ++b.archStats().ops;
    issue(inst);
}

void
Machine::vimacStF(Addr base, VReg idx, VReg val, int n_)
{
    IndexMacBackend &b = imac();
    ElemType t = valueType();
    std::uint32_t n = resolveVl(t, n_);
    std::uint32_t eb = elemBytes(t);
    const VecValue ix = _vrf[idx.id];
    const VecValue v = _vrf[val.id];

    Inst inst = makeInst(Op::VImacStF, int(n), REG_NONE, vid(idx),
                         vid(val));
    // Lanes accumulate in order inside the MAC unit, so duplicate
    // indices combine correctly without software conflict handling.
    for (std::uint32_t l = 0; l < n; ++l) {
        Addr da = base + Addr(ix.i(l)) * eb;
        std::uint64_t raw = 0;
        _mem->read(da, &raw, eb);
        std::uint64_t res =
            fToRaw(t, rawToF(t, raw) + v.fAs(t, l));
        _mem->write(da, &res, eb);
        if (!b.touchLine(da))
            inst.addAccess(da, eb, true);
    }
    ++b.archStats().ops;
    issue(inst);
}

} // namespace via
