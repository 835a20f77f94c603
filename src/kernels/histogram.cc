#include "kernels/histogram.hh"

#include <algorithm>

#include "kernels/backend_kernels.hh"
#include "kernels/kernel_utils.hh"
#include "simcore/log.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;
constexpr ElemType IT = ElemType::I32;

/** Load the ones vector the vector bodies add: once per core. */
void
loadOnes(Machine &m, HistOp &, CoreState &, Index)
{
    VReg v_ones{2};
    m.vbroadcastF(v_ones, 1.0);
}

/** One pass over every bucket (all but VIA). */
std::vector<HistPass>
onePass(const Machine &, Index buckets)
{
    return {{0, buckets, false}};
}

/** SSR: bind the key stream at key @p lo unless it stands there. */
void
bindKeys(Machine &m, const HistOp &op, CoreState &core, Index lo)
{
    if (rebind(core, lo))
        m.ssrBindAffine(0, op.keys + 4 * Addr(lo), IT);
}

/** SSR: the key array is a pure sequential read, so one affine
 *  stream replaces every key load; it is bound first. */
void
ssrSetup(Machine &m, HistOp &op, CoreState &core, Index lo)
{
    bindKeys(m, op, core, lo);
    loadOnes(m, op, core, lo);
}

/**
 * Vector (conflict-detect) keys [lo, hi). With Streamed (SSR) the
 * keys are popped from stream 0; the bucket read-modify-write stays
 * in the cache hierarchy either way.
 */
template <bool Streamed>
void
vectorKeys(Machine &m, HistOp &op, CoreState &core, const HistPass &,
           Index lo, Index hi)
{
    if (Streamed)
        bindKeys(m, op, core, lo);
    core.next = hi;
    const Addr hist = op.out[core.region];
    const int vl = int(m.vl());
    VReg v_keys{0}, v_cf{1}, v_ones{2}, v_cnt{3}, v_old{4};
    SReg s_i{3};

    for (Index i = lo; i < hi; i += vl) {
        int n = std::min<Index>(vl, hi - i);
        if (Streamed)
            m.ssrPopV(v_keys, 0, n);
        else
            m.vload(v_keys, op.keys + 4 * Addr(i), IT, n);
        // Detect and merge duplicate buckets within the vector.
        m.vconflict(v_cf, v_keys, n);
        m.vmergeIdx(v_cnt, v_ones, v_keys, n);
        // Read-modify-write the bucket array through the caches.
        m.vgather(v_old, hist, v_keys, VT, n);
        m.vaddF(v_old, v_old, v_cnt, n);
        m.vscatter(hist, v_keys, v_old, VT, n);
        m.salu(s_i, i + vl, s_i);
        m.sbranch(s_i);
    }
}

std::vector<HistPass>
viaPasses(const Machine &m, Index buckets)
{
    // Bucket ranges beyond the SSPM capacity run as multiple
    // passes over the key stream, one scratchpad-sized range each.
    auto capacity = Index(m.sspm().config().sramEntries());
    std::vector<HistPass> passes;
    for (Index lo = 0; lo < buckets; lo += capacity)
        passes.push_back({lo, std::min<Index>(lo + capacity, buckets),
                          buckets > capacity});
    return passes;
}

void
viaBegin(Machine &m, const HistPass &pass)
{
    VReg v_lo{6}, v_hi{7};
    m.vidxClear();
    if (pass.tiled) {
        m.vbroadcastI(v_lo, pass.lo);
        m.vbroadcastI(v_hi, pass.hi);
    }
}

void
viaKeys(Machine &m, HistOp &op, CoreState &, const HistPass &pass,
        Index lo, Index hi)
{
    const int vl = int(m.vl());
    VReg v_keys{0}, v_cf{1}, v_ones{2}, v_dummy{5}, v_lo{6}, v_hi{7},
        v_mask{8}, v_m2{9};
    SReg s_i{3};

    for (Index i = lo; i < hi; i += vl) {
        int n = std::min<Index>(vl, hi - i);
        m.vload(v_keys, op.keys + 4 * Addr(i), IT, n);
        if (pass.tiled) {
            // Keep only lanes inside the pass's bucket range: mask,
            // rebase and compress them to the front.
            m.vcmpLtI(v_mask, v_keys, v_hi, n); // key < hi
            m.vcmpLtI(v_m2, v_keys, v_lo, n);   // key < lo
            m.vsubI(v_mask, v_mask, v_m2, n);   // in-range
            int active = 0;
            for (int l = 0; l < n; ++l)
                active += m.vreg(v_mask).i(l) != 0;
            // Rebase to the pass-local range and compress.
            m.vsubI(v_keys, v_keys, v_lo, n);
            m.vcompress(v_keys, v_keys, v_mask, n);
            if (active == 0) {
                m.sbranch(s_i);
                continue;
            }
            m.vconflict(v_cf, v_keys, active);
            m.vidxAddD(v_ones, v_keys, ViaOut::Sspm, v_dummy, 0,
                       active);
        } else {
            // Algorithm 5 line 3: conflict mask (the lane-sequenced
            // SSPM update keeps duplicates exact; the instruction is
            // kept for fidelity).
            m.vconflict(v_cf, v_keys, n);
            // Line 5: accumulate in the scratchpad.
            m.vidxAddD(v_ones, v_keys, ViaOut::Sspm, v_dummy, 0, n);
        }
        m.salu(s_i, i + vl, s_i);
        m.sbranch(s_i);
    }
}

void
viaDrain(Machine &m, HistOp &op, CoreState &core, const HistPass &pass)
{
    const Addr hist = op.out[core.region];
    // Algorithm 5 line 7: drain this range of the histogram.
    const int vl = int(m.vl());
    VReg v_idx{3}, v_out{4};
    SReg s_i{3};
    for (Index i = pass.lo; i < pass.hi; i += vl) {
        int n = std::min<Index>(vl, pass.hi - i);
        m.viotaI(v_idx, i - pass.lo);
        m.vidxMov(v_out, v_idx, n);
        m.vstore(hist + 4 * Addr(i), v_out, VT, n, s_i);
        m.salu(s_i, i + vl, s_i);
        m.sbranch(s_i);
    }
}

} // namespace

const HistBody &
histBody(BackendKind kind)
{
    // Indexed by BackendKind: base, VIA, SSR, IndexMAC.
    static constexpr HistBody table[] = {
        {.setup = loadOnes, .passes = onePass, .keys = vectorKeys<false>},
        {.setup = loadOnes,
         .passes = viaPasses,
         .begin = viaBegin,
         .keys = viaKeys,
         .drain = viaDrain},
        {.setup = ssrSetup, .passes = onePass, .keys = vectorKeys<true>},
        {.setup = loadOnes, .passes = onePass, .keys = histImacKeys},
    };
    return table[std::size_t(kind)];
}

HistResult
histRun(Cores cores, BackendKind kind, const std::vector<Index> &keys,
        Index buckets, Partition part)
{
    histCheckKeys(keys, buckets);
    Machine &m0 = cores.core(0);
    const unsigned count = cores.count();
    const auto slots = std::size_t(buckets);
    HistOp op{upload(m0, keys), {}};
    // At cores>1 the reduction target comes first, then one partial
    // histogram per core; one core's histogram is the result.
    const Addr hist = count > 1 ? allocValues(m0, slots) : 0;
    for (unsigned c = 0; c < count; ++c)
        op.out.push_back(allocValues(m0, slots));
    const HistBody &body = histBody(kind);

    // The bucket-tiled VIA flow re-walks a core's whole key share
    // once per bucket range, so each core needs its full range list
    // up front (pre-assigned rather than dispatched per chunk).
    auto shares = assignRanges(cores, Index(keys.size()), part);
    std::vector<CoreState> state(count);
    for (unsigned c = 0; c < count; ++c)
        state[c].region = c;
    auto each_core = [&](auto &&fn) {
        for (unsigned c = 0; c < count; ++c)
            if (!shares[c].empty())
                fn(cores.core(c), state[c], shares[c].front().first);
    };
    each_core([&](Machine &m, CoreState &core, Index lo) {
        body.setup(m, op, core, lo);
    });
    for (const HistPass &pass : body.passes(m0, buckets)) {
        if (body.begin)
            each_core([&](Machine &m, CoreState &, Index) {
                body.begin(m, pass);
            });
        roundRobin(shares, [&](unsigned c, Index lo, Index hi) {
            body.keys(cores.core(c), op, state[c], pass, lo, hi);
        });
        if (body.drain)
            each_core([&](Machine &m, CoreState &core, Index) {
                body.drain(m, op, core, pass);
            });
    }
    if (count == 1)
        return HistResult{downloadValues(m0, op.out[0], slots),
                          cores.cycles()};

    // Core 0 reduces the partial histograms. The reduction runs on
    // core 0's own timeline after its share; the barrier itself is
    // not modeled beyond cycles() taking the slowest core.
    const int vl = int(m0.vl());
    VReg v_acc{0}, v_p{1};
    SReg s_i{3};
    for (Index i = 0; i < buckets; i += vl) {
        int n = std::min<Index>(vl, buckets - i);
        m0.vbroadcastF(v_acc, 0.0);
        for (unsigned c = 0; c < count; ++c) {
            m0.vload(v_p, op.out[c] + 4 * Addr(i), VT, n);
            m0.vaddF(v_acc, v_acc, v_p, n);
        }
        m0.vstore(hist + 4 * Addr(i), v_acc, VT, n, s_i);
        m0.salu(s_i, i + vl, s_i);
        m0.sbranch(s_i);
    }
    return HistResult{downloadValues(m0, hist, slots), cores.cycles()};
}

void
histCheckKeys(const std::vector<Index> &keys, Index buckets)
{
    for (Index k : keys)
        via_assert(k >= 0 && k < buckets, "key ", k,
                   " outside [0, ", buckets, ")");
}

HistResult
histScalar(Machine &m, const std::vector<Index> &keys, Index buckets)
{
    histCheckKeys(keys, buckets);
    Addr key_arr = upload(m, keys);
    Addr hist = allocValues(m, std::size_t(buckets));

    SReg s_key{0}, s_v{1}, s_one{2}, s_i{3};
    m.simm(s_one, 0);
    m.setSregF(s_one, 1.0);

    for (std::size_t i = 0; i < keys.size(); ++i) {
        m.sload(s_key, key_arr + 4 * Addr(i), 4);
        Addr slot = hist + 4 * Addr(keys[i]);
        m.sloadF(s_v, slot, VT, s_key);
        m.sfadd(s_v, s_v, s_one);
        m.sstoreF(slot, s_v, VT, s_key);
        m.salu(s_i, Index(i) + 1, s_i);
        m.sbranch(s_i);
    }
    return HistResult{downloadValues(m, hist, std::size_t(buckets)),
                      m.cycles()};
}

HistResult
histVector(Machine &m, const std::vector<Index> &keys, Index buckets)
{
    return histRun(m, BackendKind::Base, keys, buckets);
}

HistResult
histVia(Machine &m, const std::vector<Index> &keys, Index buckets)
{
    return histRun(m, BackendKind::Via, keys, buckets);
}

} // namespace via::kernels
