#include "kernels/histogram.hh"

#include <algorithm>

#include "kernels/kernel_utils.hh"
#include "kernels/ranges.hh"
#include "simcore/log.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;
constexpr ElemType IT = ElemType::I32;

} // namespace

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

void
histLoadOnes(Machine &m)
{
    VReg v_ones{2};
    m.vbroadcastF(v_ones, 1.0);
}

HistResult
histVector(Machine &m, const std::vector<Index> &keys, Index buckets)
{
    histCheckKeys(keys, buckets);
    Addr key_arr = upload(m, keys);
    Addr hist = allocValues(m, std::size_t(buckets));
    histLoadOnes(m);
    histVectorKeys(m, key_arr, hist, 0, Index(keys.size()));
    return HistResult{downloadValues(m, hist, std::size_t(buckets)),
                      m.cycles()};
}

void
histVectorKeys(Machine &m, Addr keys, Addr hist, Index lo, Index hi)
{
    const int vl = int(m.vl());
    VReg v_keys{0}, v_cf{1}, v_ones{2}, v_cnt{3}, v_old{4};
    SReg s_i{3};

    for (Index i = lo; i < hi; i += vl) {
        int n = std::min<Index>(vl, hi - i);
        m.vload(v_keys, keys + 4 * Addr(i), IT, n);
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

HistResult
histVia(Machine &m, const std::vector<Index> &keys, Index buckets)
{
    histCheckKeys(keys, buckets);
    Addr key_arr = upload(m, keys);
    Addr hist = allocValues(m, std::size_t(buckets));
    histLoadOnes(m);
    for (const HistPass &pass : histViaPasses(m, buckets)) {
        histViaBegin(m, pass);
        histViaKeys(m, key_arr, pass, 0, Index(keys.size()));
        histViaDrain(m, hist, pass);
    }
    return HistResult{downloadValues(m, hist, std::size_t(buckets)),
                      m.cycles()};
}

std::vector<HistPass>
histViaPasses(const Machine &m, Index buckets)
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
histViaBegin(Machine &m, const HistPass &pass)
{
    VReg v_lo{6}, v_hi{7};
    m.vidxClear();
    if (pass.tiled) {
        m.vbroadcastI(v_lo, pass.lo);
        m.vbroadcastI(v_hi, pass.hi);
    }
}

void
histViaKeys(Machine &m, Addr keys, const HistPass &pass, Index lo,
            Index hi)
{
    const int vl = int(m.vl());
    VReg v_keys{0}, v_cf{1}, v_ones{2}, v_dummy{5}, v_lo{6}, v_hi{7},
        v_mask{8}, v_m2{9};
    SReg s_i{3};

    for (Index i = lo; i < hi; i += vl) {
        int n = std::min<Index>(vl, hi - i);
        m.vload(v_keys, keys + 4 * Addr(i), IT, n);
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
histViaDrain(Machine &m, Addr hist, const HistPass &pass)
{
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

} // namespace via::kernels
