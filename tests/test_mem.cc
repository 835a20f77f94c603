/**
 * @file
 * Memory subsystem tests: backing store, cache tag behaviour, DRAM
 * pipe, and the assembled hierarchy; and the mapped uploads of the
 * sparse formats (read-only view pages, copied on first write).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "cpu/multi_machine.hh"
#include "kernels/parallel.hh"
#include "kernels/ranges.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/mem_system.hh"
#include "simcore/rng.hh"
#include "simcore/serialize.hh"
#include "sparse/generators.hh"

namespace via
{
namespace
{

/** The bytes of @p arrays, concatenated: a deep snapshot. */
template <typename... V>
std::string
bytesOf(const V &...arrays)
{
    std::string out;
    (out.append(reinterpret_cast<const char *>(arrays.data()),
                arrays.size() * sizeof(typename V::value_type)),
     ...);
    return out;
}

// ---------------- BackingStore ---------------------------------

TEST(BackingStore, ReadsOfUntouchedMemoryAreZero)
{
    BackingStore mem;
    EXPECT_EQ(mem.load<std::uint64_t>(0x1234), 0u);
}

TEST(BackingStore, RoundTripsScalars)
{
    BackingStore mem;
    mem.store<double>(0x100, 3.25);
    EXPECT_DOUBLE_EQ(mem.load<double>(0x100), 3.25);
    mem.store<std::int32_t>(0x200, -7);
    EXPECT_EQ(mem.load<std::int32_t>(0x200), -7);
}

TEST(BackingStore, CrossPageAccessesWork)
{
    BackingStore mem;
    Addr edge = BackingStore::pageBytes - 4;
    mem.store<std::uint64_t>(edge, 0x1122334455667788ull);
    EXPECT_EQ(mem.load<std::uint64_t>(edge), 0x1122334455667788ull);
}

TEST(BackingStore, AllocatorAlignsAndSeparates)
{
    BackingStore mem;
    Addr a = mem.alloc(10, 64);
    Addr b = mem.alloc(10, 64);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
}

TEST(BackingStore, ArrayRoundTrip)
{
    BackingStore mem;
    std::vector<float> v{1.5f, -2.5f, 3.5f};
    Addr base = mem.allocArray(v);
    auto back = mem.readArray<float>(base, 3);
    EXPECT_EQ(back, v);
}

TEST(BackingStoreDeathTest, BadAlignmentPanics)
{
    BackingStore mem;
    EXPECT_DEATH(mem.alloc(8, 3), "power of two");
}

/** @p bytes of distinct floats, held the way a format holds them. */
std::shared_ptr<const std::vector<float>>
sharedFloats(std::uint64_t bytes = 4 * BackingStore::pageBytes + 400)
{
    std::vector<float> v(bytes / 4);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = float(i) * 0.5f;
    return std::make_shared<const std::vector<float>>(std::move(v));
}

TEST(BackingStore, MapArrayPlacesAndReadsLikeAllocArray)
{
    auto host = sharedFloats();
    BackingStore copied, mapped;
    std::vector<std::uint8_t> head{1, 2, 3};
    EXPECT_EQ(copied.allocArray(head), mapped.allocArray(head));
    const Addr base = copied.allocArray(*host);
    EXPECT_EQ(mapped.mapArray(host, *host), base);
    EXPECT_EQ(copied.allocArray(head), mapped.allocArray(head));

    // The head page and the tail page hold a neighbour's bytes too
    // and are copied; the three pages between them are views.
    EXPECT_EQ(mapped.pagesTouched(), copied.pagesTouched());
    EXPECT_EQ(mapped.pagesTouched(), 5u);
    EXPECT_EQ(mapped.pagesShared(), 3u);
    EXPECT_EQ(copied.pagesShared(), 0u);
    EXPECT_EQ(mapped.readArray<float>(base, host->size()), *host);
    EXPECT_EQ(mapped.allocated(), copied.allocated());
}

TEST(BackingStore, StoresIntoAViewCopyItAndLeaveTheHostArray)
{
    auto host = sharedFloats();
    const std::string before = bytesOf(*host);
    BackingStore mem;
    const Addr base = mem.mapArray(host, *host);
    const auto page = BackingStore::pageBytes;
    ASSERT_EQ(base % page, 0u); // the first page is a view
    ASSERT_EQ(mem.pagesShared(), 4u);

    // The read fast path caches the view; the store must copy it
    // and the next read must see the owned copy.
    const Addr at = base + 40;
    EXPECT_EQ(mem.load<float>(at), (*host)[10]);
    mem.store<float>(at, -1.0f);
    EXPECT_EQ(mem.load<float>(at), -1.0f);
    EXPECT_EQ(mem.load<float>(at + 4), (*host)[11]);
    EXPECT_EQ(mem.pagesShared(), 3u);

    // A store straddling two views copies both.
    const Addr edge = base + 2 * page - 4;
    mem.store<std::uint64_t>(edge, 0x1122334455667788ull);
    EXPECT_EQ(mem.load<std::uint64_t>(edge), 0x1122334455667788ull);
    EXPECT_EQ(mem.pagesShared(), 1u);
    EXPECT_EQ(mem.load<float>(edge - 4), (*host)[2 * page / 4 - 2]);
    EXPECT_EQ(mem.load<float>(edge + 8), (*host)[2 * page / 4 + 1]);

    EXPECT_EQ(bytesOf(*host), before);
    EXPECT_EQ(mem.pagesTouched(), 5u);
}

TEST(BackingStore, MapArrayReplacesPagesAlreadyMaterialized)
{
    // Whole pages from a page-aligned base: nothing to copy, so the
    // mapping itself must drop the page it replaces from the caches.
    auto host = sharedFloats(4 * BackingStore::pageBytes);
    BackingStore mem;
    // A stray write above the brk materializes the page the array's
    // second page will occupy, and leaves it in both caches.
    const Addr second = 0x10000 + BackingStore::pageBytes;
    mem.store<float>(second, 7.0f);
    const Addr base = mem.mapArray(host, *host);
    ASSERT_EQ(base, 0x10000u);
    EXPECT_EQ(mem.pagesShared(), 4u);
    EXPECT_EQ(mem.load<float>(second), (*host)[second / 4 - base / 4]);
    mem.store<float>(second, 9.0f);
    EXPECT_EQ(mem.load<float>(second), 9.0f);
    EXPECT_EQ(host->at(BackingStore::pageBytes / 4), float(16384) * 0.5f);
}

/** A backing-store image: @p brk, then one zero page per number. */
std::vector<std::uint8_t>
storeImage(Addr brk, const std::vector<std::uint64_t> &pns)
{
    std::vector<std::uint8_t> out;
    Serializer ser(out);
    ser.tag("BSTR");
    ser.put(BackingStore::pageBytes);
    ser.put(brk);
    ser.put(std::uint64_t(pns.size()));
    const std::vector<std::uint8_t> zeros(BackingStore::pageBytes, 0);
    for (std::uint64_t pn : pns) {
        ser.put(pn);
        ser.putBytes(zeros.data(), zeros.size());
    }
    return out;
}

/** Load @p image into @p mem. */
void
loadImage(BackingStore &mem, const std::vector<std::uint8_t> &image)
{
    Deserializer des(image);
    mem.loadState(des);
}

constexpr std::uint64_t kTopPage = ~std::uint64_t(0) /
                                   BackingStore::pageBytes;

TEST(BackingStore, LoadAcceptsIncreasingPagesUpToTheTopPage)
{
    BackingStore mem;
    loadImage(mem, storeImage(0x20000, {1, 3, kTopPage}));
    EXPECT_EQ(mem.pagesTouched(), 3u);
    EXPECT_EQ(mem.allocated(), 0x10000u);
    EXPECT_EQ(mem.load<std::uint8_t>(~Addr(0)), 0u);
}

TEST(BackingStore, LoadRejectsADuplicatePage)
{
    BackingStore mem;
    mem.store<int>(0x10000, 5);
    EXPECT_THROW(loadImage(mem, storeImage(0x20000, {2, 2})),
                 SerializeError);
    // A rejected image leaves the store as it was.
    EXPECT_EQ(mem.load<int>(0x10000), 5);
    EXPECT_EQ(mem.pagesTouched(), 1u);
}

TEST(BackingStore, LoadRejectsPagesOutOfOrder)
{
    BackingStore mem;
    EXPECT_THROW(loadImage(mem, storeImage(0x20000, {3, 2})),
                 SerializeError);
}

TEST(BackingStore, LoadRejectsAPageBeyond64BitAddresses)
{
    BackingStore mem;
    EXPECT_THROW(loadImage(mem, storeImage(0x20000, {kTopPage + 1})),
                 SerializeError);
}

TEST(BackingStore, LoadRejectsABrkBelowTheAllocatorBase)
{
    // The allocator hands out its first address at 0x10000.
    BackingStore mem;
    EXPECT_THROW(loadImage(mem, storeImage(0x10000 - 64, {})),
                 SerializeError);
    EXPECT_EQ(mem.allocated(), 0u);
    loadImage(mem, storeImage(0x10000, {}));
    EXPECT_EQ(mem.allocated(), 0u);
}

// ---------------- Cache -----------------------------------------

CacheParams
smallCache()
{
    CacheParams p;
    p.sizeBytes = 1024; // 16 lines
    p.assoc = 2;
    p.lineBytes = 64;
    p.hitLatency = 2;
    p.mshrs = 4;
    return p;
}

TEST(Cache, MissThenHit)
{
    Cache c(smallCache());
    auto r1 = c.access(0x0, false);
    EXPECT_FALSE(r1.hit);
    auto r2 = c.access(0x0, false);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(c.stats().readMisses, 1u);
    EXPECT_EQ(c.stats().reads, 2u);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(smallCache()); // 8 sets x 2 ways
    // Three lines in the same set (stride = sets * lineBytes).
    Addr stride = 8 * 64;
    c.access(0 * stride, false);
    c.access(1 * stride, false);
    c.access(0 * stride, false); // refresh line 0
    c.access(2 * stride, false); // evicts line 1 (LRU)
    EXPECT_TRUE(c.contains(0 * stride));
    EXPECT_FALSE(c.contains(1 * stride));
    EXPECT_TRUE(c.contains(2 * stride));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(smallCache());
    Addr stride = 8 * 64;
    c.access(0, true); // dirty
    c.access(stride, false);
    auto r = c.access(2 * stride, false); // evicts the dirty line
    EXPECT_TRUE(r.victimDirty);
    EXPECT_EQ(r.victimLine, 0u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, MshrTracksInflightLines)
{
    Cache c(smallCache());
    c.mshrReserve(0x40, 100);
    Tick complete = 0;
    EXPECT_TRUE(c.mshrLookup(0x40, 50, complete));
    EXPECT_EQ(complete, 100u);
    // After the fill time the entry is stale.
    EXPECT_FALSE(c.mshrLookup(0x40, 150, complete));
}

TEST(Cache, MshrFreeAtReflectsOccupancy)
{
    Cache c(smallCache()); // 4 MSHRs
    EXPECT_EQ(c.mshrFreeAt(), 0u);
    for (int i = 0; i < 4; ++i)
        c.mshrReserve(Addr(i) * 64, 200);
    EXPECT_EQ(c.mshrFreeAt(), 200u);
}

TEST(CacheDeathTest, GeometryMustDivide)
{
    CacheParams p = smallCache();
    p.lineBytes = 48; // not a power of two
    EXPECT_DEATH(Cache c(p), "power of two");
}

// ---------------- Dram ------------------------------------------

TEST(Dram, IdleLatency)
{
    DramParams p;
    p.latency = 100;
    p.bytesPerCycle = 64.0;
    Dram d(p);
    EXPECT_EQ(d.serve(64, 10, false), 10u + 100u + 1u);
}

TEST(Dram, BandwidthSerializesBursts)
{
    DramParams p;
    p.latency = 0;
    p.bytesPerCycle = 6.4;
    Dram d(p);
    Tick t0 = d.serve(64, 0, false); // 10 cycles
    Tick t1 = d.serve(64, 0, false);
    EXPECT_EQ(t0, 10u);
    EXPECT_EQ(t1, 20u);
    EXPECT_EQ(d.stats().busyCycles, 20u);
    EXPECT_GT(d.stats().queueCycles, 0u);
}

TEST(Dram, ReadWriteTrafficAccounted)
{
    Dram d(DramParams{});
    d.serve(64, 0, false);
    d.serve(128, 0, true);
    EXPECT_EQ(d.stats().bytesRead, 64u);
    EXPECT_EQ(d.stats().bytesWritten, 128u);
    EXPECT_EQ(d.stats().requests, 2u);
}

// ---------------- MemSystem --------------------------------------

TEST(MemSystem, L1HitIsFast)
{
    MemSystem ms(MemSystemParams::defaults());
    ms.access(0x1000, 4, false, 0); // cold miss
    auto r = ms.access(0x1000, 4, false, 500);
    EXPECT_EQ(r.levelServed, 0);
    EXPECT_EQ(r.complete, 500u + 4u);
}

TEST(MemSystem, ColdMissGoesToDram)
{
    MemSystem ms(MemSystemParams::defaults());
    auto r = ms.access(0x1000, 4, false, 0);
    EXPECT_EQ(r.levelServed, -1);
    EXPECT_GT(r.complete, 150u);
}

TEST(MemSystem, L2ServesAfterL1Eviction)
{
    MemSystemParams p = MemSystemParams::defaults();
    MemSystem ms(p);
    ms.access(0x0, 4, false, 0);
    // Push enough distinct lines through one L1 set to evict 0x0
    // but keep it in the (bigger) L2.
    Addr l1_sets = p.levels[0].sizeBytes / p.levels[0].lineBytes /
                   p.levels[0].assoc;
    Addr stride = l1_sets * 64;
    for (Addr i = 1; i <= 16; ++i)
        ms.access(i * stride, 4, false, 1000 * i);
    auto r = ms.access(0x0, 4, false, 1'000'000);
    EXPECT_EQ(r.levelServed, 1);
}

TEST(MemSystem, ConcurrentMissesToOneLineMerge)
{
    MemSystem ms(MemSystemParams::defaults());
    auto r1 = ms.access(0x2000, 4, false, 0);
    auto r2 = ms.access(0x2004, 4, false, 1);
    // Second access merges with the in-flight fill: no second DRAM
    // request, completion no later than the first fill.
    EXPECT_EQ(ms.dram().stats().requests, 1u);
    EXPECT_LE(r2.complete, r1.complete);
}

TEST(MemSystem, CrossLineAccessTouchesBothLines)
{
    MemSystem ms(MemSystemParams::defaults());
    ms.access(0x1000 - 2, 4, false, 0); // straddles 0xfc0/0x1000
    EXPECT_EQ(ms.dram().stats().requests, 2u);
}

TEST(MemSystem, StatsRegisterAndDump)
{
    MemSystem ms(MemSystemParams::defaults());
    StatSet stats;
    ms.registerStats(stats);
    ms.access(0x0, 4, false, 0);
    EXPECT_EQ(stats.get("mem.l1d.reads"), 1.0);
    EXPECT_EQ(stats.get("mem.l1d.read_misses"), 1.0);
    EXPECT_GT(stats.get("mem.dram.bytes_read"), 0.0);
}

TEST(MemSystemDeathTest, ZeroByteAccessPanics)
{
    MemSystem ms(MemSystemParams::defaults());
    EXPECT_DEATH(ms.access(0, 0, false, 0), "zero-byte");
}

// Regression: a miss that merges with an in-flight fill used to be
// counted as a hit (the primary miss pre-installs the tag), silently
// inflating the hit rate. Merges now land in their own counter and
// every access is classified exactly once.
TEST(MemSystem, MshrMergeCountedAsMergeNotHit)
{
    MemSystem ms(MemSystemParams::defaults());
    StatSet stats;
    ms.registerStats(stats);
    ms.access(0x2000, 4, false, 0); // primary miss
    ms.access(0x2004, 4, false, 1); // merges with the fill

    const CacheStats &cs = ms.level(0).stats();
    EXPECT_EQ(cs.reads, 2u);
    EXPECT_EQ(cs.hits, 0u);
    EXPECT_EQ(cs.readMisses, 1u);
    EXPECT_EQ(cs.mshrMerges, 1u);
    EXPECT_EQ(cs.accesses(), cs.hits + cs.misses() + cs.mshrMerges);
    EXPECT_EQ(stats.get("mem.l1d.mshr_merges"), 1.0);
    EXPECT_EQ(stats.get("mem.l1d.hits"), 0.0);
    // Both the primary and the secondary miss count against the
    // miss rate.
    EXPECT_DOUBLE_EQ(stats.get("mem.l1d.miss_rate"), 1.0);
}

// Regression: a prefetch's dirty victim used to be written back at
// demand time, occupying the DRAM pipe before the prefetched line
// that evicts it had even arrived. The writeback is now charged
// after the prefetch fill.
TEST(MemSystem, PrefetchVictimWritebackChargedAfterFill)
{
    MemSystemParams p;
    CacheParams l1;
    l1.name = "l1d";
    l1.sizeBytes = 128; // 2 sets x 1 way
    l1.assoc = 1;
    l1.lineBytes = 64;
    l1.hitLatency = 1;
    l1.mshrs = 4;
    p.levels = {l1};
    p.dram.latency = 100;
    p.dram.bytesPerCycle = 64.0;
    p.prefetch.degree = 1;
    MemSystem ms(p);
    TraceManager trace(256);
    ms.setTrace(&trace);

    // Dirty 0x40 (set 1); its miss prefetches 0x80 into set 0.
    ms.access(0x40, 4, true, 0);
    // Miss on 0x180 (set 0) prefetches 0x1c0 (set 1), evicting the
    // dirty 0x40 — the only write burst in the run.
    ms.access(0x180, 4, false, 1000);

    const TraceEvent *write_burst = nullptr;
    for (const TraceEvent &ev : trace.events()) {
        if (ev.kind == TraceEventKind::DramBurst && ev.a1 == 1) {
            EXPECT_EQ(write_burst, nullptr);
            write_burst = &ev;
        }
    }
    ASSERT_NE(write_burst, nullptr);
    EXPECT_EQ(ms.level(0).stats().writebacks, 1u);
    // The victim cannot leave before the prefetched line arrives:
    // its burst starts no earlier than the fill (issue + DRAM
    // latency), not right after the demand burst.
    EXPECT_GE(write_burst->start, Tick(1000 + p.dram.latency));
}

// ---------------- Mapped uploads --------------------------------

TEST(MappedUploads, MachineReadsItsImageAfterTheCsrIsGone)
{
    Machine m(MachineParams{});
    Rng rng(5);
    kernels::CsrImage img;
    std::vector<Index> row_ptr, col_idx;
    std::vector<Value> values;
    {
        Csr a = genUniform(512, 512, 0.25, rng);
        img = kernels::uploadCsr(m, a);
        ASSERT_GT(m.mem().pagesShared(), 0u);
        row_ptr = a.rowPtr();
        col_idx = a.colIdx();
        values = a.values();
    }
    // The views hold the arrays: the image is intact (and ASan sees
    // no use after free).
    EXPECT_EQ(m.mem().readArray<Index>(img.rowPtr, row_ptr.size()),
              row_ptr);
    EXPECT_EQ(m.mem().readArray<Index>(img.colIdx, col_idx.size()),
              col_idx);
    EXPECT_EQ(bytesOf(m.mem().readArray<Value>(img.values,
                                               values.size())),
              bytesOf(values));
}

constexpr BackendKind kKinds[] = {BackendKind::Base, BackendKind::Via,
                                  BackendKind::Ssr,
                                  BackendKind::IndexMac};

TEST(MappedUploads, KernelsLeaveTheirInputsBitIdentical)
{
    using kernels::Partition;
    // The first array of every upload starts a page and spans one
    // (16384 row pointers; about 32768 entries in two per row), so
    // each upload maps at least one page; short rows and a one-column
    // B keep the runs short.
    Rng rng(8);
    const Csr a = genUniform(16384, 32, 1.0 / 16, rng);
    const Csr b = genUniform(16384, 32, 1.0 / 16, rng);
    const Csc bc = Csc::fromCsr(genUniform(32, 1, 0.5, rng));
    const DenseVector x = randomVector(a.cols(), rng);
    std::vector<Index> keys(3000);
    for (Index &k : keys)
        k = Index(rng.below(100));
    DenseMatrix img(16, 16);
    for (Value &px : img.data())
        px = Value(rng.uniform());

    auto snapshot = [&] {
        return bytesOf(a.rowPtr(), a.colIdx(), a.values(), b.rowPtr(),
                       b.colIdx(), b.values(), bc.colPtr(),
                       bc.rowIdx(), bc.values(), x, keys, img.data());
    };
    const std::string before = snapshot();
    for (BackendKind kind : kKinds) {
        MachineParams params{};
        params.backend.kind = kind;
        const std::string name(backendName(kind));
        for (const std::string &fmt : kernels::spmvFormats()) {
            Machine m(params);
            kernels::SpmvStorage st = kernels::convertAndUpload(m, a, fmt);
            EXPECT_GT(m.mem().pagesShared(), 0u) << name << " " << fmt;
            auto formats = [&] {
                return st.spc5 ? bytesOf(st.spc5->values(),
                                         st.spc5->blockRow(),
                                         st.spc5->blockCol(),
                                         st.spc5->blockMask())
                       : st.sell ? bytesOf(st.sell->colIdx(),
                                           st.sell->values(),
                                           st.sell->chunkPtr(),
                                           st.sell->rowPerm())
                       : st.csb  ? bytesOf(st.csb->packedIdx(),
                                           st.csb->values(),
                                           st.csb->blockPtr())
                                 : std::string();
            };
            const std::string converted = formats();
            kernels::visitSpmv(kind, a, st,
                               [&](const auto &mat, const auto &im,
                                   const auto &body) {
                                   return kernels::spmvRun(m, body, mat,
                                                           im, x);
                               });
            EXPECT_EQ(formats(), converted) << name << " " << fmt;

            MultiMachine mm(params, 2);
            kernels::spmvParallel(mm, a, x, fmt, Partition::Static, true);
            EXPECT_GT(mm.mem().pagesShared(), 0u) << name << " " << fmt;
        }
        Machine m1(params), m2(params), m3(params), m4(params);
        kernels::spmaRun(m1, kind, a, b);
        kernels::spmmRun(m2, kind, a, bc);
        EXPECT_GT(m1.mem().pagesShared(), 0u) << name;
        EXPECT_GT(m2.mem().pagesShared(), 0u) << name;
        kernels::histRun(m3, kind, keys, 100);
        kernels::stencilRun(m4, kind, img);

        MultiMachine p1(params, 2), p2(params, 2), p3(params, 2),
            p4(params, 2);
        kernels::spmaParallel(p1, a, b, Partition::Static, true);
        kernels::spmmParallel(p2, a, bc, Partition::Static, true);
        kernels::histParallel(p3, keys, 100, Partition::Static, true);
        kernels::stencilParallel(p4, img, Partition::Static, true);
        EXPECT_EQ(snapshot(), before) << name;
    }
}

// The spmv_csb benchmark inputs (seed 1): the vector-CSR machine
// maps a 16384^2 CSR at 0.5% and the VIA machine its CSB at the
// machine's block side. Only the pages an array shares with a
// neighbour are copied.
TEST(MappedUploads, SpmvCsbBenchmarkPagesAreMapped)
{
    Rng rng(1);
    const Csr a = genUniform(16384, 16384, 0.005, rng);
    const DenseVector x = randomVector(a.cols(), rng);
    Machine base(MachineParams{}), viam(MachineParams{});
    ASSERT_EQ(kernels::viaCsbBeta(viam), 2048);
    const Csb csb = Csb::fromCsr(a, kernels::viaCsbBeta(viam));

    kernels::CsrImage bimg = kernels::uploadCsr(base, a);
    kernels::CsbImage vimg = kernels::uploadCsb(viam, csb);
    EXPECT_EQ(base.mem().pagesTouched(), 165u);
    EXPECT_EQ(base.mem().pagesShared(), 162u);
    EXPECT_EQ(viam.mem().pagesTouched(), 164u);
    EXPECT_EQ(viam.mem().pagesShared(), 162u);

    kernels::spmvVectorCsrAt(base, a, bimg, x);
    kernels::spmvViaCsbAt(viam, csb, vimg, x);
    EXPECT_EQ(base.mem().pagesTouched(), 167u);
    EXPECT_EQ(base.mem().pagesShared(), 162u);
    EXPECT_EQ(viam.mem().pagesTouched(), 166u);
    EXPECT_EQ(viam.mem().pagesShared(), 162u);
}

} // namespace
} // namespace via
