/**
 * @file
 * Simulated-time observers: the machine's event queue advances with
 * the commit front, so scheduled callbacks see consistent state.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "cpu/machine.hh"
#include "kernels/spmv.hh"
#include "simcore/rng.hh"
#include "sparse/generators.hh"

namespace via
{
namespace
{

TEST(EventsIntegration, CallbackFiresAtScheduledTick)
{
    Machine m{MachineParams{}};
    struct Probe
    {
        Machine *m;
        Tick fired_at = 0;
        void tick() { fired_at = m->events().curTick(); }
    };
    Probe probe{&m};
    m.events().schedule<&Probe::tick>(50, &probe);
    // A dependent ALU chain advances time past tick 50.
    m.simm(SReg{0}, 0);
    for (int i = 0; i < 100; ++i)
        m.salu(SReg{0}, i, SReg{0});
    EXPECT_EQ(probe.fired_at, 50u);
}

TEST(EventsIntegration, PeriodicSamplerSeesMonotoneProgress)
{
    Machine m{MachineParams{}};
    struct Sampler
    {
        Machine *m;
        std::vector<std::uint64_t> inst_samples;
        void
        tick()
        {
            inst_samples.push_back(m->core().stats().insts);
            m->events().scheduleIn<&Sampler::tick>(200, this);
        }
    };
    Sampler sampler{&m, {}};
    m.events().scheduleIn<&Sampler::tick>(200, &sampler);

    Rng rng(1);
    Csr a = genUniform(128, 128, 0.05, rng);
    DenseVector x = randomVector(a.cols(), rng);
    kernels::spmvVectorCsr(m, a, x);

    const auto &inst_samples = sampler.inst_samples;
    ASSERT_GE(inst_samples.size(), 3u);
    for (std::size_t i = 1; i < inst_samples.size(); ++i)
        EXPECT_GE(inst_samples[i], inst_samples[i - 1]);
    EXPECT_LE(inst_samples.back(), m.core().stats().insts);
}

TEST(EventsIntegration, QueueTimeNeverPassesCommitFront)
{
    Machine m{MachineParams{}};
    m.simm(SReg{0}, 1);
    EXPECT_LE(m.events().curTick(), m.cycles());
}

} // namespace
} // namespace via
