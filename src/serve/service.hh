/**
 * @file
 * The service model: what a batch costs.
 *
 * The serving DES (serve/sim.hh) is a service-level simulation — it
 * never runs the cycle-level machine itself. It asks a
 * TableServiceModel what a batch of n same-class requests costs in
 * cycles and energy, and the model answers from a table the batch
 * executor measured with the cycle-level simulator up front
 * (serve/executor.hh).
 *
 * This is exact, not an approximation: kernel timing is
 * value-independent for a fixed matrix structure, so every batch of
 * n class-c requests costs the same as the measured one. Splitting
 * measurement from queueing also makes determinism trivial — the
 * table is bit-identical at any measurement thread count, and the
 * DES itself is single-threaded host code.
 */

#ifndef VIA_SERVE_SERVICE_HH
#define VIA_SERVE_SERVICE_HH

#include <cstdint>
#include <vector>

#include "simcore/types.hh"

namespace via::serve
{

/**
 * Batch costs for every (class, batch size) the DES can form: a
 * dense measured table, the batch executor's product.
 */
class TableServiceModel
{
  public:
    TableServiceModel(std::size_t classes, unsigned batch_max)
        : _batch_max(batch_max),
          _cost(classes * batch_max, 0),
          _energy(classes * batch_max, 0.0)
    {
    }

    void
    set(std::size_t cls, unsigned n, Tick cost, double energy_pj)
    {
        _cost.at(index(cls, n)) = cost;
        _energy.at(index(cls, n)) = energy_pj;
    }

    /** Largest batch the model can price. */
    unsigned batchMax() const { return _batch_max; }

    /** Service cycles for n same-class requests run as one batch. */
    Tick
    cost(std::size_t cls, unsigned n) const
    {
        return _cost.at(index(cls, n));
    }

    /** Dynamic + leakage energy of that batch, picojoules. */
    double
    energyPj(std::size_t cls, unsigned n) const
    {
        return _energy.at(index(cls, n));
    }

  private:
    std::size_t
    index(std::size_t cls, unsigned n) const
    {
        return cls * _batch_max + (n - 1);
    }

    unsigned _batch_max;
    std::vector<Tick> _cost;
    std::vector<double> _energy;
};

} // namespace via::serve

#endif // VIA_SERVE_SERVICE_HH
