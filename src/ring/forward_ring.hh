/**
 * @file
 * The unidirectional ring that forwards register values between
 * adjacent processing units (paper Figure 1 and section 5.1).
 *
 * Each hop imposes one cycle of communication latency, and the ring
 * width matches the issue width of the units: at most `width`
 * messages may enter a unit's outbound link per cycle; excess
 * messages queue. A message delivered to a unit continues around the
 * ring while the delivery callback returns true; the multiscalar core
 * always does, so every value visits all other units (its ringPhase
 * explains why stopping early at a unit whose create mask holds the
 * register would starve consumers once the task window wraps). A
 * message that has visited all other units is dropped.
 */

#ifndef MSIM_RING_FORWARD_RING_HH
#define MSIM_RING_FORWARD_RING_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/fifo.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/exec.hh"
#include "trace/tracer.hh"

namespace msim {

/** A register value in flight on the ring. */
struct RingMessage
{
    RegIndex reg = kNoReg;
    isa::RegValue value;
    /** Task that produced the value. */
    TaskSeq producer = 0;
    /** Hops taken so far (dropped after numUnits - 1). */
    unsigned hops = 0;
};

/** The unidirectional register forwarding ring. */
class ForwardRing
{
  public:
    ForwardRing(StatGroup &stats, unsigned num_units, unsigned width,
                unsigned hop_latency = 1, Tracer *tracer = nullptr)
        : stats_{stats}, numUnits_(num_units), width_(width),
          hopLatency_(hop_latency), tracer_(tracer),
          outbound_(num_units), inFlight_(num_units)
    {
        fatalIf(num_units == 0 || num_units > 64,
                "ring needs 1 to 64 units");
        fatalIf(width == 0, "ring width must be positive");
        fatalIf(hop_latency == 0, "ring hop latency must be >= 1");
    }

    /** Queue a message on @p from_unit's outbound port. */
    void
    send(unsigned from_unit, const RingMessage &msg)
    {
        panicIf(from_unit >= numUnits_, "ring send from bad unit");
        ++stats_.sends;
        if (tracer_ && tracer_->wants(TraceCat::kRing)) {
            tracer_->instant(TraceCat::kRing, "forward", tracer_->now(),
                             kTidRing, "from", from_unit, "reg",
                             std::uint64_t(msg.reg));
        }
        if (numUnits_ == 1)
            return;  // no other unit to visit
        outbound_[from_unit].push_back(msg);
        busyPorts_ |= bit(from_unit);
    }

    /**
     * Advance the ring to cycle @p now: deliver the hops that arrive
     * now, then launch up to `width` messages per outbound port. Only
     * busy ports and links are visited, and an idle ring returns at
     * once.
     *
     * @param deliver Callback (unsigned unit, const RingMessage &)
     *        -> bool; invoked for each message arriving at a unit;
     *        return true to let the message continue to the next
     *        unit, false to consume it.
     */
    template <typename Fn>
    void
    tick(Cycle now, Fn &&deliver)
    {
        if ((busyPorts_ | busyLinks_) == 0)
            return;
        // A link's hops all take hopLatency_ cycles and leave in
        // order, so the ones arriving now are at its front.
        for (std::uint64_t m = busyLinks_; m != 0; m &= m - 1) {
            const unsigned u = unsigned(std::countr_zero(m));
            auto &flight = inFlight_[u];
            const unsigned dest = u + 1 == numUnits_ ? 0 : u + 1;
            while (!flight.empty() && flight.front().arriveAt <= now) {
                RingMessage msg = flight.front().msg;
                flight.pop_front();
                msg.hops += 1;
                ++stats_.deliveries;
                const bool forward_on = deliver(dest, msg);
                if (forward_on && msg.hops < numUnits_ - 1) {
                    outbound_[dest].push_back(msg);
                    busyPorts_ |= bit(dest);
                }
            }
            if (flight.empty())
                busyLinks_ &= ~bit(u);
        }
        for (std::uint64_t m = busyPorts_; m != 0; m &= m - 1) {
            const unsigned u = unsigned(std::countr_zero(m));
            auto &port = outbound_[u];
            for (unsigned k = 0; k < width_ && !port.empty(); ++k) {
                inFlight_[u].push_back({port.front(), now + hopLatency_});
                port.pop_front();
            }
            busyLinks_ |= bit(u);
            if (port.empty())
                busyPorts_ &= ~bit(u);
            else
                ++stats_.portStallCycles;
        }
    }

    /** @return true when no messages are queued or in flight. */
    bool idle() const { return (busyPorts_ | busyLinks_) == 0; }

    /** Drop all traffic (used on full-pipeline resets in tests). */
    void
    clear()
    {
        for (auto &q : outbound_)
            q.clear();
        for (auto &q : inFlight_)
            q.clear();
        busyPorts_ = busyLinks_ = 0;
    }

    unsigned numUnits() const { return numUnits_; }
    unsigned width() const { return width_; }

  private:
    struct Hop
    {
        RingMessage msg;
        Cycle arriveAt;
    };

    static std::uint64_t bit(unsigned u) { return std::uint64_t(1) << u; }

    /** Counters bound once in the ring's stat group. */
    struct Counters
    {
        StatGroup &group;
        std::uint64_t &sends = group.counter("sends");
        std::uint64_t &deliveries = group.counter("deliveries");
        std::uint64_t &portStallCycles = group.counter("portStallCycles");
    };

    Counters stats_;
    unsigned numUnits_;
    unsigned width_;
    unsigned hopLatency_;
    Tracer *tracer_ = nullptr;
    /** Messages waiting at each unit's outbound port. */
    std::vector<RingFifo<RingMessage>> outbound_;
    /** Messages traversing the link out of each unit. */
    std::vector<RingFifo<Hop>> inFlight_;
    /** Bit u: outbound_[u] (a port) or inFlight_[u] (a link) is busy. */
    std::uint64_t busyPorts_ = 0;
    std::uint64_t busyLinks_ = 0;
};

} // namespace msim

#endif // MSIM_RING_FORWARD_RING_HH
