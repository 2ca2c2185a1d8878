/**
 * @file
 * Processor model: charges the measured CM-5 software overheads for
 * sending, receiving, and polling (paper Table 2 / Section 2.4.3)
 * and drives a Workload whenever it is not busy. Message reception
 * is by polling only, as in the paper's simulator.
 */

#ifndef NIFDY_PROC_PROCESSOR_HH
#define NIFDY_PROC_PROCESSOR_HH

#include <algorithm>

#include "nic/nic.hh"
#include "sim/kernel.hh"

namespace nifdy
{

class Workload;

/** Software overhead constants, in cycles. */
struct ProcParams
{
    int tSend = 40;    //!< per-packet send overhead
    int tReceive = 60; //!< dispatch + handle + return
    int tPoll = 22;    //!< unsuccessful poll
};

class Processor : public Steppable
{
  public:
    Processor(NodeId id, Nic &nic, const ProcParams &params);

    /** Tick the workload when not busy, then sleep until the next
     * cycle, the end of the busy time, or (offline) a restart. */
    void step(Cycle now) override;

    const char *profileClass() const override { return "proc"; }

    /** The first cycle after @p now on which step() may act. */
    Cycle nextWork(Cycle now) const
    {
        return offline_ ? neverCycle : std::max(busyUntil_, now + 1);
    }

    /** Attach the workload driving this processor (non-owning). */
    void setWorkload(Workload *w) { workload_ = w; }

    /**
     * Take the processor offline (its node crashed) or bring it
     * back. Offline processors tick nothing and charge nothing; any
     * in-progress busy time is forfeit, and the kernel's busy
     * horizon drops with it.
     */
    void setOffline(bool offline, Cycle now);

    /** Is the processor offline (node down)? */
    bool offline() const { return offline_; }

    NodeId id() const { return id_; }
    Nic &nic() { return nic_; }
    const ProcParams &params() const { return params_; }
    void setKernel(Kernel *k) { kernel_ = k; }

    //! @name Actions available to the workload (one per tick)
    //! @{
    /** Spend @p cycles of computation. */
    void compute(Cycle cycles, Cycle now);

    /**
     * Try to hand @p pkt to the NIC, charging tSend on success.
     * On failure (NIC full) nothing is charged and the caller keeps
     * the packet.
     */
    bool sendPacket(Packet *pkt, Cycle now);

    /**
     * Poll the network: returns a packet (charging tReceive) or
     * nullptr (charging tPoll).
     */
    Packet *poll(Cycle now);

    /**
     * Free peek at the arrivals FIFO (a status-register read); use
     * poll() to actually take the packet and pay for it.
     */
    Packet *peek() { return nic_.peekReceive(); }
    //! @}

    bool busy(Cycle now) const { return now < busyUntil_; }
    Cycle busyUntil() const override { return busyUntil_; }

    //! @name Accounting
    //! @{
    std::uint64_t cyclesBusy() const { return cyclesBusy_; }
    std::uint64_t sends() const { return sends_; }
    std::uint64_t receives() const { return receives_; }
    std::uint64_t emptyPolls() const { return emptyPolls_; }
    //! @}

  private:
    NodeId id_;
    Nic &nic_;
    ProcParams params_;
    Workload *workload_ = nullptr;
    Kernel *kernel_ = nullptr;
    bool offline_ = false;
    Cycle busyUntil_ = 0;
    std::uint64_t cyclesBusy_ = 0;
    std::uint64_t sends_ = 0;
    std::uint64_t receives_ = 0;
    std::uint64_t emptyPolls_ = 0;
};

} // namespace nifdy

#endif // NIFDY_PROC_PROCESSOR_HH
