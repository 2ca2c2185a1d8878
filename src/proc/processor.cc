#include "proc/processor.hh"

#include "proc/workload.hh"
#include "sim/log.hh"

namespace nifdy
{

Processor::Processor(NodeId id, Nic &nic, const ProcParams &params)
    : id_(id), nic_(nic), params_(params)
{
}

void
Processor::setOffline(bool offline, Cycle now)
{
    offline_ = offline;
    if (offline) {
        busyUntil_ = now; // whatever it was computing dies with it
        if (kernel_)
            kernel_->busyHorizonDropped();
    }
    wakeNow();
}

NIFDY_HOT void
Processor::step(Cycle now)
{
    // A busy cycle needs no step: the kernel's busy horizon counts it
    // as activity (compute()), and the processor sleeps through it.
    if (!offline_ && !busy(now) && workload_)
        workload_->tick(now);
    sleepUntil(nextWork(now));
}

void
Processor::compute(Cycle cycles, Cycle now)
{
    if (cycles == 0)
        return;
    // Additive: charging twice in one tick stacks the costs.
    busyUntil_ = std::max(busyUntil_, now) + cycles;
    cyclesBusy_ += cycles;
    if (kernel_) {
        kernel_->noteActivity();
        kernel_->noteBusyUntil(busyUntil_);
    }
}

bool
Processor::sendPacket(Packet *pkt, Cycle now)
{
    panic_if(pkt == nullptr, "sendPacket(nullptr)");
    if (!nic_.canSend(*pkt))
        return false;
    nic_.send(pkt, now);
    compute(params_.tSend, now);
    ++sends_;
    return true;
}

Packet *
Processor::poll(Cycle now)
{
    Packet *pkt = nic_.pollReceive(now);
    if (pkt) {
        compute(params_.tReceive, now);
        ++receives_;
    } else {
        compute(params_.tPoll, now);
        ++emptyPolls_;
    }
    return pkt;
}

} // namespace nifdy
