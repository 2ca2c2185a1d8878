/**
 * @file
 * The probe bus: how the simulation reaches its observers.
 *
 * Six observers check, explain and record a run: the invariant
 * audit, the packet-lifecycle tracer, the latency anatomy, the
 * congestion observatory, the metric snapshots and the host-cost
 * profiler. Each Experiment attaches the ones it enables to one
 * Probes object, owned by its Kernel, and hands components a pointer
 * to that bus at wiring time: Router and Nic through setKernel(),
 * PacketPool, FaultInjector and CollEngine through setProbes(). Two
 * experiments therefore never see each other's events, and can run
 * interleaved or on separate threads.
 *
 * Each semantic event has one inline hook, which fans out to the
 * attached sinks in a fixed order: audit, tracer, anatomy,
 * congestion. The anatomy and the congestion observatory render into
 * the tracer's buffer themselves, so that order keeps trace files
 * stable. Two more slots reach the observers that watch the cycle
 * loop rather than events: the Kernel calls endCycle() once per
 * cycle after every component has stepped, and the owner calls
 * finish() once when the run is over. The profiler takes no events;
 * the Kernel drives it.
 *
 * Off cost: a hook that feeds one sink tests that sink's pointer; a
 * hook that feeds several tests one "any sink attached" flag first.
 * Either way, a run with no observers pays one inlined test per
 * event. Components built without a kernel point at noProbes, the
 * immutable empty bus, so hooks never test the bus pointer itself.
 *
 * Teardown: the owner calls finish(), then detaches every observer
 * (detachAll) before freeing any of them, because components still
 * fire events (pool releases, NIC teardown) while they are
 * destroyed.
 */

#ifndef NIFDY_SIM_PROBES_HH
#define NIFDY_SIM_PROBES_HH

#include <cstdint>

#include "sim/anatomy.hh"
#include "sim/audit.hh"
#include "sim/congestion.hh"
#include "sim/metrics.hh"
#include "sim/profile.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace nifdy
{

struct Flit;
struct Packet;
class Channel;

class Probes
{
  public:
    //! @name Wiring (non-owning; detach before the sink dies)
    //! @{
    void attach(Audit *audit) { audit_ = audit; rescan(); }
    void attach(Tracer *tracer) { tracer_ = tracer; rescan(); }
    void attach(Anatomy *anatomy) { anatomy_ = anatomy; rescan(); }
    void attach(CongestionObserver *obs) { congestion_ = obs; rescan(); }
    void attach(Metrics *metrics) { metrics_ = metrics; }
    void attach(Profiler *profiler) { profiler_ = profiler; }
    void detachAll() { *this = Probes(); }

    Tracer *tracer() const { return tracer_; }
    Anatomy *anatomy() const { return anatomy_; }
    CongestionObserver *congestion() const { return congestion_; }
    Profiler *profiler() const { return profiler_; }

    /** An observer that works in endCycle() is attached. */
    bool watchesCycles() const { return congestion_ || audit_ || metrics_; }
    //! @}

    //! @name Cycle loop
    //! @{
    /**
     * Every component has stepped cycle @p now: the congestion
     * observatory tiles the cycle's final link state, the audit runs
     * its polled checks (the congestion-conservation checker reads
     * that tiling), and the metric snapshot clock ticks.
     */
    void endCycle(Cycle now) const
    {
        if (congestion_)
            congestion_->step(now);
        if (audit_)
            audit_->endCycle(now);
        if (metrics_)
            metrics_->endCycle(now);
    }

    /**
     * The run ended at @p now: close the anatomy and the congestion
     * episodes before the tracer, since both render into its buffer,
     * write the last metric row, then the trace file, whose host
     * time the profiler charges to its trace-emit phase.
     */
    void finish(Cycle now) const
    {
        if (anatomy_)
            anatomy_->finish(now);
        if (congestion_)
            congestion_->finish(now);
        if (metrics_)
            metrics_->finish(now);
        if (tracer_) {
            Profiler::ScopedPhase emit(profiler_, ProfPhase::traceEmit);
            tracer_->close();
        }
    }
    //! @}

    //! @name Packet pool
    //! @{
    void alloc(const Packet &pkt) const
    {
        if (audit_)
            audit_->alloc(pkt);
    }

    void release(const Packet &pkt) const
    {
        if (audit_)
            audit_->release(pkt);
    }
    //! @}

    //! @name NIC, send side
    //! @{
    /** The processor handed @p pkt to @p node's NIC. */
    void send(const Packet &pkt, NodeId node, Cycle now) const
    {
        if (!any_) [[likely]]
            return;
        if (audit_)
            audit_->send(pkt, node);
        if (tracer_)
            tracer_->packetEvent(ev::packetSend, pkt, now, node);
        if (anatomy_)
            anatomy_->onSend(pkt, now);
    }

    /** Per-cycle classification of a queued, not yet injected
     * packet. */
    void stall(const Packet &pkt, StallCause cause, Cycle now) const
    {
        if (anatomy_)
            anatomy_->onStall(pkt, cause, now);
    }

    /** The head flit of @p pkt entered the network at @p node. */
    void inject(const Packet &pkt, NodeId node, Cycle now) const
    {
        if (!any_) [[likely]]
            return;
        if (audit_)
            audit_->inject(pkt, node);
        if (tracer_)
            tracer_->packetEvent(ev::packetInject, pkt, now, node);
        if (anatomy_)
            anatomy_->onInject(pkt, now);
        if (congestion_)
            congestion_->onInject(pkt, now);
    }

    /** A NIC retransmitted: @p pkt is the clone. */
    void retransmit(const Packet &pkt, NodeId node, Cycle now) const
    {
        if (!any_) [[likely]]
            return;
        if (audit_)
            audit_->retransmit(pkt, node);
        if (tracer_)
            tracer_->packetEvent(ev::packetRetransmit, pkt, now, node);
    }

    /** Protocol milestone on @p pkt's lifecycle chain (ev::optAdmit,
     * ev::optDefer, ev::windowAdmit, ev::ackIssue). */
    void mark(const char *name, const Packet &pkt, NodeId node,
              Cycle now) const
    {
        if (tracer_)
            tracer_->packetEvent(name, pkt, now, node);
    }

    /** The same for a root id (a cumulative bulk ack). */
    void markId(const char *name, std::uint64_t rootId, NodeId node,
                Cycle now) const
    {
        if (tracer_)
            tracer_->idEvent(name, rootId, now, node);
    }
    //! @}

    //! @name Fabric
    //! @{
    /** A router allocated an output for @p pkt's head flit. */
    void hop(const Packet &pkt, int routerId, Cycle now) const
    {
        if (!any_) [[likely]]
            return;
        if (audit_)
            audit_->hop(pkt, routerId);
        if (tracer_)
            tracer_->packetEvent(ev::routerHop, pkt, now, routerId);
        if (anatomy_)
            anatomy_->onHop(pkt, now);
    }

    /** @p pkt's head lost switch allocation this cycle. */
    void arbLoss(const Packet &pkt, Cycle now) const
    {
        if (anatomy_)
            anatomy_->onArbLoss(pkt, now);
    }

    /** A sender wanted @p ch this cycle and was refused. */
    void linkStall(const Channel *ch, Cycle now) const
    {
        if (congestion_)
            congestion_->onLinkStall(ch, now);
    }

    /** @p flit started serializing on @p ch. */
    void linkFlit(const Channel *ch, const Flit &flit, Cycle now) const
    {
        if (congestion_)
            congestion_->onLinkFlit(ch, flit, now);
    }

    /** A fault injector swallowed @p pkt at @p routerId. */
    void fabricDrop(const Packet &pkt, int routerId, Cycle now,
                    const char *why) const
    {
        if (!any_) [[likely]]
            return;
        if (audit_)
            audit_->fabricDrop(pkt, routerId, why);
        if (tracer_)
            tracer_->packetEvent(ev::fabricDrop, pkt, now, routerId,
                                 why);
        if (anatomy_)
            anatomy_->onDrop(pkt, now);
    }

    /** A fault injector corrupted @p pkt at @p routerId. */
    void corrupt(const Packet &pkt, int routerId, Cycle now) const
    {
        if (!any_) [[likely]]
            return;
        if (audit_)
            audit_->corrupt(pkt, routerId);
        if (tracer_)
            tracer_->packetEvent(ev::fabricCorrupt, pkt, now, routerId);
    }
    //! @}

    //! @name NIC, receive side
    //! @{
    /** @p pkt reached @p node: the arrivals FIFO, or the collective
     * engine for a coll packet. */
    void deliver(const Packet &pkt, NodeId node, Cycle now) const
    {
        if (!any_) [[likely]]
            return;
        if (audit_)
            audit_->deliver(pkt, node);
        if (tracer_)
            tracer_->packetEvent(ev::packetDeliver, pkt, now, node);
        if (anatomy_)
            anatomy_->onDeliver(pkt, now);
        if (congestion_)
            congestion_->onDeliver(pkt, now);
    }

    /** @p pkt waits in a bulk reorder window. */
    void reorder(const Packet &pkt, Cycle now) const
    {
        if (anatomy_)
            anatomy_->onReorder(pkt, now);
    }

    /** The processor took @p pkt from the arrivals FIFO. */
    void accept(const Packet &pkt, Cycle now) const
    {
        if (anatomy_)
            anatomy_->onAccept(pkt, now);
    }

    /** @p pkt ended inside the NIC (an ack, merged or absorbed
     * control). */
    void consume(const Packet &pkt, NodeId node, const char *why) const
    {
        if (audit_)
            audit_->consume(pkt, node, why);
    }

    /** @p pkt was discarded at @p node for reason @p why. */
    void drop(const Packet &pkt, NodeId node, Cycle now,
              const char *why) const
    {
        if (!any_) [[likely]]
            return;
        if (audit_)
            audit_->drop(pkt, node, why);
        if (tracer_)
            tracer_->packetEvent(ev::packetDrop, pkt, now, node, why);
        if (anatomy_)
            anatomy_->onDrop(pkt, now);
    }

    /** @p pkt carries an incarnation epoch @p node does not honor;
     * it is dropped. */
    void epochReject(const Packet &pkt, NodeId node, Cycle now,
                     const char *why) const
    {
        if (!any_) [[likely]]
            return;
        if (audit_)
            audit_->drop(pkt, node, why);
        if (tracer_) {
            tracer_->packetEvent(ev::epochReject, pkt, now, node);
            tracer_->packetEvent(ev::packetDrop, pkt, now, node, why);
        }
        if (anatomy_)
            anatomy_->onEpochReject(pkt, now);
    }
    //! @}

    //! @name Endpoints
    //! @{
    void nodeCrash(NodeId node, Cycle now) const
    {
        if (!any_) [[likely]]
            return;
        if (audit_)
            audit_->nodeCrash(node, now);
        if (tracer_)
            tracer_->idEvent(ev::nodeCrash, nodeChainId(node), now, node);
    }

    void nodeRestart(NodeId node, std::uint32_t epoch, Cycle now) const
    {
        if (!any_) [[likely]]
            return;
        if (audit_)
            audit_->nodeRestart(node, epoch, now);
        if (tracer_)
            tracer_->idEvent(ev::nodeRestart, nodeChainId(node), now,
                             node);
    }

    /** Collective-engine event (any ev::coll* name) on @p node's
     * collective chain. */
    void coll(const char *name, NodeId node, Cycle now) const
    {
        if (tracer_)
            tracer_->idEvent(name, collChainId(node), now, node);
    }
    //! @}

  private:
    void rescan() { any_ = audit_ || tracer_ || anatomy_ || congestion_; }

    Audit *audit_ = nullptr;
    Tracer *tracer_ = nullptr;
    Anatomy *anatomy_ = nullptr;
    CongestionObserver *congestion_ = nullptr;
    Metrics *metrics_ = nullptr;
    Profiler *profiler_ = nullptr;
    /** Any event sink attached (metrics and the profiler take no
     * events). */
    bool any_ = false;
};

/** The empty bus unwired components point at; immutable, so nothing
 * can attach to it. */
inline constexpr Probes noProbes{};

} // namespace nifdy

#endif // NIFDY_SIM_PROBES_HH
