/**
 * @file
 * NIFDY protocol test harness: real NifdyNic (or LossyNifdyNic)
 * units on a small mesh, driven directly (no processors). An
 * auto-poller drains each node's arrivals FIFO once per cycle,
 * which triggers the ack-on-accept path; tests can switch polling
 * off per node to exercise backpressure.
 */

#ifndef NIFDY_TESTS_NICHARNESS_HH
#define NIFDY_TESTS_NICHARNESS_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "nic/nifdy.hh"
#include "nic/retransmit.hh"
#include "sim/audit.hh"
#include "sim/fault.hh"

namespace nifdy
{

class NifdyHarness
{
  public:
    /** Custom NIC builder (fault-injection mutants in test_audit). */
    using NicFactory = std::function<std::unique_ptr<NifdyNic>(
        NodeId, const Network::NodePorts &, const NicParams &,
        const NifdyConfig &, PacketPool &)>;

    explicit NifdyHarness(const NifdyConfig &cfg, int nodes = 4,
                          const std::string &topology = "mesh2d",
                          double dropProb = -1.0,
                          Cycle retxTimeout = 3000,
                          NicFactory factory = nullptr)
    {
        NetworkParams np;
        np.numNodes = nodes;
        pool.setProbes(&kernel.probes());
        net = makeNetwork(topology, np);
        net->addToKernel(kernel);
        const NetworkParams &p = net->params();
        for (NodeId n = 0; n < nodes; ++n) {
            NicParams nicp;
            nicp.flitBytes = p.flitBytes;
            nicp.vcsPerClass = p.vcsPerClass;
            nicp.ejectDepth = p.ejectDepth;
            nicp.arrivalFifo = 2;
            nicp.seed = 1;
            if (factory) {
                nics.push_back(factory(n, net->nodePorts(n), nicp,
                                       cfg, pool));
            } else if (dropProb >= 0) {
                LossyConfig lc;
                lc.dropProb = dropProb;
                lc.retxTimeout = retxTimeout;
                nics.push_back(std::make_unique<LossyNifdyNic>(
                    n, net->nodePorts(n), nicp, cfg, lc, pool));
            } else {
                nics.push_back(std::make_unique<NifdyNic>(
                    n, net->nodePorts(n), nicp, cfg, pool));
            }
            nics.back()->setKernel(&kernel);
            kernel.add(nics.back().get());
        }
        received.resize(nodes);
        pendingSends.resize(nodes);
        pollEnabled.assign(nodes, 1);
        poller.h = this;
        kernel.add(&poller);
        if (Audit::envEnabled())
            ensureAudit();
    }

    /** Lossy variant with the full LossyConfig (backoff tests). */
    NifdyHarness(const NifdyConfig &cfg, const LossyConfig &lc,
                 int nodes = 4, const std::string &topology = "mesh2d")
        : NifdyHarness(
              cfg, nodes, topology, -1.0, 3000,
              [lc](NodeId n, const Network::NodePorts &ports,
                   const NicParams &nicp, const NifdyConfig &c,
                   PacketPool &pl) -> std::unique_ptr<NifdyNic> {
                  return std::make_unique<LossyNifdyNic>(
                      n, ports, nicp, c, lc, pl);
              })
    {
    }

    ~NifdyHarness()
    {
        releaseReceived();
        kernel.probes().detachAll();
    }

    /** Attach an in-fabric fault injector (call before running). */
    FaultInjector &
    attachFaults(const FaultPlan &plan, std::uint64_t seed = 1)
    {
        faults = std::make_unique<FaultInjector>(plan, seed, pool);
        faults->setProbes(&kernel.probes());
        faults->attachNetwork(*net);
        if (audit)
            audit->setExpectFaults(true);
        return *faults;
    }

    /**
     * Attach the invariant-audit layer (idempotent). The mesh is
     * single-path and the NICs run NIFDY, so the in-order checker
     * is always installed.
     */
    Audit &
    ensureAudit()
    {
        if (audit)
            return *audit;
        audit = std::make_unique<Audit>();
        audit->installStandardCheckers(true);
        if (faults)
            audit->setExpectFaults(true);
        for (const auto &n : nics)
            audit->watchNic(n.get());
        for (int r = 0; r < net->numRouters(); ++r)
            audit->watchRouter(&net->router(r));
        for (int c = 0; c < net->numChannels(); ++c)
            audit->watchChannel(&net->channelAt(c));
        kernel.probes().attach(audit.get());
        return *audit;
    }

    NifdyNic &nic(NodeId n) { return *nics.at(n); }

    LossyNifdyNic &
    lossyNic(NodeId n)
    {
        return dynamic_cast<LossyNifdyNic &>(*nics.at(n));
    }

    /** Build a data packet (not yet handed to a NIC). */
    Packet *
    makeData(NodeId src, NodeId dst, int bytes = 32,
             NetClass cls = NetClass::request)
    {
        Packet *p = pool.alloc();
        p->src = src;
        p->dst = dst;
        p->netClass = cls;
        p->sizeBytes = bytes;
        p->payloadWords = bytes / bytesPerWord - 2;
        return p;
    }

    /**
     * Queue a fresh data packet for src's NIC; the harness feeds
     * the NIC pool as space frees up, like a blocked processor.
     */
    Packet *
    send(NodeId src, NodeId dst, int bytes = 32, bool bulkReq = false,
         bool exitBit = false)
    {
        Packet *p = makeData(src, dst, bytes);
        p->bulkRequest = bulkReq;
        p->bulkExit = exitBit;
        // Logical identity tag: under loss, a dropped original can
        // be recycled as a retransmission clone, so pointer
        // identity is meaningless; msgId survives cloning.
        p->msgId = nextTag++;
        pendingSends[src].push_back(p);
        return p;
    }

    void run(Cycle cycles) { kernel.run(cycles); }

    /** Run until every NIC reports idle (acks drained too). */
    bool
    runUntilIdle(Cycle maxCycles = 200000)
    {
        kernel.run(maxCycles, [this] { return allIdle(); });
        return allIdle();
    }

    bool
    allIdle() const
    {
        for (const auto &q : pendingSends)
            if (!q.empty())
                return false;
        for (const auto &nic : nics)
            if (!nic->idle())
                return false;
        return net->quiescent();
    }

    void
    releaseReceived()
    {
        for (auto &vec : received) {
            for (Packet *p : vec)
                pool.release(p);
            vec.clear();
        }
    }

    Kernel kernel;
    PacketPool pool;
    /** The dtor-time releaseReceived() is still audited (those
     * packets were delivered, so their release is legal). */
    std::unique_ptr<Audit> audit;
    std::unique_ptr<Network> net;
    /** After net: routers keep a raw pointer to the injector. */
    std::unique_ptr<FaultInjector> faults;
    std::vector<std::unique_ptr<NifdyNic>> nics;
    std::vector<std::vector<Packet *>> received;
    std::vector<std::deque<Packet *>> pendingSends;
    std::vector<char> pollEnabled;
    std::uint32_t nextTag = 1;

  private:
    struct Poller : Steppable
    {
        NifdyHarness *h = nullptr;
        void
        step(Cycle now) override
        {
            for (NodeId n = 0; n < static_cast<NodeId>(h->nics.size());
                 ++n) {
                auto &q = h->pendingSends[n];
                while (!q.empty() &&
                       h->nics[n]->canSend(*q.front())) {
                    h->nics[n]->send(q.front(), now);
                    q.pop_front();
                }
                if (!h->pollEnabled[n])
                    continue;
                if (Packet *p = h->nics[n]->pollReceive(now))
                    h->received[n].push_back(p);
            }
        }
    };
    Poller poller;
};

} // namespace nifdy

#endif // NIFDY_TESTS_NICHARNESS_HH
