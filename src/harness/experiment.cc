#include "harness/experiment.hh"

#include <sstream>

#include "sim/audit.hh"
#include "sim/config.hh"
#include "sim/json.hh"
#include "sim/log.hh"
#include "sim/report.hh"

namespace nifdy
{

const char *
nicKindName(NicKind kind)
{
    switch (kind) {
      case NicKind::none:
        return "none";
      case NicKind::buffers:
        return "buffers";
      case NicKind::nifdy:
        return "nifdy";
      case NicKind::lossy:
        return "nifdy-lossy";
    }
    return "?";
}

bool
topologyInOrder(const std::string &topology)
{
    // Single path and a single VC per class: dimension-ordered
    // meshes and the dilation-1 butterfly. Tori interleave dateline
    // VCs, fat trees and the multibutterfly have path diversity.
    return topology == "mesh2d" || topology == "mesh3d" ||
           topology == "butterfly";
}

NifdyConfig
bestNifdyParams(const std::string &topology)
{
    NifdyConfig cfg;
    if (topology == "mesh2d-adaptive") {
        // Same character as the mesh; adaptivity adds path
        // diversity, which NIFDY's reordering makes usable.
        NifdyConfig c;
        c.opt = 4;
        c.pool = 4;
        c.dialogs = 1;
        c.window = 2;
        return c;
    }
    if (topology == "mesh2d" || topology == "torus2d") {
        // Low volume and low bisection: restrictive admission.
        cfg.opt = 4;
        cfg.pool = 4;
        cfg.dialogs = 1;
        cfg.window = 2;
    } else if (topology == "mesh3d") {
        cfg.opt = 4;
        cfg.pool = 8;
        cfg.dialogs = 1;
        cfg.window = 2;
    } else if (topology == "fattree") {
        cfg.opt = 8;
        cfg.pool = 8;
        cfg.dialogs = 1;
        cfg.window = 4;
    } else if (topology == "fattree-saf") {
        // Store-and-forward doubles the latency: larger window.
        cfg.opt = 8;
        cfg.pool = 8;
        cfg.dialogs = 1;
        cfg.window = 8;
    } else if (topology == "cm5") {
        // Twice the round trip of the full tree but much smaller
        // volume and bisection: smaller bulk windows win.
        cfg.opt = 4;
        cfg.pool = 8;
        cfg.dialogs = 1;
        cfg.window = 4;
    } else if (topology == "butterfly") {
        // Three hops, no alternative paths: no bulk dialogs at all.
        cfg.opt = 8;
        cfg.pool = 8;
        cfg.dialogs = 0;
        cfg.window = 0;
    } else if (topology == "multibutterfly") {
        cfg.opt = 8;
        cfg.pool = 8;
        cfg.dialogs = 1;
        cfg.window = 2;
    } else {
        fatal("no best parameters known for topology '%s'",
              topology.c_str());
    }
    return cfg;
}

Experiment::Experiment(const ExperimentConfig &cfg) : cfg_(cfg)
{
    nifdyCfg_ =
        cfg_.nifdyExplicit ? cfg_.nifdy : bestNifdyParams(cfg_.topology);

    NetworkParams np = cfg_.net;
    np.numNodes = cfg_.numNodes;
    np.seed = cfg_.seed;
    // Every component fires its observer events on kernel_.probes():
    // routers and NICs get the bus with setKernel(), the rest here.
    Probes &probes = kernel_.probes();
    pool_.setProbes(&probes);
    net_ = makeNetwork(cfg_.topology, np);
    net_->addToKernel(kernel_);
    kernel_.setWatchdogLimit(cfg_.watchdog);

    cfg_.fault.validate();
    if (cfg_.fault.active()) {
        // Down windows alone are survivable by any NIC where the
        // topology offers an alternative path; actually losing
        // packets needs the retransmitting NIC to recover them.
        fatal_if((cfg_.fault.dropProb > 0 ||
                  cfg_.fault.corruptProb > 0) &&
                     cfg_.nicKind != NicKind::lossy,
                 "fault.dropProb/fault.corruptProb require "
                 "nic=lossy: no other NIC recovers lost packets");
        injector_ = std::make_unique<FaultInjector>(cfg_.fault,
                                                    cfg_.seed, pool_);
        injector_->setProbes(&probes);
        injector_->attachNetwork(*net_);
    }

    cfg_.nodeFault.validate();
    crashedEver_.assign(cfg_.numNodes, false);
    if (cfg_.nodeFault.active()) {
        nodeDriver_ = std::make_unique<NodeFaultDriver>(
            cfg_.nodeFault, cfg_.numNodes, cfg_.seed,
            [this](NodeId n, bool restart, Cycle now) {
                onNodeFault(n, restart, now);
            });
        kernel_.add(nodeDriver_.get());
    }

    barrier_ = std::make_unique<Barrier>(cfg_.numNodes,
                                         cfg_.barrierLatency);

    cfg_.coll.validate();
    CollConfig collCfg = cfg_.coll;
    if (collCfg.seed == 0)
        collCfg.seed = cfg_.seed;

    inOrder_ = topologyInOrder(cfg_.topology) ||
               (nifdyKind() && cfg_.exploitInOrder);

    // The buffers-only control receives NIFDY's total buffer budget,
    // redistributed with at least half in the arrivals queue.
    int nifdyTotal = nifdyCfg_.pool + 2 +
                     nifdyCfg_.dialogs * nifdyCfg_.window;
    int bufFifo = std::max(2, nifdyTotal / 2);
    int bufOut = std::max(1, nifdyTotal - bufFifo);

    const NetworkParams &netp = net_->params();
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        NicParams nicp;
        nicp.flitBytes = netp.flitBytes;
        nicp.vcsPerClass = netp.vcsPerClass;
        nicp.ejectDepth = netp.ejectDepth;
        nicp.arrivalFifo = 2;
        nicp.seed = cfg_.seed;

        std::unique_ptr<Nic> nic;
        switch (cfg_.nicKind) {
          case NicKind::none:
            nic = std::make_unique<PlainNic>(n, net_->nodePorts(n),
                                             nicp, pool_);
            break;
          case NicKind::buffers:
            nicp.arrivalFifo = bufFifo;
            nic = std::make_unique<BufferedNic>(n, net_->nodePorts(n),
                                                nicp, pool_, bufOut);
            break;
          case NicKind::nifdy:
            nic = std::make_unique<NifdyNic>(n, net_->nodePorts(n),
                                             nicp, nifdyCfg_, pool_);
            break;
          case NicKind::lossy:
            nic = std::make_unique<LossyNifdyNic>(
                n, net_->nodePorts(n), nicp, nifdyCfg_, cfg_.lossy,
                pool_);
            break;
        }
        nic->setKernel(&kernel_);
        kernel_.add(nic.get());
        if (cfg_.coll.offload) {
            auto eng = std::make_unique<CollEngine>(
                n, cfg_.numNodes, collCfg, pool_);
            eng->setProbes(&probes);
            nic->setCollEngine(eng.get());
            barrier_->attachEngine(n, eng.get());
            collEngines_.push_back(std::move(eng));
        }
        if (nifdyKind()) {
            auto *nn = static_cast<NifdyNic *>(nic.get());
            // Live-peer survival under endpoint faults: tolerate
            // cold receivers (dialog rejects instead of protocol
            // panics) and reclaim state aimed at silent peers.
            nn->setExpectPeerFailures(cfg_.nodeFault.active() ||
                                      cfg_.nodeReclaim > 0);
            nn->setReclaimTimeout(cfg_.nodeReclaim);
            nifdyNics_.push_back(nn);
        }
        if (cfg_.nicKind == NicKind::lossy)
            lossyNics_.push_back(
                static_cast<LossyNifdyNic *>(nic.get()));
        nics_.push_back(std::move(nic));

        auto proc = std::make_unique<Processor>(n, *nics_.back(),
                                                cfg_.proc);
        proc->setKernel(&kernel_);
        kernel_.add(proc.get());
        procs_.push_back(std::move(proc));

        MessageParams mp = cfg_.msg;
        mp.inOrder = inOrder_;
        if (!nifdyKind())
            mp.bulkThreshold = 0; // nobody to grant a dialog
        msgs_.push_back(std::make_unique<MessageLayer>(*procs_.back(),
                                                       pool_, mp));
    }
    workloads_.resize(cfg_.numNodes);

    if (cfg_.audit || Audit::envEnabled()) {
        audit_ = std::make_unique<Audit>();
        // The protocol guarantees per-(src,dst) ordering with a
        // NIFDY NIC on any topology; without one, only single-path
        // deterministic topologies deliver in order.
        audit_->installStandardCheckers(nifdyKind() ||
                                        topologyInOrder(cfg_.topology));
        for (const auto &nic : nics_)
            audit_->watchNic(nic.get());
        for (const auto &proc : procs_)
            audit_->watchProcessor(proc.get());
        for (int r = 0; r < net_->numRouters(); ++r)
            audit_->watchRouter(&net_->router(r));
        for (int c = 0; c < net_->numChannels(); ++c)
            audit_->watchChannel(&net_->channelAt(c));
        audit_->setExpectFaults(injector_ != nullptr);
        audit_->setExpectNodeFaults(nodeDriver_ != nullptr);
        if (!collEngines_.empty()) {
            std::vector<CollEngine *> engs;
            for (const auto &e : collEngines_)
                engs.push_back(e.get());
            audit_->add(makeCollDisciplineChecker(std::move(engs)));
        }
        probes.attach(audit_.get());
    }

    // The tracer comes first: the anatomy and the congestion
    // observatory render into it.
    if (!cfg_.trace.path.empty()) {
        TraceConfig tc = cfg_.trace;
        if (tc.seed == 0)
            tc.seed = cfg_.seed;
        tracer_ = std::make_unique<Tracer>(tc);
        probes.attach(tracer_.get());
    }

    if (cfg_.anatomy.enabled) {
        AnatomyConfig ac = cfg_.anatomy;
        if (ac.seed == 0)
            ac.seed = cfg_.seed;
        anatomy_ = std::make_unique<Anatomy>(ac, cfg_.numNodes,
                                             tracer_.get());
        probes.attach(anatomy_.get());
        if (audit_)
            audit_->add(
                makeAnatomyConservationChecker(anatomy_.get()));
    }

    if (cfg_.congestion.enabled) {
        cfg_.congestion.validate();
        congestion_ = std::make_unique<CongestionObserver>(
            cfg_.congestion, cfg_.numNodes, tracer_.get());
        congestion_->attach(*net_);
        probes.attach(congestion_.get());
        if (audit_)
            audit_->add(
                makeCongestionConservationChecker(congestion_.get()));
    }

    if (!cfg_.metrics.path.empty()) {
        utilMarks_.assign(net_->numChannels(), {0, 0});
        metrics_ = std::make_unique<Metrics>(
            cfg_.metrics,
            [this](JsonWriter &w, Cycle now) { writeMetrics(w, now); });
        probes.attach(metrics_.get());
    }

    cfg_.profile.validate();
    if (cfg_.profile.enabled) {
        profiler_ = std::make_unique<Profiler>(cfg_.profile);
        probes.attach(profiler_.get());
    }
}

Experiment::~Experiment()
{
    kernel_.probes().finish(kernel_.now());
    // The members' own teardown may still fire events (pool and NIC
    // releases): no observer may be reachable once one is freed.
    kernel_.probes().detachAll();
}

void
Experiment::writeMetrics(JsonWriter &w, Cycle now)
{
    const Totals tot = totals();
    auto gauge = [&w](std::string key, double v, int instance = -1) {
        if (instance >= 0) {
            key += '[';
            key += std::to_string(instance);
            key += ']';
        }
        w.field(key, v);
    };

    w.key("gauges");
    w.beginObject();
    // Aggregate progress counters, sampled at snapshot instants so
    // the JSONL rows show cumulative throughput over time.
    gauge("nic.packets.sent", tot.packetsSent);
    gauge("nic.packets.delivered", tot.packetsDelivered);
    gauge("nic.arrivals.pending", tot.arrivalsPending);
    gauge("run.goodput", now > 0 ? tot.wordsDelivered *
                                       double(bytesPerWord) / double(now)
                                 : 0.0);
    gauge("proc.busy.fraction",
          now > 0 ? double(tot.procBusy) / (double(now) * numNodes())
                  : 0.0);

    // Per-channel utilization: fraction of the interval since the
    // previous row the serializer was busy (delta-based, so a row
    // shows the interval's load, not the lifetime average).
    std::uint64_t requestFlits = 0;
    std::uint64_t replyFlits = 0;
    for (int c = 0; c < net_->numChannels(); ++c) {
        const Channel &ch = net_->channelAt(c);
        auto &[since, flits] = utilMarks_[c];
        double util = 0.0;
        if (now > since)
            util = double(ch.totalFlits() - flits) *
                   ch.params().cyclesPerFlit / double(now - since);
        since = now;
        flits = ch.totalFlits();
        gauge("channel.util", util, c);
        requestFlits += ch.classFlits(NetClass::request);
        replyFlits += ch.classFlits(NetClass::reply);
    }
    gauge("channel.flits.request", requestFlits);
    gauge("channel.flits.reply", replyFlits);

    for (int r = 0; r < net_->numRouters(); ++r) {
        const Router &router = net_->router(r);
        gauge("router.buffer.occupancy", router.bufferedFlits(), r);
        gauge("router.flits.switched", router.flitsSwitched(), r);
    }

    if (nifdyKind()) {
        gauge("nifdy.opt.occupancy", tot.optOccupancy);
        gauge("nifdy.pool.occupancy", tot.poolOccupancy);
        gauge("nifdy.window.unacked", tot.windowUnacked);
        gauge("nifdy.acks.sent", tot.acksSent);
    }
    if (cfg_.nicKind == NicKind::lossy) {
        gauge("lossy.retransmissions", tot.retransmissions);
        gauge("lossy.drops", tot.dropped + tot.corruptDropped);
    }
    if (injector_) {
        gauge("fault.fabric.drops", injector_->packetsDroppedInFabric());
        gauge("fault.corruptions", injector_->packetsCorrupted());
    }
    if (nodeDriver_) {
        gauge("node.crashes", nodeCrashes_);
        gauge("node.restarts", nodeRestarts_);
        if (nifdyKind()) {
            gauge("nic.epoch.rejects", tot.epochRejects);
            gauge("nifdy.dialog.teardowns", tot.dialogTeardowns);
        }
    }
    if (!collEngines_.empty()) {
        gauge("coll.entered", tot.collEntered);
        gauge("coll.completed", tot.collCompleted);
        gauge("coll.degraded", tot.collDegraded);
        gauge("coll.retx", tot.collRetx);
        gauge("coll.pruned", tot.collPruned);
        gauge("coll.packets", tot.collPackets);
        gauge("coll.open", tot.collOpen);
    }
    if (anatomy_) {
        gauge("anatomy.packets", anatomy_->packets());
        gauge("anatomy.open", anatomy_->openRecords());
    }
    if (congestion_) {
        gauge("congestion.windows", congestion_->windowsClosed());
        gauge("congestion.episodes.open", congestion_->openEpisodes());
        gauge("congestion.episodes.total", congestion_->episodesOpened());
        gauge("congestion.cycles.stalled", congestion_->totalStalled());
        gauge("congestion.flows", congestion_->numFlows());
    }
    w.endObject();

    w.key("distributions");
    w.beginObject();
    if (cfg_.nicKind == NicKind::lossy)
        Metrics::writeDist(w, "lossy.recovery.latency", tot.recovery);
    if (anatomy_) {
        for (int i = 0; i < numStallCauses; ++i)
            Metrics::writeDist(
                w, std::string("anatomy.stall.") + stallCauseSlugs[i],
                anatomy_->dist(static_cast<StallCause>(i)));
        Metrics::writeDist(w, "anatomy.e2e", anatomy_->e2e());
    }
    Metrics::writeDist(w, "nic.latency", tot.latency);
    w.endObject();
}

void
Experiment::onNodeFault(NodeId n, bool restart, Cycle now)
{
    if (!restart) {
        crashedEver_.at(n) = true;
        anyCrashed_ = true;
        ++nodeCrashes_;
        // Application state dies first (the staged packet would
        // leak), then the processor goes dark, the survivors'
        // barriers stop waiting, and finally the NIC fail-stops
        // (emitting the audit/trace crash events).
        msgs_.at(n)->crashReset(now);
        procs_.at(n)->setOffline(true, now);
        barrier_->excuse(n, now);
        nics_.at(n)->crash(now);
    } else {
        ++nodeRestarts_;
        // Cold NIC state, bumped incarnation epoch. The node rejoins
        // as a barrier free-runner: its workload may resume ticking
        // but is permanently excused from run completion.
        nics_.at(n)->restart(now);
        procs_.at(n)->setOffline(false, now);
    }
}

void
Experiment::setWorkload(NodeId n, std::unique_ptr<Workload> w)
{
    procs_.at(n)->setWorkload(w.get());
    workloads_.at(n) = std::move(w);
}

bool
Experiment::allDone() const
{
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        // A node that ever crashed is excused: its application state
        // did not survive, so its workload can never finish.
        if (crashedEver_[n])
            continue;
        const auto &w = workloads_[n];
        if (w && !w->done())
            return false;
    }
    return true;
}

bool
Experiment::drained() const
{
    for (const auto &nic : nics_)
        if (!nic->idle())
            return false;
    return net_->quiescent() && pool_.live() == 0;
}

Cycle
Experiment::runFor(Cycle cycles)
{
    return kernel_.run(cycles);
}

std::vector<std::pair<NodeId, NodeId>>
Experiment::deadPeerPairs() const
{
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (const NifdyNic *nn : nifdyNics_)
        for (NodeId peer : nn->deadPeers())
            pairs.emplace_back(nn->node(), peer);
    return pairs;
}

Cycle
Experiment::runUntilDone(Cycle maxCycles)
{
    // Grace period before a stalled run with dead peers or crashed
    // nodes is declared unfinishable: long enough for any in-flight
    // recovery (two full backed-off timeouts, or two reclamation
    // rounds) to make progress if it ever will.
    Cycle grace =
        std::max<Cycle>(50000, 2 * cfg_.lossy.effMaxTimeout());
    if (cfg_.nodeReclaim > 0)
        grace = std::max(grace, 2 * cfg_.nodeReclaim);
    // A crash mid-collective recovers by probing/pruning/re-parenting
    // through the tree; give the stall detector room for the worst
    // case before declaring the run unfinishable.
    if (!collEngines_.empty())
        grace = std::max(
            grace, 2 * cfg_.coll.worstCaseRecovery(cfg_.numNodes));
    std::uint64_t lastProgress = ~std::uint64_t(0);
    Cycle progressAt = 0;
    Cycle ran = kernel_.run(
        maxCycles, [this, grace, &lastProgress, &progressAt] {
            if (allDone())
                return true;
            bool anyDead = anyCrashed_;
            for (const NifdyNic *nn : nifdyNics_) {
                if (anyDead)
                    break;
                if (!nn->deadPeers().empty())
                    anyDead = true;
            }
            if (!anyDead)
                return false;
            std::uint64_t progress = net_->totalFlitsSwitched() +
                                     packetsDelivered() +
                                     packetsSent();
            if (progress != lastProgress) {
                lastProgress = progress;
                progressAt = kernel_.now();
                return false;
            }
            // Peers are dead and nothing has moved for the whole
            // grace period: the remaining work is unreachable.
            return kernel_.now() - progressAt >= grace;
        });
    if (!allDone()) {
        for (const auto &dp : deadPeerPairs())
            warn("run ended unfinished: node %d gave up on dead "
                 "peer %d",
                 dp.first, dp.second);
        for (NodeId n = 0; n < cfg_.numNodes; ++n)
            if (crashedEver_[n])
                warn("run ended unfinished: node %d crashed at some "
                     "point%s",
                     n, nics_[n]->crashed() ? " and stayed down" : "");
    }
    return ran;
}

std::uint64_t
Experiment::packetsDelivered() const
{
    std::uint64_t total = 0;
    for (const auto &nic : nics_)
        total += nic->packetsDelivered();
    return total;
}

std::uint64_t
Experiment::wordsDelivered() const
{
    std::uint64_t total = 0;
    for (const auto &nic : nics_)
        total += nic->wordsDelivered();
    return total;
}

std::uint64_t
Experiment::packetsSent() const
{
    std::uint64_t total = 0;
    for (const auto &nic : nics_)
        total += nic->packetsSent();
    return total;
}

Experiment::Totals
Experiment::totals() const
{
    Totals t;
    for (const auto &nic : nics_) {
        t.packetsSent += nic->packetsSent();
        t.packetsDelivered += nic->packetsDelivered();
        t.wordsDelivered += nic->wordsDelivered();
        t.arrivalsPending +=
            static_cast<std::uint64_t>(nic->arrivalsPending());
        t.latency.merge(nic->latency());
    }
    for (const NifdyNic *nn : nifdyNics_) {
        t.acksSent += nn->acksSent();
        t.acksPiggybacked += nn->acksPiggybacked();
        t.bulkGrants += nn->bulkGrants();
        t.bulkRejects += nn->bulkRejects();
        t.bulkPackets += nn->bulkPacketsSent();
        t.optOccupancy += static_cast<std::uint64_t>(nn->optOccupancy());
        t.poolOccupancy +=
            static_cast<std::uint64_t>(nn->poolOccupancy());
        t.windowUnacked += static_cast<std::uint64_t>(nn->bulkUnacked());
        t.epochRejects += nn->epochRejects();
        t.dialogTeardowns += nn->dialogTeardowns();
        t.abandoned += nn->packetsAbandoned();
        t.deadPeers += nn->deadPeers().size();
    }
    for (const LossyNifdyNic *ln : lossyNics_) {
        t.retransmissions += ln->retransmissions();
        t.dropped += ln->packetsDropped();
        t.corruptDropped += ln->corruptDropped();
        t.duplicates += ln->duplicatesSeen();
        t.recovery.merge(ln->recoveryLatency());
    }
    for (const auto &e : collEngines_) {
        t.collEntered += e->entered();
        t.collCompleted += e->localCompleted();
        t.collAbandoned += e->localAbandoned();
        t.collDegraded += e->degradedCompletions();
        t.collRetx += e->retransmissions();
        t.collPruned += e->childrenPruned();
        t.collEpochRejects += e->epochRejects();
        t.collPackets += e->collPacketsSent();
        t.collProbes += e->probesSent();
        t.collTombReplies += e->tombstoneReplies();
        t.collEvictions += e->slotEvictions();
        t.collOpen += static_cast<std::uint64_t>(e->openCollectives());
    }
    for (const auto &p : procs_)
        t.procBusy += p->cyclesBusy();
    return t;
}

Table
Experiment::statsTable(const Totals &tot) const
{
    const auto num = [](std::uint64_t v) {
        return Table::num(static_cast<long>(v));
    };
    const auto pair = [&num](std::uint64_t a, std::uint64_t b) {
        return num(a) + " / " + num(b);
    };
    Table t("run statistics: " + net_->name() + " / " +
            nicKindName(cfg_.nicKind));
    t.header({"metric", "value"});
    Cycle now = kernel_.now();
    t.row({"cycles", num(now)});
    t.row({"packets sent / delivered",
           pair(tot.packetsSent, tot.packetsDelivered)});
    t.row({"payload words delivered", num(tot.wordsDelivered)});
    if (now > 0) {
        t.row({"packets per kcycle",
               Table::num(tot.packetsDelivered * 1000.0 / now, 1)});
        t.row({"payload bytes per cycle",
               Table::num(tot.wordsDelivered * double(bytesPerWord) /
                              now,
                          3)});
    }

    const Distribution &lat = tot.latency;
    if (lat.count() > 0) {
        t.row({"packet latency mean / max",
               Table::num(lat.mean(), 1) + " / " + num(lat.max())});
        t.row({"packet latency p50 / p95 / p99",
               Table::num(lat.percentile(0.50), 0) + " / " +
                   Table::num(lat.percentile(0.95), 0) + " / " +
                   Table::num(lat.percentile(0.99), 0)});
    }

    if (nifdyKind()) {
        t.row({"acks sent / piggybacked",
               pair(tot.acksSent, tot.acksPiggybacked)});
        t.row({"bulk grants / rejects",
               pair(tot.bulkGrants, tot.bulkRejects)});
        t.row({"bulk data packets", num(tot.bulkPackets)});
        if (tot.deadPeers > 0)
            t.row({"dead peers / packets abandoned",
                   pair(tot.deadPeers, tot.abandoned)});
    }
    if (cfg_.nicKind == NicKind::lossy) {
        t.row({"retransmissions / drops / dups",
               pair(tot.retransmissions, tot.dropped) + " / " +
                   num(tot.duplicates)});
        if (tot.corruptDropped > 0)
            t.row({"corrupt packets discarded (CRC)",
                   num(tot.corruptDropped)});
        if (tot.recovery.count() > 0)
            t.row({"recovery latency mean / max",
                   Table::num(tot.recovery.mean(), 1) + " / " +
                       num(tot.recovery.max())});
    }
    if (injector_) {
        t.row({"fabric drops (pkts / flits)",
               pair(injector_->packetsDroppedInFabric(),
                    injector_->flitsDroppedInFabric())});
        t.row({"fabric corruptions", num(injector_->packetsCorrupted())});
        if (injector_->linksDowned() > 0)
            t.row({"links downed", num(injector_->linksDowned())});
    }
    if (nodeDriver_) {
        t.row({"node crashes / restarts",
               pair(nodeCrashes_, nodeRestarts_)});
        if (nifdyKind())
            t.row({"epoch rejects / dialog teardowns",
                   pair(tot.epochRejects, tot.dialogTeardowns)});
    }

    if (!collEngines_.empty()) {
        t.row({"collectives entered / completed",
               pair(tot.collEntered, tot.collCompleted)});
        t.row({"collective packets / retx",
               pair(tot.collPackets, tot.collRetx)});
        if (tot.collDegraded > 0 || tot.collPruned > 0)
            t.row({"collectives degraded / children pruned",
                   pair(tot.collDegraded, tot.collPruned)});
    }

    t.row({"fabric flits switched", num(net_->totalFlitsSwitched())});
    if (now > 0)
        t.row({"processor busy fraction",
               Table::num(double(tot.procBusy) /
                              (double(now) * numNodes()),
                          3)});
    t.row({"in-order delivery", inOrder_ ? "yes" : "no"});
    return t;
}

Distribution
Experiment::mergedLatency() const
{
    Distribution merged("nic.latency");
    for (const auto &nic : nics_)
        merged.merge(nic->latency());
    return merged;
}

void
Experiment::fillReport(RunReport &rep) const
{
    rep.echoConfig("topology", cfg_.topology);
    rep.echoConfig("nodes", std::to_string(cfg_.numNodes));
    rep.echoConfig("nic", nicKindName(cfg_.nicKind));
    rep.echoConfig("seed", std::to_string(cfg_.seed));
    rep.echoConfig("inOrder", inOrder_ ? "yes" : "no");
    if (nifdyKind()) {
        rep.echoConfig("nifdy.opt", std::to_string(nifdyCfg_.opt));
        rep.echoConfig("nifdy.pool", std::to_string(nifdyCfg_.pool));
        rep.echoConfig("nifdy.dialogs",
                       std::to_string(nifdyCfg_.dialogs));
        rep.echoConfig("nifdy.window",
                       std::to_string(nifdyCfg_.window));
    }
    if (cfg_.coll.offload) {
        rep.echoConfig("coll.offload", "nic");
        rep.echoConfig("coll.arity", std::to_string(cfg_.coll.arity));
    }

    const Totals tot = totals();
    Cycle now = kernel_.now();
    rep.addMetric("run.cycles", std::uint64_t(now));
    rep.addMetric("run.packets.sent", tot.packetsSent);
    rep.addMetric("run.packets.delivered", tot.packetsDelivered);
    rep.addMetric("run.words.delivered", tot.wordsDelivered);
    rep.addMetric("run.goodput",
                  now > 0 ? tot.wordsDelivered * double(bytesPerWord) /
                                double(now)
                          : 0.0);
    rep.addMetric("fabric.flits.switched",
                  net_->totalFlitsSwitched());

    const Distribution &lat = tot.latency;
    if (lat.count() > 0) {
        rep.addMetric("nic.latency.mean", lat.mean());
        rep.addMetric("nic.latency.max", lat.max());
        rep.addMetric("nic.latency.p50", lat.percentile(0.50));
        rep.addMetric("nic.latency.p95", lat.percentile(0.95));
        rep.addMetric("nic.latency.p99", lat.percentile(0.99));
    }

    if (now > 0)
        rep.addMetric("proc.busy.fraction",
                      double(tot.procBusy) / (double(now) * numNodes()));

    if (nifdyKind()) {
        rep.addMetric("nifdy.acks.sent", tot.acksSent);
        rep.addMetric("nifdy.bulk.grants", tot.bulkGrants);
        rep.addMetric("nifdy.bulk.rejects", tot.bulkRejects);
    }
    if (cfg_.nicKind == NicKind::lossy) {
        rep.addMetric("lossy.retransmissions", tot.retransmissions);
        rep.addMetric("lossy.drops", tot.dropped + tot.corruptDropped);
        rep.addMetric("lossy.duplicates", tot.duplicates);
        rep.addMetric("lossy.abandoned", tot.abandoned);
    }
    if (injector_) {
        rep.addMetric("fault.fabric.drops",
                      injector_->packetsDroppedInFabric());
        rep.addMetric("fault.corruptions",
                      injector_->packetsCorrupted());
        rep.addMetric("fault.links.downed",
                      std::uint64_t(injector_->linksDowned()));
    }
    if (nodeDriver_) {
        rep.addMetric("node.crashes", nodeCrashes_);
        rep.addMetric("node.restarts", nodeRestarts_);
        if (nifdyKind()) {
            rep.addMetric("nic.epoch.rejects", tot.epochRejects);
            rep.addMetric("nifdy.dialog.teardowns", tot.dialogTeardowns);
            rep.addMetric("nifdy.dead.peers", tot.deadPeers);
            rep.addMetric("nifdy.abandoned", tot.abandoned);
        }
    }

    if (!collEngines_.empty()) {
        rep.addMetric("coll.entered", tot.collEntered);
        rep.addMetric("coll.completed", tot.collCompleted);
        rep.addMetric("coll.abandoned", tot.collAbandoned);
        rep.addMetric("coll.degraded", tot.collDegraded);
        rep.addMetric("coll.retx", tot.collRetx);
        rep.addMetric("coll.pruned", tot.collPruned);
        rep.addMetric("coll.epoch.rejects", tot.collEpochRejects);
        rep.addMetric("coll.packets", tot.collPackets);
        rep.addMetric("coll.probes", tot.collProbes);
        rep.addMetric("coll.tomb.replies", tot.collTombReplies);
        rep.addMetric("coll.evictions", tot.collEvictions);
    }

    if (anatomy_) {
        anatomy_->reportMetrics(rep, "");
        if (anatomy_->e2e().count() > 0) {
            rep.addMetric("anatomy.e2e.mean", anatomy_->e2e().mean());
            rep.addMetric("anatomy.e2e.p95",
                          anatomy_->e2e().percentile(0.95));
        }
        rep.addTable(anatomy_->blameTable("latency blame: " +
                                          net_->name() + " / " +
                                          nicKindName(cfg_.nicKind)));
        rep.addTable(anatomy_->classTable("latency blame by class"));
        rep.addTable(anatomy_->nodeTable("latency blame by node"));
    }

    if (congestion_) {
        // Close the books first (idempotent): open episodes get
        // their flows harvested and classified, so the report sees
        // final victim/aggressor verdicts. Reports are terminal --
        // nothing records after fillReport().
        congestion_->finish(kernel_.now());
        CongestionObserver &co = *congestion_;
        co.reportMetrics(rep, "");
        const int hot = co.hottestLink();
        if (hot >= 0) {
            const CongestionObserver::LinkStats &l = co.link(hot);
            const std::uint64_t sum = l.busy + l.idle + l.stalled;
            rep.addMetric("congestion.hotlink.stallfrac",
                          sum ? double(l.stalled) / double(sum) : 0);
            rep.addNote("congestion hottest link: " +
                        co.linkLabel(hot));
        }
        rep.addTable(co.linkTable("congestion: link stall map (" +
                                  net_->name() + " / " +
                                  nicKindName(cfg_.nicKind) + ")"));
        rep.addTable(co.flowTable("congestion: flow progress, worst "
                                  "slowdown first"));
        rep.addTable(co.episodeTable("congestion: episodes"));
    }

    if (profiler_)
        profiler_->reportMetrics(rep, "");

    rep.addTable(statsTable(tot));
}

void
bindTelemetry(const Config &conf, ExperimentConfig &cfg)
{
    conf.knob("trace.path", cfg.trace.path,
              "write a Chrome-trace-event packet-lifecycle trace here");
    conf.knob("trace.sampleRate", cfg.trace.sampleRate,
              "fraction of packet lifecycles traced, [0, 1]");
    conf.knob("trace.maxEvents", cfg.trace.maxEvents,
              "hard event budget per trace file");
    conf.knob("trace.seed", cfg.trace.seed,
              "sampling hash seed (0 = experiment seed)");
    cfg.trace.validate();

    conf.knob("metrics.path", cfg.metrics.path,
              "write periodic metric snapshots (JSONL) here");
    conf.knob("metrics.interval", cfg.metrics.interval,
              "cycles between metric snapshots");
    cfg.metrics.validate();

    conf.knob("anatomy.enabled", cfg.anatomy.enabled,
              "latency anatomy: per-packet stall-cause attribution");
    conf.knob("anatomy.sampleRate", cfg.anatomy.sampleRate,
              "fraction of packet lifecycles attributed, [0, 1]");
    conf.knob("anatomy.seed", cfg.anatomy.seed,
              "anatomy sampling hash seed (0 = experiment seed)");
    cfg.anatomy.validate();

    conf.knob("congestion.enabled", cfg.congestion.enabled,
              "congestion observatory: per-link stall maps, per-flow "
              "progress, victim/aggressor episodes");
    conf.knob("congestion.window", cfg.congestion.window,
              "congestion accounting window length in cycles");
    conf.knob("congestion.onFrac", cfg.congestion.onFrac,
              "episode opens at window stall fraction >= onFrac");
    conf.knob("congestion.offFrac", cfg.congestion.offFrac,
              "episode closes at window stall fraction < offFrac");
    conf.knob("congestion.aggressorShare",
              cfg.congestion.aggressorShare,
              "aggressor threshold: share of an episode's flits");
    conf.knob("congestion.victimSlowdown",
              cfg.congestion.victimSlowdown,
              "victim threshold: mean latency over isolation baseline");
    cfg.congestion.validate();

    conf.knob("profile.enabled", cfg.profile.enabled,
              "host-cost profiler: per-component host-time and "
              "idle-work attribution");
    conf.knob("profile.interval", cfg.profile.interval,
              "cycles between profiler host-clock samples");
    cfg.profile.validate();
}

ExperimentConfig
experimentFromConfig(const Config &conf, ExperimentConfig cfg)
{
    conf.knob("topology", cfg.topology,
              "network topology: mesh2d, mesh3d, torus2d, fattree, "
              "fattree-saf, cm5, butterfly, multibutterfly, "
              "mesh2d-adaptive");
    conf.knob("nodes", cfg.numNodes, "number of nodes");
    conf.choice("nic", cfg.nicKind,
                {{"none", NicKind::none},
                 {"buffers", NicKind::buffers},
                 {"nifdy", NicKind::nifdy},
                 {"lossy", NicKind::lossy},
                 {"nifdy-lossy", NicKind::lossy}},
                "NIC kind");
    conf.knob("seed", cfg.seed, "experiment RNG seed");
    conf.knob("watchdog", cfg.watchdog, "idle-cycle watchdog limit");
    conf.knob("barrierLatency", cfg.barrierLatency,
              "barrier network release latency");
    conf.knob("audit", cfg.audit, "attach the invariant-audit layer");
    conf.knob("exploitInOrder", cfg.exploitInOrder,
              "software exploits in-order delivery when available");

    // Table 3's per-topology values are the defaults; setting any
    // nifdy.* key overrides just that one.
    cfg.nifdy = bestNifdyParams(cfg.topology);
    conf.knob("nifdy.opt", cfg.nifdy.opt,
              "OPT entries (outstanding-packet table size)");
    conf.knob("nifdy.pool", cfg.nifdy.pool, "send-pool entries");
    conf.knob("nifdy.dialogs", cfg.nifdy.dialogs,
              "simultaneous bulk dialogs");
    conf.knob("nifdy.window", cfg.nifdy.window,
              "bulk dialog window size");
    cfg.nifdyExplicit = conf.has("nifdy.opt") || conf.has("nifdy.pool") ||
                        conf.has("nifdy.dialogs") ||
                        conf.has("nifdy.window");

    conf.knob("lossy.dropProb", cfg.lossy.dropProb,
              "receiver-side drop probability, [0, 1)");
    conf.knob("lossy.retxTimeout", cfg.lossy.retxTimeout,
              "initial retransmit timeout in cycles");
    conf.knob("lossy.backoffFactor", cfg.lossy.backoffFactor,
              "timeout multiplier per retry (1 = fixed timer)");
    conf.knob("lossy.maxRetxTimeout", cfg.lossy.maxRetxTimeout,
              "backoff ceiling in cycles (0 = 16x lossy.retxTimeout)");
    conf.knob("lossy.jitterFrac", cfg.lossy.jitterFrac,
              "retransmit deadline jitter fraction, [0, 1)");
    conf.knob("lossy.maxRetries", cfg.lossy.maxRetries,
              "declare a peer dead after N retries (0 = retry forever)");
    cfg.lossy.validate();

    cfg.fault = FaultPlan::fromConfig(conf);

    cfg.nodeFault = NodeFaultPlan::fromConfig(conf);
    cfg.nodeFault.validate();
    // Reclamation defaults on with a node-fault plan: without it a
    // base-NIFDY survivor would pin an OPT entry on a dead peer
    // forever. It must exceed the worst-case ack round trip
    // (including lossy backoff) or live peers get declared dead.
    if (cfg.nodeFault.active())
        cfg.nodeReclaim = 25000;
    conf.knob("node.reclaimTimeout", cfg.nodeReclaim,
              "live peers reclaim protocol state aimed at a silent peer "
              "after N idle cycles (0 = off; 25000 when a node plan is "
              "active)");

    conf.choice("coll.offload", cfg.coll.offload,
                {{"off", false}, {"software", false}, {"nic", true}},
                "NIC-resident collectives (off or software: the "
                "software barrier; nic: barrier/bcast/reduce combined "
                "in the NIC step path)");
    conf.knob("coll.arity", cfg.coll.arity,
              "collective combining-tree fan-out (parent(n) = (n-1)/k)");
    conf.knob("coll.timeout", cfg.coll.timeout,
              "initial contribution retransmit timeout in cycles");
    conf.knob("coll.backoffFactor", cfg.coll.backoffFactor,
              "collective timeout multiplier per retransmission (>= 1)");
    conf.knob("coll.maxTimeout", cfg.coll.maxTimeout,
              "collective backoff ceiling in cycles (0 = 16x "
              "coll.timeout)");
    conf.knob("coll.jitterFrac", cfg.coll.jitterFrac,
              "collective retransmit deadline jitter fraction, [0, 1)");
    conf.knob("coll.maxRetries", cfg.coll.maxRetries,
              "unanswered contribution rounds before a parent is "
              "presumed dead and the child re-parents");
    conf.knob("coll.probeTimeout", cfg.coll.probeTimeout,
              "silence gate before (and between) probes of an awaited "
              "child");
    conf.knob("coll.maxProbes", cfg.coll.maxProbes,
              "unanswered probes before a silent subtree is pruned (the "
              "collective then completes degraded among survivors)");
    conf.knob("coll.seed", cfg.coll.seed,
              "collective jitter RNG seed (0 = experiment seed)");
    cfg.coll.validate();

    bindTelemetry(conf, cfg);
    return cfg;
}

std::string
experimentKnobList()
{
    Config conf;
    experimentFromConfig(conf);
    return conf.knobList();
}

} // namespace nifdy
