/**
 * @file
 * Ablations of the NIFDY design choices that the paper calls out:
 *
 *  (a) ack-on-accept (default) vs ack-on-arrival (footnote 2 says
 *      acking early is "surprisingly less effective");
 *  (b) bulk window size W sweep against the Equation 3 analytic
 *      prediction, on the high-latency store-and-forward tree;
 *  (c) combined acks (one per W/2) vs per-packet acks -- the ack
 *      bandwidth saved vs throughput;
 *  (d) Section 6.1: piggybacking acks on application replies in
 *      request/reply (RPC) traffic.
 *
 * Args: cycles=120000 nodes=64 seed=1 csv=false
 */

#include "benchutil.hh"
#include "nic/nifdy.hh"

using namespace nifdy;

namespace
{

Experiment::Totals
runWith(const std::string &topo, NifdyConfig nifdy, Cycle cycles,
        int nodes, std::uint64_t seed, const SyntheticParams &sp)
{
    ExperimentConfig cfg;
    cfg.topology = topo;
    cfg.numNodes = nodes;
    cfg.nicKind = NicKind::nifdy;
    cfg.seed = seed;
    cfg.nifdyExplicit = true;
    cfg.nifdy = nifdy;
    auto exp = syntheticExperiment(cfg, sp);
    exp->runFor(cycles);
    return exp->totals();
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 120000);
    args.conf.close();

    // (a) Ack timing policy, heavy traffic on mesh and fat tree.
    {
        Table t("Ablation A: ack on processor accept (default) vs ack"
                " on arrival (footnote 2)");
        t.header({"network", "on accept", "on arrival",
                  "accept/arrival"});
        SyntheticParams sp = SyntheticParams::heavy();
        for (const std::string &topo :
             {std::string("mesh2d"), std::string("fattree")}) {
            NifdyConfig base = bestNifdyParams(topo);
            NifdyConfig early = base;
            early.ackOnAccept = false;
            auto acc = runWith(topo, base, args.cycles, args.nodes,
                               args.seed, sp)
                           .packetsDelivered;
            auto arr = runWith(topo, early, args.cycles, args.nodes,
                               args.seed, sp)
                           .packetsDelivered;
            t.row({topo, Table::num(static_cast<long>(acc)),
                   Table::num(static_cast<long>(arr)),
                   Table::num(double(acc) / double(arr), 2)});
        }
        args.emit(t);
    }

    // (b) Window sweep on the store-and-forward fat tree, where the
    // round trip is largest and bulk windows matter most.
    {
        Table t("Ablation B: bulk window W sweep, store-and-forward"
                " fat tree, light traffic (pairwise-bandwidth bound)");
        t.header({"W", "packets delivered", "vs W=2"});
        SyntheticParams sp = SyntheticParams::light();
        std::uint64_t base = 0;
        for (int w : {2, 4, 8, 16}) {
            NifdyConfig cfg = bestNifdyParams("fattree-saf");
            cfg.window = w;
            auto v = runWith("fattree-saf", cfg, args.cycles,
                             args.nodes, args.seed, sp)
                         .packetsDelivered;
            if (!base)
                base = v;
            t.row({Table::num(static_cast<long>(w)),
                   Table::num(static_cast<long>(v)),
                   Table::num(double(v) / double(base), 2)});
        }
        args.emit(t);
    }

    // (c) Combined vs per-packet bulk acks.
    {
        Table t("Ablation C: combined acks (one per W/2) vs"
                " per-packet acks, fat tree, light traffic");
        t.header({"ack policy", "packets delivered", "acks sent",
                  "acks/packet"});
        SyntheticParams sp = SyntheticParams::light();
        NifdyConfig comb = bestNifdyParams("fattree");
        NifdyConfig per = comb;
        per.ackEvery = 1;
        for (const auto &[name, policy] :
             {std::pair{"combined (W/2)", comb},
              std::pair{"per packet", per}}) {
            const Experiment::Totals tot = runWith(
                "fattree", policy, args.cycles, args.nodes, args.seed,
                sp);
            t.row({name,
                   Table::num(static_cast<long>(tot.packetsDelivered)),
                   Table::num(static_cast<long>(tot.acksSent)),
                   Table::num(double(tot.acksSent) /
                                  double(tot.packetsDelivered),
                              2)});
        }
        args.emit(t);
    }

    // (d) Piggybacked acks under RPC traffic: node 2k fires
    // requests at node 2k+1, which replies to each.
    {
        auto rpc = [&](bool piggy, std::uint64_t *standaloneAcks,
                       std::uint64_t *piggybacked) {
            NetworkParams np;
            np.numNodes = 16;
            np.seed = args.seed;
            auto net = makeNetwork("mesh2d", np);
            Kernel kernel;
            net->addToKernel(kernel);
            PacketPool pool;
            NifdyConfig ncfg = bestNifdyParams("mesh2d");
            ncfg.piggybackAcks = piggy;
            std::vector<std::unique_ptr<NifdyNic>> nics;
            for (NodeId n = 0; n < 16; ++n) {
                NicParams nicp;
                nicp.flitBytes = net->params().flitBytes;
                nicp.vcsPerClass = net->params().vcsPerClass;
                nicp.ejectDepth = net->params().ejectDepth;
                nics.push_back(std::make_unique<NifdyNic>(
                    n, net->nodePorts(n), nicp, ncfg, pool));
                nics.back()->setKernel(&kernel);
                kernel.add(nics.back().get());
            }
            const int rounds = 200;
            std::vector<int> sentReq(16, 0);
            std::vector<int> gotReply(16, 0);
            kernel.run(10000000, [&] {
                bool allDone = true;
                for (NodeId n = 0; n < 16; ++n) {
                    Cycle now = kernel.now();
                    bool requester = n % 2 == 0;
                    if (requester && sentReq[n] < rounds &&
                        sentReq[n] == gotReply[n]) {
                        Packet *req = pool.alloc();
                        req->src = n;
                        req->dst = n + 1;
                        req->sizeBytes = 32;
                        req->expectsReply = true;
                        if (nics[n]->canSend(*req)) {
                            nics[n]->send(req, now);
                            ++sentReq[n];
                        } else {
                            pool.release(req);
                        }
                    }
                    while (Packet *p = nics[n]->pollReceive(now)) {
                        if (p->expectsReply) {
                            Packet *rep = pool.alloc();
                            rep->src = n;
                            rep->dst = p->src;
                            rep->sizeBytes = 32;
                            rep->netClass =
                                oppositeClass(p->netClass);
                            if (nics[n]->canSend(*rep))
                                nics[n]->send(rep, now);
                            else
                                pool.release(rep); // won't happen
                        } else {
                            ++gotReply[n];
                        }
                        pool.release(p);
                    }
                    if (requester &&
                        (sentReq[n] < rounds || gotReply[n] < rounds))
                        allDone = false;
                }
                return allDone;
            });
            *standaloneAcks = 0;
            *piggybacked = 0;
            for (auto &nic : nics) {
                *standaloneAcks += nic->acksSent();
                *piggybacked += nic->acksPiggybacked();
            }
            return kernel.now();
        };
        Table t("Ablation D: piggybacked acks (Section 6.1), RPC"
                " ping-pong on the 2-D mesh, 200 rounds x 8 pairs");
        t.header({"mode", "cycles", "standalone acks",
                  "piggybacked"});
        std::uint64_t acks = 0;
        std::uint64_t piggy = 0;
        Cycle plain = rpc(false, &acks, &piggy);
        t.row({"acks always standalone",
               Table::num(static_cast<long>(plain)),
               Table::num(static_cast<long>(acks)),
               Table::num(static_cast<long>(piggy))});
        Cycle merged = rpc(true, &acks, &piggy);
        t.row({"acks ride on replies",
               Table::num(static_cast<long>(merged)),
               Table::num(static_cast<long>(acks)),
               Table::num(static_cast<long>(piggy))});
        args.emit(t);
    }
    return args.finish();
}
