/**
 * @file
 * Example: NIFDY on an unreliable network of workstations
 * (Section 6.2). Runs a bulk transfer between two nodes while the
 * network randomly drops packets, and shows that the application
 * sees a perfectly ordered, exactly-once stream while the NIC
 * quietly retransmits.
 *
 * Usage: lossy_workstations [drop=0.1] [timeout=3000] [packets=40]
 *                           [nodes=16] [topology=fattree] [seed=1]
 */

#include <cstdio>
#include <deque>

#include "sim/log.hh"
#include "nic/retransmit.hh"
#include "sim/config.hh"
#include "sim/table.hh"

using namespace nifdy;

int
main(int argc, char **argv)
{
    setQuiet(true);
    Config conf;
    conf.parseArgs(argc, argv);
    LossyConfig lcfg;
    lcfg.dropProb = 0.1;
    conf.knob("drop", lcfg.dropProb, "receiver-side drop probability");
    lcfg.retxTimeout = 3000;
    conf.knob("timeout", lcfg.retxTimeout,
              "retransmit timeout in cycles", 1);
    int packets = 40;
    conf.knob("packets", packets, "packets in the bulk transfer");
    int nodes = 16;
    conf.knob("nodes", nodes, "number of nodes");
    std::string topology = "fattree";
    conf.knob("topology", topology, "network topology");
    std::uint64_t seed = 1;
    conf.knob("seed", seed, "network and NIC RNG seed");
    conf.close();

    // Assemble a network with lossy NIFDY NICs by hand, to show the
    // library's lower-level API.
    NetworkParams np;
    np.numNodes = nodes;
    np.seed = seed;
    auto net = makeNetwork(topology, np);
    Kernel kernel;
    net->addToKernel(kernel);
    PacketPool pool;

    NifdyConfig ncfg;
    ncfg.opt = 4;
    ncfg.pool = 8;
    ncfg.dialogs = 1;
    ncfg.window = 8;

    std::vector<std::unique_ptr<LossyNifdyNic>> nics;
    for (NodeId n = 0; n < nodes; ++n) {
        NicParams nicp;
        nicp.flitBytes = net->params().flitBytes;
        nicp.vcsPerClass = net->params().vcsPerClass;
        nicp.ejectDepth = net->params().ejectDepth;
        nicp.seed = seed;
        nics.push_back(std::make_unique<LossyNifdyNic>(
            n, net->nodePorts(n), nicp, ncfg, lcfg, pool));
        nics.back()->setKernel(&kernel);
        kernel.add(nics.back().get());
    }

    // One bulk transfer 0 -> nodes-1, tagged so we can audit order.
    NodeId src = 0;
    NodeId dst = nodes - 1;
    std::deque<Packet *> toSend;
    for (int i = 0; i < packets; ++i) {
        Packet *p = pool.alloc();
        p->src = src;
        p->dst = dst;
        p->sizeBytes = 32;
        p->payloadWords = 6;
        p->msgId = i + 1;
        p->bulkRequest = true;
        p->bulkExit = i == packets - 1;
        toSend.push_back(p);
    }

    int received = 0;
    bool inOrder = true;
    std::uint32_t lastTag = 0;
    kernel.run(30000000, [&] {
        while (!toSend.empty() &&
               nics[src]->canSend(*toSend.front())) {
            nics[src]->send(toSend.front(), kernel.now());
            toSend.pop_front();
        }
        while (Packet *p = nics[dst]->pollReceive(kernel.now())) {
            ++received;
            if (p->msgId != lastTag + 1)
                inOrder = false;
            lastTag = p->msgId;
            pool.release(p);
        }
        return received >= packets && nics[src]->idle();
    });

    Table t("lossy workstation network, drop=" +
            Table::num(lcfg.dropProb * 100, 1) + "%");
    t.header({"metric", "value"});
    t.row({"packets sent by app", Table::num(long(packets))});
    t.row({"packets received", Table::num(long(received))});
    t.row({"received in order", inOrder ? "yes" : "NO"});
    t.row({"retransmissions",
           Table::num(long(nics[src]->retransmissions()))});
    t.row({"drops simulated",
           Table::num(long(nics[dst]->packetsDropped() +
                           nics[src]->packetsDropped()))});
    t.row({"duplicates filtered",
           Table::num(long(nics[dst]->duplicatesSeen()))});
    t.row({"cycles", Table::num(long(kernel.now()))});
    t.print();
    std::puts("the application never saw a drop, a duplicate, or a"
              " reordering: the NIC masked them all (Section 6.2).");
    return 0;
}
