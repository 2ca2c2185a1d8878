#include "net/router.hh"

#include <bit>

#include "sim/fault.hh"
#include "sim/log.hh"

namespace nifdy
{

Router::Router(int id, const RouterParams &params)
    : rng_(params.seed, 0x7000 + id), id_(id), params_(params),
      numVCs_(numNetClasses * params.vcsPerClass)
{
    panic_if(params_.vcsPerClass < 1, "router needs >= 1 VC per class");
    panic_if(params_.bufDepth < 1, "router needs >= 1 flit buffer");
}

int
Router::addInPort(Channel *ch)
{
    int port = static_cast<int>(ins_.size());
    fatal_if((port + 1) * numVCs_ > maxMaskBits,
             "router %d: %d input ports x %d VCs = %d input VCs exceed "
             "the %d-bit pending masks",
             id_, port + 1, numVCs_, (port + 1) * numVCs_, maxMaskBits);
    InPort p;
    p.ch = ch;
    p.vcs.resize(numVCs_);
    ins_.push_back(std::move(p));
    ch->watchFlits(&flitsPending_, port);
    return port;
}

int
Router::addOutPort(Channel *ch, int depth)
{
    int port = static_cast<int>(outs_.size());
    fatal_if(port + 1 > maxMaskBits,
             "router %d: %d output ports exceed the %d-bit pending "
             "masks",
             id_, port + 1, maxMaskBits);
    OutPort p;
    p.ch = ch;
    p.credits.assign(numVCs_, depth);
    p.owner.assign(numVCs_, -1);
    // The credit discipline bounds what this channel can carry.
    ch->setCapacityFlits(numVCs_ * depth);
    outs_.push_back(std::move(p));
    ch->watchCredits(&creditsPending_, port);
    return port;
}

int
Router::creditsAvailable(int outPort, NetClass cls) const
{
    const OutPort &op = outs_[outPort];
    int base = static_cast<int>(cls) * params_.vcsPerClass;
    int total = 0;
    for (int v = 0; v < params_.vcsPerClass; ++v)
        total += op.credits[base + v];
    return total;
}

int
Router::bufferCapacityFlits() const
{
    return static_cast<int>(ins_.size()) * numVCs_ * params_.bufDepth;
}

unsigned
Router::vcMaskForHop(int outPort, Packet &pkt)
{
    (void)outPort;
    (void)pkt;
    return ~0u;
}

void
Router::onAllocate(Packet &pkt, int outPort, int subVc)
{
    (void)pkt;
    (void)outPort;
    (void)subVc;
}

NIFDY_HOT void
Router::step(Cycle now)
{
    // Absorb returned credits.
    for (std::uint64_t m = creditsPending_; m; m &= m - 1) {
        OutPort &op = outs_[std::countr_zero(m)];
        while (op.ch->hasCredit(now)) {
            int vc = op.ch->popCredit(now);
            ++op.credits[vc];
            panic_if(op.credits[vc] > params_.bufDepth * 8,
                     "credit leak on router %d", id_);
        }
    }

    // Absorb arriving flits into their VC buffers.
    for (std::uint64_t m = flitsPending_; m; m &= m - 1) {
        int p = std::countr_zero(m);
        InPort &ip = ins_[p];
        while (ip.ch->hasFlit(now)) {
            Flit f = ip.ch->pop(now);
            if (faults_ && faults_->filterArrival(id_, ip.ch, f, now)) {
                // Swallowed by fault injection. Return the input
                // buffer credit the upstream hop charged for this
                // flit so the loss stays invisible to flow control.
                ip.ch->pushCredit(f.vc, now);
                if (kernel_)
                    kernel_->noteActivity();
                continue;
            }
            VirtChan &vc = ip.vcs[f.vc];
            vc.buf.push_back(f); // nifdy:alloc-ok(Ring grows to bufDepth then reuses)
            ++bufferedFlits_;
            panic_if(static_cast<int>(vc.buf.size()) >
                         params_.bufDepth,
                     "buffer overflow on router %d vc %d", id_, f.vc);
            if (vc.buf.size() == 1 && !vc.active && f.head)
                unrouted_ |= std::uint64_t{1} << inVcId(p, f.vc);
        }
    }

    if (bufferedFlits_ == 0)
        return;

    // Route computation + VC allocation for fresh head flits.
    for (std::uint64_t m = unrouted_; m; m &= m - 1) {
        int ivc = std::countr_zero(m);
        int p = ivc / numVCs_;
        int v = ivc - p * numVCs_;
        if (!tryAllocate(p, v, now))
            probes_->arbLoss(*ins_[p].vcs[v].buf.front().pkt, now);
    }

    switchPass(now);
}

NIFDY_HOT bool
Router::tryAllocate(int inPort, int vcIdx, Cycle now)
{
    VirtChan &vc = ins_[inPort].vcs[vcIdx];
    Packet &pkt = *vc.buf.front().pkt;

    candidateScratch_.clear();
    bool adaptive = route(inPort, pkt, candidateScratch_);
    panic_if(candidateScratch_.empty(),
             "router %d: no route for %s", id_, pkt.toString().c_str());

    NetClass cls = pkt.netClass;
    int base = static_cast<int>(cls) * params_.vcsPerClass;

    int bestPort = -1;
    int bestVC = -1;
    int bestScore = -1;
    int ties = 0;
    for (int op : candidateScratch_) {
        OutPort &out = outs_[op];
        // Fault-aware routing: never commit a packet to a link that
        // is down right now; adaptive topologies reroute around it.
        if (out.ch->downAt(now))
            continue;
        unsigned mask = vcMaskForHop(op, pkt);
        // Find a free output VC within the class, preferring one
        // that has credits right now.
        int freeVC = -1;
        bool freeHasCredit = false;
        for (int s = 0; s < params_.vcsPerClass; ++s) {
            if (!(mask & (1u << s)))
                continue;
            int idx = base + s;
            if (out.owner[idx] != -1)
                continue;
            bool has = out.credits[idx] > 0;
            if (params_.allocNeedsCredit && !has)
                continue;
            if (freeVC == -1 || (has && !freeHasCredit)) {
                freeVC = idx;
                freeHasCredit = has;
            }
        }
        if (freeVC == -1)
            continue;
        int score = freeHasCredit ? 1 + creditsAvailable(op, cls) : 0;
        if (!adaptive) {
            // First allocatable candidate wins outright.
            bestPort = op;
            bestVC = freeVC;
            break;
        }
        if (score > bestScore) {
            bestScore = score;
            bestPort = op;
            bestVC = freeVC;
            ties = 1;
        } else if (score == bestScore && ties > 0) {
            // Reservoir-sample among equally good candidates.
            ++ties;
            if (rng_.nextBounded(ties) == 0) {
                bestPort = op;
                bestVC = freeVC;
            }
        }
    }

    if (bestPort == -1)
        return false;

    vc.active = true;
    vc.outPort = bestPort;
    vc.outVC = bestVC;
    unrouted_ &= ~(std::uint64_t{1} << inVcId(inPort, vcIdx));
    requested_ |= std::uint64_t{1} << bestPort;
    outs_[bestPort].owner[bestVC] = inVcId(inPort, vcIdx);
    outs_[bestPort].reqs.push_back( // nifdy:alloc-ok(vector capacity persists at numVCs high-water)
        {static_cast<std::int16_t>(inPort),
         static_cast<std::int16_t>(vcIdx)});
    onAllocate(pkt, bestPort, bestVC % params_.vcsPerClass);
    probes_->hop(pkt, id_, now);
    return true;
}

NIFDY_HOT void
Router::switchPass(Cycle now)
{
    // Input-port crossbar constraint: one departure per input port
    // per cycle.
    std::uint64_t inUsed = 0;

    for (std::uint64_t m = requested_; m; m &= m - 1) {
        int op = std::countr_zero(m);
        OutPort &out = outs_[op];
        int nReqs = static_cast<int>(out.reqs.size());
        // Round-robin over the input VCs routed to this output,
        // starting at rr mod nReqs (rr may exceed nReqs by one after
        // a tail left the list).
        int slot = out.rr;
        while (slot >= nReqs)
            slot -= nReqs;
        for (int k = 0; k < nReqs;
             ++k, slot = slot + 1 == nReqs ? 0 : slot + 1) {
            Req req = out.reqs[slot];
            std::uint64_t portBit = std::uint64_t{1} << req.port;
            if (inUsed & portBit)
                continue;
            VirtChan &vc = ins_[req.port].vcs[req.vc];
            if (vc.buf.empty())
                continue;
            if (out.credits[vc.outVC] <= 0) {
                probes_->linkStall(out.ch, now);
                continue;
            }
            // The output VC's class is the packet's: no Packet load.
            NetClass cls =
                static_cast<NetClass>(vc.outVC / params_.vcsPerClass);
            if (!out.ch->canPush(cls, now)) {
                probes_->linkStall(out.ch, now);
                continue;
            }
            Flit &front = vc.buf.front();
            if (params_.storeAndForward && front.head) {
                // The whole packet must be buffered before the head
                // may leave.
                bool tailHere = false;
                for (const Flit &f : vc.buf) {
                    if (f.tail) {
                        tailHere = true;
                        break;
                    }
                }
                if (!tailHere) {
                    probes_->linkStall(out.ch, now);
                    continue;
                }
            }

            Flit f = front;
            vc.buf.pop_front();
            --bufferedFlits_;
            f.vc = static_cast<std::int8_t>(vc.outVC);
            out.ch->push(f, now);
            probes_->linkFlit(out.ch, f, now);
            --out.credits[vc.outVC];
            // Return the freed input buffer slot upstream.
            ins_[req.port].ch->pushCredit(req.vc, now);
            ++flitsSwitched_;
            if (kernel_)
                kernel_->noteActivity();
            if (f.tail) {
                out.owner[vc.outVC] = -1;
                vc.active = false;
                vc.outPort = -1;
                vc.outVC = -1;
                out.reqs.erase(out.reqs.begin() + slot);
                if (out.reqs.empty())
                    requested_ &= ~(std::uint64_t{1} << op);
                // The next packet's head, already buffered behind
                // the tail, is routed next cycle.
                if (!vc.buf.empty() && vc.buf.front().head)
                    unrouted_ |= std::uint64_t{1}
                                 << inVcId(req.port, req.vc);
            }
            inUsed |= portBit;
            out.rr = slot + 1;
            break; // this output port is busy now
        }
    }
}

} // namespace nifdy
