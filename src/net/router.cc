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
    // A slower channel grows the wheel, which then needs every
    // channel's arrivals marked again.
    if (arrivals_.fit(ch->flightCycles()))
        for (int q = 0; q < port; ++q)
            ins_[q].ch->watchArrivals(&arrivals_, q);
    ch->watchArrivals(&arrivals_, port);
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
    // Absorb returned credits; a credit readies the input VC that
    // owns its output VC when that VC holds a flit.
    for (std::uint64_t m = creditsPending_; m; m &= m - 1) {
        OutPort &op = outs_[std::countr_zero(m)];
        while (op.ch->hasCredit(now)) {
            int vc = op.ch->popCredit(now);
            ++op.credits[vc];
            panic_if(op.credits[vc] > params_.bufDepth * 8,
                     "credit leak on router %d", id_);
            int owner = op.owner[vc];
            if (owner >= 0 &&
                !ins_[owner / numVCs_].vcs[owner % numVCs_].buf.empty())
                ready_ |= std::uint64_t{1} << owner;
        }
    }

    // Absorb the flits that become visible now into their VC buffers.
    for (std::uint64_t m = arrivals_.take(now); m; m &= m - 1) {
        int p = std::countr_zero(m);
        InPort &ip = ins_[p];
        ++work_.inputs;
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
            if (vc.buf.size() != 1)
                continue;
            std::uint64_t bit = std::uint64_t{1} << inVcId(p, f.vc);
            if (vc.active) {
                if (outs_[vc.outPort].credits[vc.outVC] > 0)
                    ready_ |= bit;
            } else if (f.head) {
                unrouted_ |= bit;
            }
        }
    }

    if (bufferedFlits_ == 0)
        return;

    // Route computation + VC allocation for fresh head flits.
    for (std::uint64_t m = unrouted_; m; m &= m - 1) {
        int ivc = std::countr_zero(m);
        int p = ivc / numVCs_;
        int v = ivc - p * numVCs_;
        if (tryAllocate(p, v, now))
            continue;
        probes_->arbLoss(*ins_[p].vcs[v].buf.front().pkt, now);
        if (mayPark()) {
            unrouted_ &= ~(std::uint64_t{1} << ivc);
            parked_ |= std::uint64_t{1} << ivc;
        }
    }

    // The congestion observatory sees every refused sender, so it
    // gets the full pass even when nothing can move.
    if (ready_ || probes_->congestion())
        switchPass(now);
}

NIFDY_HOT bool
Router::mayPark() const
{
    // With a credit-gated allocation a credit can unblock the head,
    // and a down window ends by time. The anatomy stamps each failed
    // attempt (arbLoss), so it sees every retry.
    if (params_.allocNeedsCredit || probes_->anatomy())
        return false;
    for (int op : candidateScratch_)
        if (outs_[op].ch->hasDownWindows())
            return false;
    return true;
}

NIFDY_HOT bool
Router::tryAllocate(int inPort, int vcIdx, Cycle now)
{
    ++work_.allocs;
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

    const int ivc = inVcId(inPort, vcIdx);
    const std::uint64_t bit = std::uint64_t{1} << ivc;
    OutPort &out = outs_[bestPort];
    vc.active = true;
    vc.outPort = bestPort;
    vc.outVC = bestVC;
    unrouted_ &= ~bit;
    requested_ |= std::uint64_t{1} << bestPort;
    if (out.credits[bestVC] > 0)
        ready_ |= bit;
    out.owner[bestVC] = ivc;
    out.routed |= bit;
    out.reqs.push_back( // nifdy:alloc-ok(vector capacity persists at numVCs high-water)
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
    // Without the congestion observatory, whose linkStall events
    // need every refusal, skip an output where nothing can move: no
    // ready request, or a serializer busy for both classes.
    const bool everyOutput = probes_->congestion() != nullptr;

    for (std::uint64_t m = requested_; m; m &= m - 1) {
        int op = std::countr_zero(m);
        OutPort &out = outs_[op];
        if (!everyOutput &&
            (!(out.routed & ready_) || !out.ch->canPushAny(now)))
            continue;
        int nReqs = static_cast<int>(out.reqs.size());
        // Round-robin over the input VCs routed to this output,
        // starting at rr mod nReqs (rr may exceed nReqs by one after
        // a tail left the list).
        int slot = out.rr;
        while (slot >= nReqs)
            slot -= nReqs;
        for (int k = 0; k < nReqs;
             ++k, slot = slot + 1 == nReqs ? 0 : slot + 1) {
            ++work_.requests;
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
            const std::uint64_t bit = std::uint64_t{1}
                                      << inVcId(req.port, req.vc);
            if (f.tail || vc.buf.empty() || out.credits[vc.outVC] == 0)
                ready_ &= ~bit;
            if (f.tail) {
                out.owner[vc.outVC] = -1;
                out.routed &= ~bit;
                vc.active = false;
                vc.outPort = -1;
                vc.outVC = -1;
                out.reqs.erase(out.reqs.begin() + slot);
                if (out.reqs.empty())
                    requested_ &= ~(std::uint64_t{1} << op);
                // The next packet's head, already buffered behind
                // the tail, is routed next cycle; so are the parked
                // heads, one of which may take the freed output VC.
                if (!vc.buf.empty() && vc.buf.front().head)
                    unrouted_ |= bit;
                unrouted_ |= parked_;
                parked_ = 0;
            }
            inUsed |= portBit;
            out.rr = slot + 1;
            break; // this output port is busy now
        }
    }
}

} // namespace nifdy
