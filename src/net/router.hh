/**
 * @file
 * Input-queued virtual-channel router.
 *
 * The router implements wormhole / virtual cut-through switching
 * with credit-based link-level flow control, per-VC buffers (default
 * depth 2 flits, per the paper), per-packet route computation at the
 * head flit, and round-robin switch arbitration. Topologies derive
 * from Router and provide route(): the list of candidate output
 * ports in preference order, optionally adaptive (the router then
 * prefers the candidate with the most downstream credits, breaking
 * ties pseudo-randomly).
 *
 * The two logical networks (request/reply) are disjoint VC classes:
 * a packet only ever occupies VCs of its own class.
 *
 * A step touches only work that can move at `now`: an arrival wheel
 * names the input ports whose flit becomes visible, 64-bit masks name
 * the output channels holding credits, the input VCs holding an
 * unrouted head, the routed input VCs ready to switch (a flit and a
 * downstream credit) and the outputs with switch requests, and each
 * phase walks only the set bits, in ascending order. A head that
 * finds no free output VC parks until a tail frees one (DESIGN.md
 * section 2.2).
 */

#ifndef NIFDY_NET_ROUTER_HH
#define NIFDY_NET_ROUTER_HH

#include <vector>

#include "net/channel.hh"
#include "sim/kernel.hh"
#include "sim/ring.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace nifdy
{

class FaultInjector;

/** Static router configuration. */
struct RouterParams
{
    /** Virtual channels per logical network class. */
    int vcsPerClass = 1;
    /** Flit buffer depth per VC. */
    int bufDepth = 2;
    /**
     * Store-and-forward: a packet may leave only after its tail flit
     * has been buffered (requires bufDepth >= packet flits).
     */
    bool storeAndForward = false;
    /**
     * Only allocate an output VC that has a credit right now, so a
     * blocked head keeps its choice open each cycle. Required for
     * Duato-style adaptive routing: a packet waiting on adaptive
     * channels must remain able to take the escape channel the
     * moment it frees.
     */
    bool allocNeedsCredit = false;
    /** Seed for arbitration tie-breaking. */
    std::uint64_t seed = 1;
};

class Router : public Steppable
{
  public:
    Router(int id, const RouterParams &params);
    ~Router() override = default;
    /** Attached channels point at this router's pending masks. */
    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    const char *profileClass() const override { return "router"; }

    /**
     * Attach an incoming channel; returns the input port index.
     * fatal() past maxMaskBits input VCs (ports x VCs).
     */
    int addInPort(Channel *ch);

    /**
     * Attach an outgoing channel whose consumer has @p depth flit
     * buffers per VC; returns the output port index. fatal() past
     * maxMaskBits output ports.
     */
    int addOutPort(Channel *ch, int depth);

    /** Width of the pending-work masks: the most input VCs, and the
     * most output ports, one router can have. */
    static constexpr int maxMaskBits = 64;

    void step(Cycle now) override;

    /** Router id (topology-assigned, for debugging). */
    int id() const { return id_; }

    int numInPorts() const { return static_cast<int>(ins_.size()); }
    int numOutPorts() const { return static_cast<int>(outs_.size()); }
    int numVCs() const { return numVCs_; }
    const RouterParams &params() const { return params_; }

    /** Total credits currently available on an output port. */
    int creditsAvailable(int outPort, NetClass cls) const;

    /** Buffered flit count (for tests and volume accounting). */
    int bufferedFlits() const { return bufferedFlits_; }

    /** Flits forwarded through the switch in total. */
    std::uint64_t flitsSwitched() const { return flitsSwitched_; }

    /** Deterministic work counts (bench_kernel's work.* metrics). */
    struct Work
    {
        std::uint64_t inputs = 0;   //!< input ports visited for flits
        std::uint64_t allocs = 0;   //!< tryAllocate() calls
        std::uint64_t requests = 0; //!< switch requests examined
    };
    const Work &work() const { return work_; }

    //! @name Pending-work bits (for tests)
    //! @{
    const ArrivalWheel &arrivals() const { return arrivals_; }
    std::uint64_t creditsPending() const { return creditsPending_; }
    std::uint64_t unrouted() const { return unrouted_; }
    std::uint64_t parked() const { return parked_; }
    std::uint64_t ready() const { return ready_; }
    //! @}

    /** Attach the kernel for activity reporting, and its probe bus
     * for observer events. */
    void setKernel(Kernel *k)
    {
        kernel_ = k;
        probes_ = &k->probes();
    }

    /**
     * Register a fault injector whose filterArrival() screens every
     * flit this router absorbs (nullptr disables). The injector must
     * outlive the router.
     */
    void setFaultInjector(FaultInjector *f) { faults_ = f; }

    /** The channel attached to output port @p outPort. */
    Channel *outChannel(int outPort) const
    {
        return outs_[outPort].ch;
    }

    /** Total buffer capacity in flits (volume accounting). */
    int bufferCapacityFlits() const;

  protected:
    /**
     * Compute candidate output ports for @p pkt arriving on
     * @p inPort, in preference order.
     *
     * @return true when the choice is adaptive (the router should
     * pick the candidate with the most credits), false when the
     * first allocatable candidate must be used.
     */
    virtual bool route(int inPort, Packet &pkt,
                       std::vector<int> &candidates) = 0;

    /**
     * Bitmask of sub-VCs (within the packet's class) usable on
     * @p outPort. Default: all. The torus restricts to the dateline
     * VC; the adaptive mesh restricts non-minimal-order ports to
     * the adaptive VC.
     */
    virtual unsigned vcMaskForHop(int outPort, Packet &pkt);

    /** Hook fired when a head flit wins (outPort, sub-VC). */
    virtual void onAllocate(Packet &pkt, int outPort, int subVc);

    Rng rng_;

  private:
    struct VirtChan
    {
        Ring<Flit> buf;
        bool active = false; //!< owns a route for the packet in buf
        int outPort = -1;
        int outVC = -1;
    };

    struct InPort
    {
        Channel *ch = nullptr;
        std::vector<VirtChan> vcs;
    };

    /** A switch request: input VC @p vc of input port @p port. */
    struct Req
    {
        std::int16_t port;
        std::int16_t vc;
    };

    struct OutPort
    {
        Channel *ch = nullptr;
        std::vector<int> credits; //!< per downstream VC
        std::vector<int> owner;   //!< per VC: owning input VC id or -1
        std::vector<Req> reqs;    //!< input VCs routed here, in order
        std::uint64_t routed = 0; //!< the same input VCs, as bits
        int rr = 0;               //!< round-robin arbitration pointer
    };

    /** Flat id of (inPort, vc): its bit in the input VC masks. */
    int inVcId(int port, int vc) const { return port * numVCs_ + vc; }

    bool tryAllocate(int inPort, int vc, Cycle now);
    /** May the head whose tryAllocate() just failed wait for a tail
     * to free an output VC, instead of retrying every cycle? */
    bool mayPark() const;
    void switchPass(Cycle now);

    int id_;
    RouterParams params_;
    int numVCs_;
    std::vector<InPort> ins_;
    std::vector<OutPort> outs_;
    int bufferedFlits_ = 0;
    std::uint64_t flitsSwitched_ = 0;
    Work work_;
    Kernel *kernel_ = nullptr;
    const Probes *probes_ = &noProbes;
    FaultInjector *faults_ = nullptr;
    std::vector<int> candidateScratch_;

    //! @name Pending-work bits (bit i = port or flat input VC i)
    //! @{
    /** Input ports by the cycle their next flit becomes visible
     * (the input channels mark it). */
    ArrivalWheel arrivals_;
    /** Output ports whose channel holds credits (Channel maintains). */
    std::uint64_t creditsPending_ = 0;
    /** Input VCs whose front flit is a head to allocate this cycle. */
    std::uint64_t unrouted_ = 0;
    /** Input VCs whose head found no free output VC; they return to
     * unrouted_ when a tail frees one. */
    std::uint64_t parked_ = 0;
    /** Routed input VCs holding a flit whose output VC has a
     * credit. */
    std::uint64_t ready_ = 0;
    /** Output ports with a non-empty request list. */
    std::uint64_t requested_ = 0;
    //! @}
};

} // namespace nifdy

#endif // NIFDY_NET_ROUTER_HH
