/**
 * @file
 * k-ary n-dimensional mesh and torus with dimension-order wormhole
 * routing. The torus uses a second ("dateline") VC per class for
 * deadlock freedom, as in [Dal90].
 */

#ifndef NIFDY_NET_MESH_HH
#define NIFDY_NET_MESH_HH

#include "net/topology.hh"

namespace nifdy
{

class MeshNetwork;

/** One mesh/torus router; node-addressed, one router per node. */
class MeshRouter : public Router
{
  public:
    MeshRouter(int id, const RouterParams &rp, const MeshNetwork &net);

  protected:
    bool route(int inPort, Packet &pkt,
               std::vector<int> &candidates) override;
    unsigned vcMaskForHop(int outPort, Packet &pkt) override;
    void onAllocate(Packet &pkt, int outPort, int subVc) override;

  private:
    /** The dimension-order (escape) port toward pkt's destination,
     * or the ejection port when the packet has arrived. */
    int dorPort(const Packet &pkt) const;

    const MeshNetwork &net_;
    std::vector<int> coord_;
};

/**
 * Mesh/torus. Output/input port layout per router:
 * ports 2d (plus direction) and 2d+1 (minus direction) for each
 * dimension d, then the ejection (output) / injection (input) port.
 */
class MeshNetwork : public Network
{
  public:
    explicit MeshNetwork(const NetworkParams &params);

    std::string name() const override;
    int distance(NodeId a, NodeId b) const override;

    int numDims() const { return static_cast<int>(params_.dims.size()); }
    int dimSize(int d) const { return params_.dims[d]; }
    bool wrap() const { return params_.wrap; }
    /** Duato-style minimal adaptive routing (escape VC 0)? */
    bool adaptive() const { return params_.adaptiveRouting; }

    std::vector<int> coordOf(NodeId n) const;
    NodeId nodeOf(const std::vector<int> &coord) const;
    /** Coordinate @p d of node @p n (coordOf(n)[d], without the
     * vector: routers ask on every route()). */
    int coord(NodeId n, int d) const
    {
        return n / stride_[d] % params_.dims[d];
    }

    /** Port index helpers. */
    int portPlus(int d) const { return 2 * d; }
    int portMinus(int d) const { return 2 * d + 1; }
    int ejectPort() const { return 2 * numDims(); }
    int injectPort() const { return 2 * numDims(); }

  private:
    void build();

    /** Nodes per step of each dimension's coordinate. */
    std::vector<int> stride_;
};

} // namespace nifdy

#endif // NIFDY_NET_MESH_HH
