/**
 * @file
 * 2D mesh topology: node/coordinate mapping, port directions, and
 * minimal-path queries used by every routing algorithm.
 */

#ifndef FOOTPRINT_TOPO_MESH_HPP
#define FOOTPRINT_TOPO_MESH_HPP

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace footprint {

/**
 * Router port directions in a 2D mesh.
 *
 * East/West move along +x/-x, North/South along +y/-y, and Local is the
 * injection/ejection port connecting a router to its endpoint node.
 */
enum class Dir : int {
    East = 0,
    West = 1,
    North = 2,
    South = 3,
    Local = 4,
};

/** Number of router ports in a 2D mesh (4 mesh directions + local). */
inline constexpr int kNumPorts = 5;

/** @return the port index for a direction. */
inline constexpr int portOf(Dir d) { return static_cast<int>(d); }

/** @return the direction for a port index in [0, kNumPorts). */
Dir dirOf(int port);

/** @return the opposite mesh direction (East<->West, North<->South). */
Dir opposite(Dir d);

/** @return short human-readable name ("E", "W", "N", "S", "L"). */
std::string dirName(Dir d);

/** Integer (x, y) coordinate of a mesh node. */
struct Coord
{
    int x = 0;
    int y = 0;

    bool operator==(const Coord&) const = default;
};

/**
 * A width x height 2D mesh.
 *
 * Node ids are row-major: id = y * width + x, matching the node
 * numbering in the paper's figures (n0 .. n15 for a 4x4 mesh).
 *
 * The coordinate of every node is tabulated once at construction, so
 * the per-cycle routing queries (coordOf, minimalDirsInto, neighbor)
 * are inline table reads with no integer division (DESIGN.md §19).
 */
class Mesh
{
  public:
    Mesh(int width, int height);

    int width() const { return width_; }
    int height() const { return height_; }
    int numNodes() const { return width_ * height_; }

    /** @return the node id at @p c. */
    int nodeId(Coord c) const;

    /** @return the coordinate of @p node; panics outside the mesh. */
    Coord
    coordOf(int node) const
    {
        if (static_cast<unsigned>(node)
            >= static_cast<unsigned>(coords_.size())) [[unlikely]]
            nodeOutOfMesh(node);
        return coords_[static_cast<std::size_t>(node)];
    }

    /** @return true if moving from @p node in direction @p d stays
     * inside the mesh. */
    bool
    hasNeighbor(int node, Dir d) const
    {
        const Coord c = coordOf(node);
        switch (d) {
          case Dir::East: return c.x + 1 < width_;
          case Dir::West: return c.x > 0;
          case Dir::North: return c.y + 1 < height_;
          case Dir::South: return c.y > 0;
          case Dir::Local: break;
        }
        return false;
    }

    /** @return the neighboring node id (requires hasNeighbor). */
    int
    neighbor(int node, Dir d) const
    {
        if (!hasNeighbor(node, d)) [[unlikely]]
            noNeighbor(d);
        switch (d) {
          case Dir::East: return node + 1;
          case Dir::West: return node - 1;
          case Dir::North: return node + width_;
          case Dir::South: return node - width_;
          case Dir::Local: break;
        }
        return node;
    }

    /** @return minimal hop count between two nodes (Manhattan). */
    int hopDistance(int a, int b) const;

    /**
     * Minimal productive mesh directions from @p cur towards @p dest
     * (0, 1, or 2 entries; empty when cur == dest).
     */
    std::vector<Dir> minimalDirs(int cur, int dest) const;

    /**
     * Allocation-free variant of minimalDirs for the router critical
     * path: fills @p out and returns the direction count (0..2).
     */
    int
    minimalDirsInto(int cur, int dest, Dir out[2]) const
    {
        const Coord cc = coordOf(cur);
        const Coord cd = coordOf(dest);
        int n = 0;
        if (cd.x > cc.x)
            out[n++] = Dir::East;
        else if (cd.x < cc.x)
            out[n++] = Dir::West;
        if (cd.y > cc.y)
            out[n++] = Dir::North;
        else if (cd.y < cc.y)
            out[n++] = Dir::South;
        return n;
    }

    /**
     * Number of distinct minimal paths between two nodes,
     * C(|dx|+|dy|, |dx|) — used by the adaptiveness metrics.
     */
    double numMinimalPaths(int a, int b) const;

  private:
    [[noreturn]] static void nodeOutOfMesh(int node);
    [[noreturn]] static void noNeighbor(Dir d);

    int width_;
    int height_;
    std::vector<Coord> coords_;  ///< coords_[id] = (id % w, id / w)
};

} // namespace footprint

#endif // FOOTPRINT_TOPO_MESH_HPP
