#include "topo/mesh.hpp"

#include <cmath>
#include <cstdlib>

#include "sim/log.hpp"

namespace footprint {

Dir
dirOf(int port)
{
    FP_ASSERT(port >= 0 && port < kNumPorts, "bad port index " << port);
    return static_cast<Dir>(port);
}

Dir
opposite(Dir d)
{
    switch (d) {
      case Dir::East: return Dir::West;
      case Dir::West: return Dir::East;
      case Dir::North: return Dir::South;
      case Dir::South: return Dir::North;
      case Dir::Local: break;
    }
    FP_PANIC("opposite() of Local port is undefined");
}

std::string
dirName(Dir d)
{
    switch (d) {
      case Dir::East: return "E";
      case Dir::West: return "W";
      case Dir::North: return "N";
      case Dir::South: return "S";
      case Dir::Local: return "L";
    }
    return "?";
}

Mesh::Mesh(int width, int height) : width_(width), height_(height)
{
    // 1-D grids (N x 1 / 1 x N) back the ring topology; anything with
    // fewer than two nodes has no links to route over.
    if (width < 1 || height < 1 || width * height < 2)
        fatal("mesh must have at least 2 nodes");
    coords_.reserve(static_cast<std::size_t>(width * height));
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x)
            coords_.push_back(Coord{x, y});
    }
}

int
Mesh::nodeId(Coord c) const
{
    FP_ASSERT(c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_,
              "coordinate out of mesh");
    return c.y * width_ + c.x;
}

void
Mesh::nodeOutOfMesh(int node)
{
    FP_PANIC("node id out of mesh: " + std::to_string(node));
}

void
Mesh::noNeighbor(Dir d)
{
    FP_PANIC("no neighbor in direction " + dirName(d));
}

int
Mesh::hopDistance(int a, int b) const
{
    const Coord ca = coordOf(a);
    const Coord cb = coordOf(b);
    return std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
}

std::vector<Dir>
Mesh::minimalDirs(int cur, int dest) const
{
    Dir buf[2];
    const int n = minimalDirsInto(cur, dest, buf);
    return std::vector<Dir>(buf, buf + n);
}

double
Mesh::numMinimalPaths(int a, int b) const
{
    const Coord ca = coordOf(a);
    const Coord cb = coordOf(b);
    const int dx = std::abs(ca.x - cb.x);
    const int dy = std::abs(ca.y - cb.y);
    // C(dx + dy, dx), computed multiplicatively in doubles; mesh
    // distances are small enough that this is exact.
    double result = 1.0;
    for (int i = 1; i <= dx; ++i)
        result = result * static_cast<double>(dy + i)
            / static_cast<double>(i);
    return result;
}

} // namespace footprint
