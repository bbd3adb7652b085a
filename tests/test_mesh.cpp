/**
 * @file
 * Unit and property tests for the 2D mesh topology.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "expect_panic.hpp"
#include "topo/mesh.hpp"

namespace footprint {
namespace {

TEST(Dir, PortRoundTrip)
{
    for (int p = 0; p < kNumPorts; ++p)
        EXPECT_EQ(portOf(dirOf(p)), p);
}

TEST(Dir, Opposites)
{
    EXPECT_EQ(opposite(Dir::East), Dir::West);
    EXPECT_EQ(opposite(Dir::West), Dir::East);
    EXPECT_EQ(opposite(Dir::North), Dir::South);
    EXPECT_EQ(opposite(Dir::South), Dir::North);
}

TEST(Dir, Names)
{
    EXPECT_EQ(dirName(Dir::East), "E");
    EXPECT_EQ(dirName(Dir::West), "W");
    EXPECT_EQ(dirName(Dir::North), "N");
    EXPECT_EQ(dirName(Dir::South), "S");
    EXPECT_EQ(dirName(Dir::Local), "L");
}

TEST(Mesh, NodeCoordRoundTrip4x4)
{
    const Mesh mesh(4, 4);
    for (int n = 0; n < mesh.numNodes(); ++n)
        EXPECT_EQ(mesh.nodeId(mesh.coordOf(n)), n);
}

TEST(Mesh, RowMajorNumberingMatchesPaperFigures)
{
    // Figure 2 uses a 4x4 mesh with n0..n15 row-major: n10 = (2, 2),
    // n13 = (1, 3), n15 = (3, 3).
    const Mesh mesh(4, 4);
    EXPECT_EQ(mesh.coordOf(10), (Coord{2, 2}));
    EXPECT_EQ(mesh.coordOf(13), (Coord{1, 3}));
    EXPECT_EQ(mesh.coordOf(15), (Coord{3, 3}));
    EXPECT_EQ(mesh.nodeId(Coord{0, 0}), 0);
}

TEST(Mesh, CoordinateTableMatchesDivMod)
{
    // The coordinate table and everything read from it (neighbor,
    // minimalDirsInto) must equal the row-major div/mod definition on
    // non-square and one-dimensional grids too.
    for (const auto& [w, h] :
         {std::pair{5, 3}, std::pair{3, 5}, std::pair{1, 7},
          std::pair{7, 1}, std::pair{2, 2}}) {
        const Mesh mesh(w, h);
        for (int n = 0; n < mesh.numNodes(); ++n) {
            const Coord c{n % w, n / w};
            EXPECT_EQ(mesh.coordOf(n), c) << w << "x" << h << " n" << n;
            EXPECT_EQ(mesh.hasNeighbor(n, Dir::East), c.x + 1 < w);
            EXPECT_EQ(mesh.hasNeighbor(n, Dir::West), c.x > 0);
            EXPECT_EQ(mesh.hasNeighbor(n, Dir::North), c.y + 1 < h);
            EXPECT_EQ(mesh.hasNeighbor(n, Dir::South), c.y > 0);
            EXPECT_FALSE(mesh.hasNeighbor(n, Dir::Local));
            if (c.x + 1 < w) {
                EXPECT_EQ(mesh.neighbor(n, Dir::East), n + 1);
            }
            if (c.y > 0) {
                EXPECT_EQ(mesh.neighbor(n, Dir::South), n - w);
            }
            for (int d = 0; d < mesh.numNodes(); ++d) {
                const Coord cd{d % w, d / w};
                std::vector<Dir> want;
                if (cd.x != c.x)
                    want.push_back(cd.x > c.x ? Dir::East : Dir::West);
                if (cd.y != c.y)
                    want.push_back(cd.y > c.y ? Dir::North : Dir::South);
                Dir got[2];
                const int k = mesh.minimalDirsInto(n, d, got);
                EXPECT_EQ(std::vector<Dir>(got, got + k), want);
            }
        }
    }
}

TEST(Mesh, OutOfRangeNodeStillPanics)
{
    const Mesh mesh(5, 3);
    EXPECT_PANIC(mesh.coordOf(-1), "node id out of mesh");
    EXPECT_PANIC(mesh.coordOf(15), "node id out of mesh");
    Dir dirs[2];
    EXPECT_PANIC(mesh.minimalDirsInto(0, 15, dirs),
                 "node id out of mesh");
    EXPECT_PANIC(mesh.neighbor(4, Dir::East), "no neighbor");
    EXPECT_PANIC(mesh.neighbor(0, Dir::Local), "no neighbor");
}

TEST(Mesh, RectangularMesh)
{
    const Mesh mesh(4, 2);
    EXPECT_EQ(mesh.numNodes(), 8);
    EXPECT_EQ(mesh.coordOf(5), (Coord{1, 1}));
}

TEST(Mesh, NeighborsInterior)
{
    const Mesh mesh(4, 4);
    const int n = mesh.nodeId(Coord{1, 1}); // node 5
    EXPECT_EQ(mesh.neighbor(n, Dir::East), mesh.nodeId(Coord{2, 1}));
    EXPECT_EQ(mesh.neighbor(n, Dir::West), mesh.nodeId(Coord{0, 1}));
    EXPECT_EQ(mesh.neighbor(n, Dir::North), mesh.nodeId(Coord{1, 2}));
    EXPECT_EQ(mesh.neighbor(n, Dir::South), mesh.nodeId(Coord{1, 0}));
}

TEST(Mesh, EdgesHaveNoNeighborOutside)
{
    const Mesh mesh(4, 4);
    EXPECT_FALSE(mesh.hasNeighbor(0, Dir::West));
    EXPECT_FALSE(mesh.hasNeighbor(0, Dir::South));
    EXPECT_TRUE(mesh.hasNeighbor(0, Dir::East));
    EXPECT_TRUE(mesh.hasNeighbor(0, Dir::North));
    EXPECT_FALSE(mesh.hasNeighbor(15, Dir::East));
    EXPECT_FALSE(mesh.hasNeighbor(15, Dir::North));
}

TEST(Mesh, LocalIsNeverANeighbor)
{
    const Mesh mesh(4, 4);
    for (int n = 0; n < 16; ++n)
        EXPECT_FALSE(mesh.hasNeighbor(n, Dir::Local));
}

TEST(Mesh, NeighborIsSymmetric)
{
    const Mesh mesh(5, 3);
    for (int n = 0; n < mesh.numNodes(); ++n) {
        for (Dir d :
             {Dir::East, Dir::West, Dir::North, Dir::South}) {
            if (!mesh.hasNeighbor(n, d))
                continue;
            const int m = mesh.neighbor(n, d);
            EXPECT_EQ(mesh.neighbor(m, opposite(d)), n);
        }
    }
}

TEST(Mesh, HopDistanceIsManhattan)
{
    const Mesh mesh(8, 8);
    EXPECT_EQ(mesh.hopDistance(0, 63), 14);
    EXPECT_EQ(mesh.hopDistance(0, 0), 0);
    EXPECT_EQ(mesh.hopDistance(0, 7), 7);
    EXPECT_EQ(mesh.hopDistance(7, 0), 7);
    EXPECT_EQ(mesh.hopDistance(0, 9), 2);
}

TEST(Mesh, MinimalDirsPointTowardsDest)
{
    const Mesh mesh(8, 8);
    for (int s = 0; s < 64; ++s) {
        for (int d = 0; d < 64; ++d) {
            const auto dirs = mesh.minimalDirs(s, d);
            if (s == d) {
                EXPECT_TRUE(dirs.empty());
                continue;
            }
            EXPECT_GE(dirs.size(), 1u);
            EXPECT_LE(dirs.size(), 2u);
            for (Dir dir : dirs) {
                const int next = mesh.neighbor(s, dir);
                EXPECT_EQ(mesh.hopDistance(next, d),
                          mesh.hopDistance(s, d) - 1)
                    << "non-minimal direction from " << s << " to "
                    << d;
            }
        }
    }
}

TEST(Mesh, MinimalDirsIntoMatchesVectorVersion)
{
    const Mesh mesh(6, 5);
    Dir buf[2];
    for (int s = 0; s < mesh.numNodes(); ++s) {
        for (int d = 0; d < mesh.numNodes(); ++d) {
            const auto vec = mesh.minimalDirs(s, d);
            const int n = mesh.minimalDirsInto(s, d, buf);
            ASSERT_EQ(static_cast<std::size_t>(n), vec.size());
            for (int i = 0; i < n; ++i)
                EXPECT_EQ(buf[i], vec[static_cast<std::size_t>(i)]);
        }
    }
}

TEST(Mesh, NumMinimalPathsKnownValues)
{
    const Mesh mesh(8, 8);
    // Same row/column: exactly one minimal path.
    EXPECT_DOUBLE_EQ(mesh.numMinimalPaths(0, 7), 1.0);
    EXPECT_DOUBLE_EQ(mesh.numMinimalPaths(0, 56), 1.0);
    // 1x1 offset: two paths.
    EXPECT_DOUBLE_EQ(mesh.numMinimalPaths(0, 9), 2.0);
    // Corner to corner on 8x8: C(14, 7) = 3432.
    EXPECT_DOUBLE_EQ(mesh.numMinimalPaths(0, 63), 3432.0);
    // Symmetric.
    EXPECT_DOUBLE_EQ(mesh.numMinimalPaths(63, 0), 3432.0);
}

TEST(Mesh, TooSmallMeshIsFatal)
{
    EXPECT_EXIT(Mesh(1, 1), testing::ExitedWithCode(1),
                "at least 2 nodes");
}

TEST(Mesh, OneDimensionalGridsAreLegal)
{
    // N x 1 grids back the ring topology.
    const Mesh row(4, 1);
    EXPECT_EQ(row.numNodes(), 4);
    EXPECT_TRUE(row.hasNeighbor(0, Dir::East));
    EXPECT_FALSE(row.hasNeighbor(0, Dir::North));
    EXPECT_FALSE(row.hasNeighbor(3, Dir::East));
    const Mesh col(1, 3);
    EXPECT_EQ(col.numNodes(), 3);
    EXPECT_TRUE(col.hasNeighbor(0, Dir::North));
    EXPECT_FALSE(col.hasNeighbor(0, Dir::East));
}

class MeshSizeTest : public testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(MeshSizeTest, AllNodesHaveTwoToFourNeighbors)
{
    const auto [w, h] = GetParam();
    const Mesh mesh(w, h);
    for (int n = 0; n < mesh.numNodes(); ++n) {
        int count = 0;
        for (Dir d :
             {Dir::East, Dir::West, Dir::North, Dir::South}) {
            if (mesh.hasNeighbor(n, d))
                ++count;
        }
        EXPECT_GE(count, 2);
        EXPECT_LE(count, 4);
    }
}

TEST_P(MeshSizeTest, DistanceTriangleInequality)
{
    const auto [w, h] = GetParam();
    const Mesh mesh(w, h);
    const int n = mesh.numNodes();
    for (int a = 0; a < n; a += 3) {
        for (int b = 0; b < n; b += 3) {
            for (int c = 0; c < n; c += 3) {
                EXPECT_LE(mesh.hopDistance(a, c),
                          mesh.hopDistance(a, b)
                              + mesh.hopDistance(b, c));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MeshSizeTest,
                         testing::Values(std::pair{4, 4}, std::pair{8, 8},
                                         std::pair{16, 16},
                                         std::pair{4, 8}));

} // namespace
} // namespace footprint
