/**
 * @file
 * Property tests for the blossom matcher: structural validity plus
 * optimality against the brute-force subset-DP oracle on hundreds of
 * random instances, including the boundary-twin construction used by
 * the MWPM decoder; sparse and infeasible graphs and larger instances
 * against the dense reference solver; hand-built instances that force
 * nested blossoms and their expansion; a pin on the exact trajectory
 * (mates, dual steps, augmentations, blossoms) over a seeded corpus;
 * the optimality-certificate and due-time audits; and maximum-weight
 * semantics (exposed vertices, the decoder's savings graph) against
 * brute force.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "matching/blossom.hpp"
#include "matching/exact.hpp"
#include "surface/distance.hpp"
#include "surface/lattice.hpp"
#include "dense_blossom.hpp"
#include "matching_test_util.hpp"

namespace btwc {

namespace {

using Peer = MaxWeightMatchingTestPeer;

/** Random dense symmetric weight matrix with entries in [1, max_w]. */
std::vector<std::vector<int64_t>>
random_weights(int n, int64_t max_w, Rng &rng)
{
    std::vector<std::vector<int64_t>> w(n, std::vector<int64_t>(n, -1));
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            const int64_t value =
                1 + static_cast<int64_t>(rng.next_below(max_w));
            w[u][v] = value;
            w[v][u] = value;
        }
    }
    return w;
}

int64_t
matching_weight(const std::vector<int> &mate,
                const std::vector<std::vector<int64_t>> &w)
{
    int64_t total = 0;
    for (size_t u = 0; u < mate.size(); ++u) {
        const int v = mate[u];
        if (v >= 0 && static_cast<size_t>(v) > u) {
            total += w[u][v];
        }
    }
    return total;
}

void
expect_valid_perfect(const std::vector<int> &mate)
{
    for (size_t u = 0; u < mate.size(); ++u) {
        ASSERT_GE(mate[u], 0) << "vertex " << u << " unmatched";
        ASSERT_NE(static_cast<size_t>(mate[u]), u);
        EXPECT_EQ(mate[mate[u]], static_cast<int>(u));
    }
}

TEST(Blossom, TwoVertices)
{
    std::vector<std::vector<int64_t>> w = {{-1, 7}, {7, -1}};
    const auto mate = min_weight_perfect_matching(2, w);
    expect_valid_perfect(mate);
    EXPECT_EQ(mate[0], 1);
}

TEST(Blossom, PrefersCheapPairing)
{
    // 0-1 and 2-3 cost 2; the crossing pairings cost 200.
    std::vector<std::vector<int64_t>> w(4, std::vector<int64_t>(4, 100));
    w[0][1] = w[1][0] = 1;
    w[2][3] = w[3][2] = 1;
    for (int i = 0; i < 4; ++i) {
        w[i][i] = -1;
    }
    const auto mate = min_weight_perfect_matching(4, w);
    expect_valid_perfect(mate);
    EXPECT_EQ(mate[0], 1);
    EXPECT_EQ(mate[2], 3);
    EXPECT_EQ(matching_weight(mate, w), 2);
}

TEST(Blossom, ZeroWeightEdgesUsable)
{
    std::vector<std::vector<int64_t>> w(4, std::vector<int64_t>(4, 50));
    w[0][1] = w[1][0] = 0;
    w[2][3] = w[3][2] = 0;
    for (int i = 0; i < 4; ++i) {
        w[i][i] = -1;
    }
    const auto mate = min_weight_perfect_matching(4, w);
    expect_valid_perfect(mate);
    EXPECT_EQ(matching_weight(mate, w), 0);
}

TEST(Blossom, InfeasibleReturnsEmpty)
{
    // A vertex with no edges cannot be matched.
    std::vector<std::vector<int64_t>> w(4, std::vector<int64_t>(4, -1));
    w[0][1] = w[1][0] = 1;
    const auto mate = min_weight_perfect_matching(4, w);
    EXPECT_TRUE(mate.empty());
}

class BlossomRandom
    : public ::testing::TestWithParam<std::pair<int, int64_t>>
{
};

TEST_P(BlossomRandom, MatchesExactOracleOnDenseGraphs)
{
    const auto [n, max_w] = GetParam();
    Rng rng(1000 + n + max_w);
    for (int iter = 0; iter < 60; ++iter) {
        const auto w = random_weights(n, max_w, rng);
        const auto mate = min_weight_perfect_matching(n, w);
        expect_valid_perfect(mate);
        const int64_t got = matching_weight(mate, w);
        const int64_t want = exact_min_weight_perfect(n, w);
        ASSERT_EQ(got, want) << "n=" << n << " iter=" << iter;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlossomRandom,
    ::testing::Values(std::make_pair(4, 10), std::make_pair(6, 5),
                      std::make_pair(8, 8), std::make_pair(10, 4),
                      std::make_pair(10, 50), std::make_pair(12, 6),
                      std::make_pair(14, 3), std::make_pair(14, 100)));

class BlossomSparse : public ::testing::TestWithParam<int>
{
};

TEST_P(BlossomSparse, MatchesOracleWithMissingEdges)
{
    const int n = GetParam();
    Rng rng(77 + n);
    int solved = 0;
    for (int iter = 0; iter < 80; ++iter) {
        auto w = random_weights(n, 9, rng);
        // Drop ~40% of edges; keep a Hamilton cycle so perfect
        // matchings always exist.
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                const bool on_cycle =
                    (v == u + 1) || (u == 0 && v == n - 1);
                if (!on_cycle && rng.bernoulli(0.4)) {
                    w[u][v] = -1;
                    w[v][u] = -1;
                }
            }
        }
        const auto mate = min_weight_perfect_matching(n, w);
        ASSERT_FALSE(mate.empty());
        expect_valid_perfect(mate);
        for (size_t u = 0; u < mate.size(); ++u) {
            ASSERT_GE(w[u][mate[u]], 0) << "matched a missing edge";
        }
        ASSERT_EQ(matching_weight(mate, w), exact_min_weight_perfect(n, w));
        ++solved;
    }
    EXPECT_EQ(solved, 80);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlossomSparse,
                         ::testing::Values(4, 6, 8, 10, 12));

TEST(Blossom, BoundaryTwinConstructionMatchesOracle)
{
    // The exact structure the MWPM decoder once built: k defects with
    // pairwise distances, k boundary twins, twin-twin edges free. The
    // tie-heavy inputs set about half the distances to b_i + b_j, where
    // pairing and retiring cost the same.
    Rng rng(4242);
    for (int iter = 0; iter < 180; ++iter) {
        const bool ties = iter >= 120;
        const int k = 2 + static_cast<int>(rng.next_below(7));
        std::vector<std::vector<int64_t>> dist(
            k, std::vector<int64_t>(k, -1));
        std::vector<int64_t> boundary(k);
        for (int i = 0; ties && i < k; ++i) {
            boundary[i] = 1 + static_cast<int64_t>(rng.next_below(12));
        }
        for (int i = 0; i < k; ++i) {
            if (!ties) {
                boundary[i] = 1 + static_cast<int64_t>(rng.next_below(12));
            }
            for (int j = i + 1; j < k; ++j) {
                int64_t v = 1 + static_cast<int64_t>(rng.next_below(12));
                if (ties && rng.bernoulli(0.5)) {
                    v = boundary[i] + boundary[j];
                }
                dist[i][j] = v;
                dist[j][i] = v;
            }
        }
        const int n = 2 * k;
        std::vector<std::vector<int64_t>> w(n,
                                            std::vector<int64_t>(n, -1));
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                w[i][j] = w[j][i] = dist[i][j];
                w[k + i][k + j] = w[k + j][k + i] = 0;
            }
            w[i][k + i] = w[k + i][i] = boundary[i];
        }
        const auto mate = min_weight_perfect_matching(n, w);
        expect_valid_perfect(mate);
        const int64_t got = matching_weight(mate, w);
        const int64_t want =
            exact_min_weight_with_boundary(k, dist, boundary);
        ASSERT_EQ(got, want) << "k=" << k << " iter=" << iter;
    }
}

/** Random symmetric graph keeping each edge with probability `keep`. */
std::vector<std::vector<int64_t>>
random_sparse_weights(int n, double keep, int64_t max_w, Rng &rng)
{
    std::vector<std::vector<int64_t>> w(n, std::vector<int64_t>(n, -1));
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            if (rng.bernoulli(keep)) {
                w[u][v] = w[v][u] =
                    static_cast<int64_t>(rng.next_below(max_w + 1));
            }
        }
    }
    return w;
}

TEST(BlossomSparseGraphs, MatchesExactOracleIncludingInfeasible)
{
    // Non-complete graphs with no guaranteed perfect matching: the
    // result is empty exactly when the oracle finds none, optimal
    // otherwise, and never uses a missing edge.
    ScopedAuditLevel deep(AuditLevel::Deep);
    Rng rng(2024);
    int infeasible = 0;
    int feasible = 0;
    for (int iter = 0; iter < 400; ++iter) {
        const int n = 2 + 2 * static_cast<int>(rng.next_below(8));
        const double keep = 0.1 + 0.1 * static_cast<double>(iter % 5);
        const auto w = random_sparse_weights(n, keep, 20, rng);
        const int64_t want = exact_min_weight_perfect(n, w);
        const auto mate = min_weight_perfect_matching(n, w);
        if (want < 0) {
            ASSERT_TRUE(mate.empty()) << "n=" << n << " iter=" << iter;
            ++infeasible;
            continue;
        }
        ASSERT_EQ(static_cast<int>(mate.size()), n) << "iter=" << iter;
        expect_valid_perfect(mate);
        for (int u = 0; u < n; ++u) {
            ASSERT_GE(w[u][mate[u]], 0) << "matched a missing edge";
        }
        ASSERT_EQ(matching_weight(mate, w), want) << "iter=" << iter;
        ++feasible;
    }
    EXPECT_GT(infeasible, 40);
    EXPECT_GT(feasible, 40);
}

TEST(BlossomSparseGraphs, MatchesDenseSolverOnLargeGraphs)
{
    // Beyond the subset DP's reach: sparse random graphs of up to 80
    // vertices against the dense reference solver.
    ScopedAuditLevel deep(AuditLevel::Deep);
    Rng rng(31337);
    for (int iter = 0; iter < 60; ++iter) {
        const int n = 20 + 2 * static_cast<int>(rng.next_below(31));
        const double keep = 0.05 + 0.05 * static_cast<double>(iter % 6);
        const auto w = random_sparse_weights(n, keep, 30, rng);
        const auto mate = min_weight_perfect_matching(n, w);
        const auto want = dense_min_weight_perfect_matching(n, w);
        ASSERT_EQ(mate.empty(), want.empty()) << "iter=" << iter;
        if (!mate.empty()) {
            expect_valid_perfect(mate);
            ASSERT_EQ(matching_weight(mate, w), matching_weight(want, w))
                << "n=" << n << " iter=" << iter;
        }
    }
}

/** One max-weight instance with its known unique optimum. */
struct KnownInstance
{
    const char *name;
    int n;
    std::vector<std::array<int, 3>> edges;  ///< (u, v, weight)
    std::vector<int> mate;
};

/**
 * Classic hand-built instances (from the `mwmatching` test suite,
 * renumbered from 0) whose unique maximum-weight matching is perfect,
 * so maximum-cardinality mode must find the same one. Each forces a
 * nested blossom, the expansion of one, or both.
 */
std::vector<KnownInstance>
nesting_instances()
{
    return {
        {"s_nest", 6,
         {{0, 1, 9}, {0, 2, 9}, {1, 2, 10}, {1, 3, 8}, {2, 4, 8},
          {3, 4, 10}, {4, 5, 6}},
         {2, 3, 0, 1, 5, 4}},
        {"s_relabel_nest", 8,
         {{0, 1, 10}, {0, 6, 10}, {1, 2, 12}, {2, 3, 20}, {2, 4, 20},
          {3, 4, 25}, {4, 5, 10}, {5, 6, 10}, {6, 7, 8}},
         {1, 0, 3, 2, 5, 4, 7, 6}},
        {"s_nest_expand", 8,
         {{0, 1, 8}, {0, 2, 8}, {1, 2, 10}, {1, 3, 12}, {2, 4, 12},
          {3, 4, 14}, {3, 5, 12}, {4, 6, 12}, {5, 6, 14}, {6, 7, 12}},
         {1, 0, 4, 5, 2, 3, 7, 6}},
        {"s_t_expand", 8,
         {{0, 1, 23}, {0, 4, 22}, {0, 5, 15}, {1, 2, 25}, {2, 3, 22},
          {3, 4, 25}, {3, 7, 14}, {4, 6, 13}},
         {5, 2, 1, 7, 6, 0, 4, 3}},
        {"s_nest_t_expand", 8,
         {{0, 1, 19}, {0, 2, 20}, {0, 7, 8}, {1, 2, 25}, {1, 3, 18},
          {2, 4, 18}, {3, 4, 13}, {3, 6, 7}, {4, 5, 7}},
         {7, 2, 1, 6, 5, 4, 3, 0}},
        {"tnasty_expand", 10,
         {{0, 1, 45}, {0, 4, 45}, {1, 2, 50}, {2, 3, 45}, {3, 4, 50},
          {0, 5, 30}, {2, 8, 35}, {3, 7, 35}, {4, 6, 26}, {8, 9, 5}},
         {5, 2, 1, 7, 6, 0, 4, 3, 9, 8}},
        {"tnasty2_expand", 10,
         {{0, 1, 45}, {0, 4, 45}, {1, 2, 50}, {2, 3, 45}, {3, 4, 50},
          {0, 5, 30}, {2, 8, 35}, {3, 7, 26}, {4, 6, 40}, {8, 9, 5}},
         {5, 2, 1, 7, 6, 0, 4, 3, 9, 8}},
        {"t_expand_leastslack", 10,
         {{0, 1, 45}, {0, 4, 45}, {1, 2, 50}, {2, 3, 45}, {3, 4, 50},
          {0, 5, 30}, {2, 8, 35}, {3, 7, 28}, {4, 6, 26}, {8, 9, 5}},
         {5, 2, 1, 7, 6, 0, 4, 3, 9, 8}},
        {"nest_tnasty_expand", 12,
         {{0, 1, 45}, {0, 6, 45}, {1, 2, 50}, {2, 3, 45}, {3, 4, 95},
          {3, 5, 94}, {4, 5, 94}, {5, 6, 50}, {0, 7, 30}, {2, 10, 35},
          {4, 8, 36}, {6, 9, 26}, {10, 11, 5}},
         {7, 2, 1, 5, 8, 3, 9, 0, 4, 6, 11, 10}},
        {"nest_relabel_expand", 10,
         {{0, 1, 40}, {0, 2, 40}, {1, 2, 60}, {1, 3, 55}, {2, 4, 55},
          {3, 4, 50}, {0, 7, 15}, {4, 6, 30}, {6, 5, 10}, {7, 9, 10},
          {3, 8, 30}},
         {1, 0, 4, 8, 2, 6, 5, 9, 3, 7}},
    };
}

TEST(BlossomNesting, KnownInstancesNestAndExpand)
{
    ScopedAuditLevel deep(AuditLevel::Deep);  // certify every solve
    int nested = 0;
    int t_expanded = 0;
    int s_expanded = 0;
    MaxWeightMatching matcher;
    for (const KnownInstance &inst : nesting_instances()) {
        std::vector<WeightedEdge> edges;
        int64_t want = 0;
        for (const auto &e : inst.edges) {
            edges.push_back({e[0], e[1], e[2]});
            if (inst.mate[e[0]] == e[1]) {
                want += e[2];
            }
        }
        int64_t weight = 0;
        EXPECT_EQ(solve_with_offset(matcher, inst.n, edges, &weight),
                  inst.mate)
            << inst.name;
        EXPECT_EQ(weight, want) << inst.name;
        EXPECT_GT(Peer::blossoms_formed(matcher), 0) << inst.name;
        nested += Peer::nested_blossoms(matcher);
        t_expanded += Peer::t_expansions(matcher);
        s_expanded += Peer::s_expansions(matcher);
    }
    EXPECT_GT(nested, 0) << "no instance nested a blossom";
    EXPECT_GT(t_expanded, 0) << "no instance expanded a T-blossom";
    EXPECT_GT(s_expanded, 0) << "no instance expanded an S-blossom";
}

TEST(BlossomNesting, RandomNestingCorpusMatchesDenseSolver)
{
    // Dense graphs with few distinct weights build deep blossom
    // structure; the corpus must nest and expand, and every result
    // must match the dense solver's minimum weight and certify itself.
    ScopedAuditLevel deep(AuditLevel::Deep);
    Rng rng(777);
    int nested = 0;
    int t_expanded = 0;
    int s_expanded = 0;
    MaxWeightMatching matcher;
    for (int iter = 0; iter < 200; ++iter) {
        const int n = 6 + 2 * static_cast<int>(rng.next_below(12));
        const auto w = random_sparse_weights(n, 0.6, 4, rng);
        std::vector<WeightedEdge> edges;
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                if (w[u][v] >= 0) {
                    edges.push_back({u, v, 5 - w[u][v]});  // C - w
                }
            }
        }
        const std::vector<int> mate = solve_with_offset(matcher, n, edges);
        const auto want = dense_min_weight_perfect_matching(n, w);
        const bool perfect =
            std::all_of(mate.begin(), mate.end(), [](int m) { return m >= 0; });
        ASSERT_EQ(perfect, !want.empty()) << "iter=" << iter;
        if (perfect) {
            expect_valid_perfect(mate);
            ASSERT_EQ(matching_weight(mate, w), matching_weight(want, w))
                << "n=" << n << " iter=" << iter;
        }
        nested += Peer::nested_blossoms(matcher);
        t_expanded += Peer::t_expansions(matcher);
        s_expanded += Peer::s_expansions(matcher);
    }
    EXPECT_GT(nested, 0);
    EXPECT_GT(t_expanded, 0);
    EXPECT_GT(s_expanded, 0);
}

/** FNV-1a over the eight bytes of each value mixed in. */
struct Fnv1a
{
    uint64_t hash = 14695981039346656037ull;
    void mix(int64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= static_cast<uint64_t>(value >> (8 * byte)) & 0xff;
            hash *= 1099511628211ull;
        }
    }
};

TEST(BlossomTrajectory, SeededCorpusIsPinned)
{
    // The matcher's exact trajectory on a fixed corpus: every solve's
    // mates and total weight (hashed), and the summed dual steps,
    // augmentations and blossoms formed. Tie selection decides which
    // of several optimal matchings a window gets, so a change to the
    // scan or update order shows here even when every weight stays
    // optimal. The constants were taken from the sweep-based matcher;
    // an event-driven one must follow the same steps.
    Fnv1a fnv;
    int64_t dual_steps = 0;
    int64_t augmentations = 0;
    int64_t blossoms = 0;
    int nested = 0;
    int t_expanded = 0;
    int s_expanded = 0;
    MaxWeightMatching matcher;
    auto record = [&](const std::vector<int> &mate) {
        for (const int m : mate) {
            fnv.mix(m);
        }
        fnv.mix(matcher.total_weight());
        dual_steps += Peer::dual_steps(matcher);
        augmentations += Peer::augmentations(matcher);
        blossoms += Peer::blossoms_formed(matcher);
        nested += Peer::nested_blossoms(matcher);
        t_expanded += Peer::t_expansions(matcher);
        s_expanded += Peer::s_expansions(matcher);
    };

    // d = 21 phenomenological windows of 21 rounds at p = 1e-3, on the
    // savings graph MwpmDecoder builds (unit weights, edges in
    // ascending (i, j) order).
    const RotatedSurfaceCode code(21);
    const CheckGraphDistances &oracle = code.check_distances(CheckType::Z);
    Rng rng(1717);
    int windows = 0;
    for (int iter = 0; iter < 400; ++iter) {
        const std::vector<DetectionEvent> events =
            sample_events(code, CheckType::Z, 21, 1e-3, rng);
        const int k = static_cast<int>(events.size());
        std::vector<int64_t> boundary(k);
        for (int i = 0; i < k; ++i) {
            boundary[i] = oracle.boundary_hops(events[i].check) + 1;
        }
        matcher.reset(k);
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                const int64_t saving =
                    boundary[i] + boundary[j] -
                    oracle.distance(events[i].check, events[j].check) -
                    std::abs(events[i].round - events[j].round);
                if (saving > 0) {
                    matcher.add_edge(i, j, saving);
                }
            }
        }
        record(matcher.solve());
        windows += k > 0 ? 1 : 0;
    }
    ASSERT_GT(windows, 350);

    // Random graphs of up to 60 vertices with weights 1..6, dense
    // enough to form, nest and expand blossoms; every other one posed
    // as a perfect-matching instance through the uniform offset.
    for (int iter = 0; iter < 2000; ++iter) {
        const int n = 2 + static_cast<int>(rng.next_below(59));
        const double keep = 0.05 + 0.05 * static_cast<double>(iter % 8);
        std::vector<WeightedEdge> edges;
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                if (rng.bernoulli(keep)) {
                    edges.push_back(
                        {u, v, 1 + static_cast<int64_t>(rng.next_below(6))});
                }
            }
        }
        if (iter % 2 == 0) {
            matcher.reset(n);
            for (const WeightedEdge &e : edges) {
                matcher.add_edge(e.u, e.v, e.w);
            }
            record(matcher.solve());
        } else {
            record(solve_with_offset(matcher, n, edges));
        }
    }
    EXPECT_GT(nested, 0);
    EXPECT_GT(t_expanded, 0);
    EXPECT_GT(s_expanded, 0);

    EXPECT_EQ(fnv.hash, 16270660283863364044ull);
    EXPECT_EQ(dual_steps, 16048);
    EXPECT_EQ(augmentations, 33900);
    EXPECT_EQ(blossoms, 11248);
}

/** A solved instance with a blossom: the odd cycle 0-1-2 plus 2-3. */
void
solve_audit_fixture(MaxWeightMatching &matcher)
{
    const std::vector<WeightedEdge> edges = {
        {0, 1, 6}, {1, 2, 6}, {0, 2, 6}, {2, 3, 5}, {3, 4, 4}, {4, 5, 3}};
    ASSERT_EQ(solve_with_offset(matcher, 6, edges),
              (std::vector<int>{1, 0, 3, 2, 5, 4}));
    ASSERT_NO_THROW(matcher.audit_optimum());
}

TEST(BlossomAudit, CorruptedDualIsDetected)
{
    MaxWeightMatching matcher;
    solve_audit_fixture(matcher);
    // Lowering a matched vertex's dual gives its matched edge negative
    // slack.
    Peer::dual(matcher)[0] -= 2;
    EXPECT_THROW(matcher.audit_optimum(), CheckFailure);

    solve_audit_fixture(matcher);
    // Raising it leaves the matched edge slack, not tight.
    Peer::dual(matcher)[0] += 2;
    EXPECT_THROW(matcher.audit_optimum(), CheckFailure);

    solve_audit_fixture(matcher);
    // A negative blossom dual is never feasible.
    Peer::dual(matcher)[11] = -1;
    EXPECT_THROW(matcher.audit_optimum(), CheckFailure);
}

TEST(BlossomAudit, CorruptedDueTimeIsDetected)
{
    // A max-weight path 0-1-2-3 weighing 1, 5, 1 ends with the middle
    // edge matched and live trees at 0 and 3, whose neighbours keep
    // finite due times; a stale or missing due time must not pass.
    MaxWeightMatching matcher(4);
    matcher.add_edge(0, 1, 1);
    matcher.add_edge(1, 2, 5);
    matcher.add_edge(2, 3, 1);
    ASSERT_EQ(matcher.solve(), (std::vector<int>{-1, 2, 1, -1}));
    ASSERT_NO_THROW(Peer::audit_owners(matcher));
    std::vector<int64_t> &due = Peer::due(matcher);
    const auto vertices_end = due.begin() + 4;
    const auto finite = std::find_if(due.begin(), vertices_end, [](int64_t d) {
        return d != std::numeric_limits<int64_t>::max();
    });
    ASSERT_NE(finite, vertices_end);
    *finite += 2;  // one unit of dual step late
    EXPECT_THROW(Peer::audit_owners(matcher), CheckFailure);

    // An owner with no candidate given one.
    solve_audit_fixture(matcher);
    ASSERT_NO_THROW(Peer::audit_owners(matcher));
    Peer::due(matcher)[0] = 0;
    EXPECT_THROW(Peer::audit_owners(matcher), CheckFailure);
}

TEST(BlossomAudit, CorruptedMateIsDetected)
{
    MaxWeightMatching matcher;
    solve_audit_fixture(matcher);
    // Unmatching one end leaves a half-matched edge.
    Peer::mate(matcher)[0] = -1;
    EXPECT_THROW(matcher.audit_optimum(), CheckFailure);

    solve_audit_fixture(matcher);
    // Re-pointing both ends of 4-5 at edge 3-4 breaks mutuality.
    std::vector<int> &mate = Peer::mate(matcher);
    mate[4] = mate[3];
    EXPECT_THROW(matcher.audit_optimum(), CheckFailure);
}

// ------------------------------------------- maximum-weight semantics

constexpr int64_t kNoEdge = INT64_MIN;

/** Maximum matching weight by exhaustive subset search (n <= ~14). */
int64_t
brute_max_weight(int n, const std::vector<std::vector<int64_t>> &w)
{
    std::vector<int64_t> best(size_t(1) << n, 0);
    for (size_t mask = 1; mask < best.size(); ++mask) {
        int i = 0;
        while (!(mask >> i & 1)) {
            ++i;
        }
        const size_t rest = mask ^ (size_t(1) << i);
        int64_t value = best[rest];  // i stays exposed
        for (int j = i + 1; j < n; ++j) {
            if ((rest >> j & 1) && w[i][j] != kNoEdge) {
                value = std::max(value,
                                 w[i][j] + best[rest ^ (size_t(1) << j)]);
            }
        }
        best[mask] = value;
    }
    return best.back();
}

/** Solve `w` (kNoEdge marks a missing edge) and check the result. */
void
expect_max_weight(MaxWeightMatching &matcher, int n,
                  const std::vector<std::vector<int64_t>> &w,
                  int *exposed)
{
    matcher.reset(n);
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            if (w[u][v] != kNoEdge) {
                matcher.add_edge(u, v, w[u][v]);
            }
        }
    }
    const std::vector<int> &mate = matcher.solve();
    int64_t total = 0;
    for (int u = 0; u < n; ++u) {
        if (mate[u] < 0) {
            ++*exposed;
            continue;
        }
        ASSERT_EQ(mate[mate[u]], u);
        ASSERT_NE(w[u][mate[u]], kNoEdge) << "matched a non-edge";
        total += mate[u] > u ? w[u][mate[u]] : 0;
    }
    ASSERT_EQ(total, matcher.total_weight());
    ASSERT_EQ(total, brute_max_weight(n, w));
}

TEST(BlossomMaxWeight, PathKeepsOnlyTheMiddleEdge)
{
    // Path 0-1-2-3 weighing 1, 5, 1: the perfect matching weighs 2,
    // the maximum-weight one takes the middle edge alone.
    ScopedAuditLevel deep(AuditLevel::Deep);
    MaxWeightMatching matcher(4);
    matcher.add_edge(0, 1, 1);
    matcher.add_edge(1, 2, 5);
    matcher.add_edge(2, 3, 1);
    EXPECT_EQ(matcher.solve(), (std::vector<int>{-1, 2, 1, -1}));
    EXPECT_EQ(matcher.total_weight(), 5);
}

TEST(BlossomMaxWeight, TBlossomStepYieldsToSmallerEdgeStep)
{
    // Found by a randomized stress run: a dual step once took a
    // T-blossom's dual as its size even when an S-blossom later in the
    // scan bounded the step lower, so it expanded a blossom whose dual
    // was still positive and broke the optimality certificate.
    ScopedAuditLevel deep(AuditLevel::Deep);
    const int n = 19;
    const std::vector<WeightedEdge> edges = {
        {0, 1, 20},  {0, 2, 14},   {0, 3, 20},   {1, 4, 32},
        {5, 3, 25},  {5, 6, 25},   {7, 8, 31},   {7, 9, 55},
        {7, 10, 38}, {7, 11, 28},  {8, 9, 48},   {12, 13, 44},
        {12, 14, 55}, {15, 16, 46}, {15, 17, 50}, {16, 17, 30},
        {17, 18, 35}, {17, 14, 56}, {10, 13, 51}, {18, 2, 28},
        {18, 4, 43}, {11, 6, 23}};
    std::vector<std::vector<int64_t>> w(n, std::vector<int64_t>(n, kNoEdge));
    for (const WeightedEdge &e : edges) {
        w[e.u][e.v] = w[e.v][e.u] = e.w;
    }
    MaxWeightMatching matcher;
    int exposed = 0;
    expect_max_weight(matcher, n, w, &exposed);
    EXPECT_EQ(matcher.total_weight(), 343);
}

TEST(BlossomMaxWeight, RandomGraphsMatchBruteForce)
{
    // Graphs of up to 12 vertices with few distinct weights (ties),
    // zero and negative ones, whose optimum usually leaves vertices
    // exposed; every solve certifies itself under deep audit.
    ScopedAuditLevel deep(AuditLevel::Deep);
    Rng rng(5150);
    MaxWeightMatching matcher;
    int exposed = 0;
    for (int iter = 0; iter < 1500; ++iter) {
        const int n = 1 + static_cast<int>(rng.next_below(12));
        const double keep = 0.15 + 0.15 * static_cast<double>(iter % 6);
        const int64_t spread = 1 + static_cast<int64_t>(iter % 9);
        std::vector<std::vector<int64_t>> w(
            n, std::vector<int64_t>(n, kNoEdge));
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                if (rng.bernoulli(keep)) {
                    w[u][v] = w[v][u] =
                        static_cast<int64_t>(rng.next_below(spread + 3)) - 2;
                }
            }
        }
        expect_max_weight(matcher, n, w, &exposed);
        if (HasFatalFailure()) {
            FAIL() << "iter=" << iter << " n=" << n;
        }
    }
    EXPECT_GT(exposed, 1500);
}

TEST(BlossomMaxWeight, SavingsGraphMatchesBoundaryOracle)
{
    // The decoder's reduction on tie-heavy boundary instances: about
    // half the pairs cost exactly b_i + b_j and get no savings edge.
    // Sum(b) minus the matched savings must equal the subset-DP and the
    // dense twin-graph optimum.
    ScopedAuditLevel deep(AuditLevel::Deep);
    Rng rng(6061);
    MaxWeightMatching matcher;
    for (int iter = 0; iter < 400; ++iter) {
        const int k = 1 + static_cast<int>(rng.next_below(12));
        std::vector<int64_t> boundary(k);
        for (int i = 0; i < k; ++i) {
            boundary[i] = 1 + static_cast<int64_t>(rng.next_below(6));
        }
        std::vector<std::vector<int64_t>> dist(
            k, std::vector<int64_t>(k, -1));
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                const int64_t sum = boundary[i] + boundary[j];
                dist[i][j] = dist[j][i] =
                    rng.bernoulli(0.5)
                        ? sum
                        : 1 + static_cast<int64_t>(rng.next_below(sum + 2));
            }
        }
        const int64_t got = savings_graph_cost(matcher, dist, boundary);
        ASSERT_EQ(got, exact_min_weight_with_boundary(k, dist, boundary))
            << "iter=" << iter << " k=" << k;
        ASSERT_EQ(got, dense_boundary_matching_cost(dist, boundary))
            << "iter=" << iter << " k=" << k;
    }
}

TEST(ExactOracle, TinyCasesByHand)
{
    // Two nodes, must pair or both to boundary.
    std::vector<std::vector<int64_t>> w = {{-1, 5}, {5, -1}};
    EXPECT_EQ(exact_min_weight_perfect(2, w), 5);
    EXPECT_EQ(exact_min_weight_with_boundary(2, w, {1, 1}), 2);
    EXPECT_EQ(exact_min_weight_with_boundary(2, w, {10, 10}), 5);
    EXPECT_EQ(exact_min_weight_with_boundary(0, {}, {}), 0);
}

TEST(ExactOracle, OddBoundaryCase)
{
    // Three nodes: best is pair the close two, boundary the third.
    std::vector<std::vector<int64_t>> w = {
        {-1, 2, 9}, {2, -1, 9}, {9, 9, -1}};
    EXPECT_EQ(exact_min_weight_with_boundary(3, w, {4, 4, 4}), 6);
}

} // namespace
} // namespace btwc
