/**
 * @file
 * Tests for the decode hot path: the precomputed distance oracle
 * (surface/distance.hpp), the oracle-backed MWPM decoder — pinned
 * *bit-exact* against the per-defect Dijkstra reference
 * (dijkstra_reference.hpp) for unit and non-unit weights, and its
 * savings-graph matching weight against a dense complete-graph
 * solve — the pooled blossom scratch
 * (`MaxWeightMatching::reset`), the persistent per-decoder scratch,
 * and the `LookupTableDecoder` (`lut`) tier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "decoders/exact_decoder.hpp"
#include "decoders/lookup_table.hpp"
#include "decoders/tier_chain.hpp"
#include "matching/blossom.hpp"
#include "matching/mwpm.hpp"
#include "surface/distance.hpp"
#include "surface/lattice.hpp"
#include "dense_blossom.hpp"
#include "dijkstra_reference.hpp"
#include "matching_test_util.hpp"

namespace btwc {
namespace {

// ------------------------------------------------ the distance oracle

/** Independent BFS over the check graph (test-local reference). */
std::vector<int>
reference_check_bfs(const RotatedSurfaceCode &code, CheckType type,
                    int src)
{
    std::vector<int> dist(code.num_checks(type), -1);
    std::queue<int> frontier;
    dist[src] = 0;
    frontier.push(src);
    while (!frontier.empty()) {
        const int cur = frontier.front();
        frontier.pop();
        for (const CliqueNeighbor &nb : code.clique_neighbors(type, cur)) {
            if (dist[nb.check] < 0) {
                dist[nb.check] = dist[cur] + 1;
                frontier.push(nb.check);
            }
        }
    }
    return dist;
}

TEST(CheckGraphDistances, MatchesReferenceBfs)
{
    for (const int d : {3, 5, 9}) {
        const RotatedSurfaceCode code(d);
        for (const CheckType t : {CheckType::X, CheckType::Z}) {
            const CheckGraphDistances &oracle = code.check_distances(t);
            ASSERT_EQ(oracle.num_checks(), code.num_checks(t));
            for (int src = 0; src < code.num_checks(t); ++src) {
                const std::vector<int> want =
                    reference_check_bfs(code, t, src);
                for (int dst = 0; dst < code.num_checks(t); ++dst) {
                    ASSERT_GE(want[dst], 0) << "check graph connected";
                    ASSERT_EQ(oracle.distance(src, dst), want[dst])
                        << "d=" << d << " src=" << src << " dst=" << dst;
                    ASSERT_EQ(oracle.distance(src, dst),
                              oracle.distance(dst, src));
                }
            }
        }
    }
}

TEST(CheckGraphDistances, BoundaryHopsMatchBruteForce)
{
    for (const int d : {3, 5, 9}) {
        const RotatedSurfaceCode code(d);
        for (const CheckType t : {CheckType::X, CheckType::Z}) {
            const CheckGraphDistances &oracle = code.check_distances(t);
            for (int src = 0; src < code.num_checks(t); ++src) {
                // Smallest (hops, id) over boundary-adjacent checks —
                // the Dijkstra settle-order tie-break.
                int best_hops = -1;
                int best_check = -1;
                for (int b = 0; b < code.num_checks(t); ++b) {
                    if (code.boundary_data(t, b).empty()) {
                        continue;
                    }
                    const int hops = oracle.distance(src, b);
                    if (best_hops < 0 || hops < best_hops) {
                        best_hops = hops;
                        best_check = b;
                    }
                }
                ASSERT_EQ(oracle.boundary_hops(src), best_hops);
                ASSERT_EQ(oracle.boundary_check(src), best_check);
                ASSERT_FALSE(
                    code.boundary_data(t, oracle.boundary_check(src))
                        .empty());
            }
        }
    }
}

TEST(CheckGraphDistances, CachedPerCodeAndType)
{
    const RotatedSurfaceCode code(5);
    const CheckGraphDistances &a = code.check_distances(CheckType::X);
    const CheckGraphDistances &b = code.check_distances(CheckType::X);
    EXPECT_EQ(&a, &b) << "lazy table built once";
    EXPECT_NE(&a, &code.check_distances(CheckType::Z));
}

// --------------------- oracle decoder bit-exact against Dijkstra

/**
 * Optimal matching weight of `events` on the complete doubled graph
 * (every defect pair, a zero-cost twin clique, no pruning), solved by
 * the dense reference blossom over the oracle's distances under space
 * weight `sw` and time weight `tw`.
 */
int64_t
dense_oracle_weight(const RotatedSurfaceCode &code, CheckType detector,
                    const std::vector<DetectionEvent> &events, int sw = 1,
                    int tw = 1)
{
    const CheckGraphDistances &oracle = code.check_distances(detector);
    const size_t k = events.size();
    std::vector<std::vector<int64_t>> dist(k, std::vector<int64_t>(k, -1));
    std::vector<int64_t> boundary(k);
    for (size_t i = 0; i < k; ++i) {
        boundary[i] = sw * (oracle.boundary_hops(events[i].check) + 1);
        for (size_t j = 0; j < k; ++j) {
            if (j != i) {
                dist[i][j] =
                    sw * oracle.distance(events[i].check, events[j].check) +
                    tw * std::abs(events[i].round - events[j].round);
            }
        }
    }
    return dense_boundary_matching_cost(dist, boundary);
}

/**
 * The load-bearing property: for every tested distance, rounds value,
 * detector type, and random or tie-heavy syndrome, `MwpmDecoder` under
 * weights (sw, tw) must produce the *bit-identical* correction and
 * weight the per-defect Dijkstra reference produces. With
 * `dense_oracle` the weight must also equal the dense complete-graph
 * optimum.
 */
void
expect_bit_exact_with_reference(MwpmDecoder::Matcher matcher, uint64_t salt,
                                bool dense_oracle = false, int sw = 1,
                                int tw = 1)
{
    for (const int d : {3, 5, 7, 9}) {
        const RotatedSurfaceCode code(d);
        for (const CheckType det : {CheckType::X, CheckType::Z}) {
            for (const int rounds : {1, 3, d + 1}) {
                const MwpmDecoder decoder(code, det, sw, tw, matcher);
                Rng rng(salt + 1000 * static_cast<uint64_t>(d) +
                        10 * static_cast<uint64_t>(det) +
                        static_cast<uint64_t>(rounds));
                // Sampled windows, then tie-heavy ones (pairs with
                // w_ij == b_i + b_j, which get no savings edge).
                for (int iter = 0; iter < 75; ++iter) {
                    const double p = 0.01 + 0.01 * (iter % 5);
                    const std::vector<DetectionEvent> events =
                        iter < 60 ? sample_events(code, det, rounds, p, rng)
                                  : tie_heavy_events(code, det, rounds,
                                                     1 + iter % 6, rng, sw,
                                                     tw);
                    const auto a = decoder.decode(events, rounds);
                    const auto b = dijkstra_reference_decode(
                        code, det, sw, tw, matcher, events, rounds);
                    ASSERT_EQ(a.weight, b.weight)
                        << "d=" << d << " rounds=" << rounds << " sw=" << sw
                        << " tw=" << tw << " iter=" << iter
                        << " k=" << events.size();
                    ASSERT_EQ(a.correction, b.correction)
                        << "d=" << d << " rounds=" << rounds << " sw=" << sw
                        << " tw=" << tw << " iter=" << iter
                        << " k=" << events.size();
                    ASSERT_EQ(a.defects, b.defects);
                    ASSERT_EQ(a.resolved, b.resolved);
                    if (dense_oracle) {
                        ASSERT_EQ(a.weight, dense_oracle_weight(
                                                code, det, events, sw, tw))
                            << "d=" << d << " rounds=" << rounds
                            << " iter=" << iter << " k=" << events.size();
                    }
                }
            }
        }
    }
}

TEST(MwpmFastPath, DefaultConfigBitExactWithLegacy)
{
    // The default decoder (unit weights, blossom) against the Dijkstra
    // decode it replaced, now the test-only reference.
    expect_bit_exact_with_reference(MwpmDecoder::Matcher::Blossom, 0);
}

TEST(MwpmFastPath, OracleAloneBitExactWithLegacy)
{
    // Once the oracle-distance, complete-graph configuration; this
    // corpus also pins the savings graph's matching weight to the dense
    // complete-graph optimum.
    expect_bit_exact_with_reference(MwpmDecoder::Matcher::Blossom, 77, true);
}

TEST(MwpmFastPath, KnnCappedBitExactOnModerateInstances)
{
    // Once the opt-in degree cap; the cap is gone, and this second
    // corpus pins the savings graph's matching weight to the dense
    // complete-graph optimum.
    expect_bit_exact_with_reference(MwpmDecoder::Matcher::Blossom, 154, true);
}

TEST(MwpmFastPath, DefaultConfigBitExactAtHighDefectCounts)
{
    // Large windows (~200 defects): the oracle decoder stays bit-exact
    // with the Dijkstra reference and its matching weight equals the
    // dense complete-graph optimum.
    const int d = 13;
    const RotatedSurfaceCode code(d);
    const int rounds = d + 1;
    const MwpmDecoder decoder(code, CheckType::Z);
    Rng rng(99);
    int decoded = 0;
    for (int iter = 0; iter < 40 && decoded < 4; ++iter) {
        const std::vector<DetectionEvent> events =
            sample_events(code, CheckType::Z, rounds, 0.03, rng);
        if (events.size() < 140) {
            continue;  // only the expensive large windows matter here
        }
        ++decoded;
        const auto a = decoder.decode(events, rounds);
        const auto b = dijkstra_reference_decode(
            code, CheckType::Z, 1, 1, MwpmDecoder::Matcher::Blossom, events,
            rounds);
        ASSERT_EQ(a.weight, b.weight)
            << "iter=" << iter << " k=" << events.size();
        ASSERT_EQ(a.correction, b.correction)
            << "iter=" << iter << " k=" << events.size();
        ASSERT_EQ(a.weight, dense_oracle_weight(code, CheckType::Z, events))
            << "iter=" << iter << " k=" << events.size();
    }
    ASSERT_EQ(decoded, 4) << "stress corpus must reach large windows";
}

TEST(MwpmFastPath, StreamD21ShapedCorpusMatchesDenseOracle)
{
    // The stream-d21 operating point: d = 21 windows of 21 rounds at
    // p around 1e-3 (about 27 defects, tail to ~60). On every window
    // the pruned-graph matching weight equals the dense complete-graph
    // optimum, with the optimality certificate checked on every solve.
    ScopedAuditLevel deep(AuditLevel::Deep);
    const int d = 21;
    const int rounds = 21;
    const RotatedSurfaceCode code(d);
    const MwpmDecoder decoder(code, CheckType::Z);
    const CheckGraphDistances &oracle = code.check_distances(CheckType::Z);
    Rng rng(2103);
    const double ps[] = {1e-3, 1.5e-3, 2.2e-3};
    size_t largest = 0;
    int windows = 0;
    // The same windows on a standalone matcher: trees outlive
    // augmentations, so a solve is one stage of many augmentations.
    MaxWeightMatching matcher;
    int64_t stages = 0;
    int64_t augmentations = 0;
    for (int iter = 0; iter < 1200; ++iter) {
        const std::vector<DetectionEvent> events =
            sample_events(code, CheckType::Z, rounds, ps[iter % 3], rng);
        if (events.empty()) {
            continue;
        }
        ++windows;
        largest = std::max(largest, events.size());
        const auto got = decoder.decode(events, rounds);
        ASSERT_EQ(got.weight, dense_oracle_weight(code, CheckType::Z, events))
            << "iter=" << iter << " k=" << events.size();

        const size_t k = events.size();
        std::vector<std::vector<int64_t>> dist(k, std::vector<int64_t>(k));
        std::vector<int64_t> boundary(k);
        for (size_t i = 0; i < k; ++i) {
            boundary[i] = oracle.boundary_hops(events[i].check) + 1;
            for (size_t j = 0; j < k; ++j) {
                dist[i][j] =
                    oracle.distance(events[i].check, events[j].check) +
                    std::abs(events[i].round - events[j].round);
            }
        }
        ASSERT_EQ(savings_graph_cost(matcher, dist, boundary), got.weight);
        stages += MaxWeightMatchingTestPeer::stages(matcher);
        augmentations += MaxWeightMatchingTestPeer::augmentations(matcher);
    }
    EXPECT_GE(windows, 1000);
    EXPECT_GE(largest, 50u) << "corpus must reach the defect-count tail";
    EXPECT_EQ(stages, windows);
    EXPECT_GT(augmentations, stages);
}

TEST(MwpmFastPath, ExactDpBackendBitExactWithLegacy)
{
    // The subset-DP backend against the Dijkstra reference's own DP.
    expect_bit_exact_with_reference(MwpmDecoder::Matcher::ExactDp, 231);
}

TEST(MwpmFastPath, WeightedBitExactWithDijkstraReference)
{
    // Non-unit weights take the same oracle path: distances scale by
    // (sw, tw) and the walk toggles what Dijkstra's parent chain
    // toggles, so both matchers stay bit-exact with the reference, and
    // optimal against the dense solve, whichever dimension is heavier,
    // at equal non-unit weights, and at the log-likelihood weights of
    // asymmetric noise (482/412 are p = 8e-3 and 1.6e-2).
    const std::pair<int, int> weights[] = {
        {1, 1}, {2, 2}, {3, 2}, {2, 3}, {2, 1},
        {1, 2}, {482, 412}, {412, 482}, {5, 3}, {1, 7}};
    for (const auto &[sw, tw] : weights) {
        for (const MwpmDecoder::Matcher matcher :
             {MwpmDecoder::Matcher::Blossom, MwpmDecoder::Matcher::ExactDp}) {
            // The subset DP is exact by construction; the dense solve
            // pins the savings graph's optimum.
            expect_bit_exact_with_reference(
                matcher, 311 + static_cast<uint64_t>(sw * 7 + tw),
                matcher == MwpmDecoder::Matcher::Blossom, sw, tw);
        }
    }
}

TEST(MwpmFastPath, PersistentScratchIsInvisible)
{
    // The per-instance scratch must make decode sequences
    // history-independent: any interleaving of sizes yields the same
    // results as a fresh decoder per call.
    const RotatedSurfaceCode code(9);
    const MwpmDecoder reused(code, CheckType::Z);
    Rng rng(5);
    for (int iter = 0; iter < 40; ++iter) {
        const int rounds = 1 + static_cast<int>(rng.next_below(6));
        const std::vector<DetectionEvent> events = sample_events(
            code, CheckType::Z, rounds, 0.01 + 0.02 * (iter % 3), rng);
        const MwpmDecoder fresh(code, CheckType::Z);
        const auto a = reused.decode(events, rounds);
        const auto b = fresh.decode(events, rounds);
        ASSERT_EQ(a.weight, b.weight) << "iter=" << iter;
        ASSERT_EQ(a.correction, b.correction) << "iter=" << iter;
    }
}

TEST(MwpmFastPath, BatchMatchesLoopThroughSharedScratch)
{
    const RotatedSurfaceCode code(9);
    const MwpmDecoder decoder(code, CheckType::Z);
    Rng rng(6);
    std::vector<std::vector<DetectionEvent>> batch;
    for (int i = 0; i < 16; ++i) {
        batch.push_back(sample_events(code, CheckType::Z, 3, 0.02, rng));
    }
    const auto batched = decoder.decode_batch(batch, 3);
    ASSERT_EQ(batched.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        const auto single = decoder.decode(batch[i], 3);
        ASSERT_EQ(batched[i].weight, single.weight) << i;
        ASSERT_EQ(batched[i].correction, single.correction) << i;
    }
}

// -------------------------------------------- pooled blossom scratch

TEST(BlossomReset, PooledSolverMatchesFreshAcrossRandomInstances)
{
    // The regression this pins: a reused solver must be
    // indistinguishable from a freshly constructed one even when
    // instance sizes shrink and grow (pooled per-vertex, per-blossom
    // and per-edge arrays must be re-armed over the active region).
    Rng rng(42);
    MaxWeightMatching pooled;
    for (int iter = 0; iter < 400; ++iter) {
        const int k = 1 + static_cast<int>(rng.next_below(10));
        const int n = 2 * k;
        std::vector<std::vector<int64_t>> w(
            n, std::vector<int64_t>(n, -1));
        for (int i = 0; i < k; ++i) {
            for (int j = i + 1; j < k; ++j) {
                if (rng.bernoulli(0.7)) {
                    const int64_t x =
                        1 + static_cast<int64_t>(rng.next_below(20));
                    w[i][j] = w[j][i] = x;
                }
                w[k + i][k + j] = w[k + j][k + i] = 0;
            }
            const int64_t b =
                1 + static_cast<int64_t>(rng.next_below(10));
            w[i][k + i] = w[k + i][i] = b;
        }
        int64_t total = 0;
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                if (w[u][v] >= 0) {
                    total += w[u][v];
                }
            }
        }
        const int64_t big = total + 1;
        std::vector<WeightedEdge> edges;
        for (int u = 0; u < n; ++u) {
            for (int v = u + 1; v < n; ++v) {
                if (w[u][v] >= 0) {
                    edges.push_back({u, v, big - w[u][v]});
                }
            }
        }
        MaxWeightMatching fresh(n);
        int64_t fresh_weight = 0;
        int64_t pooled_weight = 0;
        const std::vector<int> mf =
            solve_with_offset(fresh, n, edges, &fresh_weight);
        const std::vector<int> mp =
            solve_with_offset(pooled, n, edges, &pooled_weight);
        ASSERT_EQ(mp, mf) << "iter=" << iter << " n=" << n;
        ASSERT_EQ(pooled_weight, fresh_weight) << "iter=" << iter;
        ASSERT_EQ(pooled.total_weight(), fresh.total_weight())
            << "iter=" << iter;
    }
}

TEST(BlossomReset, ResetZeroAndRegrowIsSafe)
{
    MaxWeightMatching solver;
    solver.reset(0);
    EXPECT_TRUE(solver.solve().empty());
    int64_t weight = 0;
    const std::vector<int> &last =
        solve_with_offset(solver, 2, {{0, 1, 5}}, &weight);
    const std::vector<int> mate = last;
    ASSERT_EQ(mate.size(), 2u);
    EXPECT_EQ(mate[0], 1);
    EXPECT_EQ(mate[1], 0);
    EXPECT_EQ(weight, 5);
    // A reset solver is indistinguishable from a fresh one: no weight
    // and no mates survive from the previous instance.
    solver.reset(2);
    EXPECT_EQ(solver.total_weight(), 0);
    EXPECT_TRUE(last.empty());
}

// ---------------------------------------------- the lookup-table tier

void
expect_lut_exhaustively_exact(int d)
{
    const RotatedSurfaceCode code(d);
    for (const CheckType det : {CheckType::X, CheckType::Z}) {
        const LookupTableDecoder lut(code, det);
        ASSERT_TRUE(lut.available()) << "d=" << d;
        const ExactDecoder exact(code, det);
        const int nc = code.num_checks(det);
        std::vector<uint8_t> syndrome(static_cast<size_t>(nc), 0);
        for (size_t s = 0; s < (size_t(1) << nc); ++s) {
            for (int c = 0; c < nc; ++c) {
                syndrome[c] = (s >> c) & 1 ? 1 : 0;
            }
            const auto got = lut.decode_syndrome(syndrome);
            const auto want = exact.decode_syndrome(syndrome);
            ASSERT_TRUE(got.resolved) << "s=" << s;
            ASSERT_EQ(got.weight, want.weight) << "s=" << s;
            ASSERT_EQ(got.correction, want.correction) << "s=" << s;
            ASSERT_EQ(got.defects, want.defects) << "s=" << s;
            ASSERT_EQ(got.effort, 0) << "s=" << s;
        }
    }
}

TEST(LookupTableDecoder, ExhaustivelyExactAtD3)
{
    expect_lut_exhaustively_exact(3);
}

TEST(LookupTableDecoder, ExhaustivelyExactAtD5)
{
    expect_lut_exhaustively_exact(5);
}

TEST(LookupTableDecoder, DeclinesMultiRoundWindows)
{
    const RotatedSurfaceCode code(3);
    const LookupTableDecoder lut(code, CheckType::Z);
    const std::vector<DetectionEvent> events = {{0, 0}, {0, 1}};
    const auto result = lut.decode(events, 2);
    EXPECT_FALSE(result.resolved);
    EXPECT_EQ(result.defects, 2);
    for (const uint8_t bit : result.correction) {
        EXPECT_EQ(bit, 0);
    }
}

TEST(LookupTableDecoder, UnavailableBeyondTableLimitAndDeclines)
{
    const RotatedSurfaceCode code(7);  // 24 checks: no table
    const LookupTableDecoder lut(code, CheckType::Z);
    EXPECT_FALSE(lut.available());
    std::vector<uint8_t> syndrome(code.num_checks(CheckType::Z), 0);
    syndrome[0] = 1;
    syndrome[3] = 1;
    const auto result = lut.decode_syndrome(syndrome);
    EXPECT_FALSE(result.resolved);
    // Empty syndromes still resolve trivially (nothing to look up).
    const auto empty = lut.decode({}, 1);
    EXPECT_TRUE(empty.resolved);
    EXPECT_EQ(empty.defects, 0);
}

TEST(LookupTableDecoder, LutTierResolvesInChainAndEscalatesWhenUnable)
{
    // lut,mwpm at d=3: every single-round signature resolves at tier 0
    // (bit-exact with the exact matcher); a multi-round window falls
    // through to MWPM.
    const RotatedSurfaceCode code(3);
    const TierChain chain(code, CheckType::Z,
                          TierChainConfig::parse("lut,mwpm"));
    const ExactDecoder exact(code, CheckType::Z);
    const int nc = code.num_checks(CheckType::Z);
    std::vector<uint8_t> syndrome(static_cast<size_t>(nc), 0);
    for (size_t s = 1; s < (size_t(1) << nc); ++s) {
        for (int c = 0; c < nc; ++c) {
            syndrome[c] = (s >> c) & 1 ? 1 : 0;
        }
        const TierChain::Result result = chain.decode_syndrome(syndrome);
        ASSERT_TRUE(result.resolved);
        ASSERT_EQ(result.tier, DecoderTier::Lut) << "s=" << s;
        ASSERT_EQ(result.tier_index, 0) << "s=" << s;
        ASSERT_FALSE(result.offchip);
        ASSERT_EQ(result.decode.correction,
                  exact.decode_syndrome(syndrome).correction)
            << "s=" << s;
    }
    const std::vector<DetectionEvent> window = {{0, 0}, {0, 1}};
    const TierChain::Result spacetime = chain.decode(window, 2);
    EXPECT_TRUE(spacetime.resolved);
    EXPECT_EQ(spacetime.tier, DecoderTier::Mwpm);
    EXPECT_EQ(spacetime.tier_index, 1);
}

TEST(LookupTableDecoder, TierSpellingParsesAndDescribes)
{
    const TierChainConfig config =
        TierChainConfig::parse("clique,lut,mwpm");
    ASSERT_EQ(config.tiers.size(), 3u);
    EXPECT_EQ(config.tiers[1].kind, DecoderTier::Lut);
    EXPECT_FALSE(config.tiers[1].offchip);
    EXPECT_EQ(config.describe(), "clique>lut>mwpm");
    EXPECT_STREQ(decoder_tier_name(DecoderTier::Lut), "lut");
}

} // namespace
} // namespace btwc
