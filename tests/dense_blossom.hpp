#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace btwc {

/**
 * Dense O(V^3) maximum-weight matching: the reference solver the
 * edge-list `MaxWeightMatching` is pinned against.
 *
 * Classic primal-dual weighted blossom algorithm (Galil's exposition)
 * over a (2n+1)^2 edge matrix: dual variables on vertices and
 * (shrunken) odd cycles, alternating trees grown over tight edges,
 * with grow / augment / shrink / expand phases. Weights are
 * non-negative integers; a zero weight means "no edge". All weights
 * are doubled internally so the duals stay integral. It shares no code
 * with the production engine, which is what makes it a useful oracle.
 */
class DenseMaxWeightMatching
{
  public:
    /** An edgeless graph on n vertices. */
    explicit DenseMaxWeightMatching(int n);

    /** Set the weight of edge (u, v); w > 0, w == 0 removes. */
    void set_weight(int u, int v, int64_t w);

    /** Run the matching: the mate of each vertex, or -1. */
    std::vector<int> solve();

  private:
    struct Edge
    {
        int u = 0;
        int v = 0;
        int64_t w = 0;
    };

    int64_t edge_delta(const Edge &e) const;
    void update_slack(int u, int x);
    void set_slack(int x);
    void queue_push(int x);
    void set_st(int x, int b);
    int get_pr(int b, int xr);
    void set_match(int u, int v);
    void augment(int u, int v);
    int get_lca(int u, int v);
    void add_blossom(int u, int lca, int v);
    void expand_blossom(int b);
    bool on_found_edge(const Edge &e);
    bool matching_phase();

    int n_ = 0;    ///< number of real vertices
    int n_x_ = 0;  ///< real vertices plus live blossoms

    std::vector<std::vector<Edge>> g_;
    std::vector<int64_t> lab_;
    std::vector<int> match_, slack_, st_, pa_, s_, vis_;
    std::vector<std::vector<int>> flower_, flower_from_;
    std::vector<int> queue_;
    size_t queue_head_ = 0;
    int visit_stamp_ = 0;
};

/**
 * Minimum-weight perfect matching through the dense solver (weights as
 * in `min_weight_perfect_matching`: < 0 marks a missing edge); empty
 * when no perfect matching exists.
 */
std::vector<int> dense_min_weight_perfect_matching(
    int n, const std::vector<std::vector<int64_t>> &weights);

/**
 * Optimal cost of the MWPM decoder's pairing problem on the complete
 * doubled graph: k defects with pairwise distances `dist` (k x k),
 * each retirable to the boundary at cost `boundary[i]`, boundary twins
 * joined by a zero-cost clique. Solved densely with no pruning.
 */
int64_t dense_boundary_matching_cost(
    const std::vector<std::vector<int64_t>> &dist,
    const std::vector<int64_t> &boundary);

} // namespace btwc
