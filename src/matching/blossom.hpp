#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace btwc {

/**
 * Maximum-weight matching on an edge list.
 *
 * Primal-dual weighted blossom algorithm in Galil's exposition, laid
 * out as in Van Rantwijk's `mwmatching`: dual variables on vertices
 * and (shrunken) odd cycles, alternating trees grown over tight edges,
 * with grow / augment / shrink / expand steps and per-blossom lists of
 * least-slack edges to neighbouring S-blossoms. It returns a matching
 * of maximum total weight, leaving a vertex exposed whenever matching
 * it would not add weight; for a maximum-weight *perfect* matching
 * raise every weight by a uniform offset (see
 * `min_weight_perfect_matching`). Integer weights keep every dual
 * integral.
 *
 * Trees are kept across augmentations, the multi-tree scheme of LEMON
 * and Blossom V: an augmentation dissolves only the two trees it
 * joins, expands their zero-dual S-blossoms and frees their vertices,
 * while every other tree keeps its labels and least-slack edges. Every
 * exposed vertex therefore roots a live tree from the first dual step
 * to the last, so a solve runs one stage: the roots are labelled once,
 * and the solve ends when the smallest vertex dual reaches zero.
 *
 * No dual step and no augmentation sweeps every vertex. Each tree
 * root keeps a flat list of its members, so a dissolution visits only
 * the two joined trees and their vertices' edges. Every vertex or
 * top-level blossom that holds a dual-step candidate (an "owner") has
 * a due time relative to D, the summed dual steps so far: D + slack
 * for a free owner's least-slack edge to an S-blossom, D + slack / 2
 * for an S owner's, D + dual for a T-blossom. Due times do not move
 * when a dual step runs, so they are re-derived only for the owners
 * whose labels or least-slack edges changed since the last step (a
 * touched list, which also holds the owners whose edge ended in a
 * dissolved tree). A dual step is then a branch-free minimum over the
 * due times of the vertices and of the blossom ids in use, and the
 * dual update a branch-free pass over their signs (-1 for an
 * S-vertex, +1 for a T-vertex, and the reverse for top-level
 * blossoms). The smallest vertex dual needs no array: the
 * exposed roots hold it, at max_weight - D. The trajectory (tie
 * selection included) is that of a full sweep, which
 * AuditLevel::Deep re-derives and checks at every dual step. There
 * are at most n/2 augmentations and O(n) dual steps between two of
 * them; the bound stays O(n (n^2 + m)) with m the edge count, far
 * below the O(n^3) a dense solver pays regardless of m on the sparse
 * savings graphs `MwpmDecoder` builds.
 *
 * Data layout: edges are kept in insertion order; `solve()` builds a
 * CSR adjacency (each vertex lists its edges in insertion order, which
 * fixes tie selection), and every per-vertex, per-blossom and per-edge
 * array is pooled. `reset(n)` plus `solve()` re-arm in O(n + m): the
 * grown capacity of a larger earlier instance is never touched.
 *
 * This is the engine behind the paper's off-chip Minimum Weight
 * Perfect Matching decoder [19]. Correctness is property-tested
 * against the brute-force oracles in `matching/exact.hpp` and tests/
 * and against a dense O(V^3) reference solver kept under tests/.
 */
class MaxWeightMatching
{
  public:
    /** Create an empty solver; call `reset(n)` before use. */
    MaxWeightMatching() = default;

    /** Create an edgeless graph on n vertices. */
    explicit MaxWeightMatching(int n);

    /**
     * Re-arm the solver for a fresh n-vertex instance with no edges.
     * Capacity grown by earlier instances is kept, so once the solver
     * has seen its largest instance, reset/add_edge/solve cycles are
     * allocation-free. The result is indistinguishable from a freshly
     * constructed MaxWeightMatching(n).
     */
    void reset(int n);

    /**
     * Append edge (u, v) of weight w (any sign; a negative-weight edge
     * is never matched). u != v, both below n; an edge must not be
     * inserted twice. Insertion order breaks ties between equal-weight
     * matchings. `solve()` checks the endpoints under AuditLevel::Basic.
     */
    void add_edge(int u, int v, int64_t w)
    {
        endpoint_.push_back(u);
        endpoint_.push_back(v);
        weight_.push_back(w);
    }

    /**
     * Run the matching. Returns the mate of each vertex (or -1); the
     * reference stays valid until the next reset/solve. Under
     * AuditLevel::Deep the optimality certificate is checked before
     * returning (see `audit_optimum`).
     */
    const std::vector<int> &solve();

    /** Total weight of the matching computed by `solve()`. */
    int64_t total_weight() const { return total_weight_; }

    /**
     * Verify the optimality certificate of the last `solve()` by
     * complementary slackness, as `mwmatching`'s verifyOptimum does:
     * mates are mutual and lie on edges; every edge has slack >= 0
     * (vertex duals plus the duals of blossoms holding both ends) and
     * every matched edge is tight; vertex and blossom duals are >= 0,
     * every exposed vertex has dual 0, and every blossom with a
     * positive dual is full (all but its base matched inside it).
     * Together these prove the matching has maximum weight. Throws
     * CheckFailure.
     */
    void audit_optimum() const;

  private:
    friend struct MaxWeightMatchingTestPeer;  ///< test-only hooks

    int64_t slack(int k) const
    {
        return dual_[endpoint_[2 * k]] + dual_[endpoint_[2 * k + 1]] -
               2 * weight_[k];
    }
    /** Index into a blossom's cyclic child list; j in (-len, len). */
    static size_t wrap(int j, size_t len)
    {
        return j < 0 ? static_cast<size_t>(j) + len : static_cast<size_t>(j);
    }

    template <class F> void for_each_leaf(int b, F &f) const;
    int first_labeled_leaf(int b) const;
    void build_adjacency();
    void assign_label(int w, int p);
    int scan_blossom(int v, int w);
    void add_blossom(int base, int k);
    void consider_best_edge(int b, int k);
    void expand_blossom(int b, bool dissolving);
    void augment_blossom(int b, int v);
    void augment_matching(int k);
    void unlabel(int b);
    void rebuild_best_edge(int b);
    void dissolve_trees(int r1, int r2);
    void scan_vertex(int v);
    /** Queue owner o for re-derivation at the next dual step. */
    void touch(int o)
    {
        if (!touched_flag_[o]) {
            touched_flag_[o] = 1;
            touched_.push_back(o);
        }
    }
    bool holds_best_edge(int o) const;
    bool best_edge_stale(int o) const;
    void derive_owner(int o, int64_t *sign, int64_t *due) const;
    void settle_owners();
    void audit_owners() const;
    void audit_dual_step(int64_t min_due) const;
    void run();

    int n_ = 0;  ///< vertices of the current instance

    // Edge k joins endpoint_[2k] and endpoint_[2k+1]; an endpoint id
    // p names vertex endpoint_[p], and p ^ 1 is the edge's other end.
    std::vector<int> endpoint_;
    std::vector<int64_t> weight_;
    std::vector<int> adj_begin_;  ///< n + 1 CSR offsets into adj_
    std::vector<int> adj_;        ///< remote endpoint ids per vertex

    // Per vertex (n): mate endpoint id (or -1) and top-level blossom.
    std::vector<int> mate_;
    std::vector<int> in_blossom_;
    // Per vertex or blossom (2n; blossom ids are n..2n-1).
    std::vector<int> label_;      ///< 0 free, 1 S, 2 T (5 while scanning)
    std::vector<int> label_end_;  ///< endpoint id the label came through
    std::vector<int> blossom_parent_;
    std::vector<int> blossom_base_;
    std::vector<int> best_edge_;  ///< least-slack edge to an S-blossom
    std::vector<int> tree_root_;  ///< root vertex of a labelled blossom's tree
    std::vector<int64_t> dual_;   ///< twice the vertex duals; blossom z
    std::vector<std::vector<int>> blossom_childs_;  ///< odd cycle
    std::vector<std::vector<int>> blossom_endps_;   ///< cycle endpoints
    std::vector<std::vector<int>> blossom_best_;    ///< best-edge lists
    std::vector<uint8_t> has_blossom_best_;  ///< blossom_best_ is live
    std::vector<int> unused_blossoms_;
    std::vector<uint8_t> allow_edge_;  ///< per edge: known tight
    std::vector<int> queue_;           ///< S-vertices to scan (a stack)
    std::vector<int> scan_path_;       ///< scan_blossom scratch
    std::vector<int> best_edge_to_;    ///< add_blossom scratch (2n)
    std::vector<int> freed_;           ///< dissolve_trees scratch
    /// Per tree root (n): the vertices that joined its tree. A vertex
    /// that left stays listed; dissolve_trees filters by label.
    std::vector<std::vector<int>> tree_members_;
    // Per owner, a vertex or blossom (2n): the dual-step candidate as
    // 2 * due time (+1 for a T-blossom, so edges win ties), or kNoDue,
    // and the sign its dual moves by per unit of dual step. Set when
    // the owner is settled; blossom ids below blossom_lo_ are unread.
    std::vector<int64_t> due_;
    std::vector<int64_t> sign_;
    std::vector<uint8_t> touched_flag_;
    std::vector<int> touched_;  ///< owners to re-derive (a set)
    int64_t delta_sum_ = 0;     ///< D: the dual steps summed so far
    int64_t max_weight_ = 0;    ///< type 1 is due at D == max_weight_
    int blossom_lo_ = 0;        ///< lowest blossom id taken (2n: none)
    std::vector<int> mate_vertex_;     ///< solve() result (n)
    int64_t total_weight_ = 0;
    // Structure counters since reset(), read by the tests that force
    // nesting and expansion.
    int blossoms_formed_ = 0;
    int nested_blossoms_ = 0;  ///< children that were blossoms
    int t_expansions_ = 0;     ///< T-blossoms expanded mid-stage
    int s_expansions_ = 0;     ///< zero-dual S-blossoms of dissolved trees
    int stages_ = 0;           ///< times every exposed vertex was rooted
    int augmentations_ = 0;
    int dual_steps_ = 0;       ///< dual-step selections, the last included
};

/**
 * Minimum-weight perfect matching on a (possibly sparse) graph.
 *
 * @param n      vertex count (must be even for a perfect matching)
 * @param weights dense n x n matrix; weights[u][v] < 0 marks a missing
 *               edge, any value >= 0 is a usable edge weight
 * @return mate vector (mate[u] == v), or an empty vector if no perfect
 *         matching exists
 *
 * Reduction: edge weight L - w with the uniform offset
 * L = (n/2) * max_w + 1. Adding one more edge then always outweighs
 * any difference in costs, so the maximum-weight matching has maximum
 * cardinality (perfect when a perfect matching exists), and among
 * perfect matchings the one of maximum weight has minimum cost.
 */
std::vector<int> min_weight_perfect_matching(
    int n, const std::vector<std::vector<int64_t>> &weights);

} // namespace btwc
