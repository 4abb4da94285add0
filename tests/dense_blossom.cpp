#include "dense_blossom.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace btwc {

namespace {
constexpr int64_t kInf = int64_t(1) << 62;
}

DenseMaxWeightMatching::DenseMaxWeightMatching(int n)
    : n_(n), n_x_(n)
{
    const int size = 2 * n_ + 1;
    g_.assign(size, std::vector<Edge>(size));
    for (int u = 0; u < size; ++u) {
        for (int v = 0; v < size; ++v) {
            g_[u][v] = Edge{u, v, 0};
        }
    }
    lab_.assign(size, 0);
    match_.assign(size, 0);
    slack_.assign(size, 0);
    st_.assign(size, 0);
    pa_.assign(size, 0);
    s_.assign(size, -1);
    vis_.assign(size, 0);
    flower_.assign(size, {});
    flower_from_.assign(size, std::vector<int>(n_ + 1, 0));
}

void
DenseMaxWeightMatching::set_weight(int u, int v, int64_t w)
{
    g_[u + 1][v + 1].w = w;
    g_[v + 1][u + 1].w = w;
}

int64_t
DenseMaxWeightMatching::edge_delta(const Edge &e) const
{
    return lab_[e.u] + lab_[e.v] - g_[e.u][e.v].w * 2;
}

void
DenseMaxWeightMatching::update_slack(int u, int x)
{
    if (!slack_[x] || edge_delta(g_[u][x]) < edge_delta(g_[slack_[x]][x])) {
        slack_[x] = u;
    }
}

void
DenseMaxWeightMatching::set_slack(int x)
{
    slack_[x] = 0;
    for (int u = 1; u <= n_; ++u) {
        if (g_[u][x].w > 0 && st_[u] != x && s_[st_[u]] == 0) {
            update_slack(u, x);
        }
    }
}

void
DenseMaxWeightMatching::queue_push(int x)
{
    if (x <= n_) {
        queue_.push_back(x);
        return;
    }
    for (const int sub : flower_[x]) {
        queue_push(sub);
    }
}

void
DenseMaxWeightMatching::set_st(int x, int b)
{
    st_[x] = b;
    if (x <= n_) {
        return;
    }
    for (const int sub : flower_[x]) {
        set_st(sub, b);
    }
}

int
DenseMaxWeightMatching::get_pr(int b, int xr)
{
    auto &f = flower_[b];
    const int pr = static_cast<int>(
        std::find(f.begin(), f.end(), xr) - f.begin());
    if (pr % 2 == 1) {
        // Walk the cycle the other way so the path to xr is even.
        std::reverse(f.begin() + 1, f.end());
        return static_cast<int>(f.size()) - pr;
    }
    return pr;
}

void
DenseMaxWeightMatching::set_match(int u, int v)
{
    match_[u] = g_[u][v].v;
    if (u <= n_) {
        return;
    }
    const Edge e = g_[u][v];
    const int xr = flower_from_[u][e.u];
    const int pr = get_pr(u, xr);
    for (int i = 0; i < pr; ++i) {
        set_match(flower_[u][i], flower_[u][i ^ 1]);
    }
    set_match(xr, v);
    std::rotate(flower_[u].begin(), flower_[u].begin() + pr,
                flower_[u].end());
}

void
DenseMaxWeightMatching::augment(int u, int v)
{
    for (;;) {
        const int xnv = st_[match_[u]];
        set_match(u, v);
        if (!xnv) {
            return;
        }
        set_match(xnv, st_[pa_[xnv]]);
        u = st_[pa_[xnv]];
        v = xnv;
    }
}

int
DenseMaxWeightMatching::get_lca(int u, int v)
{
    ++visit_stamp_;
    while (u || v) {
        if (u != 0) {
            if (vis_[u] == visit_stamp_) {
                return u;
            }
            vis_[u] = visit_stamp_;
            u = st_[match_[u]];
            if (u) {
                u = st_[pa_[u]];
            }
        }
        std::swap(u, v);
    }
    return 0;
}

void
DenseMaxWeightMatching::add_blossom(int u, int lca, int v)
{
    int b = n_ + 1;
    while (b <= n_x_ && st_[b]) {
        ++b;
    }
    if (b > n_x_) {
        ++n_x_;
    }
    lab_[b] = 0;
    s_[b] = 0;
    match_[b] = match_[lca];
    flower_[b].clear();
    flower_[b].push_back(lca);
    for (int x = u, y; x != lca; x = st_[pa_[y]]) {
        flower_[b].push_back(x);
        flower_[b].push_back(y = st_[match_[x]]);
        queue_push(y);
    }
    std::reverse(flower_[b].begin() + 1, flower_[b].end());
    for (int x = v, y; x != lca; x = st_[pa_[y]]) {
        flower_[b].push_back(x);
        flower_[b].push_back(y = st_[match_[x]]);
        queue_push(y);
    }
    set_st(b, b);
    for (int x = 1; x <= n_x_; ++x) {
        g_[b][x].w = 0;
        g_[x][b].w = 0;
    }
    for (int x = 1; x <= n_; ++x) {
        flower_from_[b][x] = 0;
    }
    for (const int xs : flower_[b]) {
        for (int x = 1; x <= n_x_; ++x) {
            if (g_[xs][x].w > 0 &&
                (g_[b][x].w == 0 ||
                 edge_delta(g_[xs][x]) < edge_delta(g_[b][x]))) {
                g_[b][x] = g_[xs][x];
                g_[x][b] = g_[x][xs];
            }
        }
        for (int x = 1; x <= n_; ++x) {
            if (flower_from_[xs][x]) {
                flower_from_[b][x] = xs;
            }
        }
    }
    set_slack(b);
}

void
DenseMaxWeightMatching::expand_blossom(int b)
{
    for (const int sub : flower_[b]) {
        set_st(sub, sub);
    }
    const int xr = flower_from_[b][g_[b][pa_[b]].u];
    const int pr = get_pr(b, xr);
    for (int i = 0; i < pr; i += 2) {
        const int xs = flower_[b][i];
        const int xns = flower_[b][i + 1];
        pa_[xs] = g_[xns][xs].u;
        s_[xs] = 1;
        s_[xns] = 0;
        slack_[xs] = 0;
        set_slack(xns);
        queue_push(xns);
    }
    s_[xr] = 1;
    pa_[xr] = pa_[b];
    for (size_t i = static_cast<size_t>(pr) + 1; i < flower_[b].size();
         ++i) {
        const int xs = flower_[b][i];
        s_[xs] = -1;
        set_slack(xs);
    }
    st_[b] = 0;
}

bool
DenseMaxWeightMatching::on_found_edge(const Edge &e)
{
    const int u = st_[e.u];
    const int v = st_[e.v];
    if (s_[v] == -1) {
        // Grow: attach the free matched pair (v, match(v)) to the tree.
        pa_[v] = e.u;
        s_[v] = 1;
        const int nu = st_[match_[v]];
        slack_[v] = 0;
        slack_[nu] = 0;
        s_[nu] = 0;
        queue_push(nu);
    } else if (s_[v] == 0) {
        const int lca = get_lca(u, v);
        if (!lca) {
            augment(u, v);
            augment(v, u);
            return true;
        }
        add_blossom(u, lca, v);
    }
    return false;
}

bool
DenseMaxWeightMatching::matching_phase()
{
    std::fill(s_.begin(), s_.end(), -1);
    std::fill(slack_.begin(), slack_.end(), 0);
    queue_.clear();
    queue_head_ = 0;
    for (int x = 1; x <= n_x_; ++x) {
        if (st_[x] == x && !match_[x]) {
            pa_[x] = 0;
            s_[x] = 0;
            queue_push(x);
        }
    }
    if (queue_.empty()) {
        return false;
    }
    for (;;) {
        while (queue_head_ < queue_.size()) {
            const int u = queue_[queue_head_++];
            if (s_[st_[u]] == 1) {
                continue;
            }
            for (int v = 1; v <= n_; ++v) {
                if (g_[u][v].w > 0 && st_[u] != st_[v]) {
                    if (edge_delta(g_[u][v]) == 0) {
                        if (on_found_edge(g_[u][v])) {
                            return true;
                        }
                    } else {
                        update_slack(u, st_[v]);
                    }
                }
            }
        }
        int64_t d = kInf;
        for (int b = n_ + 1; b <= n_x_; ++b) {
            if (st_[b] == b && s_[b] == 1) {
                d = std::min(d, lab_[b] / 2);
            }
        }
        for (int x = 1; x <= n_x_; ++x) {
            if (st_[x] == x && slack_[x]) {
                if (s_[x] == -1) {
                    d = std::min(d, edge_delta(g_[slack_[x]][x]));
                } else if (s_[x] == 0) {
                    d = std::min(d, edge_delta(g_[slack_[x]][x]) / 2);
                }
            }
        }
        for (int u = 1; u <= n_; ++u) {
            if (s_[st_[u]] == 0) {
                if (lab_[u] <= d) {
                    return false;
                }
                lab_[u] -= d;
            } else if (s_[st_[u]] == 1) {
                lab_[u] += d;
            }
        }
        for (int b = n_ + 1; b <= n_x_; ++b) {
            if (st_[b] == b) {
                if (s_[b] == 0) {
                    lab_[b] += d * 2;
                } else if (s_[b] == 1) {
                    lab_[b] -= d * 2;
                }
            }
        }
        queue_.clear();
        queue_head_ = 0;
        for (int x = 1; x <= n_x_; ++x) {
            if (st_[x] == x && slack_[x] && st_[slack_[x]] != x &&
                edge_delta(g_[slack_[x]][x]) == 0) {
                if (on_found_edge(g_[slack_[x]][x])) {
                    return true;
                }
            }
        }
        for (int b = n_ + 1; b <= n_x_; ++b) {
            if (st_[b] == b && s_[b] == 1 && lab_[b] == 0) {
                expand_blossom(b);
            }
        }
    }
}

std::vector<int>
DenseMaxWeightMatching::solve()
{
    std::fill(match_.begin(), match_.end(), 0);
    n_x_ = n_;
    for (int u = 0; u < static_cast<int>(st_.size()); ++u) {
        st_[u] = u <= n_ ? u : 0;
        flower_[u].clear();
    }
    int64_t w_max = 0;
    for (int u = 1; u <= n_; ++u) {
        for (int v = 1; v <= n_; ++v) {
            flower_from_[u][v] = (u == v ? u : 0);
            w_max = std::max(w_max, g_[u][v].w);
        }
    }
    for (int u = 1; u <= n_; ++u) {
        lab_[u] = w_max;
    }
    while (matching_phase()) {
    }
    std::vector<int> mate(n_, -1);
    for (int u = 1; u <= n_; ++u) {
        mate[u - 1] = match_[u] ? match_[u] - 1 : -1;
    }
    return mate;
}

std::vector<int>
dense_min_weight_perfect_matching(
    int n, const std::vector<std::vector<int64_t>> &weights)
{
    BTWC_CHECK(n % 2 == 0);
    if (n == 0) {
        return {};
    }
    int64_t total = 0;
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            if (weights[u][v] >= 0) {
                total += weights[u][v];
            }
        }
    }
    const int64_t big = total + 1;
    DenseMaxWeightMatching solver(n);
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            if (weights[u][v] >= 0) {
                solver.set_weight(u, v, big - weights[u][v]);
            }
        }
    }
    std::vector<int> mate = solver.solve();
    for (int u = 0; u < n; ++u) {
        if (mate[u] < 0) {
            return {};
        }
    }
    return mate;
}

int64_t
dense_boundary_matching_cost(const std::vector<std::vector<int64_t>> &dist,
                             const std::vector<int64_t> &boundary)
{
    const int k = static_cast<int>(boundary.size());
    const int n = 2 * k;
    std::vector<std::vector<int64_t>> w(n, std::vector<int64_t>(n, -1));
    for (int i = 0; i < k; ++i) {
        for (int j = i + 1; j < k; ++j) {
            w[i][j] = w[j][i] = dist[i][j];
            w[k + i][k + j] = w[k + j][k + i] = 0;
        }
        w[i][k + i] = w[k + i][i] = boundary[i];
    }
    const std::vector<int> mate = dense_min_weight_perfect_matching(n, w);
    BTWC_CHECK(static_cast<int>(mate.size()) == n);
    int64_t cost = 0;
    for (int u = 0; u < n; ++u) {
        if (mate[u] > u) {
            cost += w[u][mate[u]];
        }
    }
    return cost;
}

} // namespace btwc
